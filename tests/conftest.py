"""Shared fixtures."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest
from hypothesis import settings

from fatpoints import gfprime
from fatpoints.interp import effective_dim
from fatpoints.syscore import parse_system

# CI runs with --hypothesis-profile=ci: a failing property test then prints
# a blob that @reproduce_failure replays.
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def criterion_8_run():
    """The criterion-8 rank, L3(30,5^120) in one trial at seed 20248, run
    once per session: its report, its wall time, the prime and pivot
    columns of each 4200 x 5456 elimination it ran, and for each leaf
    probe whether it found no zero pivot (the leaf's product path)."""
    pivots, probes = [], []
    inner, lu = gfprime._rank_with_pivots, gfprime._lu_no_pivot

    def recorded(a, p):
        rank, pivs = inner(a, p)
        pivots.append((p, pivs))
        return rank, pivs

    def probed(b, p):
        out = lu(b, p)
        probes.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfprime, "_rank_with_pivots", recorded)
        mp.setattr(gfprime, "_lu_no_pivot", probed)
        start = time.perf_counter()
        report = effective_dim(parse_system("L3(30,5^120)"), trials=1, seed=20248)
        elapsed = time.perf_counter() - start
    return SimpleNamespace(report=report, elapsed=elapsed, pivots=pivots, probes=probes)
