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
    sweep (_lu_top) its (pivots, columns, row swaps)."""
    pivots, sweeps = [], []
    inner, top = gfprime._rank_with_pivots, gfprime._lu_top

    def recorded(a, p):
        rank, pivs = inner(a, p)
        pivots.append((p, pivs))
        return rank, pivs

    def swept(b, p):
        out = top(b, p)
        sweeps.append((out[0], len(b[0]), out[1]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfprime, "_rank_with_pivots", recorded)
        mp.setattr(gfprime, "_lu_top", swept)
        start = time.perf_counter()
        report = effective_dim(parse_system("L3(30,5^120)"), trials=1, seed=20248)
        elapsed = time.perf_counter() - start
    return SimpleNamespace(report=report, elapsed=elapsed, pivots=pivots, sweeps=sweeps)
