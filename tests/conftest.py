"""Shared fixtures."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from fatpoints import gfprime
from fatpoints.interp import effective_dim
from fatpoints.syscore import parse_system


@pytest.fixture(scope="session")
def criterion_8_run():
    """The criterion-8 rank, L3(30,5^120) in one trial at seed 20248, run
    once per session: its report, its wall time, and the prime and pivot
    columns of each 4200 x 5456 elimination it ran."""
    pivots = []
    inner = gfprime._rank_with_pivots

    def recorded(a, p):
        rank, pivs = inner(a, p)
        pivots.append((p, pivs))
        return rank, pivs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfprime, "_rank_with_pivots", recorded)
        start = time.perf_counter()
        report = effective_dim(parse_system("L3(30,5^120)"), trials=1, seed=20248)
        elapsed = time.perf_counter() - start
    return SimpleNamespace(report=report, elapsed=elapsed, pivots=pivots)
