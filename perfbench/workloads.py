"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload builds its inputs once from the seed, then runs the same
work on every repetition.  A repetition returns one (label, ok) pair per
verification; the harness counts them into `attempted` and `failed`.

Calls into the package go through module attributes (`interp.effective_dim`,
`pipeline.run_counterexample`, ...) so that the traced run, which patches
those attributes, sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from fatpoints import blowup, interp, pipeline
from fatpoints.blowup import DivisorClass
from fatpoints.gfprime import DEFAULT_PRIME
from fatpoints.syscore import FatPointSystem, parse_system

Check = tuple[str, bool]

# Primes of the three non-Mersenne elimination paths in gfprime: the float
# BLAS kernel for p < 2**23.5, the int64 row elimination below 2**31, and
# the Python-object elimination above.
REGIME_PRIMES = (1048573, 2**31 - 1, 2**40 - 87)

PLANAR_NAMED = ("L2(12,3^2,4^8)", "L2(9,2^2,3^8)", "L2(6,1^2,2^8)")
# The random planar systems are those of criterion 6; the workload seed only
# draws the points, so every seed does the same elimination work.
PLANAR_SYSTEMS_SEED = 20246


@dataclass
class Case:
    """One workload instance: `warm` runs once before timing, `rep` is timed."""

    warm: Callable[[], object]
    rep: Callable[[], list[Check]]


def counterexample(seed: int, smoke: bool) -> Case:
    """The nine-check proof; 15 effective_dim calls, 9 of them distinct."""
    cfg = pipeline.RunConfig(seed=seed % 2**64, trials=1 if smoke else 3)
    first: list[str] = []

    def rep() -> list[Check]:
        report = pipeline.run_counterexample(cfg)
        text = pipeline.report_to_json(report)
        if not first:
            first.append(text)
        return [("verdict is pass", report.verdict), ("report bytes repeat", text == first[0])]

    # the warm-up repetition fixes the reference bytes every timed one must match
    return Case(warm=rep, rep=rep)


def large_rank(seed: int, smoke: bool) -> Case:
    """The criterion-8 system L3(30,5^120): a 4200 x 5456 rank at 2**61-1."""
    points = 8 if smoke else 120
    system = FatPointSystem(3, 30, (5,) * points)
    want_rank = 35 * points
    want_h0 = system.monomial_count() - want_rank

    def rep() -> list[Check]:
        r = interp.effective_dim(system, trials=1, seed=seed, prime=DEFAULT_PRIME)
        return [(f"rank {want_rank}, h0 {want_h0}", (r.rank, r.h0) == (want_rank, want_h0))]

    # Same degree with few points: fills the monomial caches for degree 30
    # and starts the BLAS threads without paying for a second full rank.
    warm_system = FatPointSystem(3, 30, (5,) * 4)
    return Case(
        warm=lambda: interp.effective_dim(warm_system, trials=1, seed=seed),
        rep=rep,
    )


def _planar_systems(seed: int, count: int) -> list[tuple[FatPointSystem, int]]:
    """The criterion-6 sweep: named images plus random planar systems, each
    with a point seed drawn from the workload seed."""
    systems = [parse_system(lit) for lit in PLANAR_NAMED]
    shapes = random.Random(PLANAR_SYSTEMS_SEED)
    for _ in range(count):
        r = shapes.randint(2, 10)
        d = shapes.randint(0, 15)
        systems.append(FatPointSystem(2, d, tuple(shapes.randint(0, 4) for _ in range(r))))
        shapes.randrange(2**32)  # criterion 6's own point seed, replaced below
    points = random.Random(seed)
    return [(system, points.randrange(2**32)) for system in systems]


def _sweep(systems: list[tuple[FatPointSystem, int]]) -> list[Check]:
    checks = []
    for system, point_seed in systems:
        predicted = blowup.hh_predict_special(
            DivisorClass(2, system.degree, system.mults)
        ).special
        actual = interp.effective_dim(system, trials=2, seed=point_seed).special
        checks.append((f"predictor agrees on {system}", predicted == actual))
    return checks


def planar_sweep(seed: int, smoke: bool) -> Case:
    """3 named and 200 random planar systems through the predictor and the oracle."""
    systems = _planar_systems(seed, 20 if smoke else 200)
    warm = _planar_systems(seed + 1, 10)
    return Case(warm=lambda: _sweep(warm), rep=lambda: _sweep(systems))


def prime_regimes(seed: int, smoke: bool) -> Case:
    """One L3 system with quintuple points, ranked once at each regime prime.

    L3(10,5^8) is 280 x 286; degree 10 keeps every line through two of the
    points out of the base locus, so the generic rank is min(280, 286).
    """
    system = FatPointSystem(3, 10, (5,) * (2 if smoke else 8))

    def run(sys_: FatPointSystem) -> list[Check]:
        generic = min(sys_.condition_count(), sys_.monomial_count())
        checks = []
        for p in REGIME_PRIMES:
            r = interp.effective_dim(sys_, trials=1, seed=seed, prime=p)
            checks.append((f"generic rank at p={p}", r.rank == generic))
        return checks

    warm_system = FatPointSystem(3, 10, (5,))
    return Case(warm=lambda: run(warm_system), rep=lambda: run(system))


WORKLOADS: dict[str, Callable[[int, bool], Case]] = {
    "counterexample": counterexample,
    "large-rank": large_rank,
    "planar-sweep": planar_sweep,
    "prime-regimes": prime_regimes,
}
