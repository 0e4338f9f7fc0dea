"""Top-level acceptance checks, one per advertised capability.

Each test prints a single PASS/FAIL line so a log scrape shows the
verdicts at a glance, then asserts so pytest agrees with the print.
"""

from __future__ import annotations

import itertools
import random

from fatpoints.blowup import (
    DivisorClass,
    EnumBounds,
    canonical,
    derive_search_bounds,
    enumerate_neg_curves,
    format_class,
    genus_planar,
    hh_predict_special,
    intersect3,
    parse_class,
    speciality_defect,
    vdim_rr,
)
from fatpoints.interp import OnQuadric, effective_dim, fixed_component_test
from fatpoints.syscore import FatPointSystem, parse_system, residual, vdim


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    assert ok, f"{name}: {detail}"


VDIM_TABLE = [
    ("L3(9,6,4^8)", 3),
    ("L3(7,5,3^8)", 4),
    ("L3(5,4,2^8)", 3),
    ("L3(3,3,1^8)", 1),
    ("L3(4,2^9)", -2),
    ("L2(12,3^2,4^8)", -2),
    ("L2(9,2^2,3^8)", 0),
    ("L2(6,1^2,2^8)", 1),
]

H0_TABLE = [
    ("L2(12,3^2,4^8)", 0),
    ("L2(9,2^2,3^8)", 1),
    ("L2(6,1^2,2^8)", 2),
    ("L3(9,6,4^8)", 5),
    ("L3(7,5,3^8)", 5),
    ("L3(5,4,2^8)", 4),
    ("L3(3,3,1^8)", 2),
    ("L3(4,2^9)", 1),
]


def test_criterion_1_virtual_dimension_table():
    observed = [(lit, vdim(parse_system(lit))) for lit, _ in VDIM_TABLE]
    ok = observed == VDIM_TABLE
    _report(
        "virtual-dimension-table",
        ok,
        "; ".join(f"{lit}={v}" for lit, v in observed),
    )


def test_criterion_2_effective_dimensions_and_central_claim():
    seed = 20240
    results = {lit: effective_dim(parse_system(lit), seed=seed) for lit, _ in H0_TABLE}
    h0_ok = all(results[lit].h0 == want for lit, want in H0_TABLE)
    rep = results["L3(9,6,4^8)"]
    claim_ok = rep.edim_actual == 4 and rep.vdim == 3 and rep.special
    _report(
        "rank-oracle-dimensions",
        h0_ok and claim_ok,
        "h0 "
        + ",".join(str(results[lit].h0) for lit, _ in H0_TABLE)
        + f"; edim {rep.edim_actual} > vdim {rep.vdim} so the big system is special",
    )


def test_criterion_3_fixed_component_chain():
    seed = 20243
    big = parse_system("L3(9,6,4^8)")
    quad = parse_system("L3(2,1,1^8)")
    first = fixed_component_test(big, quad, seed=seed)
    h0_peel1 = effective_dim(residual(big, quad), seed=seed).h0

    on_q9 = OnQuadric(through=tuple(range(9)))
    ext7 = FatPointSystem(3, 7, (5,) + (3,) * 8 + (1,))
    quad10 = FatPointSystem(3, 2, (1,) * 10)
    cons10 = (None,) * 9 + (on_q9,)
    second = fixed_component_test(ext7, quad10, seed=seed, constraints=cons10)
    h0_peel2 = effective_dim(residual(ext7, quad10), seed=seed, constraints=cons10).h0

    ext5 = FatPointSystem(3, 5, (4,) + (2,) * 8 + (1, 1))
    quad11 = FatPointSystem(3, 2, (1,) * 11)
    cons11 = (None,) * 9 + (on_q9, on_q9)
    third = fixed_component_test(ext5, quad11, seed=seed, constraints=cons11)
    h0_peel3 = effective_dim(residual(ext5, quad11), seed=seed, constraints=cons11).h0

    plane = FatPointSystem(3, 1, (1,) + (0,) * 8)
    control = fixed_component_test(parse_system("L3(3,3,1^8)"), plane, seed=seed)

    ok = (
        first
        and second
        and third
        and not control
        and (h0_peel1, h0_peel2, h0_peel3) == (5, 4, 2)
    )
    _report(
        "fixed-component-chain",
        ok,
        f"quadric fixed {first}/{second}/{third}, plane control {control}, "
        f"residual h0 {h0_peel1}->{h0_peel2}->{h0_peel3}",
    )


def test_criterion_4_chow_riemann_roch():
    q = parse_class("[2;1,1^8]", 3)
    mobile = parse_class("[7;5,3^8]", 3)
    lk = q + mobile - canonical(3, 9)
    triple = intersect3(q, mobile, lk)
    defect = speciality_defect(q, mobile)

    dbl = parse_class("[4;2^9]", 3)
    zero = DivisorClass(3, 0, (0,) * 9)
    cross_dbl = intersect3(dbl, zero, dbl + zero - canonical(3, 9))
    defect_dbl = speciality_defect(dbl, zero)

    rng = random.Random(20244)
    agree = 0
    for _ in range(1000):
        r = rng.randint(0, 10)
        d = rng.randint(0, 12)
        m = tuple(rng.randint(0, 6) for _ in range(r))
        if vdim_rr(DivisorClass(3, d, m)) == vdim(FatPointSystem(3, d, m)):
            agree += 1

    splits = 0
    for _ in range(1000):
        r = rng.randint(0, 9)
        f = DivisorClass(3, rng.randint(0, 8), tuple(rng.randint(-2, 5) for _ in range(r)))
        m2 = DivisorClass(3, rng.randint(0, 8), tuple(rng.randint(-2, 5) for _ in range(r)))
        cross2 = intersect3(f, m2, f + m2 - canonical(3, r))
        if cross2 % 2 == 0 and vdim_rr(f + m2) == vdim_rr(f) + vdim_rr(m2) + cross2 // 2:
            splits += 1

    ok = (
        triple == -2
        and defect == -1
        and cross_dbl == 0
        and defect_dbl == -2
        and agree == 1000
        and splits == 1000
    )
    _report(
        "chow-riemann-roch",
        ok,
        f"triple {triple}, defect {defect}, double-quadric defect {defect_dbl} "
        f"(cross {cross_dbl}), vdim agreement {agree}/1000, split identity {splits}/1000",
    )


def test_criterion_5_minus_one_class_searches():
    first_image = parse_class("[12;3^2,4^8]", 2)
    hits_a = enumerate_neg_curves(derive_search_bounds(first_image), first_image, -1)
    second_image = parse_class("[9;2^2,3^8]", 2)
    hits_b = enumerate_neg_curves(EnumBounds(9, 2, 3, symmetric_tail=True), second_image, -1)

    ok = (
        [format_class(h.cls) for h in hits_a] == ["[1;1^2,0^8]"]
        and [h.pairing for h in hits_a] == [6]
        and not any(h.flagged for h in hits_a)
        and [format_class(h.cls) for h in hits_b] == ["[1;1^2,0^8]"]
        and [h.pairing for h in hits_b] == [5]
        and not any(h.flagged for h in hits_b)
        and genus_planar(second_image) == 2
    )
    _report(
        "minus-one-class-search",
        ok,
        f"unique class {format_class(hits_a[0].cls)} pairs 6 and 5, "
        f"genus of the pairing-5 target is {genus_planar(second_image)}",
    )


def test_criterion_6_predictor_matches_oracle():
    seed = 20246
    mismatches = []

    planar = ["L2(12,3^2,4^8)", "L2(9,2^2,3^8)", "L2(6,1^2,2^8)"]
    for lit in planar:
        syst = parse_system(lit)
        cls = DivisorClass(2, syst.degree, syst.mults)
        predicted = hh_predict_special(cls).special
        actual = effective_dim(syst, trials=2, seed=seed).special
        if predicted != actual:
            mismatches.append(lit)

    rng = random.Random(seed)
    for _ in range(200):
        r = rng.randint(2, 10)
        d = rng.randint(0, 15)
        m = tuple(rng.randint(0, 4) for _ in range(r))
        syst = FatPointSystem(2, d, m)
        predicted = hh_predict_special(DivisorClass(2, d, m)).special
        actual = effective_dim(syst, trials=2, seed=rng.randrange(2**32)).special
        if predicted != actual:
            mismatches.append(f"L2({d};{m})")

    ok = not mismatches
    _report(
        "predictor-vs-oracle",
        ok,
        "agreement on 3 named + 200 random planar systems"
        if ok
        else f"mismatches: {mismatches[:5]}",
    )


def test_criterion_7_univariate_brute_force():
    checked = 0
    bad = []
    for d in range(7):
        for r in range(8):
            for mults in itertools.combinations_with_replacement((1, 2, 3), r):
                rep = effective_dim(FatPointSystem(1, d, mults), trials=2, seed=20247)
                want = max(d + 1 - sum(mults), 0)
                checked += 1
                if rep.h0 != want:
                    bad.append((d, mults, rep.h0, want))
    ok = not bad
    _report(
        "univariate-brute-force",
        ok,
        f"{checked} systems exhaustive" if ok else f"first failures: {bad[:3]}",
    )


def test_criterion_8_large_rank_within_budget(criterion_8_run):
    rep, elapsed = criterion_8_run.report, criterion_8_run.elapsed
    ok = (
        elapsed <= 10.0
        and rep.monomials == 5456
        and rep.conditions == 4200
        and rep.rank == 4200
        and rep.h0 == 1256
    )
    _report(
        "large-rank-budget",
        ok,
        f"{rep.conditions}x{rep.monomials} matrix, rank {rep.rank}, h0 {rep.h0}, {elapsed:.2f}s",
    )
