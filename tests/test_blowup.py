"""Intersection numbers, Euler characteristics, Cremona reduction and
(-1)-class searches on blow-ups of the plane and of space."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from fatpoints import blowup
from fatpoints.blowup import (
    DivisorClass,
    EnumBounds,
    canonical,
    chi_rr,
    cremona,
    cremona_reduce,
    derive_search_bounds,
    enumerate_neg_curves,
    format_class,
    genus_planar,
    hh_predict_special,
    intersect2,
    intersect3,
    is_minus_one_class,
    parse_class,
    speciality_defect,
    vdim_planar,
    vdim_rr,
)
from fatpoints.syscore import FatPointSystem, vdim


def test_class_literal_round_trip():
    for text, ambient in [
        ("[2;1,1^8]", 3),
        ("[12;3^2,4^8]", 2),
        ("[-4;-2^9]", 3),
        ("[0;0^5]", 2),
        ("[7]", 3),
    ]:
        cls = parse_class(text, ambient)
        assert parse_class(format_class(cls), ambient) == cls


def test_class_arithmetic():
    a = parse_class("[2;1,1^8]", 3)
    b = parse_class("[7;5,3^8]", 3)
    total = a + b
    assert total == parse_class("[9;6,4^8]", 3)
    assert total - b == a
    assert -a == parse_class("[-2;-1,-1^8]", 3)
    assert 2 * a == parse_class("[4;2,2^8]", 3)
    assert a * 3 == parse_class("[6;3,3^8]", 3)


def test_canonical_classes():
    assert canonical(2, 4) == DivisorClass(2, -3, (-1,) * 4)
    assert canonical(3, 9) == DivisorClass(3, -4, (-2,) * 9)
    assert canonical(3, 0) == DivisorClass(3, -4)
    assert canonical(2, np.int64(2)) == DivisorClass(2, -3, (-1, -1))
    with pytest.raises(ValueError, match="point count must be >= 0"):
        canonical(3, -1)
    with pytest.raises(TypeError):
        canonical(3, 9.0)
    with pytest.raises(ValueError, match="ambient dimension must be 2 or 3"):
        canonical(4, 1)


def test_generator_intersection_numbers():
    h = DivisorClass(2, 1, (0, 0))
    e0 = DivisorClass(2, 0, (-1, 0))
    e1 = DivisorClass(2, 0, (0, -1))
    assert intersect2(h, h) == 1
    assert intersect2(h, e0) == 0
    assert intersect2(e0, e0) == -1
    assert intersect2(e0, e1) == 0

    h3 = DivisorClass(3, 1, (0, 0))
    f0 = DivisorClass(3, 0, (-1, 0))
    f1 = DivisorClass(3, 0, (0, -1))
    assert intersect3(h3, h3, h3) == 1
    assert intersect3(f0, f0, f0) == 1
    assert intersect3(h3, h3, f0) == 0
    assert intersect3(h3, f0, f0) == 0
    assert intersect3(f0, f0, f1) == 0


def test_frozen_products_for_the_splitting():
    q = parse_class("[2;1,1^8]", 3)
    m = parse_class("[7;5,3^8]", 3)
    lk = parse_class("[13;8,6^8]", 3)
    assert q + m - canonical(3, 9) == lk
    assert intersect3(q, m, lk) == -2

    line = parse_class("[1;1^2,0^8]", 2)
    assert intersect2(line, parse_class("[12;3^2,4^8]", 2)) == 6
    assert intersect2(line, parse_class("[9;2^2,3^8]", 2)) == 5


def test_mismatched_classes_rejected():
    h1, h9 = parse_class("[1;0]", 3), parse_class("[1;0^9]", 3)
    p2, p3 = parse_class("[1;1,1]", 2), parse_class("[1;1,1]", 3)
    points = "point counts differ: 9 vs 1"
    with pytest.raises(ValueError, match=points):
        intersect3(h9, h1, h9)
    with pytest.raises(ValueError, match=points):
        intersect3(h9, h9, h1)
    with pytest.raises(ValueError, match="point counts differ: 2 vs 1"):
        intersect2(p2, parse_class("[1;1]", 2))
    with pytest.raises(ValueError, match=points):
        speciality_defect(h9, h1)
    with pytest.raises(ValueError, match="ambient dimensions differ: 2 vs 3"):
        intersect2(p2, p3)
    with pytest.raises(ValueError, match="ambient dimensions differ: 3 vs 2"):
        intersect3(p3, p3, p2)
    with pytest.raises(ValueError, match="ambient dimensions differ: 3 vs 2"):
        speciality_defect(p3, p2)
    # the first class fixes the space each function works on
    with pytest.raises(ValueError, match=r"triple products need P\^3 classes"):
        intersect3(p2, p3, p3)
    with pytest.raises(ValueError, match=r"pairings need P\^2 classes"):
        intersect2(p3, p2)
    with pytest.raises(ValueError, match=r"Riemann-Roch here is for blown-up P\^3 only"):
        chi_rr(p2)
    with pytest.raises(ValueError, match=r"speciality decomposition is for blown-up P\^3"):
        speciality_defect(p2, p3)


def test_euler_characteristic_matches_monomial_counts():
    for r in [0, 1, 9]:
        for d in range(7):
            cls = DivisorClass(3, d, (0,) * r)
            assert chi_rr(cls) == math.comb(d + 3, 3)


def test_euler_characteristic_frozen_values():
    assert chi_rr(parse_class("[7;5,3^8]", 3)) == 5
    assert chi_rr(parse_class("[4;2^9]", 3)) == -1
    assert vdim_rr(parse_class("[4;2^9]", 3)) == -2


def test_vdim_rr_agrees_with_condition_counting():
    rng = random.Random(123)
    for _ in range(1000):
        r = rng.randint(0, 10)
        d = rng.randint(0, 12)
        m = tuple(rng.randint(0, 6) for _ in range(r))
        assert vdim_rr(DivisorClass(3, d, m)) == vdim(FatPointSystem(3, d, m))


def test_splitting_identity_on_random_pairs():
    rng = random.Random(321)
    for _ in range(1000):
        r = rng.randint(0, 9)
        f = DivisorClass(3, rng.randint(0, 8), tuple(rng.randint(-2, 5) for _ in range(r)))
        m = DivisorClass(3, rng.randint(0, 8), tuple(rng.randint(-2, 5) for _ in range(r)))
        k = canonical(3, r)
        cross2 = intersect3(f, m, f + m - k)
        assert cross2 % 2 == 0
        lhs = vdim_rr(f + m)
        rhs = vdim_rr(f) + vdim_rr(m) + cross2 // 2
        assert lhs == rhs


def test_speciality_defect_frozen_values():
    q = parse_class("[2;1,1^8]", 3)
    m = parse_class("[7;5,3^8]", 3)
    assert speciality_defect(q, m) == -1
    double_quad = parse_class("[4;2^9]", 3)
    zero = DivisorClass(3, 0, (0,) * 9)
    assert speciality_defect(double_quad, zero) == -2
    assert intersect3(double_quad, zero, double_quad - canonical(3, 9)) == 0


def test_planar_vdim_matches_counting_and_survives_cremona():
    rng = random.Random(55)
    for _ in range(500):
        r = rng.randint(3, 9)
        d = rng.randint(0, 14)
        m = tuple(rng.randint(-2, 5) for _ in range(r))
        cls = DivisorClass(2, d, m)
        if all(x >= 0 for x in m):
            assert vdim_planar(cls) == vdim(FatPointSystem(2, d, m))
        i, j, k = rng.sample(range(r), 3)
        assert vdim_planar(cremona(cls, i, j, k)) == vdim_planar(cls)


def test_cremona_preserves_pairings():
    rng = random.Random(77)
    for _ in range(300):
        r = rng.randint(3, 8)
        a = DivisorClass(2, rng.randint(-4, 9), tuple(rng.randint(-3, 4) for _ in range(r)))
        b = DivisorClass(2, rng.randint(-4, 9), tuple(rng.randint(-3, 4) for _ in range(r)))
        i, j, k = rng.sample(range(r), 3)
        assert intersect2(cremona(a, i, j, k), cremona(b, i, j, k)) == intersect2(a, b)
        kcl = canonical(2, r)
        assert cremona(kcl, i, j, k) == kcl


def test_cremona_is_an_involution_and_validates_indices():
    cls = parse_class("[5;3,2,2,1]", 2)
    once = cremona(cls, 0, 1, 2)
    assert cremona(once, 0, 1, 2) == cls
    assert once == DivisorClass(2, 3, (1, 0, 0, 1))
    with pytest.raises(ValueError):
        cremona(cls, 0, 0, 1)
    with pytest.raises(ValueError):
        cremona(cls, 0, 1, 7)
    with pytest.raises(ValueError):
        cremona(parse_class("[2;1,1]", 2), 0, 1, 2)


def test_reduction_leaves_standard_classes_alone():
    std, strips = cremona_reduce(parse_class("[12;3^2,4^8]", 2))
    assert std == parse_class("[12;3^2,4^8]", 2)
    assert strips == []
    std, strips = cremona_reduce(parse_class("[3;1^9]", 2))
    assert std == parse_class("[3;1^9]", 2)
    assert strips == []


def test_reduction_strips_rigid_classes():
    cls = parse_class("[6;3,2^7]", 2)
    assert is_minus_one_class(cls)
    std, strips = cremona_reduce(cls)
    assert std.d == 0 and all(x == 0 for x in std.m)
    assert strips == [cls]


def test_reduction_strips_multiples():
    cls = parse_class("[2;2^2]", 2)
    std, strips = cremona_reduce(cls)
    assert std.d == 0 and all(x == 0 for x in std.m)
    assert len(strips) == 1
    s = strips[0]
    assert s.d == 2 and sorted(s.m, reverse=True)[:2] == [2, 2]


def test_reduction_detects_empty_systems():
    std, _ = cremona_reduce(parse_class("[2;2^5]", 2))
    assert std.d < 0


def test_minus_one_class_detection():
    assert is_minus_one_class(DivisorClass(2, 0, (0, -1, 0)))
    assert is_minus_one_class(parse_class("[1;1^2]", 2))
    assert is_minus_one_class(parse_class("[2;1^5]", 2))
    assert is_minus_one_class(parse_class("[6;3,2^7]", 2))
    assert not is_minus_one_class(parse_class("[1;1]", 2))
    assert not is_minus_one_class(parse_class("[3;2,1^5]", 2))
    assert not is_minus_one_class(parse_class("[0;0]", 2))


def test_enumeration_finds_the_expected_line():
    against_a2 = parse_class("[12;3^2,4^8]", 2)
    hits = enumerate_neg_curves(EnumBounds(6, 1, 2), against_a2, threshold=-2)
    assert [format_class(h.cls) for h in hits] == ["[1;1^2,0^8]"]
    assert hits[0].pairing == 6
    assert not hits[0].flagged

    against_a3 = parse_class("[9;2^2,3^8]", 2)
    hits = enumerate_neg_curves(EnumBounds(9, 2, 3), against_a3, threshold=-2)
    assert [format_class(h.cls) for h in hits] == ["[1;1^2,0^8]"]
    assert hits[0].pairing == 5


def test_enumeration_flags_below_threshold():
    against = parse_class("[2;2^2]", 2)
    hits = enumerate_neg_curves(EnumBounds(1, 1, 0), against, threshold=-2)
    assert len(hits) == 1
    assert hits[0].pairing == -2
    assert hits[0].flagged


def test_enumeration_full_tail_contains_symmetric_hits():
    against = parse_class("[4;2,2,1,1,1]", 2)
    sym = enumerate_neg_curves(EnumBounds(2, 1, 1), against, threshold=-1)
    full = enumerate_neg_curves(
        EnumBounds(2, 1, 1, symmetric_tail=False), against, threshold=-1
    )
    assert {format_class(h.cls) for h in sym} <= {format_class(h.cls) for h in full}
    assert any(len(set(h.cls.m[2:])) > 1 for h in full)


def test_genus_values():
    assert genus_planar(parse_class("[1;0^2]", 2)) == 0
    assert genus_planar(parse_class("[2;0^2]", 2)) == 0
    assert genus_planar(parse_class("[3;0^2]", 2)) == 1
    assert genus_planar(parse_class("[9;2^2,3^8]", 2)) == 2
    assert genus_planar(parse_class("[6;3,2^7]", 2)) == 0


def test_search_bound_derivation_halves_each_datum():
    b = derive_search_bounds(parse_class("[12;3^2,4^8]", 2))
    assert (b.d_max, b.m12_max, b.tail_max) == (6, 1, 2)
    b = derive_search_bounds(parse_class("[9;2^2,3^8]", 2))
    assert (b.d_max, b.m12_max, b.tail_max) == (4, 1, 1)
    b = derive_search_bounds(parse_class("[5;4,1]", 2))
    assert (b.d_max, b.m12_max, b.tail_max) == (2, 2, 0)
    with pytest.raises(ValueError):
        derive_search_bounds(parse_class("[5;4]", 2))


def test_predictor_on_known_systems():
    assert not hh_predict_special(parse_class("[12;3^2,4^8]", 2)).special
    assert not hh_predict_special(parse_class("[9;2^2,3^8]", 2)).special
    assert not hh_predict_special(parse_class("[6;1^2,2^8]", 2)).special
    pred = hh_predict_special(parse_class("[2;2^2]", 2))
    assert pred.special
    assert [format_class(w) for w in pred.witnesses] == ["[1;1^2]"]
    assert pred.predicted_dim == 0 and pred.expected_dim == -1
    # empty for plain counting reasons: a flagged class alone must not
    # produce a speciality verdict
    assert not hh_predict_special(parse_class("[2;2^5]", 2)).special


def test_predictor_rejects_a_witness_that_does_not_divide(monkeypatch):
    """A stripped part that is not magnitude times a class is an arithmetic
    fault in the reduction; it raises even under python -O."""
    dv = parse_class("[2;2^2]", 2)
    std, strips = blowup._reduce_trace(dv)
    part, magnitude = strips[0]
    assert magnitude >= 2
    bad = DivisorClass(2, part.d * magnitude + 1, tuple(x * magnitude for x in part.m))
    monkeypatch.setattr(blowup, "_reduce_trace", lambda _: (std, [(bad, magnitude)]))
    with pytest.raises(ArithmeticError, match="is not 2 times a class"):
        hh_predict_special(dv)


def test_predictor_validates_input():
    with pytest.raises(ValueError):
        hh_predict_special(parse_class("[2;1,1]", 3))
    with pytest.raises(ValueError):
        hh_predict_special(DivisorClass(2, 3, (-1, 1)))


def test_class_entries_are_integers_not_truncated():
    cls = DivisorClass(2, 3, (1, 3))
    for scale in (lambda: 0.5 * cls, lambda: cls * 1.5, lambda: 2.0 * cls):
        with pytest.raises(TypeError):
            scale()
    for fields in [(2.0, 3, (1, 3)), (2, 3.0, (1, 3)), (2, 3, (1, 2.9))]:
        with pytest.raises(TypeError):
            DivisorClass(*fields)
    from_numpy = DivisorClass(np.int64(2), np.int64(3), np.array([1, 3]))
    assert from_numpy == cls
    assert all(type(x) is int for x in (from_numpy.ambient_dim, from_numpy.d, *from_numpy.m))
    assert cls * np.int64(2) == DivisorClass(2, 6, (2, 6))
