"""Restriction of spatial systems to a quadric and the planar reading of
quadric curve classes through the double cover."""

from __future__ import annotations

import random

import numpy as np
import pytest

from fatpoints.quadricmap import (
    QuadricSystem,
    format_quadric_system,
    parse_quadric_system,
    restrict_to_quadric,
    to_planar,
)
from fatpoints.syscore import FatPointSystem, SystemParseError, parse_system, vdim


def test_restriction_shapes():
    qs = restrict_to_quadric(parse_system("L3(9,6,4^8)"))
    assert (qs.a, qs.b, qs.m0, qs.tail) == (9, 9, 6, (4,) * 8)
    qs = restrict_to_quadric(parse_system("L3(7,5,3^8)"))
    assert (qs.a, qs.b, qs.m0, qs.tail) == (7, 7, 5, (3,) * 8)
    qs = restrict_to_quadric(parse_system("L3(3)"))
    assert (qs.a, qs.b, qs.m0, qs.tail) == (3, 3, 0, ())


def test_restriction_requires_space_systems():
    with pytest.raises(ValueError):
        restrict_to_quadric(parse_system("L2(3,1)"))


def test_planar_images_of_the_construction():
    table = [
        ("L3(9,6,4^8)", "L2(12,3^2,4^8)"),
        ("L3(7,5,3^8)", "L2(9,2^2,3^8)"),
        ("L3(5,4,2^8)", "L2(6,1^2,2^8)"),
    ]
    for spatial, planar in table:
        img = to_planar(restrict_to_quadric(parse_system(spatial)))
        assert img == parse_system(planar)
        assert not img.has_negative


def test_planar_image_can_carry_negative_multiplicities():
    img = to_planar(QuadricSystem(5, 2, 3, (1, 1)))
    assert img.degree == 4
    assert img.mults == (-1, 2, 1, 1)
    assert img.has_negative


def test_planar_image_distinguished_entries():
    img = to_planar(QuadricSystem(6, 4, 2, (2, 2, 2)))
    assert img == FatPointSystem(2, 8, (2, 4, 2, 2, 2))


def test_quadric_literal_round_trip():
    for text in ["(9,9;6;4^8)", "(3,3;0;)", "(5,2;3;1^2)", "(7,7;5;3^8)"]:
        qs = parse_quadric_system(text)
        assert parse_quadric_system(format_quadric_system(qs)) == qs


def test_quadric_literal_optional_sections():
    assert parse_quadric_system("(3,3)") == QuadricSystem(3, 3, 0, ())
    assert parse_quadric_system("(3,3;2)") == QuadricSystem(3, 3, 2, ())
    assert parse_quadric_system("(3,3;2;1,1)") == QuadricSystem(3, 3, 2, (1, 1))


@pytest.mark.parametrize("bad", ["9,9;6", "(9;6)", "(9,9;6;4^0)", "(a,b)", "(3,3;2;1,)"])
def test_quadric_literal_rejects_malformed(bad):
    with pytest.raises(SystemParseError):
        parse_quadric_system(bad)


def test_virtual_dimension_transport():
    """Counting on the quadric equals planar counting of the image.

    Curves of bidegree (a,b) form an (a+1)(b+1)-dimensional space and a
    point of multiplicity m imposes m(m+1)/2 conditions, so the virtual
    dimension on the quadric side is directly comparable with the planar
    formula applied to the image class.
    """
    rng = random.Random(99)
    for _ in range(400):
        a = rng.randint(0, 9)
        b = rng.randint(0, 9)
        m0 = rng.randint(0, min(a, b))
        tail = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 8)))
        qs = QuadricSystem(a, b, m0, tail)
        img = to_planar(qs)
        v_quadric = (a + 1) * (b + 1) - m0 * (m0 + 1) // 2 - sum(
            t * (t + 1) // 2 for t in tail
        ) - 1
        d = img.degree
        v_img = (d * (d + 3) - sum(mi * (mi + 1) for mi in img.mults)) // 2
        assert v_img == v_quadric, qs
        if not img.has_negative:
            assert vdim(img) == v_quadric


def test_image_inverts_back_to_bidegrees():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randint(0, 9)
        b = rng.randint(0, 9)
        m0 = rng.randint(0, a + b)
        tail = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5)))
        img = to_planar(QuadricSystem(a, b, m0, tail))
        d, m1, m2 = img.degree, img.mults[0], img.mults[1]
        assert (d - m1, d - m2, d - m1 - m2) == (a, b, m0)
        assert img.mults[2:] == tail


def test_image_rejects_negative_degree():
    with pytest.raises(ValueError):
        to_planar(QuadricSystem(2, 2, 5, ()))


def test_quadric_system_fields_are_integers_not_truncated():
    for fields in [(1.5, 2), (2, 2.0), (2, 2, 1.0), (2, 2, 1, (1, 0.5))]:
        with pytest.raises(TypeError):
            QuadricSystem(*fields)
    qs = QuadricSystem(np.int64(3), np.int64(2), np.int64(1), np.array([1, 1]))
    assert qs == QuadricSystem(3, 2, 1, (1, 1))
    assert all(type(x) is int for x in (qs.a, qs.b, qs.m0, *qs.tail))
