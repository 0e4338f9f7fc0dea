"""System literals, dimension counting and residual arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fatpoints.syscore import (
    FatPointSystem,
    SystemParseError,
    conditions_at_point,
    edim_expected,
    format_system,
    parse_system,
    residual,
    vdim,
)


def test_conditions_at_point_small_table():
    assert conditions_at_point(0, 2) == 0
    assert conditions_at_point(-3, 2) == 0
    assert conditions_at_point(1, 2) == 1
    assert conditions_at_point(2, 2) == 3
    assert conditions_at_point(3, 2) == 6
    assert conditions_at_point(1, 3) == 1
    assert conditions_at_point(2, 3) == 4
    assert conditions_at_point(3, 3) == 10
    assert conditions_at_point(4, 3) == 20
    assert conditions_at_point(5, 3) == 35
    assert conditions_at_point(1, 1) == 1
    assert conditions_at_point(3, 1) == 3


def test_counts_follow_binomials():
    s = FatPointSystem(3, 9, (6,) + (4,) * 8)
    assert s.monomial_count() == math.comb(12, 3) == 220
    assert s.condition_count() == 56 + 8 * 20
    s2 = FatPointSystem(2, 12, (3, 3) + (4,) * 8)
    assert s2.monomial_count() == 91
    assert s2.condition_count() == 2 * 6 + 8 * 10 == 92


def test_virtual_dimension_frozen_values():
    table = {
        "L3(9,6,4^8)": 3,
        "L3(7,5,3^8)": 4,
        "L3(5,4,2^8)": 3,
        "L3(3,3,1^8)": 1,
        "L3(4,2^9)": -2,
        "L2(12,3^2,4^8)": -2,
        "L2(9,2^2,3^8)": 0,
        "L2(6,1^2,2^8)": 1,
        "L3(2,1,1^8)": 0,
        "L2(1,1^2)": 0,
        "L2(3)": 9,
    }
    for literal, expected in table.items():
        assert vdim(parse_system(literal)) == expected, literal


def test_vdim_ignores_nonpositive_multiplicities():
    a = FatPointSystem(2, 4, (2, 0, 1))
    b = FatPointSystem(2, 4, (2, 1))
    assert vdim(a) == vdim(b)
    c = FatPointSystem(2, 4, (2, -1, 1))
    assert vdim(c) == vdim(b)


def test_expected_dimension_clamps():
    assert edim_expected(parse_system("L3(4,2^9)")) == -1
    assert edim_expected(parse_system("L3(7,5,3^8)")) == 4
    assert edim_expected(parse_system("L2(2,2^5)")) == -1


def test_counts_and_dimensions_are_consistent():
    s = parse_system("L2(6,1^2,2^8)")
    assert s.monomial_count() == 28
    assert s.condition_count() == 26
    assert vdim(s) == 1
    assert edim_expected(s) == 1
    assert vdim(s) == s.monomial_count() - s.condition_count() - 1


def test_parse_format_round_trip():
    literals = [
        "L2(12,3^2,4^8)",
        "L3(9,6,4^8)",
        "L3(4,2^9)",
        "L2(3)",
        "L1(5,2,1^3)",
        "L3(7,5,3,3,3,3,3,3,3,3)",
    ]
    for lit in literals:
        s = parse_system(lit)
        assert parse_system(format_system(s)) == s


def test_parse_accepts_whitespace_and_expands_repeats():
    s = parse_system("  L2( 12 , 3 ^ 2 , 4^8 )  ")
    assert s == FatPointSystem(2, 12, (3, 3) + (4,) * 8)
    assert format_system(s) == "L2(12,3^2,4^8)"


def test_format_compresses_runs():
    assert format_system(FatPointSystem(3, 4, (2,) * 9)) == "L3(4,2^9)"
    assert format_system(FatPointSystem(2, 6, (1, 1, 2, 2, 2))) == "L2(6,1^2,2^3)"
    assert format_system(FatPointSystem(2, 5, ())) == "L2(5)"


@pytest.mark.parametrize(
    "bad",
    [
        "M2(3,1)",
        "L(3,1)",
        "L0(3)",
        "L2",
        "L2(",
        "L2)",
        "L2(3,",
        "L2(3,,1)",
        "L2(3,1^0)",
        "L2(3,1^-2)",
        "L2(3,-1)",
        "L2(3,1) trailing",
        "L2(3.5)",
        "",
    ],
)
def test_parse_rejects_malformed_literals(bad):
    with pytest.raises(SystemParseError):
        parse_system(bad)


def test_parse_error_reports_byte_offset():
    with pytest.raises(SystemParseError) as info:
        parse_system("L2(3,,1)")
    assert info.value.offset == 5
    assert "byte 5" in str(info.value)
    with pytest.raises(SystemParseError) as info:
        parse_system("Lx(3)")
    assert info.value.offset == 1


def test_residual_subtracts_degree_and_clamps_multiplicities():
    big = parse_system("L3(9,6,4^8)")
    quad = parse_system("L3(2,1,1^8)")
    res = residual(big, quad)
    assert res == FatPointSystem(3, 7, (5,) + (3,) * 8)
    over = residual(parse_system("L3(3,1,2)"), parse_system("L3(1,2,1)"))
    assert over.mults == (0, 1)


def test_residual_pads_shorter_fixed_part():
    sys10 = FatPointSystem(3, 7, (5,) + (3,) * 8 + (1,))
    quad9 = parse_system("L3(2,1,1^8)")
    res = residual(sys10, quad9)
    assert res.mults == (4,) + (2,) * 8 + (1,)


def test_residual_rejects_bad_inputs():
    with pytest.raises(ValueError):
        residual(parse_system("L2(3,1)"), parse_system("L3(1,1)"))
    with pytest.raises(ValueError):
        residual(parse_system("L2(1,1)"), parse_system("L2(2,1)"))


def test_residual_pads_system_side_too():
    res = residual(parse_system("L2(3,1)"), parse_system("L2(1,1^4)"))
    assert res == FatPointSystem(2, 2, (0, 0, 0, 0))
    same = residual(parse_system("L3(4,2^9)"), parse_system("L3(4,2^9)"))
    assert same.degree == 0 and set(same.mults) == {0}


def test_negative_multiplicities_flagged_not_rejected():
    s = FatPointSystem(2, 4, (-1, 2, 1))
    assert s.has_negative
    assert not FatPointSystem(2, 4, (2, 1)).has_negative
    assert format_system(s) == "L2(4,-1,2,1)"


def test_constructor_validation():
    with pytest.raises(ValueError):
        FatPointSystem(0, 3, ())
    with pytest.raises(ValueError):
        FatPointSystem(2, -1, ())


def test_system_fields_are_integers_not_truncated():
    for fields in [(2, 3, (1.5, 2.9)), (2, 3.0, (1, 2)), (2.0, 3, (1, 2))]:
        with pytest.raises(TypeError):
            FatPointSystem(*fields)
    sys = FatPointSystem(np.int64(2), np.int64(3), np.array([1, 2]))
    assert sys == FatPointSystem(2, 3, (1, 2))
    assert all(type(x) is int for x in (sys.ambient_dim, sys.degree, *sys.mults))
    assert vdim(sys) == 5
