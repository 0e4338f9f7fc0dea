"""The three literal grammars: systems `L3(9,6,4^8)`, blow-up classes
`[2;1,1^8]` and quadric systems `(9,9;6;4^8)`.

The error table pins, for malformed literals of each grammar, the
exception type, the byte offset and the full message; the round-trip
properties check `parse(format(x)) == x` over random multiplicity lists.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.blowup import DivisorClass, format_class, parse_class
from fatpoints.quadricmap import QuadricSystem, format_quadric_system, parse_quadric_system
from fatpoints.syscore import (
    MAX_MULTS,
    FatPointSystem,
    SystemParseError,
    format_system,
    parse_system,
)

PARSERS = {
    "system": parse_system,
    "class": lambda text: parse_class(text, 2),
    "quadric": parse_quadric_system,
}

# (grammar, literal, offset, message prefix before " at byte ...")
PARSE_ERRORS = [
    ("system", "L3(9,6,4^8", 10, "expected ','"),
    ("system", "L3(9,6,4^8,)", 11, "expected multiplicity"),
    ("system", "L3(9,6,4^0)", 9, "repeat count must be >= 1"),
    ("system", "L3(9,-6)", 5, "expected multiplicity"),
    ("system", "L3(9,6 x)", 7, "expected ','"),
    ("system", "L3(9,6) x", 8, "unexpected trailing input"),
    ("system", "L3(9^2)", 4, "expected ','"),
    ("system", "L3(9,6^)", 7, "expected repeat count"),
    ("system", "L3(9,6^-1)", 7, "expected repeat count"),
    ("system", "L3()", 3, "expected degree"),
    ("system", "L3(9;6)", 4, "expected ','"),
    ("system", "L3(9,,6)", 5, "expected multiplicity"),
    ("system", "L3( 9 , 6 ^ 0 )", 12, "repeat count must be >= 1"),
    ("system", "L0(9)", 2, "ambient dimension must be >= 1"),
    ("system", "L3(9", 4, "expected ','"),
    ("system", "L3(9 x", 5, "expected ','"),
    ("class", "[3;1,]", 5, "expected multiplicity"),
    ("class", "[3;1^0]", 5, "repeat count must be >= 1"),
    ("class", "[3;1 x]", 5, "expected ']'"),
    ("class", "[3;1] x", 6, "unexpected trailing input"),
    ("class", "[3;1", 4, "expected ']'"),
    ("class", "[3;,1]", 3, "expected multiplicity"),
    ("class", "[3,1]", 2, "expected ']'"),
    ("class", "[-;1]", 1, "expected degree"),
    ("class", "[3;1^-2]", 5, "expected repeat count"),
    ("class", "[3;--1]", 3, "expected multiplicity"),
    ("class", "3;1]", 0, "expected '['"),
    ("class", "[3;1;2]", 4, "expected ']'"),
    ("class", "[ 3 ; 1 ^ 0 ]", 10, "repeat count must be >= 1"),
    ("class", "[3", 2, "expected ']'"),
    ("class", "[]", 1, "expected degree"),
    ("quadric", "(3,3;0;1,)", 9, "expected multiplicity"),
    ("quadric", "(3,3;0;1^0)", 9, "repeat count must be >= 1"),
    ("quadric", "(3,3;0;-1)", 7, "expected multiplicity"),
    ("quadric", "(3,3;-1)", 5, "expected multiplicity at p0"),
    ("quadric", "(3,3;0;1 x)", 9, "expected ')'"),
    ("quadric", "(3,3;0;1) x", 10, "unexpected trailing input"),
    ("quadric", "(3,3;0;1", 8, "expected ')'"),
    ("quadric", "(3,3;0;;)", 7, "expected multiplicity"),
    ("quadric", "(3,3;0;,1)", 7, "expected multiplicity"),
    ("quadric", "(3;3)", 2, "expected ','"),
    ("quadric", "(3,3,0)", 4, "expected ')'"),
    ("quadric", "(3,3;0;1;2)", 8, "expected ')'"),
    ("quadric", "(3,3;)", 5, "expected multiplicity at p0"),
    ("quadric", "(3,3;0; 1 ^ 0 )", 12, "repeat count must be >= 1"),
    # digits are exactly the characters int() reads: no superscripts
    ("system", "L3(²)", 3, "expected degree"),
    ("system", "L3(9,6^²)", 7, "expected repeat count"),
    ("class", "[²]", 1, "expected degree"),
    ("quadric", "(3,²)", 3, "expected second bidegree"),
    # offsets count UTF-8 bytes: a non-ASCII space before the error takes 2 or 3
    ("system", "L3(\u3000x)", 6, "expected degree"),
    ("system", "L3(9,\u00a06 x)", 9, "expected ','"),
    ("class", "[\u20033;1 x]", 8, "expected ']'"),
    ("quadric", "(3,3;0;\u30001 x)", 12, "expected ')'"),
    # lists longer than MAX_MULTS are refused before they are expanded
    ("system", "L2(3,1^10001)", 7, "more than 10000 multiplicities"),
    ("system", "L2(3,1^3000000)", 7, "more than 10000 multiplicities"),
    ("system", "L2(3,1^9999,1,2)", 14, "more than 10000 multiplicities"),
    ("system", "L2(3,1^9999, 1, 2)", 16, "more than 10000 multiplicities"),
    ("system", "L2(3,2^5000, 1^5001)", 15, "more than 10000 multiplicities"),
    ("class", "[3;1^10001]", 5, "more than 10000 multiplicities"),
    ("class", "[3;-1^5000,-2^5001]", 14, "more than 10000 multiplicities"),
    ("class", "[3;1^10000,0]", 11, "more than 10000 multiplicities"),
    ("quadric", "(3,3;0;1^10001)", 9, "more than 10000 multiplicities"),
    ("quadric", "(3,3;0;1^10000,2)", 15, "more than 10000 multiplicities"),
    ("quadric", "(3,3;0;1^99999999999999999999)", 9, "more than 10000 multiplicities"),
]


@pytest.mark.parametrize("grammar, text, offset, what", PARSE_ERRORS)
def test_parse_errors_are_pinned(grammar, text, offset, what):
    with pytest.raises(SystemParseError) as info:
        PARSERS[grammar](text)
    assert type(info.value) is SystemParseError
    assert info.value.offset == offset
    assert str(info.value) == f"{what} at byte {offset} in {text!r}"


def test_empty_lists_parse_where_the_grammar_allows_them():
    assert parse_class("[3;]", 2) == DivisorClass(2, 3, ())
    assert parse_class("[3]", 2) == DivisorClass(2, 3, ())
    assert parse_class("[3;-1^2,-2]", 2) == DivisorClass(2, 3, (-1, -1, -2))
    assert parse_quadric_system("(3,3;0;)") == QuadricSystem(3, 3, 0, ())
    assert parse_system("L3(9)") == FatPointSystem(3, 9, ())


def test_lists_of_max_mults_entries_parse():
    assert MAX_MULTS == 10_000
    assert parse_system("L2(3,1^9999,2)").mults == (1,) * 9999 + (2,)
    assert parse_class("[3;-1^10000]", 2).m == (-1,) * MAX_MULTS
    assert parse_quadric_system("(3,3;0;2^5000,1^5000)").tail == (2,) * 5000 + (1,) * 5000


# short runs of few distinct values, so the run-length form has repeats
def _mults(lo: int, hi: int):
    return st.lists(st.integers(lo, hi), max_size=12).map(tuple)


@given(n=st.integers(1, 4), d=st.integers(0, 30), mults=_mults(0, 4))
@settings(max_examples=200, deadline=None)
def test_system_literals_round_trip(n, d, mults):
    s = FatPointSystem(n, d, mults)
    assert parse_system(format_system(s)) == s


@given(ambient=st.sampled_from([2, 3]), d=st.integers(-10, 30), mults=_mults(-3, 3))
@settings(max_examples=200, deadline=None)
def test_class_literals_round_trip(ambient, d, mults):
    cls = DivisorClass(ambient, d, mults)
    assert parse_class(format_class(cls), ambient) == cls


@given(
    a=st.integers(0, 20), b=st.integers(0, 20), m0=st.integers(0, 20), tail=_mults(0, 4)
)
@settings(max_examples=200, deadline=None)
def test_quadric_literals_round_trip(a, b, m0, tail):
    qs = QuadricSystem(a, b, m0, tail)
    assert parse_quadric_system(format_quadric_system(qs)) == qs
