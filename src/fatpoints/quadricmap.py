"""The dictionary between curve systems on a smooth quadric and planar systems.

A smooth quadric surface is P^1 x P^1; curve classes are bidegrees
(a, b) in the two rulings.  Projecting from a point p0 of the quadric
maps it to the plane blown up at the two points where the rulings
through p0 land: curves in |a H1 + b H2| with multiplicity m at p0
correspond to plane curves of degree a + b - m with multiplicities
b - m and a - m at the two distinguished points.  Extra assigned points
are carried along unchanged, matching how the restriction of a space
system to the quadric through its base points is studied.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .syscore import FatPointSystem, _Scanner, _compressed

__all__ = [
    "QuadricSystem",
    "restrict_to_quadric",
    "to_planar",
    "parse_quadric_system",
    "format_quadric_system",
]


@dataclass(frozen=True)
class QuadricSystem:
    """Curves of bidegree (a, b) on a smooth quadric with a multiplicity
    m0 at the distinguished point p0 (the projection center) and further
    multiplicities at the tail points."""

    a: int
    b: int
    m0: int = 0
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        # operator.index refuses a float instead of truncating it
        for name in ("a", "b", "m0"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "tail", tuple(map(operator.index, self.tail)))

    def __str__(self) -> str:
        return format_quadric_system(self)


def restrict_to_quadric(sys: FatPointSystem) -> QuadricSystem:
    """Restriction of a P^3 system to a quadric through its base points.

    A degree-d surface cuts the quadric in a curve of bidegree (d, d);
    base multiplicities restrict as they are.  The first point of the
    system is the distinguished p0 by convention.
    """
    if sys.ambient_dim != 3:
        raise ValueError("restriction to the quadric starts from a P^3 system")
    m0 = sys.mults[0] if sys.mults else 0
    return QuadricSystem(sys.degree, sys.degree, m0, sys.mults[1:])


def to_planar(qs: QuadricSystem) -> FatPointSystem:
    """Planar image of a quadric system under projection from p0.

    Degree a + b - m0 with two new multiplicities b - m0 and a - m0
    first, then the tail verbatim.  When m0 exceeds min(a, b) the
    inserted multiplicities are negative; the result is then only
    meaningful as a divisor class and its `has_negative` flag is set.
    """
    if qs.m0 > qs.a + qs.b:
        raise ValueError(
            f"multiplicity {qs.m0} exceeds bidegree total {qs.a + qs.b}: "
            "the image would have negative degree"
        )
    return FatPointSystem(
        2, qs.a + qs.b - qs.m0, (qs.b - qs.m0, qs.a - qs.m0) + qs.tail
    )


def parse_quadric_system(text: str) -> QuadricSystem:
    """Parse `(a,b; m0; t1,t2,...)` with `^` repetition, e.g. `(9,9;6;4^8)`.

    The m0 and tail sections may be omitted; whitespace is free and
    errors carry byte offsets.
    """
    sc = _Scanner(text)
    sc.expect("(")
    a = sc.integer("first bidegree")
    sc.expect(",")
    b = sc.integer("second bidegree")
    m0 = 0
    tail: list[int] = []
    if sc.try_take(";"):
        m0 = sc.integer("multiplicity at p0")
        if sc.try_take(";"):
            tail = sc.mult_list(")")
    sc.expect(")")
    sc.end()
    return QuadricSystem(a, b, m0, tuple(tail))


def format_quadric_system(qs: QuadricSystem) -> str:
    return f"({qs.a},{qs.b};{qs.m0};{_compressed(qs.tail)})"
