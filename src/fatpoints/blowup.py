"""Intersection theory on blow-ups of P^2 and P^3 at general points.

Classes are stored as integer vectors (d; m_0, ..., m_{r-1}) meaning
d*H - sum_i m_i E_i, with H the hyperplane pull-back and E_i the
exceptional divisors.  The products of the generators are H^n = 1,
E_i^n = (-1)^(n-1) with mixed products zero, which the pairing formulas
below absorb: on a blown-up plane A.B = dA*dB - sum mA*mB, and on
blown-up 3-space A.B.C = dA*dB*dC - sum mA*mB*mC.

Everything here is exact integer arithmetic; negative entries are legal
(the canonical class, residuals, and quadric-to-plane images need them)
and no operation clamps.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .syscore import _Scanner, _compressed

__all__ = [
    "DivisorClass",
    "EnumBounds",
    "NegCurveHit",
    "HHPrediction",
    "canonical",
    "intersect3",
    "intersect2",
    "chi_rr",
    "vdim_rr",
    "vdim_planar",
    "speciality_defect",
    "genus_planar",
    "is_minus_one_class",
    "cremona",
    "cremona_reduce",
    "enumerate_neg_curves",
    "derive_search_bounds",
    "hh_predict_special",
    "parse_class",
    "format_class",
]


@dataclass(frozen=True)
class DivisorClass:
    """Integer divisor class d*H - sum m_i E_i on a blow-up of P^n."""

    ambient_dim: int
    d: int
    m: tuple[int, ...] = ()

    def __post_init__(self):
        # operator.index refuses a float instead of truncating it
        for name in ("ambient_dim", "d"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "m", tuple(map(operator.index, self.m)))
        if self.ambient_dim not in (2, 3):
            raise ValueError(f"ambient dimension must be 2 or 3, got {self.ambient_dim}")

    @property
    def npoints(self) -> int:
        return len(self.m)

    def _compat(self, other: "DivisorClass") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        if len(self.m) != len(other.m):
            raise ValueError(f"point counts differ: {len(self.m)} vs {len(other.m)}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._compat(other)
        return DivisorClass(
            self.ambient_dim, self.d + other.d, tuple(a + b for a, b in zip(self.m, other.m))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._compat(other)
        return DivisorClass(
            self.ambient_dim, self.d - other.d, tuple(a - b for a, b in zip(self.m, other.m))
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.ambient_dim, -self.d, tuple(-x for x in self.m))

    def __mul__(self, c: int) -> "DivisorClass":
        return DivisorClass(self.ambient_dim, c * self.d, tuple(c * x for x in self.m))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_class(self)


def canonical(n: int, r: int) -> DivisorClass:
    """K = -(n+1)H + (n-1) sum E_i on P^n blown up at r points, stored
    as (-(n+1); -(n-1), ...)."""
    r = operator.index(r)
    if r < 0:
        raise ValueError(f"point count must be >= 0, got {r}")
    return DivisorClass(n, -(n + 1), (-(n - 1),) * r)


def _pair2(a: DivisorClass, b: DivisorClass) -> int:
    return a.d * b.d - sum(x * y for x, y in zip(a.m, b.m))


def intersect3(a: DivisorClass, b: DivisorClass, c: DivisorClass) -> int:
    """Triple product on blown-up P^3: dA dB dC - sum mA mB mC."""
    if a.ambient_dim != 3:
        raise ValueError("triple products need P^3 classes")
    a._compat(b)
    a._compat(c)
    return a.d * b.d * c.d - sum(x * y * z for x, y, z in zip(a.m, b.m, c.m))


def intersect2(a: DivisorClass, b: DivisorClass) -> int:
    """Pairing on blown-up P^2: dA dB - sum mA mB."""
    if a.ambient_dim != 2:
        raise ValueError("pairings need P^2 classes")
    a._compat(b)
    return _pair2(a, b)


def chi_rr(dv: DivisorClass) -> int:
    """Euler characteristic of O(D) on blown-up P^3 by Riemann-Roch:
    chi = [D(D-K)(2D-K) + c2.D] / 12 + 1.

    The second Chern class pairs as c2.(dH - sum m E) = 6d: that is the
    unique value making chi(dH) = C(d+3,3) and chi(dH - mE) drop by
    exactly C(m+2,3), which ties this formula to the monomial count.
    """
    if dv.ambient_dim != 3:
        raise ValueError("Riemann-Roch here is for blown-up P^3 only")
    k = canonical(3, dv.npoints)
    t = intersect3(dv, dv - k, 2 * dv - k)
    total = t + 6 * dv.d
    if total % 12 != 0:
        raise ArithmeticError(
            f"Riemann-Roch numerator {total} is not divisible by 12 for {dv}"
        )
    return total // 12 + 1


def vdim_rr(dv: DivisorClass) -> int:
    """Virtual dimension chi - 1 of a class on blown-up P^3."""
    return chi_rr(dv) - 1


def vdim_planar(dv: DivisorClass) -> int:
    """Virtual dimension of a planar class: (D.D - D.K)/2 = C(d+2,2) - sum C(m+1,2) - 1.

    The pairing form extends the binomial count to negative entries and
    is invariant under Cremona transformations, which preserve D.D and D.K.
    """
    if dv.ambient_dim != 2:
        raise ValueError("planar virtual dimension needs a P^2 class")
    d = dv.d
    return (d * (d + 3) - sum(mi * (mi + 1) for mi in dv.m)) // 2


def speciality_defect(f: DivisorClass, m: DivisorClass) -> int:
    """v(F) + F.M.(L-K)/2 for the splitting L = F + M on blown-up P^3.

    The full decomposition v(L) = v(F) + v(M) + F.M.(L-K)/2 is asserted
    exactly; a negative return value with M non-special certifies that L
    is special.
    """
    if f.ambient_dim != 3:
        raise ValueError("the speciality decomposition is for blown-up P^3")
    total = f + m
    cross2 = intersect3(f, m, total - canonical(3, f.npoints))
    if cross2 % 2 != 0:
        raise ArithmeticError(f"odd cross term {cross2} for F={f}, M={m}")
    cross = cross2 // 2
    vf, vm, vl = vdim_rr(f), vdim_rr(m), vdim_rr(total)
    if vl != vf + vm + cross:
        raise ArithmeticError(
            f"decomposition identity failed: v(L)={vl}, v(F)+v(M)+cross={vf + vm + cross}"
        )
    return vf + cross


def genus_planar(dv: DivisorClass) -> int:
    """Arithmetic genus (d-1)(d-2)/2 - sum m(m-1)/2 of a planar class."""
    if dv.ambient_dim != 2:
        raise ValueError("genus formula needs a P^2 class")
    d = dv.d
    return (d - 1) * (d - 2) // 2 - sum(mi * (mi - 1) // 2 for mi in dv.m)


def is_minus_one_class(dv: DivisorClass) -> bool:
    """Numerical (-1)-class test on blown-up P^2: D.D = -1 and D.K = -1."""
    if dv.ambient_dim != 2:
        raise ValueError("(-1)-class test needs a P^2 class")
    dd = dv.d * dv.d - sum(mi * mi for mi in dv.m)
    dk = -3 * dv.d + sum(dv.m)
    return dd == -1 and dk == -1


def cremona(dv: DivisorClass, i: int, j: int, k: int) -> DivisorClass:
    """Quadratic plane transformation based at points i, j, k.

    d' = 2d - mi - mj - mk and each based multiplicity becomes the degree
    minus the other two; the transformation is an involution and
    preserves all pairings, the canonical class, and genus.
    """
    if dv.ambient_dim != 2:
        raise ValueError("Cremona transformations act on P^2 classes")
    if len({i, j, k}) != 3:
        raise ValueError(f"base points must be distinct, got {(i, j, k)}")
    for idx in (i, j, k):
        if not 0 <= idx < len(dv.m):
            raise ValueError(f"point index {idx} out of range for r={len(dv.m)}")
    s = dv.d - dv.m[i] - dv.m[j] - dv.m[k]
    m = list(dv.m)
    m[i] += s
    m[j] += s
    m[k] += s
    return DivisorClass(2, dv.d + s, tuple(m))


def _reduce_trace(dv: DivisorClass) -> tuple[DivisorClass, list[tuple[DivisorClass, int]]]:
    """Cremona reduction with enough bookkeeping to pull strips back.

    Returns (standard_form, strips) where each strip is
    (class_in_original_basis, magnitude): a fixed part magnitude * W that
    was removed when a multiplicity went negative, with W the exceptional
    class of the moment transported back through the applied quadratic
    transformations (so W is a (-1)-class of the original surface).
    """
    if dv.ambient_dim != 2:
        raise ValueError("Cremona reduction acts on P^2 classes")
    cur = dv
    if len(cur.m) < 3:
        cur = DivisorClass(2, cur.d, cur.m + (0,) * (3 - len(cur.m)))
    history: list[tuple[int, int, int]] = []
    raw_strips: list[tuple[int, int, int]] = []  # (index, entry, history length)
    while True:
        if any(x < 0 for x in cur.m):
            m = list(cur.m)
            for idx, entry in enumerate(m):
                if entry < 0:
                    raw_strips.append((idx, entry, len(history)))
                    m[idx] = 0
            cur = DivisorClass(2, cur.d, tuple(m))
        if cur.d < 0:
            break
        top = sorted(range(len(cur.m)), key=lambda i: (-cur.m[i], i))[:3]
        if cur.d >= sum(cur.m[i] for i in top):
            break
        cur = cremona(cur, *top)
        history.append(tuple(top))
    strips: list[tuple[DivisorClass, int]] = []
    for idx, entry, depth in raw_strips:
        m = [0] * len(cur.m)
        m[idx] = entry  # the removed fixed part is (-entry) * E_idx
        part = DivisorClass(2, 0, tuple(m))
        for triple in reversed(history[:depth]):
            part = cremona(part, *triple)
        strips.append((part, -entry))
    return cur, strips


def cremona_reduce(dv: DivisorClass) -> tuple[DivisorClass, list[DivisorClass]]:
    """Reduce a planar class to standard form (d >= top three multiplicities).

    Repeatedly transforms at the three largest multiplicities while their
    sum exceeds the degree; entries that go negative are recorded and
    stripped (set to 0) as fixed exceptional parts, expressed in the
    basis of the original surface.  Classes with fewer than 3 points are
    padded with multiplicity-0 points so the transformation is defined.
    A final degree < 0 means the class is empty; it is returned as is.
    """
    std, strips = _reduce_trace(dv)
    return std, [part for part, _ in strips]


@dataclass(frozen=True)
class EnumBounds:
    """Search box for (-1)-class enumeration: degree up to d_max, the two
    distinguished multiplicities up to m12_max, the tail up to tail_max.
    With symmetric_tail the tail entries are all equal (classes of the
    shape (d; m1, m2, t, ..., t)); otherwise every tail tuple in bounds
    is visited."""

    d_max: int
    m12_max: int
    tail_max: int
    symmetric_tail: bool = True


@dataclass(frozen=True)
class NegCurveHit:
    cls: DivisorClass
    pairing: int
    flagged: bool


def enumerate_neg_curves(
    bounds: EnumBounds, against: DivisorClass, threshold: int
) -> list[NegCurveHit]:
    """All (-1)-classes within bounds, each paired against a fixed class.

    A hit is flagged when its pairing is <= threshold (threshold -2 marks
    witnesses of (-1)-speciality).  Output is sorted lexicographically by
    (d, multiplicities).
    """
    if against.ambient_dim != 2:
        raise ValueError("enumeration runs on P^2 classes")
    r = len(against.m)
    if r < 2:
        raise ValueError("the reference class needs at least 2 points")
    tail_len = r - 2
    hits: list[NegCurveHit] = []
    if bounds.symmetric_tail:
        tails = [(t,) * tail_len for t in range(bounds.tail_max + 1)]
    else:
        tails = itertools.product(range(bounds.tail_max + 1), repeat=tail_len)
    for tail in tails:
        for d in range(bounds.d_max + 1):
            for m1 in range(bounds.m12_max + 1):
                for m2 in range(bounds.m12_max + 1):
                    cand = DivisorClass(2, d, (m1, m2) + tuple(tail))
                    if is_minus_one_class(cand):
                        pairing = _pair2(cand, against)
                        hits.append(NegCurveHit(cand, pairing, pairing <= threshold))
    hits.sort(key=lambda h: (h.cls.d, h.cls.m))
    return hits


@dataclass(frozen=True)
class HHPrediction:
    special: bool
    witnesses: tuple[DivisorClass, ...]
    predicted_dim: int
    expected_dim: int


def derive_search_bounds(dv: DivisorClass) -> EnumBounds:
    """The smallest box certain to contain every doubly-contained witness.

    A class C met by dv with multiplicity <= -2 sits inside dv twice, so
    its degree and each of its multiplicities are at most half the
    corresponding datum of dv (floor).
    """
    if dv.npoints < 2:
        raise ValueError("bounds derivation needs at least two base points")
    tail = dv.m[2:] or (0,)
    return EnumBounds(
        d_max=max(dv.d, 0) // 2,
        m12_max=max(dv.m[0], dv.m[1], 0) // 2,
        tail_max=max(max(tail), 0) // 2,
        symmetric_tail=True,
    )


def hh_predict_special(dv: DivisorClass) -> HHPrediction:
    """Speciality certificate for a planar system with m_i >= 0 by
    (-1)-class reduction.

    Cremona reduction strips the fixed multiples of (-1)-curves; on the
    resulting standard class the dimension equals max(v, -1), so the
    predicted dimension of the input is that value (or -1 if the degree
    went negative) and the system is special exactly when the prediction
    exceeds max(v(input), -1).  This evaluates the same certificate as
    flagging a (-1)-class met with multiplicity <= -2, but stays correct
    on systems that are empty for plain virtual-dimension reasons, where
    a flagged witness alone would overcount.

    Witnesses are the stripped (-1)-classes with pairing <= -2 against
    the input, merged with the flagged enumeration hits in the box of
    derive_search_bounds (when dv has at least two points).
    """
    if dv.ambient_dim != 2:
        raise ValueError("the speciality predictor runs on P^2 classes")
    if any(x < 0 for x in dv.m):
        raise ValueError("the predictor expects nonnegative multiplicities")
    std, strips = _reduce_trace(dv)
    expected = max(vdim_planar(dv), -1)
    if std.d < 0:
        predicted = -1
    else:
        predicted = max(vdim_planar(std), -1)
    witnesses: list[DivisorClass] = []
    for part, magnitude in strips:
        if magnitude < 2:
            continue
        if part.d % magnitude or any(x % magnitude for x in part.m):
            raise ArithmeticError(f"stripped part {part} is not {magnitude} times a class")
        wm = tuple(x // magnitude for x in part.m)
        if len(wm) > dv.npoints and all(x == 0 for x in wm[dv.npoints :]):
            wm = wm[: dv.npoints]  # drop padding the reducer added
        w = DivisorClass(2, part.d // magnitude, wm)
        if w not in witnesses:
            witnesses.append(w)
    if dv.npoints >= 2:
        for hit in enumerate_neg_curves(derive_search_bounds(dv), dv, -2):
            if hit.flagged and hit.cls not in witnesses:
                witnesses.append(hit.cls)
    return HHPrediction(
        special=predicted > expected,
        witnesses=tuple(witnesses),
        predicted_dim=predicted,
        expected_dim=expected,
    )


def parse_class(text: str, ambient_dim: int) -> DivisorClass:
    """Parse a class literal `[d; m0,m1,...]` with `^` repetition.

    Negative entries are allowed, e.g. `[-4; -2^9]` for the canonical
    class; whitespace is free and parse errors carry byte offsets.
    """
    sc = _Scanner(text)
    sc.expect("[")
    d = sc.integer("degree", allow_negative=True)
    mults: list[int] = []
    if sc.try_take(";"):
        mults = sc.mult_list("]", allow_negative=True)
    sc.expect("]")
    sc.end()
    return DivisorClass(ambient_dim, d, tuple(mults))


def format_class(dv: DivisorClass) -> str:
    if dv.m:
        return f"[{dv.d};{_compressed(dv.m)}]"
    return f"[{dv.d}]"
