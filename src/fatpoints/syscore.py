"""Fat-point linear systems and their dimension combinatorics.

A system L_n(d, m1, ..., mr) is the projectivized space of degree-d
hypersurfaces of P^n vanishing to order m_i at the i-th of r general
points.  Multiplicity m imposes C(m+n-1, n) linear conditions, so the
virtual dimension is C(d+n, n) - sum_i C(m_i+n-1, n) - 1 and the expected
dimension clamps that at -1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = [
    "FatPointSystem",
    "SystemParseError",
    "conditions_at_point",
    "vdim",
    "edim_expected",
    "residual",
    "parse_system",
    "format_system",
]


def conditions_at_point(m: int, n: int) -> int:
    """Linear conditions imposed by one point of multiplicity m on P^n.

    Nonpositive multiplicities impose nothing; they are permitted so that
    subtraction of divisors can be expressed at the system level.
    """
    if m <= 0:
        return 0
    return math.comb(m + n - 1, n)


@dataclass(frozen=True)
class FatPointSystem:
    """A linear system L_n(d, m1, m2, ...) with one entry per base point.

    Negative multiplicities are accepted by the constructor (they arise
    as images of divisor-class operations) but impose no conditions; the
    text grammar only produces nonnegative ones.
    """

    ambient_dim: int
    degree: int
    mults: tuple[int, ...] = ()

    def __post_init__(self):
        # operator.index refuses a float instead of truncating it
        for name in ("ambient_dim", "degree"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "mults", tuple(map(operator.index, self.mults)))
        if self.ambient_dim < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.ambient_dim}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")

    @property
    def npoints(self) -> int:
        return len(self.mults)

    @property
    def has_negative(self) -> bool:
        return any(m < 0 for m in self.mults)

    def monomial_count(self) -> int:
        return math.comb(self.degree + self.ambient_dim, self.ambient_dim)

    def condition_count(self) -> int:
        return sum(conditions_at_point(m, self.ambient_dim) for m in self.mults)

    def __str__(self) -> str:
        return format_system(self)


def vdim(sys: FatPointSystem) -> int:
    """Virtual dimension: monomials minus conditions minus 1, exact."""
    return sys.monomial_count() - sys.condition_count() - 1


def edim_expected(sys: FatPointSystem) -> int:
    """Expected dimension max(vdim, -1); -1 means expected empty."""
    return max(vdim(sys), -1)


def residual(sys: FatPointSystem, fixed: FatPointSystem) -> FatPointSystem:
    """Subtract a fixed divisor: degree drops by fixed.degree, each
    multiplicity by the corresponding entry, truncated at 0.

    The divisor-class subtraction in the blow-up module deliberately keeps
    negative entries instead.  Shorter multiplicity lists are padded with
    zeros, so a fixed divisor may be subtracted from a system with extra
    base points.
    """
    if sys.ambient_dim != fixed.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {sys.ambient_dim} vs {fixed.ambient_dim}"
        )
    if fixed.degree > sys.degree:
        raise ValueError(
            f"cannot subtract degree {fixed.degree} from degree {sys.degree}"
        )
    r = max(sys.npoints, fixed.npoints)
    a = sys.mults + (0,) * (r - sys.npoints)
    b = fixed.mults + (0,) * (r - fixed.npoints)
    out = tuple(max(ma - mb, 0) for ma, mb in zip(a, b))
    return FatPointSystem(sys.ambient_dim, sys.degree - fixed.degree, out)


# Longest multiplicity list a literal may expand to; no rank the engine
# can compute needs this many base points.
MAX_MULTS = 10_000


class SystemParseError(ValueError):
    """Parse failure carrying the byte offset of the offending character."""

    def __init__(self, message: str, text: str, offset: int):
        self.offset = offset
        self.text = text
        super().__init__(f"{message} at byte {offset} in {text!r}")


class _Scanner:
    """Cursor over a literal, skipping whitespace and tracking offsets."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise SystemParseError(f"expected {ch!r}", self.text, self.i)
        self.i += 1

    def try_take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def integer(self, what: str, allow_negative: bool = False) -> int:
        self.skip_ws()
        start = self.i
        if allow_negative and self.i < len(self.text) and self.text[self.i] == "-":
            self.i += 1
        digits = self.i
        while self.i < len(self.text) and self.text[self.i].isdecimal():
            self.i += 1
        if self.i == digits:
            raise SystemParseError(f"expected {what}", self.text, start)
        return int(self.text[start : self.i])

    def end(self) -> None:
        self.skip_ws()
        if self.i < len(self.text):
            raise SystemParseError("unexpected trailing input", self.text, self.i)

    def mult_list(self, closing: str, allow_negative: bool = False, lead: bool = False) -> list[int]:
        """Multiplicities `m[^count]` separated by commas, up to `closing`,
        which is left for the caller to take.

        The list may be empty.  With `lead` every item follows a comma, as
        after the degree in `L3(9,6,4^8)`, and a missing separator is
        reported as a missing comma; otherwise the items start at once, as
        in `[2;1,1^8]`, and it is reported as a missing `closing`.  A list
        is refused before it is expanded past `MAX_MULTS` entries, at the
        offset of the count (or plain item) that would pass it.
        """
        mults: list[int] = []
        if self.peek() == closing:
            return mults
        if lead:
            self.expect(",")
        while True:
            self.skip_ws()
            at = self.i
            m = self.integer("multiplicity", allow_negative)
            count = 1
            if self.try_take("^"):
                self.skip_ws()
                at = self.i
                count = self.integer("repeat count")
                if count < 1:
                    raise SystemParseError("repeat count must be >= 1", self.text, at)
            if len(mults) + count > MAX_MULTS:
                raise SystemParseError(f"more than {MAX_MULTS} multiplicities", self.text, at)
            mults.extend([m] * count)
            if self.try_take(","):
                continue
            if self.peek() == closing:
                return mults
            missing = "," if lead else closing
            raise SystemParseError(f"expected {missing!r}", self.text, self.i)


def parse_system(text: str) -> FatPointSystem:
    """Parse `L<n>(<d>[,<m>[^<count>]]*)`, e.g. `L3(9,6,4^8)`.

    Whitespace is ignored everywhere else; errors carry the byte offset
    of the offending character.
    """
    sc = _Scanner(text)
    if sc.peek() != "L":
        raise SystemParseError("expected 'L'", text, sc.i)
    sc.i += 1
    n = sc.integer("ambient dimension")
    if n < 1:
        raise SystemParseError("ambient dimension must be >= 1", text, sc.i)
    sc.expect("(")
    d = sc.integer("degree")
    mults = sc.mult_list(")", lead=True)
    sc.expect(")")
    sc.end()
    return FatPointSystem(n, d, tuple(mults))


def _compressed(mults: tuple[int, ...]) -> str:
    """Run-length form of a multiplicity list: 6,4^8."""
    parts: list[str] = []
    i = 0
    while i < len(mults):
        j = i
        while j < len(mults) and mults[j] == mults[i]:
            j += 1
        parts.append(f"{mults[i]}^{j - i}" if j - i > 1 else str(mults[i]))
        i = j
    return ",".join(parts)


def format_system(sys: FatPointSystem) -> str:
    body = str(sys.degree)
    if sys.mults:
        body += "," + _compressed(sys.mults)
    return f"L{sys.ambient_dim}({body})"
