"""Interpolation condition matrices at random points and the Monte Carlo
effective-dimension oracle.

"Points in general position" is realized probabilistically: base points
are drawn uniformly from an affine chart over F_p.  The rank of the
stacked condition matrix at random points is a lower bound for the rank
at general points, so h0 = monomials - rank is an upper bound for the
general h0, never an undercount; with the default p = 2**61 - 1 a rank
drop requires the random points to hit a fixed hypersurface of modest
degree, which happens with probability on the order of 1e-16 per trial.
Taking the maximum rank over independent trials makes the error
one-sided and vanishingly small.

A rank that reaches its ceiling min(conditions, monomials) is exact in
characteristic 0 at any prime: the condition matrix at integer points has
integer entries, a minor that is nonzero mod q is a nonzero integer, so
the generic rank is at least that minor's size (Schwartz, JACM 1980,
bounds how often a draw misses it).  effective_dim therefore first ranks
one draw at _CERT_PRIME, the largest prime whose residues are one 21-bit
limb, where a product takes one float64 GEMM instead of six at 2**61 - 1.
A rank at the ceiling there is the answer; anything less is thrown away
and the trials run at the requested prime as if the certificate had not
been tried.

A known floor on the generic h0 lowers the ceiling to monomials - floor.
_peel passes one: when the residual after a fixed divisor has an exact h0
and the fixed system has more monomials than conditions, so a nonzero
fixed form exists at any points, multiplying by that form embeds the
residual into the system, and the generic h0 of the system is at least
the residual's.  The rank at q is
then at most the rank over Q at the lifted points, at most the generic
rank, at most monomials - floor; a rank at q that reaches it makes every
step an equality.  So a special system whose excess comes from a fixed
component is certified like a full-rank one.  The argument never uses q,
so one rule says which h0 is exact: a rank at its ceiling
min(conditions, monomials - floor), whether the certificate's, a trial's
at the requested prime, or that of a system without conditions or with a
multiplicity above the degree + 1.

A point constrained to the quadric through nine earlier points is not a
uniform integer draw: it is the second point where a random line through
the first of the nine meets that quadric.  Such a line meets the quadric
in at most one more point, found without a square root, and sending a
line's direction to that second point inverts the projection of the
quadric from the first point, which makes a random direction give a
general point of the quadric.  These draws are certified too.  The nine
points lifted to integers have a 9 x 10 monomial matrix of rank 9 over Q,
as its rank mod q is 9, so the rational quadric through them is unique
and its primitive kernel vector reduces to the quadric found mod q.
on_quadric returns only when a is nonzero mod q, so t = -b/a is
q-integral and every contact point is the reduction of a rational point
of the rational quadric.  The configurations with contact points form one
irreducible family, so a minor that is nonzero at one of its points is
nonzero at a general one.  A certificate draw that cannot be sampled
(DegenerateConfigurationError, QuadricSampleError) certifies nothing, and
the trials run.

Vanishing to order m at a point is imposed through iterated partial
derivatives: all derivatives of order < m vanish.  This encodes the
scheme-theoretic fat point correctly because p exceeds the degree, so
the falling-factorial coefficients of the derivatives are nonzero
residues.
"""

from __future__ import annotations

import math
import operator
import secrets
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfprime import (
    _LIMB_PRODUCT_BITS,
    DEFAULT_PRIME,
    PrimeField,
    PrimeFieldMatrix,
    is_prime,
    mulmod_vec,
)
from .syscore import FatPointSystem, edim_expected, residual, vdim

__all__ = [
    "RankReport",
    "OnQuadric",
    "DegenerateConfigurationError",
    "QuadricSampleError",
    "VirtualBoundError",
    "monomial_exponents",
    "effective_dim",
    "quadric_through",
    "on_quadric",
    "fixed_component_test",
]

SamplePoint = tuple[int, ...]


class DegenerateConfigurationError(RuntimeError):
    """The sampled points failed a genericity requirement (resample)."""


class VirtualBoundError(RuntimeError):
    """A computed rank exceeds what the virtual dimension allows: the rank
    engine or the condition matrix is wrong, never the points."""


class QuadricSampleError(RuntimeError):
    """Too many consecutive failures while sampling a point on a quadric."""

    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(
            f"no point on the quadric found after {attempts} random lines; "
            "the prime may be too small or the quadric degenerate"
        )


@dataclass(frozen=True)
class OnQuadric:
    """Constrains a sample point to lie on the quadric through the nine
    points at the given indices, which must be distinct, earlier and
    unconstrained.  The point is drawn by on_quadric on a random line
    through the first of them, so it is a general point of the quadric
    (see on_quadric)."""

    through: tuple[int, ...]


@dataclass(frozen=True)
class RankReport:
    """Outcome of a Monte Carlo effective-dimension run.

    rank is the maximum over trials; h0 = monomials - rank bounds the
    dimension of the system from above, and `special` compares the
    resulting effective dimension against the expected one.  `analytic`
    marks verdicts short-circuited without a matrix (multiplicity above
    degree + 1 empties the system identically).  `trials` is the number
    of trials requested and `trials_run` the number whose ranks the report
    keeps: fewer when a trial reaches the ceiling min(conditions,
    monomials, monomials - floor), and 0 for analytic verdicts and systems
    without conditions.  `certified_by` is _CERT_PRIME when one rank at
    that prime reached the ceiling and is the report's rank (`trials_run`
    is then 1), else None; a certificate that fell short counts in neither
    field.  `floor` is the proven lower bound on h0 that the ceiling used
    (0 when none was given).  None of the three enters any JSON.
    """

    system: FatPointSystem
    monomials: int
    conditions: int
    rank: int
    h0: int
    edim_actual: int
    vdim: int
    edim_expected: int
    special: bool
    trials: int
    seed: int
    prime: int
    analytic: bool = False
    trials_run: int = 0
    certified_by: int | None = None
    floor: int = 0


@lru_cache(maxsize=None)
def monomial_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of monomials of degree <= d in n variables.

    Graded lexicographic order: total degree ascending, and inside one
    degree the lexicographically larger exponent first, so (n=2, d=1)
    gives (0,0), (1,0), (0,1).  Length is C(d+n, n).
    """
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")

    def descending(total: int, length: int):
        if length == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in descending(total - first, length - 1):
                yield (first,) + rest

    out: list[tuple[int, ...]] = []
    for total in range(d + 1):
        out.extend(descending(total, n))
    if len(out) != math.comb(d + n, n):
        raise RuntimeError(f"enumerated {len(out)} monomials, expected C({d + n}, {n})")
    return tuple(out)


@lru_cache(maxsize=None)
def _exponent_array(n: int, d: int) -> np.ndarray:
    """monomial_exponents(n, d) as a read-only array of shape (C(d+n, n), n)."""
    exps = np.array(monomial_exponents(n, d), dtype=np.intp).reshape(-1, n)
    exps.flags.writeable = False
    return exps


# Points of equal multiplicity share a mulmod_vec call up to this many block
# entries (128 kB per operand), which bounds the temporaries of the build.
_BUILD_BATCH = 1 << 14


@lru_cache(maxsize=None)
def _derivative_pattern(n: int, m: int, d: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The point-independent factors of an order-m condition block.

    Row r is a derivative multi-index alpha_r of order < m (graded lex) and
    column c a monomial exponent e_c of monomial_exponents(n, d).  At a point
    x, d^alpha_r x^e_c = prod_j falling(e_jc, alpha_jr) * x^(e_c - alpha_r), so
    the block is F * V[idx] for the point's monomial values V, with
    F[r, c] = prod_j falling(e_jc, alpha_jr) mod p (zero unless alpha_r <= e_c)
    and idx[r, c] the column of e_c - alpha_r (column 0 where F is zero).
    """
    alphas = _exponent_array(n, m - 1)
    exps = _exponent_array(n, d)
    # an exponent vector's code in base d + 1 is linear, so e_c - alpha_r has
    # code codes[c] - alpha_r's code wherever alpha_r <= e_c
    radix = (d + 1) ** np.arange(n, dtype=np.intp)
    codes = exps @ radix
    below = np.ones((len(alphas), len(exps)), dtype=bool)
    for j in range(n):
        below &= alphas[:, j][:, None] <= exps[:, j]
    shifted = np.where(below, codes - (alphas @ radix)[:, None], 0)
    order = np.argsort(codes)
    idx = order[np.searchsorted(codes, shifted, sorter=order)]
    falling = np.array(
        [[math.perm(t, a) % p for t in range(d + 1)] for a in range(m)], dtype=np.uint64
    )
    f = falling[alphas[:, 0][:, None], exps[:, 0]]
    for j in range(1, n):
        f = mulmod_vec(f, falling[alphas[:, j][:, None], exps[:, j]], p)
    f.flags.writeable = idx.flags.writeable = False
    return f, idx


def _monomial_values(pts: list[SamplePoint], n: int, d: int, p: int) -> np.ndarray:
    """V[i, c] = pts[i] ** e_c mod p over monomial_exponents(n, d) (0**0 = 1)."""
    powers = []
    for pt in pts:
        for x in pt:
            row = [1] * (d + 1)
            for t in range(1, d + 1):
                row[t] = row[t - 1] * x % p
            powers.append(row)
    table = np.array(powers, dtype=np.uint64).reshape(len(pts), n, d + 1)
    exps = _exponent_array(n, d)
    values = table[:, 0, exps[:, 0]]
    for j in range(1, n):
        values = mulmod_vec(values, table[:, j, exps[:, j]], p)
    return values


# The largest prime whose residues are one 21-bit limb, (q - 1)**2 <
# 2**_LIMB_PRODUCT_BITS: ranks that reach their ceiling are certified here.
_CERT_PRIME = next(
    q for q in range(math.isqrt((1 << _LIMB_PRODUCT_BITS) - 1) + 1, 1, -1) if is_prime(q)
)
_CERT_FIELD = PrimeField(_CERT_PRIME)

# Draws of one trial's points before a degenerate configuration is an error.
_DRAW_ATTEMPTS = 8
# Random lines tried for one point on a quadric before QuadricSampleError.
_QUADRIC_LINES = 64


def _draw_points(
    count: int,
    n: int,
    field: PrimeField,
    rng: np.random.Generator,
    constraints,
) -> list[SamplePoint]:
    """One trial's points.  When nine points of an OnQuadric constraint lie
    on no unique quadric, all the points are drawn again from the same rng,
    up to _DRAW_ATTEMPTS draws; the last failure is raised."""
    for _ in range(_DRAW_ATTEMPTS - 1):
        try:
            return _draw_once(count, n, field, rng, constraints)
        except DegenerateConfigurationError:
            pass
    return _draw_once(count, n, field, rng, constraints)


def _draw_once(count, n, field, rng, constraints) -> list[SamplePoint]:
    pts: list[SamplePoint] = []
    quadrics: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in range(count):
        c = constraints[i] if constraints is not None and i < len(constraints) else None
        if c is None:
            coords = rng.integers(0, field.p, size=n, dtype=np.uint64)
            pts.append(tuple(int(x) for x in coords))
        elif isinstance(c, OnQuadric):
            if n != 3:
                raise ValueError("quadric constraints apply to points in P^3")
            key = tuple(c.through)
            if len(set(key)) != 9 or any(not 0 <= t < i or constraints[t] is not None for t in key):
                raise ValueError(
                    "a quadric constraint needs nine distinct earlier unconstrained "
                    f"points, got {key}"
                )
            if key not in quadrics:
                quadrics[key] = quadric_through([pts[t] for t in key], field)
            pts.append(on_quadric(quadrics[key], pts[key[0]], rng, field))
        else:
            raise TypeError(f"unknown constraint {c!r}")
    return pts


def _system_matrix(
    sys: FatPointSystem, pts: list[SamplePoint], field: PrimeField
) -> PrimeFieldMatrix:
    """The stacked condition matrix, derivative-major: the value row of
    every point with multiplicity >= 1, in point order, then derivative 1
    (graded lex, as in _derivative_pattern) of every point that has one,
    and so on.  Points of equal multiplicity are built together, each
    point's rows as F * V[idx] from _derivative_pattern, scattered to
    their positions in that order.

    The order is exact: a row permutation keeps the rank and the column
    rank profile (the leftmost-first pivot columns; Dumas, Pernet and
    Sultan, ISSAC 2013), so every rank and pivot trace is that of the
    point-major stack.  It is chosen for the elimination: stacked point by
    point, a leaf's top block holds derivatives of one point, whose
    structural zeros can make a leading minor vanish and force a row
    swap; derivative-major, it holds one or two derivatives at different
    points, and the leaf's no-pivot probe rarely meets a zero pivot.

    The matrix belongs to one trial, so its rank() eliminates it in place
    and spends it (see PrimeFieldMatrix._consumable)."""
    n, d, p = sys.ambient_dim, sys.degree, field.p
    heights = [math.comb(m - 1 + n, n) if m >= 1 else 0 for m in sys.mults]
    starts = np.cumsum([0] + heights)
    # positions[starts[i] + r] is the row of point i's derivative r
    deriv = np.arange(starts[-1]) - np.repeat(starts[:-1], heights)
    positions = np.empty(starts[-1], dtype=np.intp)
    positions[np.argsort(deriv, kind="stable")] = np.arange(starts[-1])
    out = np.empty((int(starts[-1]), math.comb(d + n, n)), dtype=np.uint64)
    values = _monomial_values(pts, n, d, p)
    for m in sorted({m for m in sys.mults if m >= 1}):
        f, idx = _derivative_pattern(n, m, d, p)
        members = [i for i, mi in enumerate(sys.mults) if mi == m]
        per_call = max(1, _BUILD_BATCH // (heights[members[0]] * out.shape[1]))
        for g0 in range(0, len(members), per_call):
            group = members[g0 : g0 + per_call]
            rows = np.concatenate([positions[starts[i] : starts[i + 1]] for i in group])
            out[rows] = mulmod_vec(f, values[group][:, idx], p).reshape(rows.size, -1)
    return PrimeFieldMatrix._consumable(field, out)


def effective_dim(
    sys: FatPointSystem,
    *,
    trials: int = 3,
    seed: int | None = None,
    prime: int = DEFAULT_PRIME,
    constraints=None,
    floor: int = 0,
) -> RankReport:
    """Monte Carlo effective dimension of a fat-point system.

    Each trial draws one fresh point per base point (honoring the
    optional per-point constraints), stacks the derivative conditions
    and computes the exact rank over F_p; the report keeps the maximum
    rank across trials.  The verdict is one-sided: h0 can only ever be
    overcounted, so special = true is wrong only with probability about
    (degree of the relevant degeneracy locus) / p per trial.

    `floor` is a proven lower bound on the generic h0, 0 <= floor <=
    monomials (else ValueError); only _peel passes one.  The rank ceiling
    is min(conditions, monomials, monomials - floor), and a rank above it
    raises VirtualBoundError.  The trials stop early once the rank reaches
    the ceiling, which no later trial can exceed, so the reported rank is
    the one all trials would give; `trials_run` records how many ran.

    Before the first trial, when `prime` exceeds _CERT_PRIME, the first
    trial's points are drawn mod _CERT_PRIME instead, with the same
    constraints, from a fresh generator on the same seed child, and ranked
    once.  Reaching the ceiling there proves the rank in characteristic 0
    (see the module docstring): the report keeps it, with `certified_by` =
    _CERT_PRIME and `trials_run` = 1.  Otherwise that rank is discarded,
    as is a draw that raised DegenerateConfigurationError or
    QuadricSampleError, and the trials run at `prime` exactly as without
    it: same seed children, same points, same ranks.  The fields a JSON
    report reads (rank, h0, special, ...) are the same either way whenever
    the trials at `prime` reach the generic rank.

    The same (seed, trials, prime, constraints) produce the same points
    for any system with the same number of base points, which is what
    makes fixed-component comparisons meaningful: every trial draws from
    its own child of the seed, so skipping later trials changes no draw.
    A certified report's points are the ones drawn mod _CERT_PRIME.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    field = PrimeField(prime)
    prime = field.p
    if prime <= sys.degree:
        raise ValueError(f"prime {prime} must exceed the degree {sys.degree}")
    monomials = sys.monomial_count()
    floor = operator.index(floor)
    if not 0 <= floor <= monomials:
        raise ValueError(f"need 0 <= floor <= {monomials} monomials, got {floor}")
    if seed is None:
        seed = secrets.randbits(64)
    n, d = sys.ambient_dim, sys.degree
    conditions = sys.condition_count()
    v = vdim(sys)
    expected = edim_expected(sys)
    analytic = any(m > d + 1 for m in sys.mults)
    ceiling = min(conditions, monomials - floor)
    rank = trials_run = 0
    certified_by = None
    if analytic:
        rank = monomials  # a multiplicity above d+1 kills every form
    elif conditions:
        seeds = np.random.SeedSequence(seed)
        # children one at a time: the same as spawn(trials), without
        # holding a child for every trial that an early stop skips
        child = seeds.spawn(1)[0]
        if prime > _CERT_PRIME:
            try:
                pts = _draw_points(
                    sys.npoints, n, _CERT_FIELD, np.random.default_rng(child), constraints
                )
            except (DegenerateConfigurationError, QuadricSampleError):
                pass  # no certificate: the trials decide
            else:
                cert = _system_matrix(sys, pts, _CERT_FIELD).rank()
                if cert >= ceiling:  # above it, the bound check below raises
                    rank, trials_run, certified_by = cert, 1, _CERT_PRIME
        while rank < ceiling and trials_run < trials:
            if trials_run:
                child = seeds.spawn(1)[0]
            pts = _draw_points(sys.npoints, n, field, np.random.default_rng(child), constraints)
            rank = max(rank, _system_matrix(sys, pts, field).rank())
            trials_run += 1
    h0 = monomials - rank
    if rank > ceiling:
        raise VirtualBoundError(
            f"rank {rank} exceeds the virtual bound for {sys}: h0={h0} < {monomials - ceiling}"
        )
    edim_actual = h0 - 1
    return RankReport(
        system=sys,
        monomials=monomials,
        conditions=conditions,
        rank=rank,
        h0=h0,
        edim_actual=edim_actual,
        vdim=v,
        edim_expected=expected,
        special=edim_actual > expected,
        trials=trials,
        seed=seed,
        prime=prime,
        analytic=analytic,
        trials_run=trials_run,
        certified_by=certified_by,
        floor=floor,
    )


def quadric_through(points: list[SamplePoint], field: PrimeField) -> tuple[int, ...]:
    """Coefficients of the quadric through nine points of P^3 (affine chart).

    The 9 x 10 evaluation matrix of the degree <= 2 monomials must have a
    one-dimensional kernel; anything else means the points are in a
    degenerate configuration and the caller should resample.  The vector
    is normalized so its first nonzero coordinate is 1.
    """
    values = _monomial_values(points, 3, 2, field.p)
    kernel = PrimeFieldMatrix(field, values).nullspace()
    if len(kernel) != 1:
        raise DegenerateConfigurationError(
            f"quadric through {len(points)} points has kernel dimension {len(kernel)}, expected 1"
        )
    return tuple(kernel[0])


def on_quadric(
    q,
    point: SamplePoint,
    rng: np.random.Generator,
    field: PrimeField,
    *,
    counter: dict | None = None,
) -> SamplePoint:
    """A random point of the quadric q other than `point`, which must lie
    on q (else ValueError), or QuadricSampleError.

    Draws a random direction v and returns the second point where the line
    point + t*v meets q.  As q(point) = 0, q restricts to the line as
    a t^2 + b t, so that point is t = -b/a.  The map from v to it inverts
    the projection of the quadric from `point`, so a random direction gives
    a general point of the quadric.  Lines with a = 0 (in the quadric's
    cone of directions) or b = 0 (tangent at `point`) are retried, up to
    _QUADRIC_LINES lines; at a singular `point` every line is tangent.
    When `counter` is given, counter["attempts"] records how many lines
    were tried.
    """
    p = field.p
    coeffs = np.array([int(c) % p for c in q], dtype=np.uint64)
    if not coeffs.any():
        raise ValueError("the zero quadric has no well-defined point sampler")
    quadratic = _exponent_array(3, 2).sum(axis=1) == 2

    def terms(pts):  # coeff_c * pt ** e_c mod p, one row per point, as ints
        return mulmod_vec(_monomial_values(pts, 3, 2, p), coeffs, p).astype(object)

    point = tuple(int(x) % p for x in point)
    for attempt in range(1, _QUADRIC_LINES + 1):
        direction = tuple(int(x) for x in rng.integers(0, p, size=3, dtype=np.uint64))
        shifted = tuple((x + v) % p for x, v in zip(point, direction))
        # restrict to the line point + t*direction: a t^2 + b t + c, where a is
        # the quadratic part at direction, c = q(point) and a + b + c = q(shifted)
        at_d, at_point, at_shifted = terms([direction, point, shifted])
        a = at_d[quadratic].sum() % p
        c = at_point.sum() % p
        if c:
            raise ValueError(f"base point {point} is not on the quadric {tuple(q)}")
        b = (at_shifted.sum() - a) % p
        if a == 0 or b == 0:
            continue
        t = -b * field.inv(a) % p
        pt = tuple((x + t * v) % p for x, v in zip(point, direction))
        if counter is not None:
            counter["attempts"] = attempt
        if terms([pt]).sum() % p:
            raise ArithmeticError(f"sampled point {pt} is not on the quadric {tuple(q)}")
        return pt
    raise QuadricSampleError(_QUADRIC_LINES)


def fixed_component_test(
    sys: FatPointSystem,
    fixed: FatPointSystem,
    *,
    trials: int = 3,
    seed: int | None = None,
    prime: int = DEFAULT_PRIME,
    constraints=None,
) -> bool:
    """Whether `fixed` divides every member of `sys`.

    Compares h0(sys) with h0 of the residual system on identical point
    draws (same seed, same constraints).  Multiplication by the fixed
    form embeds the residual into sys, so equal h0 means the embedding
    is onto and the fixed divisor splits off every member; a strictly
    larger h0 on the sys side refutes divisibility.

    A side whose rank reaches its ceiling has its exact generic h0, at any
    prime and from whichever draw reached it (see the module docstring),
    so only a side short of its ceiling is read at the shared draws; its
    h0 stays an upper bound for the generic one.  When the residual's h0
    is exact and `fixed` has more monomials than conditions, _peel ranks
    sys with that h0 as its floor; an h0 of sys equal to it is then a rank
    at the lowered ceiling, which is exact, so True is a proof.  Otherwise
    an answer can err only when a rank fell short of the generic one, the
    one-sided miss of any Monte Carlo rank.
    """
    if seed is None:
        seed = secrets.randbits(64)
    full, rest = _peel(sys, fixed, constraints, trials=trials, seed=seed, prime=prime)
    return full.h0 == rest.h0


def _peel(sys: FatPointSystem, fixed: FatPointSystem, constraints=None, **mc):
    """The reports of `sys` and of its residual after `fixed`, in that order,
    ranked with the same `effective_dim` settings `mc` and constraints, so on
    identical point draws for a set seed, except on a side whose rank is
    certified at _CERT_PRIME.  Equal h0 means `fixed` divides every member
    of `sys` (see `fixed_component_test`).

    The residual is ranked first.  Its h0 is exact when its rank reaches
    its ceiling min(conditions, monomials - floor), at any prime: that one
    test covers a certified rank, a trial's rank at the requested prime, a
    residual without conditions and an analytic one.  An exact h0 is a
    floor for the generic h0 of `sys` when `fixed` is nonempty by
    counting, with more monomials than conditions: a fixed form times the
    residual embeds it into `sys` (the residual's multiplicities are
    truncated at 0, which keeps that true).  `sys` is
    then ranked with that floor, so a rank at its lowered ceiling is
    certified and h0(sys) == h0(residual) is a proof that `fixed` splits
    off."""
    rest = effective_dim(residual(sys, fixed), constraints=constraints, **mc)
    exact = rest.rank == min(rest.conditions, rest.monomials - rest.floor)
    nonempty = fixed.monomial_count() > fixed.condition_count()
    full = effective_dim(
        sys, constraints=constraints, floor=rest.h0 if exact and nonempty else 0, **mc
    )
    return full, rest
