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

Vanishing to order m at a point is imposed through iterated partial
derivatives: all derivatives of order < m vanish.  This encodes the
scheme-theoretic fat point correctly because p exceeds the degree, so
the falling-factorial coefficients of the derivatives are nonzero
residues.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gfprime import DEFAULT_PRIME, PrimeField, PrimeFieldMatrix, mulmod_vec
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
    """Constrains a sample point to lie on the quadric through the points
    at the given indices (which must be drawn earlier and unconstrained)."""

    through: tuple[int, ...]


@dataclass(frozen=True)
class RankReport:
    """Outcome of a Monte Carlo effective-dimension run.

    rank is the maximum over trials; h0 = monomials - rank bounds the
    dimension of the system from above, and `special` compares the
    resulting effective dimension against the expected one.  `analytic`
    marks verdicts short-circuited without a matrix (multiplicity above
    degree + 1 empties the system identically).  `trials` is the number
    of trials requested and `trials_run` the number ranked: fewer when a
    trial reaches the ceiling min(conditions, monomials), and 0 for
    analytic verdicts and systems without conditions.
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


def _condition_blocks(values: np.ndarray, m: int, n: int, d: int, p: int) -> np.ndarray:
    """The C(m+n-1, n) x C(d+n, n) derivative-condition blocks of order m at
    the points whose monomial values are the rows of `values`, stacked along
    a leading axis.

    Rows follow the graded-lex order of derivative multi-indices of order
    < m; columns follow monomial_exponents(n, d).
    """
    f, idx = _derivative_pattern(n, m, d, p)
    return mulmod_vec(f, values[:, idx], p)


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
            if any(t >= i for t in c.through):
                raise ValueError("a quadric constraint may only reference earlier points")
            key = tuple(c.through)
            if key not in quadrics:
                quadrics[key] = quadric_through([pts[t] for t in key], field)
            pts.append(on_quadric(quadrics[key], rng, field))
        else:
            raise TypeError(f"unknown constraint {c!r}")
    return pts


def _system_matrix(
    sys: FatPointSystem, pts: list[SamplePoint], field: PrimeField
) -> PrimeFieldMatrix:
    """The stacked condition matrix: one block per point with multiplicity
    >= 1, in point order.  Points of equal multiplicity are built together.

    The matrix belongs to one trial, so its rank() eliminates it in place
    and spends it (see PrimeFieldMatrix._consumable)."""
    n, d, p = sys.ambient_dim, sys.degree, field.p
    heights = [math.comb(m - 1 + n, n) if m >= 1 else 0 for m in sys.mults]
    starts = np.cumsum([0] + heights)
    out = np.empty((int(starts[-1]), math.comb(d + n, n)), dtype=np.uint64)
    values = _monomial_values(pts, n, d, p)
    for m in sorted({m for m in sys.mults if m >= 1}):
        members = [i for i, mi in enumerate(sys.mults) if mi == m]
        per_call = max(1, _BUILD_BATCH // (heights[members[0]] * out.shape[1]))
        for g0 in range(0, len(members), per_call):
            group = members[g0 : g0 + per_call]
            rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in group])
            out[rows] = _condition_blocks(values[group], m, n, d, p).reshape(rows.size, -1)
    return PrimeFieldMatrix._consumable(field, out)


def effective_dim(
    sys: FatPointSystem,
    *,
    trials: int = 3,
    seed: int | None = None,
    prime: int = DEFAULT_PRIME,
    constraints=None,
) -> RankReport:
    """Monte Carlo effective dimension of a fat-point system.

    Each trial draws one fresh point per base point (honoring the
    optional per-point constraints), stacks the derivative conditions
    and computes the exact rank over F_p; the report keeps the maximum
    rank across trials.  The verdict is one-sided: h0 can only ever be
    overcounted, so special = true is wrong only with probability about
    (degree of the relevant degeneracy locus) / p per trial.

    The trials stop early once the rank reaches min(conditions,
    monomials), which no later trial can exceed, so the reported rank is
    the one all trials would give; `trials_run` records how many ran.

    The same (seed, trials, prime, constraints) produce the same points
    for any system with the same number of base points, which is what
    makes fixed-component comparisons meaningful: every trial draws from
    its own child of the seed, so skipping later trials changes no draw.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    field = PrimeField(prime)
    if prime <= sys.degree:
        raise ValueError(f"prime {prime} must exceed the degree {sys.degree}")
    if seed is None:
        seed = secrets.randbits(64)
    n, d = sys.ambient_dim, sys.degree
    monomials = sys.monomial_count()
    conditions = sys.condition_count()
    v = vdim(sys)
    expected = edim_expected(sys)
    analytic = any(m > d + 1 for m in sys.mults)
    rank = trials_run = 0
    if analytic:
        rank = monomials  # a multiplicity above d+1 kills every form
    elif conditions:
        ceiling = min(conditions, monomials)
        seeds = np.random.SeedSequence(seed)
        for _ in range(trials):
            # children one at a time: the same as spawn(trials), without
            # holding a child for every trial that an early stop skips
            rng = np.random.default_rng(seeds.spawn(1)[0])
            pts = _draw_points(sys.npoints, n, field, rng, constraints)
            rank = max(rank, _system_matrix(sys, pts, field).rank())
            trials_run += 1
            if rank == ceiling:
                break
    h0 = monomials - rank
    if h0 < max(v + 1, 0):
        raise VirtualBoundError(
            f"rank {rank} exceeds the virtual bound for {sys}: h0={h0} < {max(v + 1, 0)}"
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
    rng: np.random.Generator,
    field: PrimeField,
    *,
    counter: dict | None = None,
) -> SamplePoint:
    """A random point on the quadric q, or QuadricSampleError.

    Draws a fresh random affine line, restricts q to it and solves the
    quadratic with the field square root; non-residue discriminants and
    degenerate (non-quadratic) restrictions are retried, about half of
    all lines succeeding, up to _QUADRIC_LINES lines.  When `counter` is
    given, counter["attempts"] records how many lines were tried.
    """
    p = field.p
    coeffs = np.array([int(c) % p for c in q], dtype=np.uint64)
    if not coeffs.any():
        raise ValueError("the zero quadric has no well-defined point sampler")
    quadratic = _exponent_array(3, 2).sum(axis=1) == 2

    def terms(pts):  # coeff_c * pt ** e_c mod p, one row per point, as ints
        return mulmod_vec(_monomial_values(pts, 3, 2, p), coeffs, p).astype(object)

    for attempt in range(1, _QUADRIC_LINES + 1):
        base = tuple(int(x) for x in rng.integers(0, p, size=3, dtype=np.uint64))
        direction = tuple(int(x) for x in rng.integers(0, p, size=3, dtype=np.uint64))
        shifted = tuple((bb + dd) % p for bb, dd in zip(base, direction))
        # restrict to the line base + t*direction: a t^2 + b t + c, where a is
        # the quadratic part at direction, c = q(base) and a + b + c = q(shifted)
        at_d, at_base, at_shifted = terms([direction, base, shifted])
        a = at_d[quadratic].sum() % p
        c = at_base.sum() % p
        b = (at_shifted.sum() - a - c) % p
        if a == 0:
            continue
        disc = (b * b - 4 * a * c) % p
        root = field.sqrt(disc)
        if root is None:
            continue
        if int(rng.integers(0, 2)) == 1:
            root = (-root) % p
        t = (root - b) % p * field.inv(2 * a % p) % p
        pt = tuple((bb + t * dd) % p for bb, dd in zip(base, direction))
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
    """
    if seed is None:
        seed = secrets.randbits(64)
    full = effective_dim(sys, trials=trials, seed=seed, prime=prime, constraints=constraints)
    rest = effective_dim(
        residual(sys, fixed), trials=trials, seed=seed, prime=prime, constraints=constraints
    )
    return full.h0 == rest.h0
