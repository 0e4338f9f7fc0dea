"""Condition matrices at random points and the Monte Carlo rank oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import gfprime, interp
from fatpoints.gfprime import (
    DEFAULT_PRIME,
    ConsumedMatrixError,
    PrimeField,
    PrimeFieldMatrix,
    _gauss_jordan,
    _rank_with_pivots,
)
from fatpoints.interp import (
    DegenerateConfigurationError,
    OnQuadric,
    QuadricSampleError,
    _draw_points,
    _system_matrix,
    effective_dim,
    fixed_component_test,
    monomial_exponents,
    on_quadric,
    quadric_through,
)
from fatpoints.syscore import FatPointSystem, parse_system, residual


def test_monomial_order_is_graded_with_lex_inside_degrees():
    assert monomial_exponents(2, 1) == ((0, 0), (1, 0), (0, 1))
    assert monomial_exponents(2, 2) == (
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    )
    exps = monomial_exponents(3, 9)
    assert len(exps) == 220
    assert len(monomial_exponents(2, 12)) == 91
    degrees = [sum(e) for e in exps]
    assert degrees == sorted(degrees)
    for a, b in zip(exps, exps[1:]):
        if sum(a) == sum(b):
            assert a > b  # lexicographically descending inside a degree


def test_monomial_exponents_validation():
    with pytest.raises(ValueError):
        monomial_exponents(0, 3)
    with pytest.raises(ValueError):
        monomial_exponents(2, -1)


def test_condition_blocks_are_iterated_derivatives():
    x, y = 5, 11
    field = PrimeField(DEFAULT_PRIME)
    rows = _system_matrix(FatPointSystem(2, 2, (2,)), [(x, y)], field).entries.tolist()
    # columns follow 1, x, y, x^2, xy, y^2; rows follow value, d/dx, d/dy
    assert rows[0] == [1, x, y, x * x, x * y, y * y]
    assert rows[1] == [0, 1, 0, 2 * x, y, 0]
    assert rows[2] == [0, 0, 1, 0, x, 2 * y]


def test_condition_block_shapes():
    field = PrimeField(DEFAULT_PRIME)
    block = _system_matrix(FatPointSystem(3, 4, (3,)), [(3, 5, 7)], field)
    assert block.shape == (10, math.comb(7, 3))
    empty = _system_matrix(FatPointSystem(2, 4, (0,)), [(1, 2)], field)
    assert empty.shape == (0, math.comb(6, 2))


def test_univariate_ranks_match_closed_form_sample():
    for d in range(5):
        for mults in [(1,), (2,), (3,), (1, 1), (2, 2), (3, 2, 1)]:
            rep = effective_dim(FatPointSystem(1, d, mults), trials=2, seed=77)
            assert rep.h0 == max(d + 1 - sum(mults), 0), (d, mults)


def test_report_fields_are_coherent():
    rep = effective_dim(parse_system("L2(6,1^2,2^8)"), seed=4)
    assert rep.monomials == 28
    assert rep.conditions == 26
    assert rep.rank == 26
    assert rep.h0 == 2
    assert rep.edim_actual == 1
    assert rep.vdim == 1
    assert rep.edim_expected == 1
    assert not rep.special
    assert rep.trials == 3
    assert rep.seed == 4
    assert rep.prime == DEFAULT_PRIME
    assert not rep.analytic


def test_same_seed_reproduces_report():
    s = parse_system("L3(5,4,2^8)")
    a = effective_dim(s, seed=123)
    b = effective_dim(s, seed=123)
    assert a == b


def test_seed_is_generated_and_echoed_when_omitted():
    rep = effective_dim(parse_system("L2(2,1)"))
    assert 0 <= rep.seed < 2**64
    again = effective_dim(parse_system("L2(2,1)"), seed=rep.seed)
    assert again.rank == rep.rank


def test_more_trials_never_lower_the_rank():
    s = parse_system("L2(9,2^2,3^8)")
    r1 = effective_dim(s, trials=1, seed=9).rank
    r3 = effective_dim(s, trials=3, seed=9).rank
    assert r3 >= r1


def test_multiplicity_above_degree_short_circuits():
    rep = effective_dim(FatPointSystem(2, 2, (5,)), seed=1)
    assert rep.analytic
    assert rep.rank == rep.monomials == 6
    assert rep.h0 == 0


def test_no_conditions_means_full_space():
    rep = effective_dim(FatPointSystem(2, 3, ()), seed=1)
    assert rep.h0 == 10
    assert rep.rank == 0
    rep = effective_dim(FatPointSystem(2, 3, (0, 0)), seed=1)
    assert rep.h0 == 10


def test_parameter_validation():
    s = parse_system("L2(4,2)")
    with pytest.raises(ValueError):
        effective_dim(s, trials=0, seed=1)
    with pytest.raises(ValueError):
        effective_dim(s, prime=3, seed=1)  # prime must exceed the degree
    with pytest.raises(ValueError):
        effective_dim(s, prime=15, seed=1)


def test_quadric_recovery_from_points_on_a_known_quadric():
    p = 101
    field = PrimeField(p)
    rng = np.random.default_rng(20)
    pts = []
    while len(pts) < 9:
        t, s = (int(v) for v in rng.integers(0, p, size=2))
        pt = (t, s, t * s % p)
        if pt not in pts:
            pts.append(pt)
    coeffs = quadric_through(pts, field)
    # monomial order for degree <= 2 in three variables:
    # 1, x, y, z, x^2, xy, xz, y^2, yz, z^2 -- the surface is z = x*y,
    # normalized so the first nonzero coefficient (z) is 1
    expected = [0, 0, 0, 1, 0, p - 1, 0, 0, 0, 0]
    assert list(coeffs) == expected


def test_quadric_through_rejects_degenerate_configurations():
    p = 101
    field = PrimeField(p)
    rng = np.random.default_rng(3)
    pts = [tuple(int(v) for v in rng.integers(0, p, size=3)) for _ in range(8)]
    pts.append(pts[0])  # repeated point drops the rank
    with pytest.raises(DegenerateConfigurationError):
        quadric_through(pts, field)


def _quadric_at(q, pt, p):
    """q(pt) mod p with plain integers, over monomial_exponents(3, 2)."""
    total = 0
    for c, e in zip(q, monomial_exponents(3, 2)):
        term = c
        for coord, power in zip(pt, e):
            term = term * pow(coord, power, p) % p
        total = (total + term) % p
    return total


def _nine_points_and_quadric(p):
    rng = np.random.default_rng(5)
    pts = [tuple(int(v) for v in rng.integers(0, p, size=3)) for _ in range(9)]
    return pts, quadric_through(pts, PrimeField(p))


def test_on_quadric_lands_on_the_surface_and_reports_attempts():
    p = 101
    field = PrimeField(p)
    pts, q = _nine_points_and_quadric(p)
    counter: dict = {}
    pt = on_quadric(q, pts[0], np.random.default_rng(9), field, counter=counter)
    assert _quadric_at(q, pt, p) == 0
    assert pt != pts[0]
    assert counter["attempts"] == 2  # this seed's first line is rejected


def test_on_quadric_gives_up_after_max_attempts():
    field = PrimeField(101)
    q = tuple([0, 0, 0, 1] + [0] * 6)  # the plane z = 0 counts as a quadric here
    with pytest.raises(QuadricSampleError) as info:
        # a plane restricts to no line as a quadratic
        on_quadric(q, (5, 7, 0), np.random.default_rng(1), field)
    assert info.value.attempts == 64
    with pytest.raises(ValueError):
        on_quadric((0,) * 10, (0, 0, 0), np.random.default_rng(1), field)


def test_on_quadric_rejects_a_base_point_off_the_surface():
    p = 101
    pts, q = _nine_points_and_quadric(p)
    off = next(pt for pt in [(0, 0, 0), (1, 0, 0), (0, 1, 0)] if _quadric_at(q, pt, p))
    with pytest.raises(ValueError, match="not on the quadric"):
        on_quadric(q, off, np.random.default_rng(1), PrimeField(p))


def test_on_quadric_gives_up_at_the_vertex_of_a_cone():
    """Every line through the vertex of x^2 + y^2 - z^2 is tangent there
    (b = 0), so no line gives a second point."""
    field = PrimeField(101)
    cone = (0, 0, 0, 0, 1, 0, 0, 1, 0, -1)
    with pytest.raises(QuadricSampleError) as info:
        on_quadric(cone, (0, 0, 0), np.random.default_rng(1), field)
    assert info.value.attempts == 64


def test_on_quadric_draws_stay_on_the_surface_and_off_the_base_point():
    p = 101
    field = PrimeField(p)
    pts, q = _nine_points_and_quadric(p)
    rng = np.random.default_rng(3)
    draws = [on_quadric(q, pts[0], rng, field) for _ in range(500)]
    assert all(_quadric_at(q, pt, p) == 0 for pt in draws)
    assert pts[0] not in draws
    assert len(set(draws)) > 250  # spread over the surface's ~p^2 points


def test_fixed_component_detection():
    sys9 = parse_system("L3(9,6,4^8)")
    quad = parse_system("L3(2,1,1^8)")
    assert fixed_component_test(sys9, quad, seed=11)
    plane = FatPointSystem(3, 1, (1,) + (0,) * 8)
    assert not fixed_component_test(parse_system("L3(3,3,1^8)"), plane, seed=11)
    assert not fixed_component_test(parse_system("L3(3,3,1^8)"), quad, seed=11)


def test_constrained_points_share_the_free_prefix():
    field = PrimeField(DEFAULT_PRIME)
    free = _draw_points(9, 3, field, np.random.default_rng(31), None)
    cons = (None,) * 9 + (OnQuadric(through=tuple(range(9))),)
    mixed = _draw_points(10, 3, field, np.random.default_rng(31), cons)
    assert mixed[:9] == free
    q = quadric_through(free, field)
    assert _quadric_at(q, mixed[9], DEFAULT_PRIME) == 0


def test_constraint_validation():
    s = FatPointSystem(3, 3, (1, 1))
    with pytest.raises(ValueError):
        effective_dim(s, seed=1, constraints=(OnQuadric(through=(0,)), None))
    with pytest.raises(ValueError):
        effective_dim(
            FatPointSystem(2, 3, (1, 1)), seed=1, constraints=(None, OnQuadric(through=(0,)))
        )
    with pytest.raises(TypeError):
        effective_dim(s, seed=1, constraints=("bad", None))


@pytest.mark.parametrize(
    "constraints",
    [
        (None,) * 9 + (OnQuadric(through=(-1,) + tuple(range(8))),),
        (None,) * 9 + (OnQuadric(through=(0, 0) + tuple(range(1, 8))),),
        (None,) * 9 + (OnQuadric(through=(0, 1, 2)),),
        (None,) * 9 + (OnQuadric(through=tuple(range(10))),),
        (None,) * 9 + (OnQuadric(through=tuple(range(1, 10))),),
        (None,) * 9 + (OnQuadric(through=tuple(range(9))), OnQuadric(through=tuple(range(1, 10)))),
    ],
    ids=["negative", "repeated", "three", "ten", "itself", "constrained"],
)
def test_quadric_constraint_needs_nine_distinct_earlier_free_points(monkeypatch, constraints):
    """A bad `through` is refused before any quadric is fitted, not after
    the redraws run out."""
    calls = _flaky_quadric(monkeypatch, failures=0)
    count = len(constraints)
    with pytest.raises(ValueError, match="nine distinct earlier unconstrained points"):
        _draw_points(count, 3, PrimeField(101), np.random.default_rng(1), constraints)
    assert len(calls) == (count == 11)  # only the valid first constraint fits one


def test_peeling_with_contact_points_matches_general_counts():
    on_q = OnQuadric(through=tuple(range(9)))
    ext = FatPointSystem(3, 7, (5,) + (3,) * 8 + (1,))
    quad10 = FatPointSystem(3, 2, (1,) * 10)
    cons = (None,) * 9 + (on_q,)
    assert fixed_component_test(ext, quad10, seed=13, constraints=cons)
    rep = effective_dim(residual(ext, quad10), seed=13, constraints=cons)
    assert rep.h0 == 4


def _rational_kernel_vector(rows):
    """The kernel of a rational matrix of nullity 1, by Gauss-Jordan over Q."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[k])]
        pivots.append(col)
    (free,) = set(range(len(rows[0]))) - set(pivots)
    vec = [Fraction(0)] * len(rows[0])
    vec[free] = Fraction(1)
    for k, col in enumerate(pivots):
        vec[col] = -rows[k][free]
    return vec


def test_contact_points_lift_to_rational_points_of_the_rational_quadric():
    """The argument that certifies on-quadric draws, on L3(5,4,2^8,1^2) with
    two contact points.  The same generator drawn over Q: the nine free
    points lifted to integers, the rational quadric through them (unique),
    and each contact point at t = -b/a on the same lines.  Every
    denominator is prime to q, the rational quadric and points reduce to
    the ones drawn mod q, and the integer condition matrix (each row's
    denominators cleared) reduces to the one built mod q, row by row up to
    the unit that cleared them; its rank mod q, so a minor over Q, is full."""
    q = interp._CERT_PRIME
    field = PrimeField(q)
    sys = parse_system("L3(5,4,2^8,1^2)")
    on_q = OnQuadric(through=tuple(range(9)))
    drawn = _draw_points(11, 3, field, np.random.default_rng(17), (None,) * 9 + (on_q, on_q))

    def mod_q(x):
        assert x.denominator % q
        return x.numerator * pow(x.denominator, -1, q) % q

    rng = np.random.default_rng(17)
    free = [tuple(Fraction(int(x)) for x in rng.integers(0, q, size=3, dtype=np.uint64)) for _ in range(9)]
    exps = monomial_exponents(3, 2)
    quad = _rational_kernel_vector(_reference_matrix(FatPointSystem(3, 2, (1,) * 9), free, None))
    quad_q = [mod_q(c) for c in quad]
    lead = next(c for c in quad_q if c)
    assert tuple(c * field.inv(lead) % q for c in quad_q) == quadric_through(drawn[:9], field)

    def form(pt, quadratic_only=False):
        return sum(
            c * math.prod(x**k for x, k in zip(pt, e))
            for c, e in zip(quad, exps)
            if sum(e) == 2 or not quadratic_only
        )

    base, contacts = free[0], []
    while len(contacts) < 2:  # on_quadric's lines, with its retry rule read mod q
        v = tuple(int(x) for x in rng.integers(0, q, size=3, dtype=np.uint64))
        a = form(v, quadratic_only=True)
        b = form(tuple(x + y for x, y in zip(base, v))) - a  # form(base) = 0
        if mod_q(a) and mod_q(b):
            t = -b / a
            contacts.append(tuple(x + t * y for x, y in zip(base, v)))
            assert form(contacts[-1]) == 0
    config = free + contacts
    assert all(x.denominator > 1 for pt in contacts for x in pt)  # rational, not integer
    assert [tuple(mod_q(x) for x in pt) for pt in config] == drawn

    built = _system_matrix(sys, drawn, field)
    want = built.entries.tolist()
    for row, row_q in zip(_reference_matrix(sys, config, None), want):
        unit = math.lcm(*(x.denominator for x in row))
        assert unit % q
        assert [int(x * unit) % q for x in row] == [unit * y % q for y in row_q]
    assert built.rank() == sys.condition_count() == 54


def test_h0_never_undershoots_the_virtual_bound():
    rng = np.random.default_rng(8)
    for _ in range(40):
        d = int(rng.integers(0, 7))
        r = int(rng.integers(0, 5))
        mults = tuple(int(x) for x in rng.integers(1, 4, size=r))
        rep = effective_dim(FatPointSystem(2, d, mults), trials=1, seed=int(rng.integers(2**32)))
        assert rep.h0 >= max(rep.vdim + 1, 0)


def _reference_matrix(sys, pts, p):
    """Condition rows from the derivative formula on Python integers,
    derivative-major: for each derivative multi-index a in graded-lex
    order, and each point of multiplicity m > |a| in order,
    d^a x^e = prod_j falling(e_j, a_j) x_j^(e_j - a_j).  With p None the
    entries are not reduced (rational points give Fractions)."""
    n, d = sys.ambient_dim, sys.degree
    rows = []
    for a in monomial_exponents(n, max(1, *sys.mults) - 1):
        for pt, m in zip(pts, sys.mults):
            if sum(a) >= m:
                continue
            row = []
            for e in monomial_exponents(n, d):
                v = 1
                for x, ej, aj in zip(pt, e, a):
                    v *= math.perm(ej, aj) * x ** (ej - aj) if ej >= aj else 0
                row.append(v if p is None else v % p)
            rows.append(row)
    return rows


@pytest.mark.parametrize("p", [101, DEFAULT_PRIME])
@pytest.mark.parametrize("batch", [1, 1 << 18])
def test_system_matrix_matches_the_derivative_formula(p, batch, monkeypatch):
    """Mixed multiplicities (0, 1, negative, repeated out of order), a zero
    coordinate and the origin; batch 1 builds every point in its own call."""
    monkeypatch.setattr(interp, "_BUILD_BATCH", batch)
    sys = FatPointSystem(3, 4, (2, 0, 1, 3, -1, 2, 1, 5))
    rng = np.random.default_rng(p % 1000)
    pts = [tuple(int(c) for c in rng.integers(0, p, size=3)) for _ in sys.mults]
    pts[2] = (0, pts[2][1], pts[2][2])
    pts[5] = (0, 0, 0)
    got = _system_matrix(sys, pts, PrimeField(p))
    assert got.shape == (sys.condition_count(), sys.monomial_count())
    assert got.entries.tolist() == _reference_matrix(sys, pts, p)


@pytest.mark.parametrize("p", [5, 101, 4194301, DEFAULT_PRIME])
@given(
    n=st.sampled_from((2, 3)),
    degree=st.integers(0, 5),
    mults=st.lists(st.integers(-1, 4), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=15, deadline=None)
@example(n=3, degree=4, mults=[2, 0, 4, -1, 2, 1], seed=0)
@example(n=2, degree=3, mults=[4, 4, 0, 3, 3], seed=1)
@example(n=2, degree=0, mults=[], seed=2)
def test_derivative_major_rows_keep_the_rank_and_pivots(p, n, degree, mults, seed):
    """The built rows are a permutation of the point-major stack (each
    point's rows from _reference_matrix of that point alone), and the
    blocked engine and Gauss-Jordan give the same rank and pivot columns on
    both layouts: a row permutation keeps the column rank profile."""
    sys = FatPointSystem(n, degree, tuple(mults))
    rng = np.random.default_rng(seed)
    pts = [tuple(int(c) for c in rng.integers(0, p, size=n, dtype=np.uint64)) for _ in mults]
    built = _system_matrix(sys, pts, PrimeField(p)).entries
    point_major = [
        row
        for pt, m in zip(pts, mults)
        for row in _reference_matrix(FatPointSystem(n, degree, (m,)), [pt], p)
    ]
    assert built.shape == (sys.condition_count(), sys.monomial_count())
    assert sorted(built.tolist()) == sorted(point_major)
    stacked = np.array(point_major, dtype=np.uint64).reshape(built.shape)
    pivots = _gauss_jordan(built.astype(object), p)
    assert _gauss_jordan(stacked.astype(object), p) == pivots
    assert _rank_with_pivots(built, p) == _rank_with_pivots(stacked, p) == (len(pivots), pivots)


def test_monomial_exponents_count_check_raises(monkeypatch):
    monkeypatch.setattr(interp.math, "comb", lambda a, b: -1)
    with pytest.raises(RuntimeError, match="monomials"):
        monomial_exponents.__wrapped__(2, 3)


def test_on_quadric_raises_when_the_point_misses_the_surface():
    class WrongInverses(PrimeField):
        __slots__ = ()

        def inv(self, a):
            return (super().inv(a) + 1) % self.p

    pts, q = _nine_points_and_quadric(101)
    with pytest.raises(ArithmeticError, match="not on the quadric"):
        on_quadric(q, pts[0], np.random.default_rng(7), WrongInverses(101))


def _counted_system_matrix(monkeypatch):
    """Count the condition matrices built, one per trial that runs."""
    calls = []
    inner = interp._system_matrix

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(interp, "_system_matrix", counted)
    return calls


def test_trials_stop_once_the_rank_reaches_its_ceiling(monkeypatch):
    calls = _counted_system_matrix(monkeypatch)
    rep = effective_dim(parse_system("L2(12,3^2,4^8)"), trials=3, seed=5)
    assert rep.rank == min(rep.conditions, rep.monomials) == 91
    assert (rep.trials, rep.trials_run) == (3, 1)
    assert len(calls) == 1


def test_rank_deficient_system_runs_every_trial(monkeypatch):
    """The certificate at _CERT_PRIME falls short, so its matrix is the
    first of four built, and every trial at the requested prime runs."""
    calls = _counted_system_matrix(monkeypatch)
    rep = effective_dim(parse_system("L2(4,2^5)"), trials=3, seed=5)  # the double conic
    assert rep.rank == 14 < min(rep.conditions, rep.monomials)
    assert (rep.trials, rep.trials_run, rep.certified_by) == (3, 3, None)
    assert len(calls) == 4


def _spawned_seeds(monkeypatch):
    """Record every seed child that effective_dim spawns."""
    children = []
    real = np.random.SeedSequence

    class Recorded:
        def __init__(self, entropy):
            self._seq = real(entropy)

        def spawn(self, n):
            kids = self._seq.spawn(n)
            children.extend(kids)
            return kids

    monkeypatch.setattr(np.random, "SeedSequence", Recorded)
    return children, real


def test_only_the_trials_that_run_spawn_a_seed_child(monkeypatch):
    """An early stop spawns no child for the trials it skips, and the
    children spawned are spawn(trials)'s, in order."""
    children, real = _spawned_seeds(monkeypatch)
    rep = effective_dim(parse_system("L2(12,3^2,4^8)"), trials=1000, seed=5)
    assert rep.trials_run == len(children) == 1
    children.clear()
    effective_dim(parse_system("L2(4,2^5)"), trials=3, seed=5)
    assert [c.spawn_key for c in children] == [(0,), (1,), (2,)]
    want = real(5).spawn(3)
    assert [c.generate_state(4).tolist() for c in children] == [
        c.generate_state(4).tolist() for c in want
    ]


def test_no_trial_runs_without_a_matrix(monkeypatch):
    calls = _counted_system_matrix(monkeypatch)
    analytic = effective_dim(FatPointSystem(2, 2, (5,)), trials=3, seed=1)
    empty = effective_dim(FatPointSystem(2, 3, (0, 0)), trials=3, seed=1)
    assert analytic.trials_run == empty.trials_run == 0
    assert analytic.trials == empty.trials == 3
    assert calls == []


def test_stopping_early_keeps_the_rank_of_all_trials():
    """The first trial that reaches the ceiling has the rank every longer
    run reports, and later trials' draws do not depend on earlier ones."""
    s = parse_system("L2(6,1^2,2^8)")
    one = effective_dim(s, trials=1, seed=4)
    three = effective_dim(s, trials=3, seed=4)
    assert one.rank == three.rank == 26
    assert one.trials_run == three.trials_run == 1


def _flaky_quadric(monkeypatch, failures):
    """quadric_through failing `failures` times, then the real one."""
    calls = []
    real = interp.quadric_through

    def flaky(points, field):
        calls.append(points)
        if len(calls) <= failures:
            raise DegenerateConfigurationError("planted degenerate configuration")
        return real(points, field)

    monkeypatch.setattr(interp, "quadric_through", flaky)
    return calls


def test_degenerate_quadric_redraws_the_points(monkeypatch):
    field = PrimeField(DEFAULT_PRIME)
    cons = (None,) * 9 + (OnQuadric(through=tuple(range(9))),)
    rng = np.random.default_rng(31)
    _draw_points(9, 3, field, rng, None)  # the free points drawn before the quadric fails
    second = _draw_points(10, 3, field, rng, cons)
    calls = _flaky_quadric(monkeypatch, failures=1)
    pts = _draw_points(10, 3, field, np.random.default_rng(31), cons)
    assert len(calls) == 2
    assert pts == second


def test_degenerate_quadric_raises_after_the_retry_budget(monkeypatch):
    """The certificate's draw spends its own budget and certifies nothing;
    the first trial then spends one more and raises."""
    calls = _flaky_quadric(monkeypatch, failures=10**6)
    cons = (None,) * 9 + (OnQuadric(through=tuple(range(9))),)
    with pytest.raises(DegenerateConfigurationError):
        effective_dim(FatPointSystem(3, 3, (1,) * 10), trials=2, seed=1, constraints=cons)
    assert len(calls) == 2 * interp._DRAW_ATTEMPTS
    small = [max(map(max, pts)) < interp._CERT_PRIME for pts in calls]
    assert small == [True] * interp._DRAW_ATTEMPTS + [False] * interp._DRAW_ATTEMPTS


# quadric_through coefficients for nine points drawn from default_rng(2026),
# recorded before the quadric code moved onto _monomial_values, and the first
# two on_quadric points through the first of the nine (with the line count
# after each) for default_rng(0) and default_rng(5), recorded when the sampler
# moved from square roots on random lines to lines through a known point.
QUADRIC_PINS = {
    101: (
        [(86, 18, 2), (64, 36, 47), (8, 37, 64), (35, 83, 79), (71, 91, 72),
         (17, 86, 65), (9, 30, 16), (97, 73, 92), (28, 64, 61)],
        (1, 54, 90, 58, 77, 34, 22, 87, 66, 53),
        {0: [((51, 57, 82), 1), ((49, 84, 4), 1)], 5: [((28, 73, 47), 1), ((19, 29, 55), 1)]},
    ),
    2**31 - 1: (
        [(1829338324, 384259585, 56731231), (1374203058, 784857332, 1003451250),
         (171429433, 795643823, 1381800716), (762179171, 1784690067, 1697625005),
         (1512746413, 1943781587, 1548783626), (380863078, 1843517862, 1401844688),
         (211455622, 640600314, 355781144), (2076535512, 1563282231, 1975363177),
         (606662283, 1365522153, 1297454207)],
        (1, 389184435, 1411555073, 1624409803, 1672071440, 782101672, 2088904813,
         991614723, 1559202413, 1944446542),
        {
            0: [((1690254137, 1291992213, 1046366245), 1), ((140480248, 2052781104, 465908089), 1)],
            5: [((646010632, 718999569, 161708624), 1), ((883001027, 1456374900, 1600651614), 1)],
        },
    ),
}


@pytest.mark.parametrize("p", list(QUADRIC_PINS))
def test_quadric_sampler_is_pinned_at_small_primes(p):
    pts, coeffs, draws = QUADRIC_PINS[p]
    field = PrimeField(p)
    q = quadric_through(pts, field)
    assert q == coeffs
    for seed, expected in draws.items():
        rng = np.random.default_rng(seed)
        for want, lines in expected:
            counter: dict = {}
            assert on_quadric(q, pts[0], rng, field, counter=counter) == want
            assert counter["attempts"] == lines


# ---------------------------------------------------------------------------
# A trial's condition matrix is eliminated where it was built.

_SPENT_READS = {
    "entries": lambda m: m.entries,
    "entry": lambda m: m.entry(0, 0),
    "rank": lambda m: m.rank(),
    "pivot_columns": lambda m: m.pivot_columns(),
    "nullspace": lambda m: m.nullspace(),
}


@pytest.mark.parametrize("consume", ["rank", "pivot_columns"])
def test_a_trial_matrix_is_spent_by_its_rank(consume):
    """The rank of a built matrix equals that of a public copy; afterwards
    every read of its data raises, and its shape still reads."""
    field = PrimeField(DEFAULT_PRIME)
    sys = FatPointSystem(3, 6, (3, 3, 2, 2, 2, 1))
    pts = _draw_points(sys.npoints, 3, field, np.random.default_rng(3), None)
    built = _system_matrix(sys, pts, field)
    public = PrimeFieldMatrix(field, built.entries)
    assert getattr(built, consume)() == getattr(public, consume)()
    shape = (sys.condition_count(), sys.monomial_count())
    for name, read in _SPENT_READS.items():
        with pytest.raises(ConsumedMatrixError, match="eliminated in place"):
            read(built)
        assert (built.rows, built.cols) == built.shape == shape, name


def test_effective_dim_spends_each_trial_matrix_through_rank(monkeypatch):
    """effective_dim reaches each trial's rank through PrimeFieldMatrix.rank,
    and the matrix reports its rows, columns and field after the call, as
    a wrapper around that method reads them."""
    seen = []
    inner = PrimeFieldMatrix.rank

    def recorded(self):
        out = inner(self)
        seen.append((self, self.rows, self.cols, self.field.p, out))
        return out

    monkeypatch.setattr(PrimeFieldMatrix, "rank", recorded)
    rep = effective_dim(parse_system("L2(4,2^5)"), trials=3, seed=5)
    # one failed certificate at the one-limb prime, then every trial
    assert [(m, n, p, r) for _, m, n, p, r in seen] == [(15, 15, 4194301, 14)] + [
        (15, 15, DEFAULT_PRIME, 14)
    ] * 3
    for mat, *_ in seen:
        with pytest.raises(ConsumedMatrixError):
            mat.entries
    assert rep.rank == 14


def test_criterion_8_matrix_pivots_are_its_first_4200_columns(criterion_8_run):
    """The criterion-8 rank, L3(30,5^120) at seed 20248, is one elimination
    at the one-limb prime, whose full rank certifies the default prime's:
    its 4200 x 5456 matrix has pivots exactly in columns 0-4199, so every
    update of its elimination reads its multipliers in place."""
    assert criterion_8_run.pivots == [(4194301, list(range(4200)))]
    assert criterion_8_run.report.certified_by == 4194301


def test_criterion_8_leaves_all_take_the_product_path(criterion_8_run):
    """All 525 leaves of the criterion-8 elimination make one sweep each,
    which finds a pivot in every one of its 8 columns with no row swap, so
    the rows below get their multipliers in one product.  The
    derivative-major rows put the value rows of all 120 points first, then
    the first derivatives of all of them, and so on, so a leaf's top block
    holds rows of one or two derivatives at different points, and every
    leading minor it meets is nonzero.  With each point's rows stacked
    together, 23 of 616 leaves met a zero pivot and needed a row swap.
    Panels split at multiples of the leaf width, so the 4200 pivot columns
    make 4200 / 8 = 525 full leaves."""
    assert criterion_8_run.sweeps == [(8, 8, [])] * 525


@pytest.mark.parametrize("p", [1048573, 4194301])
def test_prime_regimes_leaves_all_take_the_product_path(p, monkeypatch):
    """L3(10,5^8), the 280 x 286 system of the prime-regimes workload,
    ranked in one trial at the primes its ranks run at (4194301 certifies
    the larger ones): every leaf makes one sweep, with a pivot in each of
    its 8 columns and no row swap.  The 280 pivot columns make 280 / 8 = 35
    full leaves."""
    sweeps, top = [], gfprime._lu_top

    def swept(b, q):
        out = top(b, q)
        sweeps.append((out[0], len(b[0]), out[1]))
        return out

    monkeypatch.setattr(gfprime, "_lu_top", swept)
    rep = effective_dim(parse_system("L3(10,5^8)"), trials=1, seed=301, prime=p)
    assert rep.rank == 280 and rep.certified_by is None
    assert sweeps == [(8, 8, [])] * 35


def test_trials_and_prime_are_integers_not_truncated():
    s = parse_system("L2(4,2^5)")  # rank deficient: every trial runs
    with pytest.raises(TypeError):
        effective_dim(s, trials=2.5, seed=1)
    with pytest.raises(TypeError):
        effective_dim(s, trials=2, seed=1, prime=101.0)
    rep = effective_dim(s, trials=np.int64(2), seed=1, prime=np.int64(101))
    assert rep == effective_dim(s, trials=2, seed=1, prime=101)
    assert rep.trials_run == 2
    assert type(rep.trials) is int and type(rep.prime) is int
