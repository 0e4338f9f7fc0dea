"""Ranks certified by one rank at the one-limb prime _CERT_PRIME: full
ranks, ranks at a ceiling lowered by a proven floor, and on-quadric draws."""

from __future__ import annotations

from dataclasses import replace

import pytest

from fatpoints import gfprime, interp, pipeline
from fatpoints.cli import cli_main
from fatpoints.gfprime import DEFAULT_PRIME, PrimeFieldMatrix, _Kernel, is_prime
from fatpoints.interp import (
    DegenerateConfigurationError,
    OnQuadric,
    QuadricSampleError,
    VirtualBoundError,
    _peel,
    effective_dim,
    fixed_component_test,
)
from fatpoints.syscore import FatPointSystem, parse_system

Q = 4194301

# full rank with conditions below, at and above the monomials, the special
# L3(9,6,4^8), L2(4,2^5) and L3(4,2^9) (the last with more conditions than
# monomials), planar and univariate systems
SWEEP = [
    "L2(12,3^2,4^8)",
    "L3(7,5,3^8)",
    "L3(5,4,2^8)",
    "L3(3,3,1^8)",
    "L3(6,3^7)",
    "L3(9,6,4^8)",
    "L2(4,2^5)",
    "L3(4,2^9)",
    "L2(4,2^6)",
    "L2(10,4^9)",
    "L2(9,2^2,3^8)",
    "L2(6,1^2,2^8)",
    "L1(5,2,3)",
]


def _special_json(lit: str, seed: int, capsys) -> str:
    assert cli_main(["special", lit, "--seed", str(seed), "--json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("lit", SWEEP)
def test_certificate_changes_no_verdict(lit, seed, monkeypatch, capsys):
    """The rank, h0 and speciality, and the `special --json` bytes, are
    those of the trials at the default prime alone (the reference, with
    _CERT_PRIME moved above it); the certificate is kept exactly when its
    rank is the ceiling."""
    sys = parse_system(lit)
    with monkeypatch.context() as mp:
        mp.setattr(interp, "_CERT_PRIME", 1 << 62)
        want = effective_dim(sys, seed=seed)
        want_json = _special_json(lit, seed, capsys)
    got = effective_dim(sys, seed=seed)
    fields = ("rank", "h0", "edim_actual", "special")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert _special_json(lit, seed, capsys) == want_json
    full = got.rank == min(got.conditions, got.monomials)
    assert got.certified_by == (Q if full else None)
    assert want.certified_by is None
    if not full:  # the special systems run every trial at the default prime
        assert got.trials_run == want.trials_run == 3


def _ranked_primes(monkeypatch) -> list[int]:
    """The prime of every PrimeFieldMatrix.rank call."""
    primes = []
    inner = PrimeFieldMatrix.rank

    def recorded(self):
        primes.append(self.field.p)
        return inner(self)

    monkeypatch.setattr(PrimeFieldMatrix, "rank", recorded)
    return primes


ON_QUADRIC = (None,) * 9 + (OnQuadric(through=tuple(range(9))),)


@pytest.mark.parametrize("prime", [1048573, Q], ids=["prime-1048573", "prime-q"])
def test_no_certificate_out_of_scope(prime, monkeypatch):
    """A prime not above _CERT_PRIME ranks only the trials at the requested
    prime, with nothing certified."""
    primes = _ranked_primes(monkeypatch)
    rep = effective_dim(parse_system("L2(12,3^2,4^8)"), seed=3, prime=prime)
    assert rep.rank == min(rep.conditions, rep.monomials)
    assert primes == [prime] * rep.trials_run
    assert rep.certified_by is None


@pytest.mark.parametrize("prime", [2**31 - 1, DEFAULT_PRIME])
def test_unconstrained_draws_are_certified_by_one_rank(prime, monkeypatch):
    """Constraints that are all None count as no constraints."""
    primes = _ranked_primes(monkeypatch)
    sys = FatPointSystem(3, 3, (1,) * 10)
    rep = effective_dim(sys, seed=3, prime=prime, constraints=(None,) * 10)
    assert (rep.rank, rep.certified_by, rep.trials_run, rep.prime) == (10, Q, 1, prime)
    assert primes == [Q]


@pytest.mark.parametrize("prime", [2**31 - 1, DEFAULT_PRIME])
def test_on_quadric_draws_are_certified_by_one_rank(prime, monkeypatch):
    """A contact point is the reduction of a rational point of the rational
    quadric, so its draw mod _CERT_PRIME certifies a full rank too."""
    primes = _ranked_primes(monkeypatch)
    rep = effective_dim(parse_system("L3(3,1^10)"), seed=3, prime=prime, constraints=ON_QUADRIC)
    assert (rep.rank, rep.certified_by, rep.trials_run, rep.prime) == (10, Q, 1, prime)
    assert primes == [Q]


def test_cert_prime_is_the_largest_one_limb_prime():
    q = interp._CERT_PRIME
    assert q == Q and is_prime(q)
    assert gfprime._LIMB_PRODUCT_BITS == 44
    assert (q - 1) ** 2 < 1 << 44
    # (x - 1)**2 < 2**44 holds exactly up to x = 2**22
    assert not [x for x in range(q + 1, (1 << 22) + 2) if is_prime(x) and (x - 1) ** 2 < 1 << 44]
    assert _Kernel(q).limbs == 1
    assert _Kernel(4194319).limbs == 2  # the next prime


def _recorded_reports(monkeypatch) -> list:
    """Every RankReport that effective_dim returns, through the names the
    pipeline and _peel look up."""
    reports = []
    inner = interp.effective_dim

    def recorded(*args, **kwargs):
        reports.append(inner(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(interp, "effective_dim", recorded)
    monkeypatch.setattr(pipeline, "effective_dim", recorded)
    return reports


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_every_rank_of_the_counterexample_is_certified(seed, monkeypatch):
    """Nine effective_dim calls, nine ranks, all at _CERT_PRIME; the special
    L3(9,6,4^8) is certified at the ceiling 220 - 5 from its residual."""
    primes = _ranked_primes(monkeypatch)
    reports = _recorded_reports(monkeypatch)
    assert pipeline.run_counterexample(pipeline.RunConfig(seed=seed)).verdict
    assert len(reports) == 9
    assert [r.certified_by for r in reports] == [Q] * 9
    assert primes == [Q] * 9
    special = [r for r in reports if r.special]
    assert [(str(r.system), r.rank, r.h0, r.floor) for r in special] == [
        ("L3(9,6,4^8)", 215, 5, 5)
    ]
    assert [r.floor for r in reports if not r.special] == [0] * 8


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_the_counterexample_proof_replays_against_the_oracle(seed, monkeypatch):
    """Each of the nine ranks of the proof, ranked again by _gauss_jordan
    over Python integers, which shares no code with the blocked engine:
    every condition matrix is copied as interp._system_matrix builds it,
    before its rank eliminates it in place, and the oracle gives the rank
    and the pivot columns that the blocked engine gave and that each
    certified report holds."""
    built, ranked = [], []
    build, rank = interp._system_matrix, gfprime._rank_with_pivots

    def building(sys, pts, field):
        mat = build(sys, pts, field)
        built.append((field.p, mat.entries))
        return mat

    def ranking(a, p):
        ranked.append(rank(a, p))
        return ranked[-1]

    monkeypatch.setattr(interp, "_system_matrix", building)
    monkeypatch.setattr(gfprime, "_rank_with_pivots", ranking)
    reports = _recorded_reports(monkeypatch)
    assert pipeline.run_counterexample(pipeline.RunConfig(seed=seed)).verdict
    assert [p for p, _ in built] == [Q] * 9 and len(ranked) == 9
    oracle = [gfprime._gauss_jordan(a.astype(object), p) for p, a in built]
    assert [(len(pivs), pivs) for pivs in oracle] == ranked
    assert [r.rank for r in reports] == [len(pivs) for pivs in oracle]
    assert [r.certified_by for r in reports] == [Q] * 9


def _floor_free(mp) -> None:
    """Rank the system side of every peel with floor 0, through the name
    _peel looks up: the reference of a run that takes no floor."""
    inner = interp.effective_dim
    mp.setattr(interp, "effective_dim", lambda sys, *, floor=0, **kw: inner(sys, **kw))


# (system, fixed, constraints, divides, floor): the check-3 peel, two more
# splittings certified through their floor (a double quadric, a double
# conic), a floor that does not bind, residuals of h0 0, a fixed system empty
# by counting (no floor although its residual's h0 is exact), the four
# constrained systems of checks 4 and 5, and one rank-deficient constrained
# system (the quadric through ten points, one of them on it)
PEELS = {
    "check-3": ("L3(9,6,4^8)", "L3(2,1,1^8)", None, True, 5),
    "double-quadric": ("L3(4,2^9)", "L3(2,1^9)", None, True, 1),
    "double-conic": ("L2(4,2^5)", "L2(2,1^5)", None, True, 1),
    "loose-floor": ("L3(4,2,1^8)", "L3(2,1^9)", None, False, 9),
    "plane": ("L3(3,3,1^8)", "L3(1,1,0^8)", None, False, 0),
    "quadric-not-fixed": ("L3(3,3,1^8)", "L3(2,1,1^8)", None, False, 0),
    "empty-by-counting": ("L2(3,2^2,1^4)", "L2(2,1^6)", None, False, 0),
    "check-4": ("L3(7,5,3^8,1)", "L3(2,1^10)", ON_QUADRIC, True, 0),
    "check-5": ("L3(5,4,2^8,1^2)", "L3(2,1^11)", ON_QUADRIC + ON_QUADRIC[-1:], True, 0),
    "contact-quadric": ("L3(2,1^9,1)", "L3(0)", ON_QUADRIC, True, 0),
}
FIELDS = ("rank", "h0", "edim_actual", "special")


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("case", list(PEELS))
def test_floors_and_contact_points_change_no_verdict(case, seed, monkeypatch):
    """The peel's reports and fixed_component_test's answer are those of the
    trials at the default prime alone, without a floor (the reference, with
    _CERT_PRIME moved above it); a side is certified exactly when its rank
    reaches the ceiling, lowered by the floor on the system side."""
    lit, fixed_lit, cons, divides, floor = PEELS[case]
    sys, fixed = parse_system(lit), parse_system(fixed_lit)
    with monkeypatch.context() as mp:
        mp.setattr(interp, "_CERT_PRIME", 1 << 62)
        _floor_free(mp)
        want = _peel(sys, fixed, cons, seed=seed)
        want_divides = fixed_component_test(sys, fixed, seed=seed, constraints=cons)
    got = _peel(sys, fixed, cons, seed=seed)
    assert fixed_component_test(sys, fixed, seed=seed, constraints=cons) == want_divides == divides
    for g, w in zip(got, want):
        assert [getattr(g, f) for f in FIELDS] == [getattr(w, f) for f in FIELDS]
        at_ceiling = g.rank == min(g.conditions, g.monomials - g.floor)
        assert g.certified_by == (Q if at_ceiling and g.conditions else None)
        assert w.certified_by is None
    assert (got[0].floor, got[1].floor, want[0].floor) == (floor, 0, 0)
    if case == "contact-quadric":  # the contact point is on the quadric: rank 9 of 10
        assert (got[0].rank, got[0].certified_by, got[0].trials_run) == (9, None, 3)


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_counterexample_bytes_do_not_depend_on_the_certificate(seed, monkeypatch):
    cfg = pipeline.RunConfig(seed=seed, output="json")
    with monkeypatch.context() as mp:
        mp.setattr(interp, "_CERT_PRIME", 1 << 62)
        want = pipeline.report_to_json(pipeline.run_counterexample(cfg))
    assert pipeline.report_to_json(pipeline.run_counterexample(cfg)) == want


@pytest.mark.parametrize("prime", [1048573, Q])
@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_a_rank_at_its_ceiling_is_exact_at_any_prime(seed, prime, monkeypatch):
    """At a prime not above _CERT_PRIME nothing is certified, but check 3's
    residual reaches its ceiling in its first trial, which is exact all the
    same: the special L3(9,6,4^8) gets floor 5 and one trial, nine ranks
    decide the run, and the report bytes are those of a run without floors."""
    cfg = pipeline.RunConfig(seed=seed, prime=prime, output="json")
    with monkeypatch.context() as mp:
        _floor_free(mp)
        want = pipeline.report_to_json(pipeline.run_counterexample(cfg))
    primes = _ranked_primes(monkeypatch)
    reports = _recorded_reports(monkeypatch)
    got = pipeline.run_counterexample(cfg)
    assert pipeline.report_to_json(got) == want
    assert primes == [prime] * 9
    special = [r for r in reports if r.special]
    assert [(str(r.system), r.floor, r.trials_run, r.certified_by) for r in special] == [
        ("L3(9,6,4^8)", 5, 1, None)
    ]


def _fail_at_q(monkeypatch, name, error):
    """interp.<name> raising `error` whenever it works mod _CERT_PRIME."""
    real = getattr(interp, name)

    def planted(*args, **kwargs):
        if any(getattr(a, "p", None) == Q for a in args):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(interp, name, planted)


@pytest.mark.parametrize(
    "name, error",
    [
        ("on_quadric", QuadricSampleError(64)),
        ("quadric_through", DegenerateConfigurationError("planted")),
    ],
    ids=["quadric-sample", "degenerate"],
)
def test_a_certificate_draw_that_cannot_be_sampled_gives_the_trials_verdict(
    name, error, monkeypatch
):
    lit, cons = "L3(7,5,3^8,1)", ON_QUADRIC
    with monkeypatch.context() as mp:
        mp.setattr(interp, "_CERT_PRIME", 1 << 62)
        want = effective_dim(parse_system(lit), seed=5, constraints=cons)
    _fail_at_q(monkeypatch, name, error)
    primes = _ranked_primes(monkeypatch)
    got = effective_dim(parse_system(lit), seed=5, constraints=cons)
    assert [getattr(got, f) for f in FIELDS] == [getattr(want, f) for f in FIELDS]
    assert (got.certified_by, got.trials_run) == (None, want.trials_run)
    assert primes == [DEFAULT_PRIME] * want.trials_run


def test_an_uncertified_residual_gives_no_floor(monkeypatch):
    """A residual whose h0 is only an upper bound (here inflated by one and
    not certified) must not lower the system's ceiling: the special system
    is then ranked by its trials, with floor 0."""
    reports = []
    inner = interp.effective_dim

    def weakened(sys, **kwargs):
        rep = inner(sys, **kwargs)
        if str(sys) == "L3(7,5,3^8)":
            rep = replace(rep, rank=rep.rank - 1, h0=rep.h0 + 1, certified_by=None)
        reports.append(rep)
        return rep

    monkeypatch.setattr(interp, "effective_dim", weakened)
    full, rest = _peel(parse_system("L3(9,6,4^8)"), parse_system("L3(2,1,1^8)"), seed=3)
    assert (rest.h0, rest.certified_by) == (6, None)
    assert (full.floor, full.certified_by, full.h0, full.trials_run) == (0, None, 5, 3)
    assert reports == [rest, full]


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 1048573])
def test_a_rank_above_the_lowered_ceiling_raises(prime):
    """A floor one above the true generic h0 of L3(9,6,4^8) is contradicted
    by the certificate's rank, or by a trial's at a prime below
    _CERT_PRIME; the bound check raises instead of reporting it."""
    sys = parse_system("L3(9,6,4^8)")
    assert effective_dim(sys, seed=1, prime=prime, floor=5).h0 == 5
    with pytest.raises(VirtualBoundError, match=r"rank 215 exceeds the virtual bound .*h0=5 < 6"):
        effective_dim(sys, seed=1, prime=prime, floor=6)


def test_floor_validation():
    sys = parse_system("L2(2,1)")
    assert effective_dim(sys, seed=1, floor=5).floor == 5
    for bad in (-1, 7):
        with pytest.raises(ValueError, match="floor"):
            effective_dim(sys, seed=1, floor=bad)
    with pytest.raises(TypeError):
        effective_dim(sys, seed=1, floor=1.0)
