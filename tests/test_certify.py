"""Full ranks certified by one rank at the one-limb prime _CERT_PRIME."""

from __future__ import annotations

import pytest

from fatpoints import gfprime, interp
from fatpoints.cli import cli_main
from fatpoints.gfprime import DEFAULT_PRIME, PrimeFieldMatrix, _Kernel, is_prime
from fatpoints.interp import OnQuadric, effective_dim
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


@pytest.mark.parametrize(
    "lit, prime, constraints",
    [
        ("L3(3,1^10)", DEFAULT_PRIME, ON_QUADRIC),
        ("L2(12,3^2,4^8)", 1048573, None),
        ("L2(12,3^2,4^8)", Q, None),
    ],
    ids=["on-quadric", "prime-1048573", "prime-q"],
)
def test_no_certificate_out_of_scope(lit, prime, constraints, monkeypatch):
    """A constrained draw, or a prime not above _CERT_PRIME, ranks only the
    trials at the requested prime, with nothing certified."""
    primes = _ranked_primes(monkeypatch)
    rep = effective_dim(parse_system(lit), seed=3, prime=prime, constraints=constraints)
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


def test_cert_prime_is_the_largest_one_limb_prime():
    q = interp._CERT_PRIME
    assert q == Q and is_prime(q)
    assert gfprime._LIMB_PRODUCT_BITS == 44
    assert (q - 1) ** 2 < 1 << 44
    # (x - 1)**2 < 2**44 holds exactly up to x = 2**22
    assert not [x for x in range(q + 1, (1 << 22) + 2) if is_prime(x) and (x - 1) ** 2 < 1 << 44]
    assert _Kernel(q).limbs == 1
    assert _Kernel(4194319).limbs == 2  # the next prime
