"""Prime-field arithmetic and exact rank over large and small moduli."""

from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fatpoints import gfprime
from fatpoints.gfprime import (
    DEFAULT_PRIME,
    MERSENNE61,
    PrimeField,
    PrimeFieldMatrix,
    _gauss_jordan,
    _Kernel,
    _rank_with_pivots,
    is_prime,
    mulmod_vec,
)

P40 = 2**40 - 87
P62 = 4611686018427387847  # the largest prime below 2**62
BACKEND_PRIMES = [101, 2147483629, 4294967311, P40, P62, MERSENNE61]


def test_primality_known_values():
    for p in [2, 3, 5, 61, 101, 7681, 1048573, 2147483629, 4294967311, MERSENNE61]:
        assert is_prime(p), p
    for n in [0, 1, 4, 9, 561, 1048575, 4294967297, MERSENNE61 - 2, MERSENNE61 + 2]:
        assert not is_prime(n), n


def test_field_constructor_validation():
    PrimeField(3)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(91)
    with pytest.raises(ValueError):
        PrimeField(2**62 + 57)  # prime, but beyond the supported width


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-5, 10**6))
def test_memoised_primality_matches_trial_division(n):
    """Asked twice, so the second answer comes from the cache."""
    assert is_prime(n) == _trial_division(n) == is_prime(n)


@pytest.mark.parametrize("n", [4, 91, 561, 4194303, MERSENNE61 - 2, P62 - 2])
def test_field_rejects_composites_after_caching(n):
    """A memoised verdict still rejects every non-field modulus, 2 and
    primes from 2**62 included, however often it is asked."""
    for _ in range(2):
        for bad in (n, 2, 2**62 + 57):
            with pytest.raises(ValueError):
                PrimeField(bad)
    assert is_prime.cache_info().maxsize is not None  # the cache is bounded


def test_arithmetic_exhaustive_mod_7():
    f = PrimeField(7)
    for a in range(1, 7):
        assert a * f.inv(a) % 7 == 1
    assert f.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_inverse_property_random_large():
    rng = random.Random(7)
    for p in [101, 7681, MERSENNE61]:
        f = PrimeField(p)
        for _ in range(50):
            a = rng.randrange(1, p)
            assert a * f.inv(a) % p == 1


@pytest.mark.parametrize("p", BACKEND_PRIMES)
def test_vector_multiply_matches_integers(p):
    rng = random.Random(p % 1009)
    edge = [0, 1, 2, p - 2, p - 1, p // 2]
    a = edge + [rng.randrange(p) for _ in range(200)]
    b = list(reversed(edge)) + [rng.randrange(p) for _ in range(200)]
    av = np.array(a, dtype=np.uint64)
    bv = np.array(b, dtype=np.uint64)
    got = mulmod_vec(av, bv, p)
    want = [(x * y) % p for x, y in zip(a, b)]
    assert [int(v) for v in got] == want


def test_rank_identity_zero_and_dependent():
    f = PrimeField(DEFAULT_PRIME)
    eye = PrimeFieldMatrix(f, [[1 if i == j else 0 for j in range(6)] for i in range(6)])
    assert eye.rank() == 6
    zero = PrimeFieldMatrix(f, [[0] * 5 for _ in range(4)])
    assert zero.rank() == 0
    dep = PrimeFieldMatrix(f, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert dep.rank() == 2


def test_rank_depends_on_modulus():
    rows = [[1, 1], [1, 8]]
    assert PrimeFieldMatrix(PrimeField(7), rows).rank() == 1
    assert PrimeFieldMatrix(PrimeField(11), rows).rank() == 2


@pytest.mark.parametrize("p", [1048573, MERSENNE61])
def test_rank_of_planted_products(p):
    rng = np.random.default_rng(42)
    f = PrimeField(p)
    for r in [1, 7, 40]:
        b = rng.integers(0, p, size=(90, r), dtype=np.uint64)
        c = rng.integers(0, p, size=(r, 110), dtype=np.uint64)
        prod = np.zeros((90, 110), dtype=object)
        bi = b.astype(object)
        ci = c.astype(object)
        prod = (bi @ ci) % p
        m = PrimeFieldMatrix(f, prod.tolist())
        assert m.rank() == r, (p, r)


def test_rank_monotone_under_row_append():
    rng = np.random.default_rng(5)
    f = PrimeField(101)
    base = rng.integers(0, 101, size=(8, 12)).tolist()
    prev = 0
    for k in range(1, 9):
        r = PrimeFieldMatrix(f, base[:k]).rank()
        assert r >= prev
        prev = r


def test_blocked_and_reference_eliminations_agree():
    rng = np.random.default_rng(17)
    for p in BACKEND_PRIMES:
        raw = rng.integers(0, min(p, 2**61), size=(70, 95), dtype=np.uint64) % np.uint64(p)
        # plant some dependent rows and zero columns to force pivot skips
        raw[10] = raw[3]
        raw[25] = (raw[7] + raw[9]) % np.uint64(p)
        raw[:, 40] = 0
        rank_fast, pivots_fast = _rank_with_pivots(raw.copy(), p)
        pivots_ref = _gauss_jordan(raw.astype(object), p)
        assert rank_fast == len(pivots_ref), p
        assert pivots_fast == pivots_ref, p


def test_matrix_accepts_signed_and_big_integers():
    f = PrimeField(101)
    m = PrimeFieldMatrix(f, [[-1, 102], [10**30, -(10**30)]])
    assert m.entry(0, 0) == 100
    assert m.entry(0, 1) == 1
    assert (m.entry(1, 0) + m.entry(1, 1)) % 101 == 0


@pytest.mark.parametrize(
    "entries, dtype",
    [
        ([[0.5, 1.9]], "float64"),
        (np.ones((2, 2), dtype=np.float32), "float32"),
        ([[1j, 2]], "complex128"),
        ([["1", "2"]], "<U1"),
        ([[1, 0.5, 10**30]], "object holding float"),
        ([[None, 10**30]], "object holding NoneType"),
    ],
)
def test_matrix_refuses_non_integer_entries(entries, dtype):
    """A float entry was once truncated and a string one failed inside the
    reduction; both are refused up front, with the dtype named."""
    with pytest.raises(TypeError, match=f"integers, got dtype {re.escape(dtype)}$"):
        PrimeFieldMatrix(PrimeField(101), entries)


def test_matrix_accepts_bools_and_numpy_integers_among_python_ones():
    f = PrimeField(101)
    assert PrimeFieldMatrix(f, np.array([[True, False]])).entries.tolist() == [[1, 0]]
    assert PrimeFieldMatrix(f, [[np.int64(-1), 10**30, True]]).entries.tolist() == [
        [100, 10**30 % 101, 1]
    ]
    assert PrimeFieldMatrix(f, [[]]).shape == (1, 0)


def test_nullspace_is_exact_kernel():
    f = PrimeField(7)
    m = PrimeFieldMatrix(f, [[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    for vec in basis:
        assert all(x == 0 for x in ((1 * vec[0] + 2 * vec[1] + 3 * vec[2]) % 7,))
        lead = next(x for x in vec if x != 0)
        assert lead == 1
    rng = np.random.default_rng(9)
    p = 101
    fp = PrimeField(p)
    rows = rng.integers(0, p, size=(6, 10)).tolist()
    mat = PrimeFieldMatrix(fp, rows)
    basis = mat.nullspace()
    assert len(basis) == 10 - mat.rank()
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) % p == 0


def test_default_prime_is_the_mersenne_prime():
    assert DEFAULT_PRIME == MERSENNE61 == 2**61 - 1
    assert is_prime(DEFAULT_PRIME)


# ---------------------------------------------------------------------------
# Mersenne-61 kernels against Python integers.

P61 = MERSENNE61
FILLS = ("random", "max", "edges")


def _residues(rng, shape, fill):
    """Reduced uint64 residues: uniform, all p - 1 (the largest limb sums,
    the worst case for the accumulator bound), or a mix of edge values."""
    if fill == "max":
        return np.full(shape, P61 - 1, dtype=np.uint64)
    out = rng.integers(0, P61, size=shape, dtype=np.uint64)
    if fill == "edges":
        edges = np.array([0, 1, 2**21 - 1, 2**32, 2**42, P61 - 2, P61 - 1], dtype=np.uint64)
        mask = rng.random(shape) < 0.5
        out[mask] = rng.choice(edges, size=int(mask.sum()))
    return out


def _int_matmul(x, y):
    return (x.astype(object) @ y.astype(object)) % P61


kernel_cases = given(
    seed=st.integers(0, 2**32 - 1),
    fill=st.sampled_from(FILLS),
    m=st.integers(1, 3),
    k=st.integers(1, 40),
    n=st.integers(1, 40),
)


@kernel_cases
@settings(max_examples=30, deadline=None)
@example(seed=1, fill="max", m=2, k=1, n=3)
@example(seed=2, fill="random", m=2, k=511, n=3)
@example(seed=3, fill="max", m=2, k=512, n=3)
@example(seed=4, fill="edges", m=2, k=513, n=3)
@example(seed=5, fill="max", m=2, k=1025, n=2)
@example(seed=6, fill="max", m=1, k=1537, n=2)  # three full chunks and a remainder
@example(seed=7, fill="random", m=2, k=3, n=1023)
@example(seed=8, fill="max", m=2, k=3, n=1024)
@example(seed=9, fill="edges", m=2, k=3, n=1025)
@example(seed=10, fill="max", m=3, k=600, n=1025)  # two chunks and two stripes at once
def test_m61_matmul_mod_matches_integers(seed, fill, m, k, n):
    rng = np.random.default_rng(seed)
    x = _residues(rng, (m, k), fill)
    y = _residues(rng, (k, n), fill)
    got = _Kernel(P61).matmul_mod(x, y)
    assert got.dtype == np.uint64
    assert (got.astype(object) == _int_matmul(x, y)).all()


@kernel_cases
@settings(max_examples=30, deadline=None)
@example(seed=11, fill="max", m=2, k=513, n=5)
@example(seed=12, fill="max", m=3, k=2, n=1025)
@example(seed=13, fill="edges", m=1, k=1025, n=1024)
def test_m61_gemm_sub_updates_a_view_in_place(seed, fill, m, k, n):
    """a[rows, cols] -= a[rows, pivcols] @ a[pivot rows, cols] on a strided
    view, touching nothing outside the updated block."""
    rng = np.random.default_rng(seed)
    big = _residues(rng, (k + m + 4, k + n + 6), fill)
    view = big[2:-2, 3:-3]
    before = big.copy()
    pivcols = list(rng.permutation(k))
    want = (view[k:, k:].astype(object) - _int_matmul(view[k:, pivcols], view[:k, k:])) % P61
    _Kernel(P61).gemm_sub(view, k, k + m, 0, pivcols, k, k + n)
    assert (view[k:, k:].astype(object) == want).all()
    changed = big != before
    changed[2 + k : 2 + k + m, 3 + k : 3 + k + n] = False
    assert not changed.any()


@given(seed=st.integers(0, 2**32 - 1), fill=st.sampled_from(FILLS), size=st.integers(0, 2000))
@settings(max_examples=30, deadline=None)
def test_m61_mulmod_vec_matches_integers(seed, fill, size):
    rng = np.random.default_rng(seed)
    a = _residues(rng, (size,), fill)
    b = _residues(rng, (size,), fill)
    got = mulmod_vec(a, b, P61)
    assert (got.astype(object) == a.astype(object) * b.astype(object) % P61).all()
    cols = _residues(rng, (3, 1), fill)
    got = mulmod_vec(cols, a[None, :7], P61)  # broadcasting
    assert (got.astype(object) == cols.astype(object) * a[None, :7].astype(object) % P61).all()


def test_m61_kernel_bounds_raise():
    kern = _Kernel(P61)
    k = gfprime._ACC_K + 1
    with pytest.raises(ValueError, match="accumulator bound"):
        kern.matmul_mod(np.zeros((1, k), dtype=np.uint64), np.zeros((k, 1), dtype=np.uint64))


@pytest.mark.parametrize("p", [P61, P62], ids=["rotations", "horner"])
def test_recombination_reduces_extreme_parts(p):
    """sum(P_s * 2**(21 s)) mod p for every combination of extreme limb parts
    P0..P4 below 2**61, fed to _Kernel(p)._recombine as the Karatsuba sums
    of three limbs, with a middle diagonal product that every cross sum
    must cancel.  Both three-limb reductions: rotations mod 2**61 - 1 and
    Horner's rule over 2**21 below 2**62."""
    kern = _Kernel(p)
    assert kern.limbs == 3
    extremes = [0, 1, 2**21, 2**40, 2**60, P61 - 1, P61]
    combos = list(itertools.product(extremes, repeat=5))
    p0, p1, p2, p3, p4 = zip(*combos)
    mid = [2**60 + 2**21 * k for k in range(len(combos))]

    def sums(*terms):  # the Karatsuba sum, as its uint64 accumulator holds it
        return np.array([sum(t) % 2**64 for t in zip(*terms)], dtype=np.uint64)

    acc = np.empty((kern._nacc, 1, len(combos)), dtype=np.uint64)
    acc[:6, 0] = [
        sums(p0),
        sums(mid),
        sums(p4),
        sums(p1, p0, mid),  # x0 y1 + x1 y0 + x0 y0 + x1 y1
        sums(p2, p0, p4, [-v for v in mid]),
        sums(p3, mid, p4),
    ]
    got = kern._recombine(acc)[0]
    want = [sum(v << (21 * s) for s, v in enumerate(c)) % p for c in combos]
    assert [int(v) for v in got] == want


def test_pivot_trace_across_chunk_and_stripe_boundaries(monkeypatch):
    """The blocked engine at M61 with tiny chunk, stripe, tile and trsm sizes,
    so a small matrix crosses every boundary many times, against the
    classical elimination on Python integers."""
    monkeypatch.setattr(gfprime, "_CHUNK_K", 8)
    monkeypatch.setattr(gfprime, "_STRIPE", 16)
    monkeypatch.setattr(gfprime, "_TILE", 40)
    monkeypatch.setattr(gfprime, "_TRSM_LEAF", 4)
    rng = np.random.default_rng(23)
    raw = rng.integers(0, P61, size=(90, 130), dtype=np.uint64)
    raw[45] = raw[1]
    raw[89] = (raw[2] + raw[5]) % np.uint64(P61)
    raw[60:70] = raw[10:20]
    raw[:, 43] = 0
    rank, pivots = _rank_with_pivots(raw.copy(), P61)
    assert pivots == _gauss_jordan(raw.astype(object), P61)
    assert rank == len(pivots)


def test_pivot_trace_of_a_planted_rank_profile_at_full_size():
    """A 640 x 2100 matrix with a known column rank profile, large enough to
    cross the real _CHUNK_K (512) and _STRIPE (1024): the pivot trace must be
    exactly the planted profile.

    A = L @ E mod p, with E (600 x 2100) in row echelon form with pivots at
    the planted columns and L (640 x 600) unit lower triangular on top and
    small below (40 dependent rows).  L has full column rank, so the
    column rank profile of A is that of E.
    """
    rng = np.random.default_rng(29)
    m, n, r = 640, 2100, 600
    # 530 pivots left of the first split at column 1050, so the update below
    # it has an inner dimension past _CHUNK_K and a width past _STRIPE
    left = rng.choice(1050, size=530, replace=False)
    right = 1050 + rng.choice(1050, size=70, replace=False)
    profile = np.sort(np.concatenate([left, right]))
    e = rng.integers(0, P61, size=(r, n), dtype=np.uint64)
    e[np.arange(n)[None, :] < profile[:, None]] = 0
    e[np.arange(r), profile] = 1
    ell = rng.integers(0, 16, size=(m, r)).astype(np.float64)
    ell[:r] = np.tril(ell[:r], -1) + np.eye(r)
    # exact in float64: 21-bit limbs of E times entries < 16, summed 600 times, < 2**35
    limbs = [(e >> np.uint64(s)) & np.uint64(2**21 - 1) for s in (0, 21, 42)]
    parts = [(ell @ limb.astype(np.float64)).astype(np.uint64) for limb in limbs]
    hi = parts[2]  # parts[2] * 2**42 == (hi >> 19) + (hi mod 2**19) * 2**42
    a = (
        parts[0]
        + (parts[1] << np.uint64(21))
        + (hi >> np.uint64(19))
        + ((hi & np.uint64(2**19 - 1)) << np.uint64(42))
    ) % np.uint64(P61)
    rank, pivots = _rank_with_pivots(a, P61)
    assert rank == r
    assert pivots == [int(c) for c in profile]


# ---------------------------------------------------------------------------
# The kernel at every limb count against Python integers.

KERNEL_PRIMES = [
    7681,
    1048573,
    4194301,  # the largest one-limb prime: (p - 1)**2 < 2**44
    4194319,  # the smallest two-limb prime
    2**31 - 1,
    P40,
    4398046511093,  # the largest prime below 2**42, two limbs
    4398046511119,  # the smallest prime above 2**42, three limbs
    P62,
    P61,
]
EDGE_FILLS = ("random", "max", "edges")


def test_kernel_primes_cover_every_limb_count():
    limbs = [_Kernel(p).limbs for p in KERNEL_PRIMES]
    assert limbs == [1, 1, 1, 2, 2, 2, 2, 3, 3, 3]
    assert all(is_prime(p) for p in KERNEL_PRIMES)
    assert not any(is_prime(n) for n in range(4194302, 4194319))
    assert not any(is_prime(n) for n in range(4398046511094, 4398046511119))
    assert not any(is_prime(n) for n in range(P62 + 1, 2**62))


def _residues_mod(p, rng, shape, fill):
    """Reduced uint64 residues mod p: uniform, all p - 1 (the largest limbs
    and products), or a mix of 0, 1 and p - 1."""
    if fill == "max":
        return np.full(shape, p - 1, dtype=np.uint64)
    out = rng.integers(0, p, size=shape, dtype=np.uint64)
    if fill == "edges":
        mask = rng.random(shape) < 0.5
        out[mask] = rng.choice(np.array([0, 1, p - 1], dtype=np.uint64), size=int(mask.sum()))
    return out


def _int_matmul_mod(x, y, p):
    return (x.astype(object) @ y.astype(object)) % p


prime_kernel_cases = given(
    seed=st.integers(0, 2**32 - 1),
    fill=st.sampled_from(EDGE_FILLS),
    m=st.integers(1, 3),
    k=st.integers(1, 40),
    n=st.integers(1, 40),
)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@prime_kernel_cases
@settings(max_examples=10, deadline=None)
@example(seed=1, fill="max", m=2, k=511, n=3)
@example(seed=2, fill="edges", m=2, k=512, n=3)
@example(seed=3, fill="max", m=2, k=513, n=3)
@example(seed=4, fill="random", m=2, k=1025, n=2)
@example(seed=5, fill="edges", m=2, k=3, n=1023)
@example(seed=6, fill="max", m=2, k=3, n=1024)
@example(seed=7, fill="random", m=2, k=3, n=1025)
@example(seed=8, fill="max", m=1, k=gfprime._ACC_K, n=1)  # the accumulator bound
def test_kernel_matmul_mod_matches_integers(p, seed, fill, m, k, n):
    rng = np.random.default_rng(seed)
    x = _residues_mod(p, rng, (m, k), fill)
    y = _residues_mod(p, rng, (k, n), fill)
    got = _Kernel(p).matmul_mod(x, y)
    assert got.dtype == np.uint64
    assert (got.astype(object) == _int_matmul_mod(x, y, p)).all()


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@prime_kernel_cases
@settings(max_examples=10, deadline=None)
@example(seed=11, fill="max", m=2, k=513, n=5)
@example(seed=12, fill="max", m=3, k=2, n=1025)
@example(seed=13, fill="edges", m=1, k=1025, n=1024)
def test_kernel_gemm_sub_updates_a_view_in_place(p, seed, fill, m, k, n):
    rng = np.random.default_rng(seed)
    big = _residues_mod(p, rng, (k + m + 4, k + n + 6), fill)
    view = big[2:-2, 3:-3]
    before = big.copy()
    pivcols = list(rng.permutation(k))
    want = (view[k:, k:].astype(object) - _int_matmul_mod(view[k:, pivcols], view[:k, k:], p)) % p
    _Kernel(p).gemm_sub(view, k, k + m, 0, pivcols, k, k + n)
    assert (view[k:, k:].astype(object) == want).all()
    changed = big != before
    changed[2 + k : 2 + k + m, 3 + k : 3 + k + n] = False
    assert not changed.any()


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_keeps_every_named_buffer(p):
    """Even the smallest products and updates keep their work buffers: once
    a product and a gathered-panel update have run, repeating them or
    running smaller ones allocates no buffer again, and every result stays
    exact."""
    rng = np.random.default_rng(p % 997)
    kern = _Kernel(p)
    x, y = _residues_mod(p, rng, (6, 9), "random"), _residues_mod(p, rng, (9, 5), "random")
    a = _residues_mod(p, rng, (12, 14), "edges")
    pivcols = [3, 0, 2, 1]

    def run(x, y, a):
        assert (kern.matmul_mod(x, y).astype(object) == _int_matmul_mod(x, y, p)).all()
        want = (a[4:, 5:].astype(object) - _int_matmul_mod(a[4:, pivcols], a[:4, 5:], p)) % p
        kern.gemm_sub(a, 4, a.shape[0], 0, pivcols, 5, a.shape[1])
        assert (a[4:, 5:].astype(object) == want).all()

    run(x, y, a)
    kept = dict(kern._scratch)
    assert {"acc", "y", "x", "prods", "panel"} <= kept.keys()
    assert ("limb" in kept) == (kern.limbs > 1)
    run(x, y, a)
    run(x[:3, :4], y[:4, :2], a[:8, :11])
    assert kern._scratch.keys() == kept.keys()
    assert all(kern._scratch[name] is buf for name, buf in kept.items())


def _classical_leaf(a, p, r0, c0, c1):
    """Classical elimination over Python integers of columns [c0, c1) from
    row r0 down: first nonzero row, swap of full rows, multipliers stored
    below each pivot and a rank-1 update of the columns right of it."""
    a = a.astype(object)
    r, pivots = r0, []
    for j in range(c0, c1):
        nz = [i for i in range(r, a.shape[0]) if a[i, j]]
        if not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        below, rest = a[r + 1 :, j], a[r + 1 :, j + 1 : c1]
        below[:] = below * pow(int(a[r, j]), -1, p) % p
        rest[:] = (rest - np.outer(below, a[r, j + 1 : c1])) % p
        pivots.append(j)
        r += 1
        if r == a.shape[0]:
            break
    return a, pivots


def _leaf_paths(monkeypatch):
    """Record (r0, c0, c1, product) of every _ple_leaf call: product is True
    when the leaf's probe factored its top block without a zero pivot, so
    the leaf took the product path, and False when it fell back to the
    classical loop, or had fewer rows than columns and did not probe."""
    calls, probes = [], []
    leaf, lu = gfprime._ple_leaf, gfprime._lu_no_pivot

    def probed(b, p):
        out = lu(b, p)
        probes.append(out is not None)
        return out

    def recorded(a, kern, r0, c0, c1, pivs):
        probes.clear()
        block = leaf(a, kern, r0, c0, c1, pivs)
        calls.append((r0, c0, c1, probes == [True]))
        return block

    monkeypatch.setattr(gfprime, "_lu_no_pivot", probed)
    monkeypatch.setattr(gfprime, "_ple_leaf", recorded)
    return calls


def _assert_leaf_is_classical(a, p, r0, c0, c1):
    """Eliminate the leaf [c0, c1) from row r0 of a in place and check it
    against _classical_leaf: every entry of a (the eliminated panel and
    the swapped full rows), the pivot columns, and the returned block as
    the inverse of the stored unit-lower multipliers of the pivot rows."""
    want, want_pivots = _classical_leaf(a, p, r0, c0, c1)
    pivots: list[int] = []
    block = gfprime._ple_leaf(a, _Kernel(p), r0, c0, c1, pivots)
    assert pivots == want_pivots
    assert (a.astype(object) == want).all()
    _assert_block(a, p, r0, pivots, block)


def _unit_lower_upper(rng, p, w, fill, zero_at=None):
    """L U mod p for a random unit-lower L and upper U of order w: its
    leading minors are the products of U's leading diagonal entries, all
    nonzero unless U[zero_at, zero_at] is set to 0."""
    low = np.tril(_residues_mod(p, rng, (w, w), fill), -1) + np.eye(w, dtype=np.uint64)
    up = np.triu(_residues_mod(p, rng, (w, w), fill))
    diag = rng.integers(1, p, size=w, dtype=np.uint64)
    up[np.arange(w), np.arange(w)] = np.where(up.diagonal() == 0, diag, up.diagonal())
    if zero_at is not None:
        up[zero_at, zero_at] = 0
    return _int_matmul_mod(low, up, p).astype(np.uint64)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@given(
    seed=st.integers(0, 2**32 - 1), fill=st.sampled_from(("max", "edges")), rows=st.integers(1, 300)
)
@settings(max_examples=10, deadline=None)
@example(seed=0, fill="max", rows=1)
@example(seed=1, fill="edges", rows=300)
@example(seed=2, fill="edges", rows=3)
def test_ple_leaf_matches_classical_elimination(p, seed, fill, rows):
    """The leaf's column scaling and rank-1 updates, at the largest
    operands and at 0, 1 and p - 1, against Python integers: the eliminated
    panel, the row swaps of the full rows, the pivot columns and the
    pivot block."""
    rng = np.random.default_rng(seed)
    a = _residues_mod(p, rng, (rows + 1, gfprime._LEAF_W + 2), fill)
    _assert_leaf_is_classical(a, p, 1, 1, gfprime._LEAF_W + 1)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@given(
    seed=st.integers(0, 2**32 - 1),
    fill=st.sampled_from(EDGE_FILLS),
    w=st.integers(1, gfprime._LEAF_W),
    below=st.integers(0, 300),
)
@settings(max_examples=10, deadline=None)
@example(seed=0, fill="max", w=gfprime._LEAF_W, below=0)
@example(seed=1, fill="edges", w=gfprime._LEAF_W, below=300)
@example(seed=2, fill="random", w=1, below=5)
def test_ple_leaf_without_row_swaps_takes_the_product_path(p, seed, fill, w, below):
    """A panel whose top w x w block has nonzero leading minors, with any
    rows below it: the probe succeeds, and the packed LU on top, the
    multipliers below from one product and the block are the classical
    loop's."""
    rng = np.random.default_rng(seed)
    a = _residues_mod(p, rng, (1 + w + below, w + 2), fill)
    a[1 : 1 + w, 1 : 1 + w] = _unit_lower_upper(rng, p, w, fill)
    with pytest.MonkeyPatch.context() as mp:
        calls = _leaf_paths(mp)
        _assert_leaf_is_classical(a, p, 1, 1, 1 + w)
    assert calls == [(1, 1, 1 + w, True)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("zero_at", [0, gfprime._LEAF_W // 2, gfprime._LEAF_W - 1])
@pytest.mark.parametrize("fill", EDGE_FILLS)
def test_ple_leaf_falls_back_after_a_partial_probe(p, zero_at, fill, monkeypatch):
    """A zero leading minor of the top block at the leaf's first, middle or
    last column: the probe stops there, after factoring the columns before
    it, and the classical loop, run on the untouched panel, swaps a row
    from below into the pivot row."""
    w = gfprime._LEAF_W
    rng = np.random.default_rng(p % 983 + zero_at)
    a = _residues_mod(p, rng, (1 + w + 12, w + 2), fill)
    a[1 : 1 + w, 1 : 1 + w] = _unit_lower_upper(rng, p, w, fill, zero_at)
    a[1 + w, 1 + zero_at] = 1  # a row below that can take the pivot
    calls = _leaf_paths(monkeypatch)
    _assert_leaf_is_classical(a, p, 1, 1, 1 + w)
    assert calls == [(1, 1, 1 + w, False)]


def _swapped_once(p, n, swap_at):
    """An n x n matrix of full rank mod p, P L U with L unit lower and U
    upper with nonzero diagonal: with swap_at None its leading minors are
    all nonzero; otherwise L[swap_at + 1, swap_at] = 0 and P swaps rows
    swap_at and swap_at + 1, so classical elimination swaps them back at
    column swap_at and nowhere else."""
    rng = np.random.default_rng(n)
    low = np.tril(rng.integers(0, p, size=(n, n), dtype=np.uint64), -1) + np.eye(n, dtype=np.uint64)
    up = np.triu(rng.integers(0, p, size=(n, n), dtype=np.uint64))
    up[np.arange(n), np.arange(n)] = rng.integers(1, p, size=n, dtype=np.uint64)
    if swap_at is not None:
        low[swap_at + 1, swap_at] = 0
    a = _Kernel(p).matmul_mod(low, up)
    if swap_at is not None:
        a[[swap_at, swap_at + 1]] = a[[swap_at + 1, swap_at]]
    return a


@pytest.mark.parametrize("swap_at", [None, 0, 150, 297])
def test_every_leaf_without_a_row_swap_takes_the_product_path(swap_at, monkeypatch):
    """A 300 x 300 matrix of full rank at the one-limb prime 4194301: every
    leaf takes the product path, except the one leaf whose columns hold a
    planted row swap."""
    p = 4194301
    a = _swapped_once(p, 300, swap_at)
    calls = _leaf_paths(monkeypatch)
    assert _rank_with_pivots(a, p) == (300, list(range(300)))
    assert all(300 - r0 >= c1 - c0 for r0, c0, c1, _ in calls)
    fallbacks = [(c0, c1) for _, c0, c1, product in calls if not product]
    if swap_at is None:
        assert fallbacks == []
    else:
        assert len(fallbacks) == 1 and fallbacks[0][0] <= swap_at < fallbacks[0][1]
    assert sum(c1 - c0 for _, c0, c1, _ in calls) == 300


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@given(seed=st.integers(0, 2**32 - 1), fill=st.sampled_from(EDGE_FILLS), size=st.integers(0, 2000))
@settings(max_examples=10, deadline=None)
@example(seed=0, fill="max", size=1)
@example(seed=1, fill="edges", size=2000)
def test_kernel_mulmod_vec_matches_integers(p, seed, fill, size):
    rng = np.random.default_rng(seed)
    a = _residues_mod(p, rng, (size,), fill)
    b = _residues_mod(p, rng, (size,), fill)
    got = mulmod_vec(a, b, p)
    assert got.dtype == np.uint64
    assert (got.astype(object) == a.astype(object) * b.astype(object) % p).all()
    edges = np.array([0, 1, p - 1], dtype=np.uint64)
    got = mulmod_vec(edges[:, None], edges[None, :], p)  # broadcasting
    assert (got.astype(object) == np.outer(edges.astype(object), edges.astype(object)) % p).all()


@pytest.mark.parametrize("p", [1048573, P40, P62, P61])
@pytest.mark.parametrize("acc_max", [1, 100, 1000])
def test_kernel_gemm_sub_in_row_blocks(p, acc_max, monkeypatch):
    """An update taller than _ACC_MAX allows goes in row blocks (of one row
    when acc_max = 1), crossing chunk and stripe boundaries too."""
    monkeypatch.setattr(gfprime, "_ACC_MAX", acc_max)
    monkeypatch.setattr(gfprime, "_STRIPE", 16)
    monkeypatch.setattr(gfprime, "_CHUNK_K", 8)
    rng = np.random.default_rng(acc_max)
    m, k, n = 37, 20, 50
    a = _residues_mod(p, rng, (k + m, k + n), "random")
    pivcols = list(rng.permutation(k))
    want = (a[k:, k:].astype(object) - _int_matmul_mod(a[k:, pivcols], a[:k, k:], p)) % p
    top = a[:k].copy()
    _Kernel(p).gemm_sub(a, k, k + m, 0, pivcols, k, k + n)
    assert (a[k:, k:].astype(object) == want).all()
    assert (a[:k] == top).all()


@pytest.mark.parametrize("p", [1048573, P40, P62])  # one, two and three limbs
def test_pivot_trace_at_every_limb_count(p, monkeypatch):
    """The blocked engine with tiny chunk, stripe, tile and trsm sizes, so a
    small matrix crosses every boundary many times, against the classical
    elimination on Python integers."""
    monkeypatch.setattr(gfprime, "_CHUNK_K", 8)
    monkeypatch.setattr(gfprime, "_STRIPE", 16)
    monkeypatch.setattr(gfprime, "_TILE", 40)
    monkeypatch.setattr(gfprime, "_TRSM_LEAF", 4)
    rng = np.random.default_rng(31)
    raw = rng.integers(0, p, size=(90, 130), dtype=np.uint64)
    raw[45] = raw[1]
    raw[89] = (raw[2].astype(object) + raw[5]) % p
    raw[60:70] = raw[10:20]
    raw[:, 43] = 0
    raw[:, 50:53] = p - 1
    rank, pivots = _rank_with_pivots(raw.copy(), p)
    assert pivots == _gauss_jordan(raw.astype(object), p)
    assert rank == len(pivots)


# ---------------------------------------------------------------------------
# Early termination: the wide-panel split and the stop once every row has a
# pivot, against the oracle at one, two and three limbs.

SPLIT_PRIMES = [101, 1048573, P40, P62]  # one limb (twice), two and three


def _shrunk(monkeypatch):
    """Leaf, trsm, stripe, accumulator and chunk sizes small enough for a
    small matrix to cross every boundary and recurse many levels deep."""
    monkeypatch.setattr(gfprime, "_LEAF_W", 2)
    monkeypatch.setattr(gfprime, "_TRSM_LEAF", 4)
    monkeypatch.setattr(gfprime, "_STRIPE", 16)
    monkeypatch.setattr(gfprime, "_ACC_MAX", 512)
    monkeypatch.setattr(gfprime, "_CHUNK_K", 8)


def _planted(rng, p, m, n, profile):
    """An m x n matrix mod p whose column rank profile is `profile`: a random
    m x r matrix (full column rank with overwhelming probability, checked by
    the oracle's rank) times an r x n echelon form with pivots there."""
    r = len(profile)
    e = rng.integers(0, p, size=(r, n), dtype=np.uint64)
    e[np.arange(n)[None, :] < np.asarray(profile, dtype=np.intp)[:, None]] = 0
    e[np.arange(r), profile] = 1
    ell = rng.integers(0, p, size=(m, r), dtype=np.uint64)
    return ((ell.astype(object) @ e.astype(object)) % p).astype(np.uint64)


def _ple_calls(monkeypatch):
    """Record (rows, r0, c0, c1) of every _ple call."""
    calls = []
    inner = gfprime._ple

    def recorded(a, kern, r0, c0, c1, pivs):
        calls.append((a.shape[0], r0, c0, c1))
        return inner(a, kern, r0, c0, c1, pivs)

    monkeypatch.setattr(gfprime, "_ple", recorded)
    return calls


def _assert_oracle_trace(a, p):
    rank, pivots = _rank_with_pivots(a.copy(), p)
    assert pivots == _gauss_jordan(a.astype(object), p)
    assert rank == len(pivots)
    return pivots


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_wide_full_row_rank_with_dependent_leading_columns(p, monkeypatch):
    """24 x 150 of full row rank whose first eight columns span one line and
    whose columns 30-39 are zero.  The panel [0, 37) is split at column 24,
    not at its middle 18, but the 24 columns hold only 17 pivots, so the
    elimination goes on to the right; it stops at the last row's pivot in
    column 40 and never visits the 109 columns after it."""
    _shrunk(monkeypatch)
    rng = np.random.default_rng(p % 997)
    profile = [0] + list(range(8, 30)) + [40]
    a = _planted(rng, p, 24, 150, profile)
    calls = _ple_calls(monkeypatch)
    assert _assert_oracle_trace(a, p) == profile
    assert (24, 0, 0, 24) in calls
    assert max(c0 for _, _, c0, _ in calls) <= 40


@pytest.mark.parametrize("p", SPLIT_PRIMES)
def test_wide_rank_deficient_matrix_repeats_the_split(p, monkeypatch):
    """40 x 120 of rank 25, pivots spread out: panels right of a short left
    part are wider than their rows again, so the split at c0 + (m - r0)
    acts at several levels, and no row ever runs out, so nothing stops
    early."""
    _shrunk(monkeypatch)
    rng = np.random.default_rng(p % 991)
    profile = sorted(int(c) for c in rng.choice(np.arange(1, 120, 2), size=25, replace=False))
    a = _planted(rng, p, 40, 120, profile)
    calls = _ple_calls(monkeypatch)
    assert _assert_oracle_trace(a, p) == profile
    split = [
        (m, r0, c0, c0 + (m - r0))
        for m, r0, c0, c1 in calls
        if c1 - c0 > 2 and c1 - c0 > m - r0 and c0 + (m - r0) > (c0 + c1) // 2
    ]
    assert sum(call in calls for call in split) >= 2


@pytest.mark.parametrize("shape, profile", [((4, 6000), [3]), ((64, 1000), [3, 100, 900])])
def test_wide_low_rank_matrix_keeps_the_recursion_shallow(shape, profile, monkeypatch):
    """On the 4 x 6000 matrix of rank 1, a split at c0 + (m - r0) alone would
    peel off three columns per level and exceed Python's recursion limit;
    the split at no less than the middle keeps the depth logarithmic."""
    _shrunk(monkeypatch)
    m, n = shape
    a = _planted(np.random.default_rng(n), 101, m, n, profile)
    assert _assert_oracle_trace(a, 101) == profile


@st.composite
def planted_matrices(draw):
    """(p, matrix, profile): shapes up to 4m columns wide, any rank."""
    p = draw(st.sampled_from(SPLIT_PRIMES + [P61]))
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 4 * m))
    profile = draw(st.lists(st.integers(0, n - 1), max_size=min(m, n), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, _planted(rng, p, m, n, sorted(profile)), sorted(profile)


@given(case=planted_matrices())
@settings(max_examples=60, deadline=None)
def test_pivot_trace_of_planted_profiles_matches_the_oracle(case):
    p, a, profile = case
    with pytest.MonkeyPatch.context() as mp:
        _shrunk(mp)
        pivots = _assert_oracle_trace(a, p)
    # a random left factor can be rank deficient, with probability about r / p
    assert pivots == profile or p == 101


# ---------------------------------------------------------------------------
# Leaf shapes: panels split at multiples of the leaf width, counted from the
# panel's first column, so a full-rank panel's leaves are all full but the
# last.  Real leaf width and cap, no shrinking.

LEAF_PRIMES = [5, 101, 4194301, 2**31 - 1, MERSENNE61]


@st.composite
def leaf_shape_cases(draw):
    """(p, matrix): planted rank profiles, 1-80 rows and 1-120 columns."""
    p = draw(st.sampled_from(LEAF_PRIMES))
    m = draw(st.integers(1, 80))
    n = draw(st.integers(1, 120))
    profile = draw(st.lists(st.integers(0, n - 1), max_size=min(m, n), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, _planted(rng, p, m, n, sorted(profile))


@given(case=leaf_shape_cases())
@settings(max_examples=40, deadline=None)
@example(case=(5, np.ones((80, 120), dtype=np.uint64)))
@example(case=(MERSENNE61, np.eye(80, 120, dtype=np.uint64)))
def test_panels_split_at_multiples_of_the_leaf_width(case):
    """The pivot trace is the oracle's, and every split point mid of a panel
    [c0, c1) from row r0 has mid - c0 a multiple of _LEAF_W, or equal to
    the m - r0 rows left when the panel is wider than that; it is at least
    the middle and leaves the right part nonempty."""
    p, a = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _ple_calls(mp)
        _assert_oracle_trace(a, p)
    w = gfprime._LEAF_W
    nodes = [i for i, (m, r0, c0, c1) in enumerate(calls) if r0 < m and c1 - c0 > w]
    for i in nodes:
        m, r0, c0, c1 = calls[i]
        assert calls[i + 1][:3] == (m, r0, c0)  # the left child
        mid = calls[i + 1][3]
        assert (mid - c0) % w == 0 or (c1 - c0 > m - r0 and mid - c0 == m - r0)
        assert c1 - c0 <= 2 * (mid - c0) and mid < c1


@given(
    p=st.sampled_from(LEAF_PRIMES),
    n=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
@example(p=101, n=gfprime._LEAF_W + 1, seed=0)
def test_a_full_rank_square_panel_makes_full_leaves(p, n, seed):
    """A nonsingular n x n matrix, a unit upper triangular one with its rows
    shuffled, has pivots in every column and makes ceil(n / _LEAF_W)
    leaves, each _LEAF_W columns wide but the last."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.integers(0, p, size=(n, n), dtype=np.uint64), 1)
    a[np.arange(n), np.arange(n)] = 1
    a = a[rng.permutation(n)]
    widths, leaf = [], gfprime._ple_leaf

    def recorded(a, kern, r0, c0, c1, pivs):
        widths.append(c1 - c0)
        return leaf(a, kern, r0, c0, c1, pivs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gfprime, "_ple_leaf", recorded)
        assert _rank_with_pivots(a, p) == (n, list(range(n)))
    w = gfprime._LEAF_W
    assert len(widths) == -(-n // w)
    assert widths == [w] * (len(widths) - 1) + [n - w * (len(widths) - 1)]


# ---------------------------------------------------------------------------
# Carried inverses: every pivot block _ple returns, against the unit-lower
# multipliers it stands for, on Python integers.

INVERSE_PRIMES = [101, 1048573, P40, P61]  # one limb (twice), two and three


def _ple_blocks(monkeypatch):
    """Record (r0, c0, c1, pivot columns, block) of every _ple call."""
    calls = []
    inner = gfprime._ple

    def recorded(a, kern, r0, c0, c1, pivs):
        base = len(pivs)
        block = inner(a, kern, r0, c0, c1, pivs)
        calls.append((r0, c0, c1, pivs[base:], block))
        return block

    monkeypatch.setattr(gfprime, "_ple", recorded)
    return calls


def _assert_block(a, p, r0, cols, block):
    """block is the pivot block of the pivot rows from r0, with pivot
    columns cols, of the eliminated matrix a: None without pivots, the
    inverse of the unit-lower multipliers up to _TRSM_LEAF pivots (or in
    a leaf), and its two halves above, or when its rows reach the last
    row."""
    k = len(cols)
    if block is None:
        assert k == 0
        return
    if isinstance(block, tuple):
        h, lo, hi = block
        assert k > gfprime._TRSM_LEAF or r0 + k >= a.shape[0]
        assert 0 < h < k
        _assert_block(a, p, r0, cols[:h], lo)
        _assert_block(a, p, r0 + h, cols[h:], hi)
        return
    assert block.dtype == np.uint64 and block.shape == (k, k)
    low = a[r0 : r0 + k, cols].astype(object)
    low[np.triu_indices(k)] = 0
    low += np.eye(k, dtype=np.int64).astype(object)
    assert ((low.dot(block.astype(object)) % p) == np.eye(k, dtype=np.int64)).all()


def _assert_blocks(a, p, calls):
    _, pivots = _rank_with_pivots(a, p)  # a is eliminated in place
    for r0, _, _, cols, block in calls:
        _assert_block(a, p, r0, cols, block)
    return pivots


@pytest.mark.parametrize("p", INVERSE_PRIMES)
def test_carried_inverses_invert_their_multipliers(p, monkeypatch):
    """200 x 128 whose eight-column leaves hold 1, 2, ..., 8 pivots, twice
    over: every leaf size occurs, joins up to the 64-pivot cap make
    16-, 32- and 64-column blocks of 3 to 36 pivots, and the root's 72
    pivots keep their halves."""
    rng = np.random.default_rng(p % 967)
    leaves = [8 * i + rng.choice(8, size=i % 8 + 1, replace=False) for i in range(16)]
    profile = sorted(int(c) for c in np.concatenate(leaves))
    a = _planted(rng, p, 200, 128, profile)
    calls = _ple_blocks(monkeypatch)
    assert _assert_blocks(a.copy(), p, calls) == _gauss_jordan(a.astype(object), p) == profile
    leaf_sizes = {len(cols) for _, c0, c1, cols, _ in calls if c1 - c0 <= gfprime._LEAF_W}
    node_sizes = {len(cols) for _, c0, c1, cols, _ in calls if c1 - c0 > gfprime._LEAF_W}
    assert leaf_sizes == set(range(1, 9))
    assert node_sizes == {3, 7, 11, 15, 10, 26, 36, 72}


def _empty_child(rng, p):
    """Columns 8-11 hold no pivot, so the panel [8, 16) joins a left half
    without pivots to a right half with some; the 26 pivots leave columns
    [30, 48), right of the root's split, without pivots."""
    return _planted(rng, p, 30, 48, list(range(8)) + list(range(12, 30)))


def _early_stop(rng, p):
    """12 x 40 of full row rank, its pivots in columns 0-15: the root's left
    part [0, 20) gives every row a pivot and the elimination stops there."""
    profile = sorted(int(c) for c in rng.choice(16, size=12, replace=False))
    return _planted(rng, p, 12, 40, profile)


def _deep_solve(rng, p):
    """40 x 64 with 30 pivots left of the root's split at column 32: the
    root solves with a block of 30 pivots, whose halves are above the cap
    of 4 again."""
    return _planted(rng, p, 40, 64, list(range(30)) + [40, 50, 63])


@pytest.mark.parametrize("p", INVERSE_PRIMES)
@pytest.mark.parametrize("case", [_empty_child, _early_stop, _deep_solve])
def test_carried_inverses_keep_the_oracle_trace(p, case, monkeypatch):
    """With leaves of 2 columns and a cap of 4 pivots, every block that _ple
    returns inverts its multipliers and the pivot trace is the oracle's.  A
    join of a block whose rows reach the last row computes no product."""
    _shrunk(monkeypatch)
    a = case(np.random.default_rng(p % 953), p)
    joins, both, solves, products = [], [], [], []
    join, trsm, matmul_mod = gfprime._join, gfprime._trsm, _Kernel.matmul_mod

    def joined(a, kern, r0, cols, h, lo, hi):
        joins.append((lo is None, hi is None))
        before = len(products)
        block = join(a, kern, r0, cols, h, lo, hi)
        if lo is not None and hi is not None:  # (reaches the last row, pivots, products)
            both.append((r0 + len(cols) >= a.shape[0], len(cols), len(products) - before))
        return block

    def counted(kern, x, y):
        products.append(x.shape)
        return matmul_mod(kern, x, y)

    def solved(a, kern, r0, cols, block, clo, chi):
        solves.append(block)
        return trsm(a, kern, r0, cols, block, clo, chi)

    monkeypatch.setattr(gfprime, "_join", joined)
    monkeypatch.setattr(gfprime, "_trsm", solved)
    monkeypatch.setattr(_Kernel, "matmul_mod", counted)
    calls = _ple_blocks(monkeypatch)
    assert _assert_blocks(a.copy(), p, calls) == _gauss_jordan(a.astype(object), p)
    assert all(n == 0 for last, k, n in both if last or k > gfprime._TRSM_LEAF)
    assert all(n == 2 for last, k, n in both if not last and k <= gfprime._TRSM_LEAF)
    if case is _empty_child:
        assert (True, False) in joins and (False, True) in joins
    elif case is _early_stop:
        assert max(c0 for _, c0, _, _, _ in calls) < 20
        assert any(last and k <= gfprime._TRSM_LEAF for last, k, _ in both)
    else:
        nested = [b for b in solves if isinstance(b, tuple) and isinstance(b[1], tuple)]
        assert nested


# ---------------------------------------------------------------------------
# Multiplier panels: a run of adjacent pivot columns is read in place, any
# other set of pivot columns is gathered.

PANEL_PRIMES = [1048573, P40, P62, P61]  # one, two and three limbs, and 2**61 - 1


def _panels(monkeypatch):
    """For every gemm_sub call, one entry per row block: True when the
    block's multiplier panel is a view of the matrix, False when gathered."""
    calls = []
    active = []
    gemm_sub, tiles = _Kernel.gemm_sub, _Kernel._tiles

    def recorded(self, a, *args):
        calls.append([])
        active.append(a)
        try:
            gemm_sub(self, a, *args)
        finally:
            active.pop()

    def traced(self, x, y):
        if active:
            calls[-1].append(np.may_share_memory(x, active[-1]))
        return tiles(self, x, y)

    monkeypatch.setattr(_Kernel, "gemm_sub", recorded)
    monkeypatch.setattr(_Kernel, "_tiles", traced)
    return calls


@pytest.mark.parametrize("p", PANEL_PRIMES)
@pytest.mark.parametrize("acc_max", [1, 512])
@pytest.mark.parametrize(
    "pivcols",
    [list(range(3, 23)), [3, 5, 4] + list(range(6, 23)), [7]],
    ids=["run", "ends-of-a-run-out-of-order", "single"],
)
def test_kernel_gemm_sub_reads_a_run_of_pivot_columns_in_place(p, acc_max, pivcols, monkeypatch):
    """Pivot columns 3-22 are one run and are read in place, in row blocks;
    the same columns with 4 and 5 swapped have ends k - 1 apart but are no
    run, so they are gathered.  Either way the update matches integers and
    writes nothing outside its block."""
    monkeypatch.setattr(gfprime, "_ACC_MAX", acc_max)
    monkeypatch.setattr(gfprime, "_STRIPE", 16)
    monkeypatch.setattr(gfprime, "_CHUNK_K", 8)
    rng = np.random.default_rng(acc_max + len(pivcols))
    k, m, n = len(pivcols), 37, 30
    a = _residues_mod(p, rng, (k + m, 23 + n), "random")
    want = (a[k:, 23:].astype(object) - _int_matmul_mod(a[k:, pivcols], a[:k, 23:], p)) % p
    before = a.copy()
    calls = _panels(monkeypatch)
    _Kernel(p).gemm_sub(a, k, k + m, 0, pivcols, 23, 23 + n)
    assert (a[k:, 23:].astype(object) == want).all()
    changed = a != before
    changed[k:, 23:] = False
    assert not changed.any()
    in_place = pivcols == list(range(pivcols[0], pivcols[0] + k))
    assert calls == [[in_place] * len(calls[0])]
    assert len(calls[0]) > 1  # 37 rows exceed a row block at either bound


@pytest.mark.parametrize("p", PANEL_PRIMES)
@pytest.mark.parametrize(
    "pivcols, in_place",
    [(np.arange(3, 23), True), (np.array([3, 5, 4] + list(range(6, 23)), dtype=np.uint64), False)],
    ids=["run", "ends-of-a-run-out-of-order"],
)
def test_kernel_gemm_sub_takes_pivot_columns_as_an_array(p, pivcols, in_place, monkeypatch):
    """The pivot columns as an integer array, not a list: the run is read
    in place, the shuffled run is gathered, and the update matches
    integers."""
    rng = np.random.default_rng(len(pivcols))
    k, m, n = len(pivcols), 37, 30
    a = _residues_mod(p, rng, (k + m, 23 + n), "random")
    want = (a[k:, 23:].astype(object) - _int_matmul_mod(a[k:, pivcols], a[:k, 23:], p)) % p
    calls = _panels(monkeypatch)
    _Kernel(p).gemm_sub(a, k, k + m, 0, pivcols, 23, 23 + n)
    assert (a[k:, 23:].astype(object) == want).all()
    assert calls == [[in_place]]


@pytest.mark.parametrize("p", PANEL_PRIMES)
def test_adjacent_pivot_columns_are_read_in_place_across_row_blocks(p, monkeypatch):
    """60 x 90 of rank 40 with its pivots in columns 20-59: every update
    reads its multipliers as a view of the matrix, and with the shrunk
    accumulator bound the tall updates go in several row blocks."""
    _shrunk(monkeypatch)
    profile = list(range(20, 60))
    a = _planted(np.random.default_rng(p % 983), p, 60, 90, profile)
    calls = _panels(monkeypatch)
    assert _assert_oracle_trace(a, p) == profile
    assert calls and all(all(blocks) for blocks in calls)
    assert max(len(blocks) for blocks in calls) > 1


@pytest.mark.parametrize("p", PANEL_PRIMES)
def test_dependent_leading_columns_still_gather_the_panel(p, monkeypatch):
    """60 x 90 whose columns 1-7 depend on column 0: an update whose pivots
    include column 0 and columns from 8 on gathers its multipliers, and
    updates inside the run 8-48 read them in place."""
    _shrunk(monkeypatch)
    profile = [0] + list(range(8, 48))
    a = _planted(np.random.default_rng(p % 977), p, 60, 90, profile)
    calls = _panels(monkeypatch)
    assert _assert_oracle_trace(a, p) == profile
    panels = [read for blocks in calls for read in blocks]
    assert False in panels and True in panels


# ---------------------------------------------------------------------------
# Ownership: public matrices are never written by rank(), pivot_columns()
# or nullspace().


@pytest.mark.parametrize("p", [1048573, P40, P61])
@pytest.mark.parametrize("wrap", ["constructor", "fortran", "strided_view"])
def test_rank_pivot_columns_and_nullspace_leave_the_entries_alone(p, wrap, monkeypatch):
    """A 40 x 70 matrix of rank 26 with dependent leading columns, so the
    elimination runs leaves, triangular solves and both panel paths: the
    wrapped array and `entries` stay byte-identical, and repeated calls
    agree.  The constructor wraps a C-ordered array, a Fortran-ordered copy
    of it, or a view of every second column of a wider array."""
    _shrunk(monkeypatch)
    field = PrimeField(p)
    profile = [0] + list(range(8, 30)) + [40, 41, 60]
    arr = _planted(np.random.default_rng(p % 971), p, 40, 70, profile)
    if wrap == "fortran":
        arr = np.asfortranarray(arr)
    elif wrap == "strided_view":
        wide = np.zeros((40, 140), dtype=np.uint64)
        wide[:, ::2] = arr
        arr = wide[:, ::2]
    before = arr.tobytes()
    mat = PrimeFieldMatrix(field, arr)
    kernel = mat.nullspace()
    for _ in range(2):
        assert mat.pivot_columns() == profile
        assert mat.entries.tobytes() == before
        assert mat.rank() == len(profile)
        assert mat.entries.tobytes() == before
        assert mat.nullspace() == kernel
        assert mat.entries.tobytes() == before
    assert len(kernel) == 70 - len(profile)
    assert arr.tobytes() == before
    assert mat.entry(39, 69) == int(arr[39, 69])


def test_entries_is_a_copy():
    arr = np.array([[1, 2], [3, 4]], dtype=np.uint64)
    mat = PrimeFieldMatrix(PrimeField(13), arr)
    mat.entries[0, 0] = 5
    assert mat.entry(0, 0) == 1


# ---------------------------------------------------------------------------
# The constructor reduces integer arrays in int64, like Python integers.

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
REDUCE_PRIMES = [3, 101] + KERNEL_PRIMES


def _reduced_by_objects(arr, p):
    return [[int(v) % p for v in row] for row in arr.tolist()]


@pytest.mark.parametrize("dtype", INT_DTYPES)
@pytest.mark.parametrize("p", REDUCE_PRIMES)
def test_integer_dtype_extremes_reduce_like_python_integers(dtype, p):
    info = np.iinfo(dtype)
    rows = [
        [info.min, info.max, 0],
        [info.min + 1, info.max - 1, 1],
        [info.max // 2, p % (info.max + 1), 0],
    ]
    arr = np.array(rows, dtype=dtype)
    got = PrimeFieldMatrix(PrimeField(p), arr).entries
    assert got.dtype == np.uint64
    assert got.tolist() == _reduced_by_objects(arr, p)


@given(
    data=st.data(),
    dtype=st.sampled_from(INT_DTYPES),
    p=st.sampled_from(REDUCE_PRIMES),
)
@settings(max_examples=100, deadline=None)
def test_integer_arrays_reduce_like_python_integers(data, dtype, p):
    shape = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)
    arr = data.draw(hnp.arrays(dtype, shape))
    got = PrimeFieldMatrix(PrimeField(p), arr).entries
    assert got.dtype == np.uint64
    assert got.shape == arr.shape
    assert got.tolist() == _reduced_by_objects(arr, p)


def test_field_modulus_is_an_integer_not_truncated():
    for p in (np.int64(1048573), np.uint64(1048573), 1048573):
        field = PrimeField(p)
        assert field.p == 1048573 and type(field.p) is int
        assert field == PrimeField(1048573)
    for p in (1048573.0, 101.5):
        with pytest.raises(TypeError):
            PrimeField(p)
