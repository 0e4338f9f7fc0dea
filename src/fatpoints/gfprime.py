"""Exact scalar and dense-matrix arithmetic over prime fields.

Residues are stored in uint64 arrays and every kernel is arranged so that
intermediates stay exactly representable.  The default modulus is the
Mersenne prime 2**61 - 1, chosen so that a random evaluation point
witnesses the generic rank of an interpolation matrix with failure
probability on the order of (degree)/p per trial.

The rank engine is a recursive block elimination (PLE decomposition).
Column panels are split in half down to a small leaf width; pivoting
inside a leaf is classical row elimination, while cross-panel updates are
delayed and applied as matrix products.  For products, operands are split
into 21-bit limbs so partial sums fit float64 exactly and can go through
BLAS.  Mod 2**61 - 1 the kernels use delayed reduction: the exact limb
products of every k-chunk are summed in uint64 accumulators and reduced
once, by bit rotations since 2**61 == 1 (mod p), and elementwise products
use 32-bit halves with 2**64 == 8 (mod p).  The pivot choice (leftmost
column, first nonzero row) is identical in every backend, so all paths
produce the same pivot trace and the result is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MERSENNE61",
    "DEFAULT_PRIME",
    "PrimeField",
    "PrimeFieldMatrix",
    "is_prime",
    "mulmod_vec",
]

MERSENNE61 = (1 << 61) - 1
DEFAULT_PRIME = MERSENNE61

# Deterministic Miller-Rabin witness set, exact for n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic in F_p for an odd prime p < 2**62."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        if p == 2 or p >= 1 << 62:
            raise ValueError("modulus must be an odd prime below 2**62")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def reduce(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        return pow(a % self.p, e, self.p)

    def legendre(self, a: int) -> int:
        """Euler criterion: 1 for nonzero squares, -1 for non-squares, 0 for 0."""
        a %= self.p
        if a == 0:
            return 0
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, a: int) -> int | None:
        """A square root of a, or None when a is not a quadratic residue.

        Tonelli-Shanks, with the exponent shortcut when p == 3 (mod 4).
        Callers that sample points on a quadric treat None as "retry with
        a fresh line", not as an error.
        """
        p = self.p
        a %= p
        if a == 0:
            return 0
        if self.legendre(a) != 1:
            return None
        if p & 3 == 3:
            return pow(a, (p + 1) // 4, p)
        q = p - 1
        s = (q & -q).bit_length() - 1
        q >>= s
        z = 2
        while self.legendre(z) != -1:
            z += 1
        c = pow(z, q, p)
        x = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            i = 0
            t2i = t
            while t2i != 1:
                t2i = t2i * t2i % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            x = x * b % p
            c = b * b % p
            t = t * c % p
            m = i
        return x


# ---------------------------------------------------------------------------
# Mersenne-61 arithmetic.  Since 2**61 == 1 (mod p), the bits of a uint64
# above bit 61 fold back onto the low 61 bits, and multiplying by 2**s is a
# rotation of the 61-bit window.  Kernels therefore sum exact products in
# uint64 and reduce once at the end (delayed reduction).

_M61 = np.uint64(MERSENNE61)
_L32 = np.uint64(0xFFFFFFFF)

# Dot products on 21-bit limbs: a residue x < 2**61 is x0 + x1*2**21 +
# x2*2**42 with x0, x1 < 2**21 and x2 < 2**19, so Karatsuba sums of two limbs
# are < 2**22, their products < 2**44, and 2**9 of those stay < 2**53, exact
# in a float64 GEMM.  The six Karatsuba sums are accumulated in uint64 across
# k-chunks; up to k = 2**17 every sum, and every recombined part, stays below
# 2**61, the limit of the final rotations.
_LIMB_PRODUCT_BITS = 44
_ACC_K = 1 << (61 - _LIMB_PRODUCT_BITS)


def _fold61(v: np.ndarray, tmp: np.ndarray) -> None:
    """In place v = (v >> 61) + (v & p), which is == v (mod p); tmp is scratch."""
    np.right_shift(v, np.uint64(61), out=tmp)
    v &= _M61
    v += tmp


def _mulmod61(a, b) -> np.ndarray:
    """Elementwise a*b mod 2**61 - 1 for reduced uint64 operands (broadcasting).

    With 32-bit halves a = a1*2**32 + a0 and b = b1*2**32 + b0 (a1, b1 < 2**29),
    a*b = a1*b1*2**64 + m*2**32 + a0*b0 with m = a1*b0 + a0*b1 < 2**62.  Mod p,
    2**64 == 8 and m*2**32 == (m >> 29) + ((m mod 2**29) << 32), so
    8*a1*b1 + (m >> 29) + ((m mod 2**29) << 32) + fold(a0*b0) < 2**63 and two
    folds and a conditional subtraction finish the reduction.
    """
    a0, a1 = a & _L32, a >> np.uint64(32)
    b0, b1 = b & _L32, b >> np.uint64(32)
    lo = a0 * b0
    mid = a1 * b0
    mid += a0 * b1
    acc = a1 * b1
    acc <<= np.uint64(3)
    tmp = mid >> np.uint64(29)
    acc += tmp
    mid <<= np.uint64(32)
    mid &= _M61
    acc += mid
    np.right_shift(lo, np.uint64(61), out=tmp)
    lo &= _M61
    acc += lo
    acc += tmp
    _fold61(acc, tmp)
    return _condsub(acc, MERSENNE61)


def _rotate_add(s: np.ndarray, u: np.ndarray, shift: int, tmp: np.ndarray) -> None:
    """s += u * 2**shift (mod p) as a 61-bit rotation; u < 2**61 is destroyed."""
    np.left_shift(u, np.uint64(shift), out=tmp)
    tmp &= _M61
    s += tmp
    u >>= np.uint64(61 - shift)
    s += u


def _recombine61(acc: np.ndarray) -> np.ndarray:
    """Reduce the six Karatsuba sums acc = (p00, p11, p22, q01, q02, q12) of a
    tile to x @ y mod p.

    The limb parts are P0 = p00, P1 = q01 - p00 - p11, P2 = q02 - p00 - p22 + p11,
    P3 = q12 - p11 - p22 and P4 = p22, with x @ y = sum(P_s * 2**(21 s)).  As
    2**63 == 4 (mod p) that is G0 + G1 * 2**21 + G2 * 2**42 with G0 = P0 + 4 P3,
    G1 = P1 + 4 P4 and G2 = P2, each below 2**61 by the accumulator bound, so
    two rotations, a fold and a conditional subtraction finish.  The uint64
    differences wrap, but each true value is nonnegative.  acc is overwritten;
    the result is returned in the buffer of p00.
    """
    p00, p11, p22, q01, q02, q12 = acc
    acc[3:5] -= p00  # q01, q02
    acc[3:6:2] -= p11  # q01, q12: P1 done
    acc[4:6] -= p22  # q02, q12: P3 done
    q02 += p11  # G2
    acc[2::3] <<= np.uint64(2)  # 4 P4, 4 P3
    p00 += q12  # G0
    q01 += p22  # G1
    _rotate_add(p00, q01, 21, p11)
    _rotate_add(p00, q02, 42, p11)
    _fold61(p00, p11)  # p00 < 2**63 before, <= p + 3 after
    np.subtract(p00, _M61, out=p11)
    np.minimum(p00, p11, out=p00)
    return p00


def mulmod_vec(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a*b mod p for reduced uint64 arrays (broadcasting allowed)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if p == MERSENNE61:
        return _mulmod61(a, b)
    if p < 1 << 31:
        return (a.astype(np.int64) * b.astype(np.int64) % p).astype(np.uint64)
    return ((a.astype(object) * b.astype(object)) % p).astype(np.uint64)


# ---------------------------------------------------------------------------
# Blocked elimination.

_LEAF_W = 8
_TRSM_LEAF = 64
_STRIPE = 1024
_TILE = 1 << 19  # elements per row tile of a product stripe
_KEEP_MIN = 1 << 17  # elements from which a kernel keeps a work buffer between calls


def _condsub(v: np.ndarray, p: int) -> np.ndarray:
    """In-place v mod p for v < 2p, branchless: v - p wraps below p."""
    np.minimum(v, v - np.uint64(p), out=v)
    return v


def _addmod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    return _condsub(x + y, p)


def _sub_block(a, rlo, rhi, clo, chi, prod, p):
    """a[rows, cols] = (a[rows, cols] - prod) mod p, all operands reduced."""
    v = a[rlo:rhi, clo:chi] + (np.uint64(p) - prod)
    a[rlo:rhi, clo:chi] = _condsub(v, p)


class _M61Kernel:
    """Update kernels for p = 2**61 - 1 via exact float64 BLAS on limbs.

    One kernel serves one elimination.  It keeps its work buffers between
    calls, because faulting in fresh pages for every temporary costs more
    than the arithmetic done in them.
    """

    p = MERSENNE61
    chunk_k = 512  # sums of 512 products of 22-bit limb sums stay < 2**53

    def __init__(self):
        self._scratch: dict[str, np.ndarray] = {}

    def _buf(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised array of this shape, reusing the buffer kept under
        name.  Small arrays are allocated afresh: the allocator serves them
        from memory it already has, and keeping them would only add to the
        peak footprint of small eliminations."""
        size = math.prod(shape)
        if size < _KEEP_MIN:
            return np.empty(shape, dtype=dtype)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            buf = self._scratch[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def _limbs(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the 21-bit limbs x0, x1, x2 of x into out[0:3] as float64."""
        limb = self._buf("limb", x.shape, np.int64)
        xi = x.view(np.int64)  # residues < 2**61 read the same as int64
        for i, shift in enumerate((0, 21, 42)):
            np.right_shift(xi, shift, out=limb)
            limb &= 0x1FFFFF
            np.copyto(out[i], limb, casting="unsafe")

    def _tiles(self, x, y):
        """Yield (r0, r1, w0, w1, s, tmp): s = (x @ y)[r0:r1, w0:w1] mod p,
        and tmp a scratch array of the same shape.

        Each stripe of _STRIPE output columns keeps six uint64 accumulators,
        one per Karatsuba GEMM, and adds the exact float64 product of every
        k-chunk into them; the limb parts are then formed and recombined once.
        Rows go in tiles of about _TILE elements so elementwise passes run in
        cache.  Limbs and their sums are below 2**22, so float64 holds them
        and their sums and differences exactly.
        """
        if self.chunk_k << _LIMB_PRODUCT_BITS > 1 << 53:
            raise ValueError(f"chunk_k {self.chunk_k} breaks float64 exactness of limb products")
        m, k = x.shape
        if k > _ACC_K:
            raise ValueError(f"inner dimension {k} exceeds the accumulator bound {_ACC_K}")
        n = y.shape[1]
        for w0 in range(0, n, _STRIPE):
            w1 = min(w0 + _STRIPE, n)
            rows = max(1, _TILE // max(w1 - w0, self.chunk_k))  # bounds x tiles too
            acc = self._buf("acc", (6, m, w1 - w0), np.uint64)
            acc_i64 = acc.view(np.int64)  # float64 -> int64 converts faster than -> uint64
            for k0 in range(0, k, self.chunk_k):
                k1 = min(k0 + self.chunk_k, k)
                # y0, y1, y2 and the Karatsuba sums y0+y1, y0+y2, y1+y2
                ys = self._buf("y", (6, k1 - k0, w1 - w0), np.float64)
                self._limbs(y[k0:k1, w0:w1], ys)
                np.add(ys[0:2], ys[1:3], out=ys[3:6:2])
                np.add(ys[0], ys[2], out=ys[4])
                for r0 in range(0, m, rows):
                    r1 = min(r0 + rows, m)
                    xs = self._buf("x", (3, r1 - r0, k1 - k0), np.float64)
                    self._limbs(x[r0:r1, k0:k1], xs)
                    prods = self._buf("prods", (3, r1 - r0, w1 - w0), np.float64)
                    for half in (0, 3):
                        if half:  # x0, x1, x2 -> x0+x1, x0+x2, x1+x2 in place:
                            xs[0] += xs[1]  # x0 + x1
                            xs[2] += xs[1]  # x1 + x2
                            xs[1] *= -2.0
                            xs[1] += xs[0]
                            xs[1] += xs[2]  # (x0 + x1) + (x1 + x2) - 2 x1
                        np.matmul(xs, ys[half : half + 3], out=prods)
                        part = acc_i64[half : half + 3, r0:r1]
                        if k0:
                            np.add(part, prods, out=part, dtype=np.int64, casting="unsafe")
                        else:
                            np.copyto(part, prods, casting="unsafe")
            for r0 in range(0, m, rows):
                r1 = min(r0 + rows, m)
                tile = acc[:, r0:r1]
                yield r0, r1, w0, w1, _recombine61(tile), tile[1]  # tile[1] is spent

    def matmul_mod(self, x, y):
        """Exact (x @ y) mod p, for inner dimensions up to _ACC_K."""
        out = np.empty((x.shape[0], y.shape[1]), dtype=np.uint64)
        for r0, r1, w0, w1, s, _ in self._tiles(x, y):
            out[r0:r1, w0:w1] = s
        return out

    def gemm_sub(self, a, rlo, rhi, pr0, pivcols, clo, chi):
        """a[rlo:rhi, clo:chi] -= a[rlo:rhi, pivcols] @ a[pr0:pr0+k, clo:chi], in place."""
        cols = np.asarray(pivcols, dtype=np.intp)
        x = self._buf("panel", (rhi - rlo, cols.size), np.uint64)
        np.take(a[rlo:rhi], cols, axis=1, out=x)
        y = a[pr0 : pr0 + cols.size, clo:chi]
        block = a[rlo:rhi, clo:chi]
        for r0, r1, w0, w1, s, tmp in self._tiles(x, y):
            s ^= _M61  # p - s, for 0 <= s < p
            v = block[r0:r1, w0:w1]
            v += s
            np.subtract(v, _M61, out=tmp)
            np.minimum(v, tmp, out=v)

    def scale_col(self, a, r1, j, scalar):
        a[r1:, j] = _mulmod61(a[r1:, j], np.uint64(scalar))

    def outer_sub(self, a, r1, clo, chi, f, u):
        prod = _mulmod61(f[:, None], u[None, :])
        prod ^= _M61
        v = a[r1:, clo:chi]
        v += prod
        _condsub(v, self.p)


class _SmallKernel:
    """Update kernels for small p: products of full residues fit float64."""

    def __init__(self, p: int):
        self.p = p
        self.chunk_k = min(2048, (1 << 53) // (p - 1) ** 2)

    def matmul_mod(self, x, y):
        """Exact (x @ y) mod p; the inner dimension must be <= chunk_k."""
        k = x.shape[1]
        if k > self.chunk_k:
            raise ValueError(f"inner dimension {k} exceeds exactness bound {self.chunk_k}")
        out = np.empty((x.shape[0], y.shape[1]), dtype=np.uint64)
        xf = x.astype(np.float64)
        for w0 in range(0, y.shape[1], _STRIPE):
            w1 = min(w0 + _STRIPE, y.shape[1])
            w = xf @ y[:, w0:w1].astype(np.float64)
            out[:, w0:w1] = (w.astype(np.int64) % self.p).astype(np.uint64)
        return out

    def gemm_sub(self, a, rlo, rhi, pr0, pivcols, clo, chi):
        cols = np.asarray(pivcols, dtype=np.intp)
        for k0 in range(0, cols.size, self.chunk_k):
            kc = cols[k0 : k0 + self.chunk_k]
            prod = self.matmul_mod(a[rlo:rhi, kc], a[pr0 + k0 : pr0 + k0 + kc.size, clo:chi])
            _sub_block(a, rlo, rhi, clo, chi, prod, self.p)

    def scale_col(self, a, r1, j, scalar):
        a[r1:, j] = (a[r1:, j].astype(np.int64) * scalar % self.p).astype(np.uint64)

    def outer_sub(self, a, r1, clo, chi, f, u):
        q = f.astype(np.int64)[:, None] * u.astype(np.int64)[None, :] % self.p
        _sub_block(a, r1, a.shape[0], clo, chi, q.astype(np.uint64), self.p)


def _ple_leaf(a, kern, r0, c0, c1, pivs):
    """Classical elimination of columns [c0, c1) from row r0 down.

    The columns are worked on in a contiguous copy, so the per-pivot column
    updates stay in cache; row swaps also go to the full rows of a.
    """
    panel = a[r0:, c0:c1].copy()
    m, w = panel.shape
    r = 0
    for j in range(w):
        if r == m:
            break
        nz = np.nonzero(panel[r:, j])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r0 + r, r0 + pr]] = a[[r0 + pr, r0 + r]]
            panel[[r, pr]] = panel[[pr, r]]
        if r + 1 < m:
            inv = pow(int(panel[r, j]), -1, kern.p)
            kern.scale_col(panel, r + 1, j, inv)
            if j + 1 < w:
                kern.outer_sub(panel, r + 1, j + 1, w, panel[r + 1 :, j], panel[r, j + 1 :])
        pivs.append(c0 + j)
        r += 1
    a[r0:, c0:c1] = panel


def _trsm_leaf(a, kern, r0, left, clo, chi):
    """Apply (I + N)^-1 to k pivot rows, N = stored strict-lower multipliers.

    The inverse is the Neumann sum of the nilpotent -N, built by doubling
    (log2 k small matmuls), after which all k rows update in one product.
    """
    k = len(left)
    if k == 1:
        return
    p = kern.p
    lf = a[r0 : r0 + k, np.asarray(left, dtype=np.intp)]
    lower = np.tril_indices(k, -1)
    neg = np.zeros((k, k), dtype=np.uint64)
    vals = lf[lower]
    neg[lower] = np.where(vals != 0, np.uint64(p) - vals, np.uint64(0))
    inv = np.eye(k, dtype=np.uint64) + neg  # I + (-N): partial sum of order < 2
    power = kern.matmul_mod(neg, neg)
    span = 2
    while span < k:
        inv = _addmod(kern.matmul_mod(inv, power), inv, p)
        span *= 2
        if span < k:
            power = kern.matmul_mod(power, power)
    a[r0 : r0 + k, clo:chi] = kern.matmul_mod(inv, a[r0 : r0 + k, clo:chi])


def _trsm(a, kern, r0, left, clo, chi):
    """Bring pivot rows up to date on columns [clo, chi).

    Solves the unit-lower system given by the stored multipliers: row t
    must absorb the eliminations of pivots s < t before those rows can be
    used in a block update.
    """
    k = len(left)
    if k <= _TRSM_LEAF:
        _trsm_leaf(a, kern, r0, left, clo, chi)
        return
    h = k // 2
    _trsm(a, kern, r0, left[:h], clo, chi)
    kern.gemm_sub(a, r0 + h, r0 + k, r0, left[:h], clo, chi)
    _trsm(a, kern, r0 + h, left[h:], clo, chi)


def _ple(a, kern, r0, c0, c1, pivs):
    m = a.shape[0]
    if r0 >= m or c0 >= c1:
        return
    if c1 - c0 <= _LEAF_W:
        _ple_leaf(a, kern, r0, c0, c1, pivs)
        return
    mid = (c0 + c1) // 2
    base = len(pivs)
    _ple(a, kern, r0, c0, mid, pivs)
    left = pivs[base:]
    k = len(left)
    if k:
        _trsm(a, kern, r0, left, mid, c1)
        if r0 + k < m:
            kern.gemm_sub(a, r0 + k, m, r0, left, mid, c1)
    _ple(a, kern, r0 + k, mid, c1, pivs)


def _elim_rows_int64(a, p):
    """Classical per-pivot elimination; exact while p**2 < 2**63."""
    m, n = a.shape
    pivs: list[int] = []
    r = 0
    for j in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, j])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        if r + 1 < m:
            inv = pow(int(a[r, j]), -1, p)
            f = a[r + 1 :, j] * inv % p
            if j + 1 < n:
                a[r + 1 :, j + 1 :] = (a[r + 1 :, j + 1 :] - f[:, None] * a[r, j + 1 :]) % p
            a[r + 1 :, j] = f
        pivs.append(j)
        r += 1
    return pivs


def _elim_rows_object(a, p):
    """Per-pivot elimination on Python integers; any p, no overflow limits."""
    m, n = a.shape
    pivs: list[int] = []
    r = 0
    for j in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, j])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        if r + 1 < m:
            inv = pow(int(a[r, j]), -1, p)
            f = a[r + 1 :, j] * inv % p
            if j + 1 < n:
                a[r + 1 :, j + 1 :] = (a[r + 1 :, j + 1 :] - f[:, None] * a[r, j + 1 :]) % p
            a[r + 1 :, j] = f
        pivs.append(j)
        r += 1
    return pivs


def _rank_with_pivots(a: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Rank and pivot-column trace of a reduced uint64 matrix mod p."""
    m, n = a.shape
    if m == 0 or n == 0:
        return 0, []
    if p == MERSENNE61:
        pivs: list[int] = []
        _ple(a.copy(), _M61Kernel(), 0, 0, n, pivs)
        return len(pivs), pivs
    if (p - 1) ** 2 * 64 <= 1 << 53:
        pivs = []
        _ple(a.copy(), _SmallKernel(p), 0, 0, n, pivs)
        return len(pivs), pivs
    if p < 1 << 31:
        pivs = _elim_rows_int64(a.astype(np.int64), p)
        return len(pivs), pivs
    pivs = _elim_rows_object(a.astype(object), p)
    return len(pivs), pivs


class PrimeFieldMatrix:
    """Dense matrix over F_p with exact rank and kernel computations.

    Entries are kept as reduced residues in a uint64 array.  rank() works
    on a scratch copy, so a matrix can be shared between threads as long
    as nobody mutates it through the constructor argument.
    """

    __slots__ = ("field", "_a")

    def __init__(self, field: PrimeField, entries):
        self.field = field
        arr = np.asarray(entries)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        if arr.dtype == np.uint64:
            self._a = arr % np.uint64(field.p)
        elif arr.dtype.kind in "iu" and field.p < 1 << 62:
            self._a = (arr.astype(object) % field.p).astype(np.uint64)
        else:
            self._a = (np.array(entries, dtype=object).reshape(arr.shape) % field.p).astype(
                np.uint64
            )

    @classmethod
    def from_residues(cls, field: PrimeField, arr: np.ndarray) -> "PrimeFieldMatrix":
        """Wrap an already-reduced uint64 array without copying or checking."""
        self = cls.__new__(cls)
        self.field = field
        self._a = arr
        return self

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def entries(self) -> np.ndarray:
        return self._a.copy()

    def entry(self, i: int, j: int) -> int:
        return int(self._a[i, j])

    def transpose(self) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix.from_residues(self.field, np.ascontiguousarray(self._a.T))

    def rank(self) -> int:
        return _rank_with_pivots(self._a, self.field.p)[0]

    def pivot_columns(self) -> list[int]:
        """Pivot columns of the echelon form (deterministic elimination order)."""
        return _rank_with_pivots(self._a, self.field.p)[1]

    def nullspace(self) -> list[list[int]]:
        """Basis of the right kernel, each vector scaled so its first
        nonzero coordinate is 1.

        Gauss-Jordan over Python integers; meant for small systems such
        as fitting a quadric through nine points, where the kernel vector
        itself is needed exactly.
        """
        p = self.field.p
        a = self._a.astype(object)
        m, n = a.shape
        pivots: list[tuple[int, int]] = []  # (row, col)
        r = 0
        for j in range(n):
            if r == m:
                break
            nz = [i for i in range(r, m) if a[i, j] != 0]
            if not nz:
                continue
            if nz[0] != r:
                a[[r, nz[0]]] = a[[nz[0], r]]
            inv = pow(int(a[r, j]), -1, p)
            a[r] = a[r] * inv % p
            for i in range(m):
                if i != r and a[i, j] != 0:
                    a[i] = (a[i] - a[i, j] * a[r]) % p
            pivots.append((r, j))
            r += 1
        pivot_cols = [j for _, j in pivots]
        free_cols = [j for j in range(n) if j not in pivot_cols]
        basis: list[list[int]] = []
        for fc in free_cols:
            v = [0] * n
            v[fc] = 1
            for pr, pc in pivots:
                v[pc] = int(-a[pr, fc] % p)
            lead = next(x for x in v if x != 0)
            if lead != 1:
                inv = pow(lead, -1, p)
                v = [x * inv % p for x in v]
            basis.append(v)
        return basis
