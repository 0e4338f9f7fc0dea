"""Exact scalar and dense-matrix arithmetic over prime fields.

Residues are stored in uint64 arrays and every kernel is arranged so that
intermediates stay exactly representable.  The default modulus is the
Mersenne prime 2**61 - 1, chosen so that a random evaluation point
witnesses the generic rank of an interpolation matrix with failure
probability on the order of (degree)/p per trial.

The rank engine is a recursive block elimination (PLE decomposition).
Column panels are split in half down to a small leaf width (a panel wider
than the rows left is cut no further left than where it could give every
row a pivot), and the elimination stops once every row has a pivot.
A leaf first factors its top square block without pivoting; when no
pivot of it is zero, the leaf needs no row swap, and the rows below get
their multipliers from one product.  Otherwise it falls back to
classical row elimination.  Cross-panel updates are delayed and applied
as matrix products.  Before its rows update
the rest, a block of pivot rows is brought up to date by a triangular solve
with its unit-lower multipliers.  Each recursion node returns its pivot
block with the inverse of those multipliers: a leaf builds it by forward
substitution, and a node joins its children's inverses with two products
while the block holds at most _TRSM_LEAF pivots, so the solve applies it in
one product; a larger block keeps its children, and the solve walks them
along the elimination's own splits.  A block whose rows reach the last row
is never solved with and is not joined.  One kernel,
parameterised by p, serves every prime: operands are split into 1, 2 or 3
limbs of 21 bits, as few as keep the limb products exact in a float64
GEMM, so the products go through BLAS.  The exact limb products of every
k-chunk are summed in uint64 accumulators and reduced once (delayed
reduction): by a float64 quotient estimate and a wrapping uint64
correction, or by bit rotations when p = 2**61 - 1, since 2**61 == 1
(mod p).  The pivot choice (leftmost column, first nonzero row) is that
of classical elimination, so the pivot trace is the same at every prime
size and the result is deterministic.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "MERSENNE61",
    "DEFAULT_PRIME",
    "ConsumedMatrixError",
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
        p = operator.index(p)
        if not is_prime(p):
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

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, -1, self.p)


# ---------------------------------------------------------------------------
# Modular reduction.  Kernels form sums and products in wrapping uint64
# arithmetic, which is exact mod 2**64, and estimate the quotient by p in
# float64; one step then reduces mod p (delayed reduction).


def _reduce(v: np.ndarray, vf: np.ndarray, p: int, tmp: np.ndarray | None = None) -> np.ndarray:
    """In place v = T mod p, for T >= 0 with v == T (mod 2**64), vf a float64
    approximation of T with relative error below 2**-50, and T / p < 2**40.

    q = rint(vf / p) is then within 1/2 + 2**-8 of T / p, so T - q*p lies in
    (-p, p); uint64 arithmetic yields it exactly (mod 2**64, and p < 2**62),
    and one unsigned minimum with T - q*p + p maps it into [0, p).  vf and
    tmp (uint64 scratch of v's shape) are overwritten.
    """
    vf *= 1.0 / p
    np.rint(vf, out=vf)
    if tmp is None:
        tmp = np.empty_like(v)
    np.copyto(tmp.view(np.int64), vf, casting="unsafe")
    tmp *= np.uint64(p)
    v -= tmp
    np.add(v, np.uint64(p), out=tmp)
    np.minimum(v, tmp, out=v)
    return v


# The Mersenne case p = 2**61 - 1 of the reduction: since 2**61 == 1 (mod p),
# the bits of a uint64 above bit 61 fold back onto the low 61 bits, and
# multiplying by 2**s is a rotation of the 61-bit window.

_M61 = np.uint64(MERSENNE61)
_L32 = np.uint64(0xFFFFFFFF)


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
    """Elementwise a*b mod p for reduced uint64 arrays (broadcasting allowed).

    Mod 2**61 - 1 this is _mulmod61.  Otherwise b is taken in 31-bit digits,
    one below 2**31 and two above, by Horner's rule: each step reduces
    T = r * 2**31 + a * digit (T = a * digit in the first), and T / p < 2**32.
    Residues are below 2**62, so their int64 views convert to float64.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if p == MERSENNE61:
        return _mulmod61(a, b)
    ai = a.view(np.int64)
    if p < 1 << 31:
        return _reduce(a * b, np.multiply(ai, b.view(np.int64), dtype=np.float64), p)
    hi = b >> np.uint64(31)
    r = _reduce(a * hi, np.multiply(ai, hi.view(np.int64), dtype=np.float64), p)
    lo = b & np.uint64(0x7FFFFFFF)
    vf = np.multiply(ai, lo.view(np.int64), dtype=np.float64)
    vf += r.view(np.int64) * 2.0**31
    r <<= np.uint64(31)
    r += a * lo
    return _reduce(r, vf, p)


# ---------------------------------------------------------------------------
# Blocked elimination.

_LEAF_W = 8
# Most pivots of a block that carries the inverse of its multipliers.  A
# join costs two products of the block's size, so inverses carried further
# up would cost O(k**3) for k pivots; above the cap a solve recurses instead.
_TRSM_LEAF = 64
_STRIPE = 1024
_TILE = 1 << 19  # elements per row tile of a product stripe
# Elements of the accumulators of one stripe.  Taller updates go in row
# blocks: the accumulators of a 4200-row elimination's tallest update
# would otherwise take 155 MB.
_ACC_MAX = 1 << 23


def _condsub(v: np.ndarray, p: int) -> np.ndarray:
    """In-place v mod p for v < 2p, branchless: v - p wraps below p."""
    np.minimum(v, v - np.uint64(p), out=v)
    return v


# Dot products on 21-bit limbs.  A residue is split into as few limbs as
# keep every product of limbs, or of Karatsuba sums of two limbs, below 2**44,
# so that _CHUNK_K = 2**9 of them sum exactly in a float64 GEMM: the residue
# itself for p <= 2**22, two limbs for p < 2**42 and three below 2**62.  The
# exact products are accumulated in uint64 across k-chunks; up to k = 2**17
# every sum, and every limb part formed from them, stays below 2**61.
_LIMB_BITS = 21
_LIMB_PRODUCT_BITS = 44
_CHUNK_K = 1 << (53 - _LIMB_PRODUCT_BITS)
_ACC_K = 1 << (61 - _LIMB_PRODUCT_BITS)


class _Kernel:
    """Exact products mod p via float64 BLAS on limbs: matmul_mod and the
    in-place block update gemm_sub.

    With L limbs x = sum(x_i 2**(21 i)), a product x @ y takes L(L+1)/2
    Karatsuba GEMMs (1, 3 or 6): x_i @ y_i, and (x_i + x_j) @ (y_i + y_j)
    for i < j, from which the limb parts P_s = sum over i + j = s of
    x_i @ y_j follow by subtraction.  The parts are reduced by Horner's rule
    over 2**21, one reduction step each, or by rotations mod 2**61 - 1.

    One kernel serves one elimination.  It keeps every work buffer between
    calls, because faulting in fresh pages for every temporary costs more
    than the arithmetic done in them.
    """

    def __init__(self, p: int):
        self.p = p
        self.limbs = 1 if (p - 1) ** 2 < 1 << _LIMB_PRODUCT_BITS else 2 if p < 1 << 42 else 3
        self._pairs = [(i, j) for i in range(self.limbs) for j in range(i + 1, self.limbs)]
        # one accumulator per Karatsuba GEMM, and the scratch of the reduction
        self._nacc = self.limbs + len(self._pairs) + (p != MERSENNE61) * 2
        self._scratch: dict[str, np.ndarray] = {}

    def _buf(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised array of this shape in the buffer kept under name,
        which grows to the largest size asked for and lives as long as the
        kernel."""
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.size < size:
            buf = self._scratch[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def _limbs(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write the limbs of x into out[0:L] as float64."""
        xi = x.view(np.int64)  # residues < 2**62 read the same as int64
        if self.limbs == 1:
            np.copyto(out[0], xi, casting="unsafe")
            return
        limb = self._buf("limb", x.shape, np.int64)
        for i in range(self.limbs):
            np.right_shift(xi, _LIMB_BITS * i, out=limb)
            limb &= (1 << _LIMB_BITS) - 1
            np.copyto(out[i], limb, casting="unsafe")

    def _recombine(self, acc: np.ndarray) -> np.ndarray:
        """Reduce the Karatsuba sums acc = (diagonal products, then cross sums
        in the order of _pairs, then two scratch slots unless p = 2**61 - 1)
        of a tile to x @ y mod p, in a buffer of acc; acc[-1] is left spent.

        The uint64 differences wrap, but each true part is nonnegative and
        below 2**61.
        """
        if self.p == MERSENNE61:
            return _recombine61(acc)
        vf, tmp = acc[-2].view(np.float64), acc[-1]
        diag = acc[: self.limbs]
        parts = [diag[s // 2] if s % 2 == 0 else None for s in range(2 * self.limbs - 1)]
        for t, (i, j) in enumerate(self._pairs):
            cross = acc[self.limbs + t]
            cross -= diag[i]
            cross -= diag[j]
            if parts[i + j] is not None:
                cross += parts[i + j]
            parts[i + j] = cross
        r = parts.pop()
        np.copyto(vf, r.view(np.int64), casting="unsafe")
        _reduce(r, vf, self.p, tmp)
        for part in reversed(parts):  # r = r * 2**21 + P_s, reduced
            np.multiply(r.view(np.int64), float(1 << _LIMB_BITS), out=vf)
            vf += part.view(np.int64)
            r <<= np.uint64(_LIMB_BITS)
            r += part
            _reduce(r, vf, self.p, tmp)
        return r

    def _tiles(self, x, y):
        """Yield (r0, r1, w0, w1, s, tmp): s = (x @ y)[r0:r1, w0:w1] mod p,
        and tmp a uint64 scratch array of the same shape.

        Each stripe of _STRIPE output columns keeps one uint64 accumulator
        per Karatsuba GEMM, and adds the exact float64 product of every
        k-chunk into them; the limb parts are then formed and reduced once.
        Rows go in tiles of about _TILE elements so elementwise passes run in
        cache.  Limbs and their sums are below 2**22, so float64 holds them
        and their sums and differences exactly.
        """
        m, k = x.shape
        if k > _ACC_K:
            raise ValueError(f"inner dimension {k} exceeds the accumulator bound {_ACC_K}")
        n = y.shape[1]
        nl = self.limbs
        nprod = nl + len(self._pairs)
        for w0 in range(0, n, _STRIPE):
            w1 = min(w0 + _STRIPE, n)
            rows = max(1, _TILE // max(w1 - w0, _CHUNK_K))  # bounds x tiles too
            acc = self._buf("acc", (self._nacc, m, w1 - w0), np.uint64)
            acc_i64 = acc.view(np.int64)  # float64 -> int64 converts faster than -> uint64
            for k0 in range(0, k, _CHUNK_K):
                k1 = min(k0 + _CHUNK_K, k)
                # the limbs y_i, then the Karatsuba sums y_i + y_j
                ys = self._buf("y", (nprod, k1 - k0, w1 - w0), np.float64)
                self._limbs(y[k0:k1, w0:w1], ys)
                for t, (i, j) in enumerate(self._pairs):
                    np.add(ys[i], ys[j], out=ys[nl + t])
                for r0 in range(0, m, rows):
                    r1 = min(r0 + rows, m)
                    xs = self._buf("x", (nl, r1 - r0, k1 - k0), np.float64)
                    self._limbs(x[r0:r1, k0:k1], xs)
                    prods = self._buf("prods", (nl, r1 - r0, w1 - w0), np.float64)
                    for g0 in range(0, nprod, nl):  # the diagonal products, then the cross sums
                        g = min(nl, nprod - g0)
                        if g0:  # x0, x1[, x2] -> x0+x1[, x0+x2, x1+x2] in place:
                            xs[0] += xs[1]  # x0 + x1
                            if nl == 3:
                                xs[2] += xs[1]  # x1 + x2
                                xs[1] *= -2.0
                                xs[1] += xs[0]
                                xs[1] += xs[2]  # (x0 + x1) + (x1 + x2) - 2 x1
                        np.matmul(xs[:g], ys[g0 : g0 + g], out=prods[:g])
                        part = acc_i64[g0 : g0 + g, r0:r1]
                        if k0:
                            np.add(part, prods[:g], out=part, dtype=np.int64, casting="unsafe")
                        else:
                            np.copyto(part, prods[:g], casting="unsafe")
            for r0 in range(0, m, rows):
                r1 = min(r0 + rows, m)
                tile = acc[:, r0:r1]
                yield r0, r1, w0, w1, self._recombine(tile), tile[-1]

    def matmul_mod(self, x, y):
        """Exact (x @ y) mod p, for inner dimensions up to _ACC_K."""
        out = np.empty((x.shape[0], y.shape[1]), dtype=np.uint64)
        for r0, r1, w0, w1, s, _ in self._tiles(x, y):
            out[r0:r1, w0:w1] = s
        return out

    def gemm_sub(self, a, rlo, rhi, pr0, pivcols, clo, chi):
        """a[rlo:rhi, clo:chi] -= a[rlo:rhi, pivcols] @ a[pr0:pr0+k, clo:chi], in place.

        The rows go in blocks whose stripe accumulators hold at most _ACC_MAX
        elements; the limbs of the pivot rows are split again for each block.
        Pivot columns that form one run of adjacent columns are read in
        place; others are gathered into a work buffer.  The pivot columns
        lie outside [clo, chi), so the read never overlaps the update.
        """
        cols = np.asarray(pivcols, dtype=np.intp)
        k = cols.size
        run = bool((np.diff(cols) == 1).all())  # the ends alone would pass a shuffled run
        y = a[pr0 : pr0 + k, clo:chi]
        step = max(1, _ACC_MAX // (self._nacc * min(chi - clo, _STRIPE)))
        p = np.uint64(self.p)
        for b0 in range(rlo, rhi, step):
            b1 = min(b0 + step, rhi)
            if run:
                x = a[b0:b1, cols[0] : cols[0] + k]
            else:
                x = self._buf("panel", (b1 - b0, k), np.uint64)
                np.take(a[b0:b1], cols, axis=1, out=x)
            block = a[b0:b1, clo:chi]
            for r0, r1, w0, w1, s, tmp in self._tiles(x, y):
                np.subtract(p, s, out=s)
                v = block[r0:r1, w0:w1]
                v += s
                np.subtract(v, p, out=tmp)
                np.minimum(v, tmp, out=v)


def _unit_lower_inverse(low, p):
    """The inverse of the unit-lower matrix whose multipliers are the
    entries below the diagonal of the r x r list low, by forward
    substitution over Python integers: row t of L^-1 is
    e_t - sum over s < t of L[t, s] * (row s of L^-1)."""
    inv: list[list[int]] = []
    for t in range(len(low)):
        row = [0] * len(low)
        row[t] = 1
        for s in range(t):
            f = low[t][s]
            if f:
                for u in range(s + 1):
                    row[u] -= f * inv[s][u]
        inv.append([v % p for v in row])
    return np.array(inv, dtype=np.uint64)


def _lu_no_pivot(b, p):
    """Factor the w x w list b in place into its packed LU, U's diagonal
    included, without pivoting, over Python integers; returns U^-1 as a
    list of rows, or None at the first zero pivot."""
    w = len(b)
    for j in range(w):
        d = b[j][j]
        if not d:
            return None
        d = pow(d, -1, p)
        pivot_row = b[j]
        for row in b[j + 1 :]:
            f = row[j] = row[j] * d % p
            if f:
                for k in range(j + 1, w):
                    row[k] = (row[k] - f * pivot_row[k]) % p
    uinv = [[0] * w for _ in range(w)]
    for i in reversed(range(w)):  # back substitution, one row of U^-1 at a time
        d = pow(b[i][i], -1, p)
        uinv[i][i] = d
        for j in range(i + 1, w):
            s = sum(b[i][k] * uinv[k][j] for k in range(i + 1, j + 1))
            uinv[i][j] = -s * d % p
    return uinv


def _ple_leaf(a, kern, r0, c0, c1, pivs):
    """Elimination of columns [c0, c1) from row r0 down by the classical
    rule (leftmost column, first nonzero row); returns the leaf's pivot
    block (see _ple).

    When the panel has at least w = c1 - c0 rows, its top w x w block B is
    first factored without pivoting over Python integers.  If every pivot
    of that LU is nonzero, the classical rule takes exactly these pivots:
    at column j the first candidate is row j, whose updated entry is the
    ratio of B's leading minors D_{j+1} / D_j != 0.  So no row is swapped,
    the pivots are columns c0 .. c1 - 1 in rows r0 .. r0 + w - 1, the top
    rows get B's packed LU, and the rows below, A_below = L_below U, get
    their multipliers A_below U^-1 in one product.  The no-pivot LU and the
    multipliers below are unique, so the eliminated entries and the pivot
    block are those of the classical loop.  At a zero pivot nothing has
    been written to a, and the classical loop runs from the start.

    The classical loop works on the columns in a contiguous copy, so the
    per-pivot column updates stay in cache; row swaps also go to the full
    rows of a.  Either way the pivot block is the inverse of the
    unit-lower multipliers of the r <= w pivot rows (_unit_lower_inverse).
    """
    p = kern.p
    w = c1 - c0
    if a.shape[0] - r0 >= w:
        top = a[r0 : r0 + w, c0:c1]
        lu = top.tolist()
        uinv = _lu_no_pivot(lu, p)
        if uinv is not None:
            top[...] = lu
            below = a[r0 + w :, c0:c1]
            if len(below):
                below[...] = kern.matmul_mod(below, np.array(uinv, dtype=np.uint64))
            pivs.extend(range(c0, c1))
            return _unit_lower_inverse(lu, p)
    panel = a[r0:, c0:c1].copy()
    m, w = panel.shape
    r = 0
    cols = []
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
            col = panel[r + 1 :, j]
            col[...] = mulmod_vec(col, np.uint64(pow(int(panel[r, j]), -1, p)), p)
            if j + 1 < w:
                prod = mulmod_vec(col[:, None], panel[r, j + 1 :], p)
                np.subtract(np.uint64(p), prod, out=prod)
                v = panel[r + 1 :, j + 1 :]
                v += prod
                _condsub(v, p)
        pivs.append(c0 + j)
        cols.append(j)
        r += 1
    a[r0:, c0:c1] = panel
    if not r:
        return None
    return _unit_lower_inverse(panel[:r, cols].tolist(), p)


def _join(a, kern, r0, cols, h, lo, hi):
    """The pivot block of two adjacent ones: lo for the h pivot rows from r0,
    hi for the rest of the pivot columns cols.

    Up to _TRSM_LEAF pivots the block is the inverse of the unit-lower
    multipliers L = [[A, 0], [C, B]], C = a[hi's rows, lo's columns]:
    L^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], two products.  Larger blocks
    keep the halves, (h, lo, hi), for _trsm to walk, and so does a block
    whose rows reach the last row: every ancestor then stops early, so no
    solve reads it.
    """
    if lo is None or hi is None:
        return hi if lo is None else lo
    k = len(cols)
    if k > _TRSM_LEAF or r0 + k >= a.shape[0]:
        return h, lo, hi
    off = kern.matmul_mod(hi, kern.matmul_mod(a[r0 + h : r0 + k, cols[:h]], lo))
    inv = np.zeros((k, k), dtype=np.uint64)
    inv[:h, :h] = lo
    inv[h:, h:] = hi
    inv[h:, :h] = _condsub(np.uint64(kern.p) - off, kern.p)
    return inv


def _trsm(a, kern, r0, cols, block, clo, chi):
    """Bring the pivot rows of block, from r0 with pivot columns cols, up to
    date on columns [clo, chi).

    Solves the unit-lower system given by the stored multipliers: row t
    must absorb the eliminations of pivots s < t before those rows can be
    used in a block update.  A carried inverse applies in one product; a
    larger block solves its first half, updates the second half's rows
    with it and solves the second half.
    """
    if isinstance(block, tuple):
        h, lo, hi = block
        _trsm(a, kern, r0, cols[:h], lo, clo, chi)
        kern.gemm_sub(a, r0 + h, r0 + len(cols), r0, cols[:h], clo, chi)
        _trsm(a, kern, r0 + h, cols[h:], hi, clo, chi)
    elif len(block) > 1:
        rows = a[r0 : r0 + len(block), clo:chi]
        rows[...] = kern.matmul_mod(block, rows)


def _ple(a, kern, r0, c0, c1, pivs):
    """Leftmost-first PLE of columns [c0, c1) from row r0 down, appending the
    pivot columns to pivs; returns the pivot block of the k pivot rows from
    r0: None when k = 0, the k x k inverse of their unit-lower multipliers
    when the block is a leaf, or has k <= _TRSM_LEAF pivots whose rows stop
    short of the last row (no solve reads a block that reaches it), and
    otherwise the triple (h, left block, right block) of its two children,
    h pivots on the left.

    A panel is split at its middle, or, when it is wider than the m - r0
    rows left, at max(middle, c0 + (m - r0)): the left part is then wide
    enough to give every row a pivot.  Keeping at least the middle halves
    the width at every level, so the recursion stays about log2(width)
    deep even when a wide matrix falls short of full row rank at every
    level; splitting at c0 + (m - r0) alone would peel off only m - r0
    columns per level.  Once the left part has a pivot for every row
    (r0 + k >= m), the elimination stops without updating the right part.

    Both shortcuts are exact.  The leftmost-first pivots (the column rank
    profile) do not depend on the split points, the rank is at most the
    number of rows, and a column to the right of the last row's pivot
    cannot change the leftmost-first choice of the pivots before it.  The
    matrix is left partly updated when the elimination stops; only the
    pivot trace is the result.

    A block stays valid up the recursion: its multipliers, in its pivot
    rows and columns, are final once written.  Later updates write only
    columns right of a split, and later row swaps only rows below it.
    """
    m = a.shape[0]
    if r0 >= m or c0 >= c1:
        return None
    if c1 - c0 <= _LEAF_W:
        return _ple_leaf(a, kern, r0, c0, c1, pivs)
    mid = (c0 + c1) // 2
    if c1 - c0 > m - r0:
        mid = max(mid, c0 + (m - r0))
    base = len(pivs)
    lo = _ple(a, kern, r0, c0, mid, pivs)
    left = pivs[base:]
    h = len(left)
    if r0 + h >= m:
        return lo
    if h:
        _trsm(a, kern, r0, left, lo, mid, c1)
        kern.gemm_sub(a, r0 + h, m, r0, left, mid, c1)
    hi = _ple(a, kern, r0 + h, mid, c1, pivs)
    return _join(a, kern, r0, pivs[base:], h, lo, hi)


def _rank_with_pivots(a: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Rank and pivot-column trace of a reduced uint64 matrix mod p.

    The elimination runs in place: a is left partly eliminated, so the
    caller passes an array it owns and reads nothing from it afterwards.
    """
    pivs: list[int] = []
    _ple(a, _Kernel(p), 0, 0, a.shape[1], pivs)
    return len(pivs), pivs


class ConsumedMatrixError(RuntimeError):
    """A read of a matrix whose entries a rank computation has eliminated
    in place."""


class PrimeFieldMatrix:
    """Dense matrix over F_p with exact rank and kernel computations.

    Entries are kept as reduced residues in a uint64 array.  rank() and
    pivot_columns() eliminate a scratch copy and never write to the
    entries, so a matrix can be shared between threads as long as nobody
    mutates the array it wraps.

    The one exception is a matrix made by _consumable, which the rank
    oracle builds for a single trial: its first rank() or pivot_columns()
    eliminates the wrapped array in place, without the copy, and from
    then on every read of its data (entries, entry, rank, pivot_columns,
    nullspace) raises ConsumedMatrixError.  rows, cols and shape keep
    working.
    """

    __slots__ = ("field", "_a", "_shape", "_in_place")

    def __init__(self, field: PrimeField, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        kind = arr.dtype.kind
        if arr.dtype == np.uint64:
            arr = arr % np.uint64(field.p)
        elif kind in "iu":  # every other integer dtype fits int64, as does p
            arr = np.remainder(arr, np.int64(field.p), dtype=np.int64).astype(np.uint64)
        elif kind == "b" or arr.size == 0:  # numpy reads [[]] as float64
            arr = arr.astype(np.uint64)
        elif kind == "O":  # Python integers of any size
            bad = {type(x).__name__ for x in arr.flat if not isinstance(x, (int, np.integer))}
            if bad:
                raise TypeError(
                    f"matrix entries must be integers, got dtype object holding {', '.join(sorted(bad))}"
                )
            arr = (arr % field.p).astype(np.uint64)
        else:
            raise TypeError(f"matrix entries must be integers, got dtype {arr.dtype}")
        self._wrap(field, arr, in_place=False)

    def _wrap(self, field: PrimeField, arr: np.ndarray, in_place: bool) -> None:
        self.field = field
        self._a = arr  # None once an in-place rank has spent it
        self._shape = arr.shape
        self._in_place = in_place

    @classmethod
    def _consumable(cls, field: PrimeField, arr: np.ndarray) -> "PrimeFieldMatrix":
        """Wrap a reduced uint64 array that nothing else reads: the first
        rank() or pivot_columns() eliminates it in place and spends the
        matrix."""
        self = cls.__new__(cls)
        self._wrap(field, arr, in_place=True)
        return self

    def _data(self) -> np.ndarray:
        if self._a is None:
            raise ConsumedMatrixError(
                f"the entries of this {self.rows} x {self.cols} matrix were eliminated "
                "in place by its rank computation"
            )
        return self._a

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def entries(self) -> np.ndarray:
        return self._data().copy()

    def entry(self, i: int, j: int) -> int:
        return int(self._data()[i, j])

    def _eliminate(self) -> tuple[int, list[int]]:
        a = self._data()
        if self._in_place:
            self._a = None
        else:
            a = a.copy()
        return _rank_with_pivots(a, self.field.p)

    def rank(self) -> int:
        return self._eliminate()[0]

    def pivot_columns(self) -> list[int]:
        """Pivot columns of the echelon form (deterministic elimination order)."""
        return self._eliminate()[1]

    def nullspace(self) -> list[list[int]]:
        """Basis of the right kernel, each vector scaled so its first
        nonzero coordinate is 1.

        Gauss-Jordan over Python integers (_gauss_jordan); meant for small
        systems such as fitting a quadric through nine points, where the
        kernel vector itself is needed exactly.
        """
        p = self.field.p
        a = self._data().astype(object)
        pivots = _gauss_jordan(a, p)
        n = a.shape[1]
        free_cols = [j for j in range(n) if j not in pivots]
        basis: list[list[int]] = []
        for fc in free_cols:
            v = [0] * n
            v[fc] = 1
            for row, pc in enumerate(pivots):
                v[pc] = int(-a[row, fc] % p)
            lead = next(x for x in v if x != 0)
            if lead != 1:
                inv = pow(lead, -1, p)
                v = [x * inv % p for x in v]
            basis.append(v)
        return basis


def _gauss_jordan(a: np.ndarray, p: int) -> list[int]:
    """Reduce an object array of residues mod p to reduced row echelon form,
    in place, and return its pivot columns.

    Classical Gauss-Jordan on Python integers, for any p: the leftmost
    column with a nonzero entry at or below the current row holds the next
    pivot, taken from the first such row; the pivot row is scaled to 1 and
    one update over all rows clears the rest of its column.  It shares no
    code with the blocked engine, so the tests use it as the reference for
    that engine's pivot traces.
    """
    m, n = a.shape
    pivots: list[int] = []
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.nonzero(a[r:, j])[0]
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, j:] = a[r, j:] * pow(int(a[r, j]), -1, p) % p
        f = a[:, j].copy()
        f[r] = 0
        # columns left of j are zero in row r, so the update starts at j
        a[:, j:] = (a[:, j:] - f[:, None] * a[r, j:]) % p
        pivots.append(j)
    return pivots
