"""Hilbert space H_N = L^2(Z/NZ), elementary operators, and the propagator.

A state is an N-vector, a plain array; the kernels take std-unit columns,
and psi = sqrt(N) v is the unit vector of the 1/N inner product, with the
same matrix elements.  Elementary operators act by a shift and a phase;
the propagator for a matrix B with det B = 1 (mod N) is assembled from
the sum

    U(B) ~ sum_m Ttw(m) Ttw(-mB)  =  sum_m e_N(-w(m, mB)/2) Ttw(m(I-B)),

normalized by 1/(sqrt(#ker(B-I)) * N) so that the result is unitary; the
remaining global phase is a free convention.  Twisted operators Ttw(n)
only depend on n mod N, which is what makes the m-sum well defined.

That dense assembly is the oracle for the matrix-free propagator_apply,
which uses the constant-modulus chirp kernel of U(B) (Hannay & Berry,
Physica D 1, 1980): chirp, DFT, chirp and an index dilation, O(N log N)
per vector.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NotUnimodularError, SizeLimitError
from .modarith import PrimePower, roots_table

# Dense operators get expensive past this dimension; callers that accept
# the cost (large eigenproblems) may pass their own cap.
DENSE_CAP_DEFAULT = 2048

# Largest dense N x N matrix or folded eigenbasis, in complex entries
# (1 GiB); eigendecompose counts one parity's folded basis, about
# ((N+1)/2)^2, 1.2e7 at 19^3 (N = 6859) and 2.6e7 at 101^2.
MAX_ARRAY_ENTRIES = 1 << 26

# bytes of one column block of a dense array or a basis; every loop over the
# columns of such an array takes blocks of block_columns(rows) columns, so
# its temporaries are a few BLOCK_BYTES whatever the size of the array
BLOCK_BYTES = 1 << 20

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def check_array_size(size: int, what: str) -> None:
    """Raise SizeLimitError, before allocating, if an array would hold
    more than MAX_ARRAY_ENTRIES complex entries."""
    if size > MAX_ARRAY_ENTRIES:
        raise SizeLimitError(f"{what} needs {size} complex entries, cap {MAX_ARRAY_ENTRIES}")


def block_columns(rows: int) -> int:
    """Columns of a complex block of `rows` rows that fit in BLOCK_BYTES,
    at least one."""
    return max(1, BLOCK_BYTES // (16 * rows))


def uniforms(rng, count: int) -> np.ndarray:
    """count floats uniform on [0, 1), 53 random bits each, from the
    random.Random rng: its randbytes as little-endian uint64 words >> 11,
    times 2^-53.  Every random float of the package; successive calls continue one stream."""
    return (np.frombuffer(rng.randbytes(8 * count), dtype="<u8") >> 11) * 2.0**-53


@dataclass(frozen=True)
class TorusAutomorphism:
    """Hyperbolic integer matrix [[a, b], [c, d]] with det 1 and |tr| > 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise NotUnimodularError("matrix determinant must be 1")
        if abs(self.a + self.d) <= 2:
            raise ValueError("|trace| must exceed 2 (hyperbolicity)")

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def disc(self) -> int:
        """D = trace^2 - 4 > 0."""
        return self.trace**2 - 4

    def mat(self) -> Mat2:
        return ((self.a, self.b), (self.c, self.d))

    def mat_mod(self, N: int) -> Mat2:
        return ((self.a % N, self.b % N), (self.c % N, self.d % N))

    @classmethod
    def from_flat(cls, entries) -> "TorusAutomorphism":
        a, b, c, d = (int(v) for v in entries)
        return cls(a, b, c, d)


def row_action(n: tuple[int, int], M: Mat2) -> tuple[int, int]:
    """Row vector times matrix: n -> nM."""
    return (n[0] * M[0][0] + n[1] * M[1][0], n[0] * M[0][1] + n[1] * M[1][1])


def mat_mul(X: Mat2, Y: Mat2, N: int | None = None) -> Mat2:
    rows = tuple(
        tuple(sum(X[i][r] * Y[r][j] for r in range(2)) for j in range(2))
        for i in range(2)
    )
    if N is None:
        return rows
    return tuple(tuple(v % N for v in row) for row in rows)


def mat_det(M: Mat2) -> int:
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def mat_sub(X: Mat2, Y: Mat2) -> Mat2:
    return tuple(tuple(X[i][j] - Y[i][j] for j in range(2)) for i in range(2))


IDENTITY2: Mat2 = ((1, 0), (0, 1))


def kernel_count(M: Mat2, N: int):
    """#{n in (Z/NZ)^2 : nM = 0 (mod N)} from the Smith normal form
    diag(d1, d2) of M, with d1 the gcd of the entries and d1 d2 = |det M|:
    gcd(d1, N) * gcd(d2, N), the same for every integer lift of M mod N
    (N^2 for M = 0, where d1 = d2 = 0).  Of Python ints, or elementwise
    of int64 arrays whose determinant fits."""
    d1 = np.gcd.reduce([*M[0], *M[1]])
    return np.gcd(d1, N) * np.gcd(np.abs(mat_det(M)) // np.maximum(d1, 1), N)


@dataclass(frozen=True)
class FourierObservable:
    """Finite Fourier series: map n = (n1, n2) in Z^2 -> coefficient."""

    coeffs: dict[tuple[int, int], complex]

    REAL_TOL = 1e-12

    @property
    def is_real(self) -> bool:
        for n, c in self.coeffs.items():
            m = (-n[0], -n[1])
            if abs(complex(c) - complex(self.coeffs.get(m, 0)).conjugate()) > self.REAL_TOL:
                return False
        return True

    @property
    def mean(self) -> complex:
        """Coefficient of the constant mode (the phase-space average)."""
        return complex(self.coeffs.get((0, 0), 0.0))

    @classmethod
    def harmonic_pair(cls, n: tuple[int, int]) -> "FourierObservable":
        """Real observable with modes +-n: cos(2 pi n.x) = e(n.x)/2 + e(-n.x)/2."""
        n, half = (int(n[0]), int(n[1])), complex(0.5)
        return cls({n: half, (-n[0], -n[1]): half.conjugate()})


def load_observable(path: str) -> FourierObservable:
    """Read a JSON array of {n1, n2, re, im} records of a real observable;
    a NaN or infinite coefficient (JSON's NaN, Infinity) is a ValueError."""
    with open(path) as fh:
        records = json.load(fh)
    coeffs: dict[tuple[int, int], complex] = {}
    for rec in records:
        n = (operator.index(rec["n1"]), operator.index(rec["n2"]))
        if n in coeffs:
            raise ValueError(f"duplicate mode {n} in {path}")
        coeffs[n] = complex(float(rec["re"]), float(rec["im"]))
        if not cmath.isfinite(coeffs[n]):
            raise ValueError(f"non-finite coefficient {coeffs[n]} at mode {n} in {path}")
    obs = FourierObservable(coeffs)
    if not obs.is_real:
        raise ValueError(f"{path} is not a real-valued observable")
    return obs


def apply_elementary(n: tuple[int, int], v: np.ndarray) -> np.ndarray:
    """(T(n) v)(y) = e_{2N}(n1 n2) e_N(n2 y) v(y + n1) for the N-vectors of v
    along axis 0: one roll and one phase, the oracle of elementary_diagonals."""
    N = v.shape[0]
    n1, n2 = int(n[0]), int(n[1])
    phases = roots_table(2 * N)[(n1 * n2) % (2 * N)] * roots_table(N)[(n2 * np.arange(N)) % N]
    col = (slice(None),) + (None,) * (v.ndim - 1)
    return phases[col] * np.roll(v, -n1 % N, axis=0)


def elementary_diagonals(modes, V, cols=None) -> np.ndarray:
    """<T(n) v_j, v_j> in the standard inner product: row i for the i-th
    mode n, column j for the j-th column v_j of V[:, cols] (all columns
    when cols is None); one call of a diagonal_reader.

    V is an N x w array, or a basis that hands out its columns on demand:
    V.shape is (N, w) and V.columns(index, out) writes V[:, index] into
    out, a C-contiguous N x len(index) array (hecke.EigenDecomposition,
    which unfolds them).  For a std-unit column v, psi = sqrt(N) v is a
    unit vector of H_N and this is its matrix element <T(n) psi, psi>.
    """
    return diagonal_reader(modes, V.shape[0])(V, cols)


def diagonal_reader(modes, N: int) -> Callable[..., np.ndarray]:
    """read(V, cols=None), elementary_diagonals of these modes for the
    N-vectors of any number of bases V, with the phase vector of each mode
    made once.

    One shift and one phase, O(N) per column and mode.  The columns of a
    call go through in blocks of block_columns(2N), in two buffers
    allocated once per call, so a call holds one BLOCK_BYTES beyond its
    output.  For each distinct shift n1 the second buffer takes conj(v_j)
    times v_j shifted, by two slice products, and each mode of that shift
    is one phase-vector product with it, so a row is the same, bit for
    bit, whatever other modes come along.
    """
    modes = [(int(n1), int(n2)) for n1, n2 in modes]
    y = np.arange(N)
    two_n, one_n = roots_table(2 * N), roots_table(N)
    phases = [two_n[(n1 * n2) % (2 * N)] * one_n[(n2 * y) % N] for n1, n2 in modes]
    rows_of_shift: dict[int, list[int]] = {}
    for i, (n1, _) in enumerate(modes):
        rows_of_shift.setdefault(-n1 % N, []).append(i)

    def read(V, cols=None) -> np.ndarray:
        every = np.arange(V.shape[1])
        cols = every if cols is None else every[cols]  # in range, or IndexError
        out = np.empty((len(modes), len(cols)), dtype=np.complex128)
        step = max(1, min(block_columns(2 * N), len(cols)))
        block, prod = (np.empty(N * step, dtype=np.complex128) for _ in range(2))
        for start in range(0, len(cols), step):
            index = cols[start : start + step]
            W = block[: N * len(index)].reshape(N, len(index))
            if hasattr(V, "columns"):
                V.columns(index, out=W)
            else:
                # mode="clip" writes straight into W
                np.take(V, index, axis=1, mode="clip", out=W)
            P = prod[: W.size].reshape(W.shape)
            for shift, rows in rows_of_shift.items():
                # P[y] = v(y - shift) conj(v(y)), the rows of np.roll(W, shift) times conj(W)
                np.conjugate(W, out=P)
                np.multiply(W[: N - shift], P[shift:], out=P[shift:])
                np.multiply(W[N - shift :], P[:shift], out=P[:shift])
                for i in rows:
                    out[i, start : start + len(index)] = phases[i] @ P
        return out

    return read


def elementary_matrix(n: tuple[int, int], pp: PrimePower, twisted: bool = False) -> np.ndarray:
    """Dense N x N matrix of T(n), or of Ttw(n) = (-1)^(n1 n2) T(n), which
    only depends on n mod N: entry [y, y+n1] = phase(n, y)."""
    N = pp.N
    check_array_size(N * N, f"dense T(n) at N = {N}")
    n1, n2 = int(n[0]), int(n[1])
    y = np.arange(N)
    phase0 = roots_table(2 * N)[(n1 * n2) % (2 * N)]
    if twisted and (n1 * n2) % 2:
        phase0 = -phase0
    vals = phase0 * roots_table(N)[(n2 * y) % N]
    entries = np.zeros((N, N), dtype=np.complex128)
    entries[y, (y + n1) % N] = vals
    return entries


def op_of_observable(f: FourierObservable, pp: PrimePower) -> np.ndarray:
    """Quantization Op_N(f) = sum_n fhat(n) T(n) as a dense N x N matrix."""
    N = pp.N
    check_array_size(N * N, f"dense Op(f) at N = {N}")
    entries = np.zeros((N, N), dtype=np.complex128)
    for n, c in sorted(f.coeffs.items()):
        entries += complex(c) * elementary_matrix(n, pp)
    return entries


def _reduce_mat(B, N: int) -> Mat2:
    if isinstance(B, TorusAutomorphism):
        return B.mat_mod(N)
    return tuple(tuple(int(v) % N for v in row) for row in B)


def _twist_coefficients(B: Mat2, pp: PrimePower) -> np.ndarray:
    """c[n1, n2] = sum over m with m(I-B) = n of e_N(-w(m, mB)/2).

    w(m, mB) = B12 m1^2 + (B22 - B11) m1 m2 - B21 m2^2; everything is
    reduced mod N before products so int64 never overflows.
    """
    N = pp.N
    inv2 = pow(2, -1, N)
    (b11, b12), (b21, b22) = B
    w11, w12 = (1 - b11) % N, (-b12) % N
    w21, w22 = (-b21) % N, (1 - b22) % N

    roots = roots_table(N)
    c_re = np.zeros(N * N)
    c_im = np.zeros(N * N)
    m2 = np.arange(N, dtype=np.int64)[None, :]
    chunk = max(1, min(N, (1 << 24) // N))
    for start in range(0, N, chunk):
        m1 = np.arange(start, min(start + chunk, N), dtype=np.int64)[:, None]
        n1 = (m1 * w11 + m2 * w21) % N
        n2 = (m1 * w12 + m2 * w22) % N
        idx = (n1 * N + n2).ravel()
        del n1, n2
        omega = (b12 * ((m1 * m1) % N) + (b22 - b11) % N * ((m1 * m2) % N) - b21 * ((m2 * m2) % N)) % N
        phase = (-omega * inv2) % N
        del omega
        vals = roots[phase.ravel()]
        del phase
        c_re += np.bincount(idx, weights=vals.real, minlength=N * N)
        c_im += np.bincount(idx, weights=vals.imag, minlength=N * N)
        del idx, vals
    return (c_re + 1j * c_im).reshape(N, N)


def propagator(B, pp: PrimePower) -> np.ndarray:
    """Quantum propagator for B with det B = 1 (mod N), up to a global phase,
    as a dense N x N matrix.

    Assembled by grouping the m-sum by n = m(I-B) and applying one inverse
    DFT per value of n1, which brings the cost to O(N^2 log N).
    """
    N = pp.N
    B = _reduce_mat(B, N)
    if mat_det(B) % N != 1:
        raise NotUnimodularError(f"det = {mat_det(B) % N} != 1 mod {N}")
    check_array_size(N * N, f"dense propagator at N = {N}")
    ker = kernel_count(mat_sub(B, IDENTITY2), N)
    coeff = _twist_coefficients(B, pp)
    norm = 1.0 / (math.sqrt(ker) * N)

    # entry [y, y+n1] = sum_{n2} c[n1,n2] e_N(n2 (y + n1/2))
    inv2 = pow(2, -1, N)
    y = np.arange(N)
    entries = np.zeros((N, N), dtype=np.complex128)
    rows = np.fft.ifft(coeff, axis=1) * N
    del coeff
    for n1 in range(N):
        shift = (n1 * inv2) % N
        entries[y, (y + n1) % N] = norm * rows[n1][(y + shift) % N]
    return entries


def _chirp_apply(B: Mat2, N: int) -> Callable[..., np.ndarray]:
    """psi -> U(B) psi for B = [[a, b], [c, d]] (reduced mod N) with c a unit.

    Up to a global phase U(B)[x, y] = N^(-1/2) e_N((a x^2 - 2xy + d y^2) / (2c)),
    so (U(B) psi)(x) = N^(-1/2) e_N(a x^2 / 2c) DFT(e_N(d y^2 / 2c) psi)[x / c].
    With out, the chirp and the DFT run in place in psi and the gather
    writes into out, so the call allocates nothing.
    """
    (a, _), (c, d) = B
    s = pow(2 * c, -1, N)
    x = np.arange(N, dtype=np.int64)
    sq = x * x % N
    roots = roots_table(N)
    pre = roots[d * sq % N * s % N]
    post = roots[a * sq % N * s % N] / math.sqrt(N)
    dilate = x * pow(c, -1, N) % N

    def apply(psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        col = (slice(None),) + (None,) * (psi.ndim - 1)
        work = np.multiply(pre[col], psi, out=None if out is None else psi)
        np.fft.fft(work, axis=0, out=work)
        # mode="clip" writes straight into a C-contiguous out ("raise"
        # would go through a copy); every index is in range
        out = np.take(work, dilate, axis=0, mode="clip", out=out)
        return np.multiply(post[col], out, out=out)

    return apply


def propagator_apply(B, pp: PrimePower) -> Callable[..., np.ndarray]:
    """Matrix-free U(B) for det B = 1 (mod N), equal to propagator(B) up to
    a global phase: the returned function apply(psi, out=None) maps an
    array psi of N-vectors (along axis 0) to their images, at O(N log N)
    per vector.  Without out it returns a new array and leaves psi as it
    is; with out, a C-contiguous array of psi's shape that does not
    overlap it, the images go into out and psi, a complex array, is used
    as scratch space.

    The chirp kernel needs B21 = c to be a unit mod p.  Otherwise B = L R
    with L = [[1, 0], [1, 1]] and R = [[a, b], [c - a, d - b]], where
    c - a = -a (mod p) is a unit since ad = 1 (mod p).  In the row-vector
    convention, U(B)* T(n) U(B) = T(nB), U(L R) is U(L) U(R) up to a phase.
    """
    N = pp.N
    B = _reduce_mat(B, N)
    if mat_det(B) % N != 1:
        raise NotUnimodularError(f"det = {mat_det(B) % N} != 1 mod {N}")
    (a, b), (c, d) = B
    if c % pp.p:
        return _chirp_apply(B, N)
    right = _chirp_apply(((a, b), ((c - a) % N, (d - b) % N)), N)
    left = _chirp_apply(((1, 0), (1, 1)), N)
    return lambda psi, out=None: left(right(psi), out=out)
