"""Norm-one symmetry group of a cat map mod p^k and its joint eigenspaces.

The hidden symmetries of the quantized automorphism A are the commuting
unitaries U(aI + bA) where beta = a + b*alpha runs through the norm-one
group C of the quadratic order Z[alpha], alpha^2 = t*alpha - 1.  C is
cyclic of order p^(k-1)(p -+ 1) according to whether the discriminant
D = t^2 - 4 is a square mod p (split) or not (inert).  This module builds
C from a generator g, with discrete logs by Pohlig-Hellman from tables of
p -+ 1 and (k - 1) p entries; the sorted table of all #C powers of g, the
walk table, is built only where it is read: the brute-force Cayley table,
the split eigenvectors and the tests' oracle.  It decomposes H_N into the
joint eigenspaces of the propagator of g, by FFTs along its orbits.  Every
joint eigenfunction is even or odd, since -1 is in C, each parity is
solved on its own, each eigenfunction is stored folded onto
x = 0..(N-1)/2, and each eigenspace is labelled by the orbit row that
holds it, on one angle for both parities.  A character of C is its
integer index j: chi_j(g^m) = e(j m / #C).
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
import random
from dataclasses import dataclass

import numpy as np

from . import quantization as qz
from .errors import (
    EigenClusterError,
    EvenPrimeError,
    KTooSmallError,
    NotSplitError,
    RamifiedPrimeError,
    SingularPointError,
)
from .modarith import PrimePower, inv_mod, legendre, roots_table, sqrt_set, valuation
from .quantization import TorusAutomorphism, block_columns, check_array_size, propagator_apply, uniforms

OrderElement = tuple[int, int]


def classify_prime(A: TorusAutomorphism, p: int) -> str:
    """'split' when D = tr(A)^2 - 4 is a square mod p, 'inert' otherwise."""
    if p == 2:
        raise EvenPrimeError("p = 2 is not supported")
    if A.disc % p == 0:
        raise RamifiedPrimeError(f"p = {p} divides the discriminant {A.disc}")
    return "split" if legendre(A.disc, p) == 1 else "inert"


class QuadOrderMod:
    """Arithmetic in Z[alpha]/p^k where alpha^2 = t*alpha - 1 (t = tr A)."""

    def __init__(self, A: TorusAutomorphism, pp: PrimePower):
        self.A = A
        self.pp = pp
        self.N = pp.N
        self.t = A.trace % self.N
        self.D = A.disc % self.N
        self.inv2 = pow(2, -1, self.N)

    one: OrderElement = (1, 0)

    def mul(self, u: OrderElement, v: OrderElement) -> OrderElement:
        """Product of Python ints, or elementwise of int64 arrays: b*d is
        reduced before it meets t, so every product stays below N^2."""
        a, b = u
        c, d = v
        bd = b * d % self.N
        return ((a * c - bd) % self.N, (a * d + b * c + bd * self.t) % self.N)

    def norm(self, u: OrderElement) -> int:
        """a^2 + abt + b^2, of Python ints or elementwise of int64 arrays."""
        a, b = u
        return (a * a + a * b % self.N * self.t + b * b) % self.N

    def pow(self, u: OrderElement, e: int) -> OrderElement:
        out = self.one
        base = u
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def matrix_of(self, u: OrderElement) -> qz.Mat2:
        """Ring embedding a + b*alpha -> aI + bA (mod N)."""
        a, b = u
        A = self.A
        return (
            ((a + b * A.a) % self.N, (b * A.b) % self.N),
            ((b * A.c) % self.N, (a + b * A.d) % self.N),
        )

    def in_domain(self, x):
        """True when D*x^2 != 1 (mod p), i.e. the Cayley map is defined (elementwise on arrays)."""
        x = x % self.pp.p
        return (self.D * x % self.pp.p * x - 1) % self.pp.p != 0

    def cayley_transform(self, x) -> OrderElement:
        """(sqrt(D)x + 1) / (sqrt(D)x - 1) = (sqrt(D)x + 1)^2 / (D x^2 - 1), a
        norm-one element for x in the domain (sqrt(D) = 2 alpha - t); of a
        Python int, or elementwise of an int64 array."""
        singular = np.logical_not(self.in_domain(x))
        if np.any(singular):
            raise SingularPointError(f"D*{np.extract(singular, x)[0]}^2 = 1 mod {self.pp.p}")
        x = x % self.N
        num = ((1 - self.t * x) % self.N, 2 * x % self.N)
        s = inv_mod(self.D * x % self.N * x - 1, self.pp)
        return self.mul(self.mul(num, num), (s, 0))

    def congruence_level(self, u: OrderElement):
        """Largest l <= k with u = 1 (mod p^l), of a Python pair or
        elementwise of a pair of int64 arrays."""
        a, b = (u[0] - 1) % self.N, u[1] % self.N
        p = self.pp.p
        return sum((a % p**l == 0) & (b % p**l == 0) for l in range(1, self.pp.k + 1))


# entries of one block of _power_blocks; each is an int64 pair, so a block
# takes BLOCK_BYTES and its temporaries a few more
POWER_BLOCK = qz.BLOCK_BYTES // 16


def _power_blocks(g, one, mul, count: int):
    """Yield (m0, x) with x[..., i] = g^(m0 + i), covering m = 0..count-1
    in increasing blocks.

    mul multiplies Python order elements and, elementwise with
    broadcasting, pairs of int64 arrays.  The s = isqrt(count) baby steps
    g^j and the giant steps (g^s)^i are walked in Python; g^(i s + j) is
    then one array product per block of i.
    """
    s = math.isqrt(count)
    babies = [one]
    for _ in range(s):
        babies.append(mul(babies[-1], g))
    giants = [one]
    for _ in range(-(-count // s) - 1):
        giants.append(mul(giants[-1], babies[s]))
    baby = np.array(babies[:s], dtype=np.int64).T  # shape (2, s)
    giant = np.array(giants, dtype=np.int64).T
    rows = max(1, POWER_BLOCK // s)
    for i0 in range(0, len(giants), rows):
        block = np.asarray(mul(giant[..., i0 : i0 + rows, None], baby))
        block = block.reshape(block.shape[:-2] + (-1,))
        m0 = i0 * s
        yield m0, block[..., : count - m0]


def _factor_small(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class HeckeGroup:
    """The cyclic norm-one group C(p^k) with a generator g and its discrete
    logs, by Pohlig-Hellman over #C = (p -+ 1) p^(k-1).

    dlog u mod (p -+ 1) is the exponent of u mod p, read from the sorted
    powers of g mod p.  u^(p -+ 1) = gamma^(dlog u) lies in the level-one
    subgroup {u = 1 mod p}, cyclic of order p^(k-1) and generated by
    gamma = g^(p -+ 1), so dlog u mod p^(k-1) comes in k - 1 base-p digits:
    on the level-l subgroup, 1 + p^l (c + d alpha) -> d mod p is additive,
    so digit l - 1 is linear in the alpha-coordinate, and multiplying by a
    power of gamma^(p^(l-1)) lifts the element one level.  The two residues
    meet by the Chinese remainder theorem.
    """

    def __init__(self, A: TorusAutomorphism, pp: PrimePower):
        self.A = A
        self.pp = pp
        self.kind = classify_prime(A, pp.p)
        self.ring = QuadOrderMod(A, pp)
        p, k = pp.p, pp.k
        self._unit_order = p - 1 if self.kind == "split" else p + 1
        self.order = p ** (k - 1) * self._unit_order
        # an int64 pair (key and exponent) per power of g mod p and per digit
        # step, the size of one complex entry
        check_array_size(self._unit_order + (k - 1) * p, f"norm-one group table at {pp}")
        self.gen = self._find_generator()
        self._check_generator_order()
        self._build_log_tables()

    # -- construction -------------------------------------------------

    def _find_generator(self) -> OrderElement:
        """The first beta(x) that generates C: 200 seeded draws of x, then x = 0..N-1."""
        ring = self.ring
        primes = _factor_small(self.order)
        rng = random.Random(self.pp.p * 1_000_003 + self.pp.k * 101 + self.A.trace)
        draws = (rng.randrange(self.pp.N) for _ in range(200))
        for x in itertools.chain(draws, range(self.pp.N)):
            if not ring.in_domain(x):
                continue
            beta = ring.cayley_transform(x)
            if ring.norm(beta) == 1 and all(ring.pow(beta, self.order // q) != ring.one for q in primes):
                return beta
        raise RuntimeError(f"no generator found for C({self.pp})")

    def _check_generator_order(self):
        if self.ring.pow(self.gen, self.order) != self.ring.one:
            raise RuntimeError("generator order mismatch")

    def _powers(self, g: OrderElement, count: int) -> np.ndarray:
        """g^m for m = 0..count-1 as a (2, count) int64 array."""
        ring = self.ring
        return np.concatenate([x for _, x in _power_blocks(g, ring.one, ring.mul, count)], axis=1)

    def _build_log_tables(self):
        """The Pohlig-Hellman tables: the sorted residues mod p of g^i,
        i < p -+ 1, with their exponents, and for each level l = 1..k-1 the
        powers delta^-d (d < p) of delta = gamma^(p^(l-1)), with the inverse
        of the alpha-coordinate of delta over p^l mod p."""
        p, k, N = self.pp.p, self.pp.k, self.pp.N
        low = self._powers(self.gen, self._unit_order)
        key = low[0] % p * p + low[1] % p
        self._low_perm = np.argsort(key)
        self._low_keys = key[self._low_perm]
        if np.any(np.diff(self._low_keys) == 0):
            raise RuntimeError("the generator mod p does not have order p -+ 1")
        self._crt = pow(self._unit_order, -1, p ** (k - 1))
        self._digit_steps = []
        delta = self.ring.pow(self.gen, self._unit_order)
        for level in range(1, k):
            coord = delta[1] // p**level % p
            if delta[1] % p**level or coord == 0 or (delta[0] - 1) % p**level:
                raise RuntimeError(f"gamma^(p^{level - 1}) is not of congruence level {level}")
            # delta has norm one, so its inverse is the conjugate a + b (t - alpha)
            inverse = ((delta[0] + delta[1] * self.ring.t) % N, -delta[1] % N)
            self._digit_steps.append((self._powers(inverse, p), pow(coord, -1, p)))
            delta = self.ring.pow(delta, p)

    @functools.cached_property
    def walk_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The oracle dlog table, built on first read: every power g^m
        (m = 0..#C-1) encoded a*N + b and sorted, and the exponent m of
        each.  16 bytes per element; the closed-form path never reads it.
        At k = 1 it is the Pohlig-Hellman table, whose keys a*p + b are
        these encodings; at k >= 2 the walk is an independent oracle."""
        check_array_size(self.order, f"norm-one walk table at {self.pp}")
        self._check_generator_order()
        if self.pp.k == 1:
            return self._low_keys, self._low_perm
        enc = np.empty(self.order, dtype=np.int64)
        for m0, (a, b) in _power_blocks(self.gen, self.ring.one, self.ring.mul, self.order):
            enc[m0 : m0 + len(a)] = a * self.pp.N + b
        # the elements are distinct, so every sort gives this permutation
        perm = np.argsort(enc)
        enc.sort()
        return enc, perm

    # -- element access -----------------------------------------------

    def encode(self, u: OrderElement) -> int:
        return (u[0] % self.pp.N) * self.pp.N + (u[1] % self.pp.N)

    def element(self, m: int) -> OrderElement:
        return self.ring.pow(self.gen, m % self.order)

    def dlog(self, u: OrderElement) -> int:
        """Exponent m with g^m = u."""
        N = self.pp.N
        return int(self.dlogs((np.array([u[0] % N]), np.array([u[1] % N])))[0])

    def dlogs(self, u) -> np.ndarray:
        """Exponents m with g^m = u, elementwise for u a pair of int64
        arrays, by Pohlig-Hellman.  KeyError when any u has norm != 1."""
        p, N, ring = self.pp.p, self.pp.N, self.ring
        a, b = (np.asarray(c, dtype=np.int64) % N for c in u)
        if np.any(ring.norm((a, b)) != 1):
            raise KeyError("element outside the norm-one group")
        low = self._low_perm[np.searchsorted(self._low_keys, a % p * p + b % p)]
        v = ring.pow((a, b), self._unit_order)
        high = np.zeros_like(low)
        for level, (steps, coord_inv) in enumerate(self._digit_steps, start=1):
            digit = v[1] // p**level % p * coord_inv % p
            high += digit * p ** (level - 1)
            v = ring.mul(v, (steps[0][digit], steps[1][digit]))
        if np.any(v[0] != 1) or np.any(v[1] != 0):
            raise RuntimeError("Pohlig-Hellman digits left a nontrivial element")
        # m = low (mod p -+ 1) and m = high (mod p^(k-1))
        P = p ** (self.pp.k - 1)
        return low + self._unit_order * ((high - low) % P * self._crt % P)

    def dlog_encoded(self, enc: np.ndarray) -> np.ndarray:
        """dlog of encoded elements a*N + b, read from the walk table."""
        sorted_enc, perm = self.walk_table
        i = np.searchsorted(sorted_enc, enc)
        if np.any(i >= self.order) or np.any(sorted_enc[i] != enc):
            raise KeyError("element outside the norm-one group")
        return perm[i]

    def cayley_dlogs(self, xs: np.ndarray) -> np.ndarray:
        """dlog(beta(x)) for each x of an int64 array (all in the domain)."""
        return self.dlogs(self.ring.cayley_transform(xs))

    @functools.cached_property
    def cayley_table(self) -> np.ndarray:
        """dlog(beta(x)) over x = 0..N-1, -1 outside the domain (brute force,
        read from the walk table, not by Pohlig-Hellman), in blocks of
        BLOCK_BYTES // 16 values of x, whose temporaries take about BLOCK_BYTES."""
        N = self.pp.N
        check_array_size(N, f"brute-force Cayley table at {self.pp}")
        tbl = np.full(N, -1, dtype=np.int64)
        step = qz.BLOCK_BYTES // 16
        for x0 in range(0, N, step):
            xs = np.arange(x0, min(x0 + step, N), dtype=np.int64)
            xs = xs[self.ring.in_domain(xs)]
            tbl[xs] = self.dlog_encoded(self.encode(self.ring.cayley_transform(xs)))
        return tbl

    # -- restriction to the principal congruence subgroup ---------------

    @functools.cached_property
    def t_modulus(self) -> int:
        """Modulus of the t-parameter: p^l for k = 2l, p^(l+1) for k = 2l+1."""
        k = self.pp.k
        if k < 2:
            raise KTooSmallError("t-parameter needs k >= 2")
        l = k // 2
        return self.pp.p**l if k % 2 == 0 else self.pp.p ** (l + 1)

    def principal_unit(self, x: int) -> OrderElement:
        """Image of x under the parametrization of {beta = 1 mod p^l}.

        k = 2l:   1 + p^l sqrt(D) x
        k = 2l+1: 1 + p^l sqrt(D) x + p^(2l) (D/2) x^2
        """
        ring = self.ring
        N = self.pp.N
        l = self.pp.k // 2
        pl = self.pp.p**l
        a = (1 - ring.t * pl * x) % N
        b = (2 * pl * x) % N
        if self.pp.k % 2 == 1:
            a = (a + pl * pl % N * (ring.D * ring.inv2 % N) % N * (x * x % N)) % N
        return (a, b)

    @functools.cached_property
    def t_unit(self) -> int:
        """u with t-parameter(chi_j) = j*u mod t_modulus, from dlog of the
        principal unit at x = 1."""
        m1 = self.dlog(self.principal_unit(1))
        q, mod_t = self.order // self.t_modulus, self.t_modulus
        if m1 % q != 0 or math.gcd(m1 // q, mod_t) != 1:
            raise RuntimeError("principal congruence parametrization failed")
        return m1 // q

    def t_parameters(self, j) -> np.ndarray:
        """t-parameter of chi_j for each character index j: the t with
        chi_j(principal_unit(x)) = e(t*x / t_modulus) for all x."""
        mod_t = self.t_modulus
        return np.asarray(j, dtype=np.int64) % mod_t * self.t_unit % mod_t


def build_group(A: TorusAutomorphism, pp: PrimePower) -> HeckeGroup:
    """C(p^k) for A, not memoized: the caller owns it and passes it on."""
    return HeckeGroup(A, pp)


def brute_force_norm_one(A: TorusAutomorphism, pp: PrimePower) -> set[OrderElement]:
    """All (a, b) mod p^k with a^2 + abt + b^2 = 1, by exhaustive search."""
    N = pp.N
    check_array_size(N * N, f"brute-force norm-one search at {pp}")
    t = A.trace % N
    a = np.arange(N, dtype=np.int64)[:, None]
    b = np.arange(N, dtype=np.int64)[None, :]
    norm = (a * a % N + a * b % N * t + b * b % N) % N
    ii, jj = np.nonzero(norm == 1)
    return {(int(x), int(y)) for x, y in zip(ii, jj)}


# -- split case -------------------------------------------------------


@dataclass(frozen=True)
class SplitDiagonalizer:
    """M in SL(2, Z/p^k) with M^-1 A M = diag(y, 1/y)."""

    pp: PrimePower
    M: qz.Mat2
    y: int

    @property
    def y_inv(self) -> int:
        return pow(self.y, -1, self.pp.N)


def build_split_diagonalizer(A: TorusAutomorphism, pp: PrimePower) -> SplitDiagonalizer:
    """Diagonalize A mod p^k from a square root of D (split primes only)."""
    if classify_prime(A, pp.p) != "split":
        raise NotSplitError(f"{pp.p} is not split for D = {A.disc}")
    N, p = pp.N, pp.p
    # sqrt_set reads a table of the square roots of every class mod N
    check_array_size(N, f"square-root table at {pp}")
    d = min(sqrt_set(A.disc % N, p, pp.k))
    inv2 = pow(2, -1, N)
    y = (A.trace + d) * inv2 % N
    y_inv = (A.trace - d) * inv2 % N

    def eigvec_candidates(lam):
        # columns (b, lam - a) and (lam - d, c) both satisfy Av = lam v
        return [(A.b % N, (lam - A.a) % N), ((lam - A.d) % N, A.c % N)]

    for v1 in eigvec_candidates(y):
        for v2 in eigvec_candidates(y_inv):
            det = (v1[0] * v2[1] - v1[1] * v2[0]) % N
            if det % p == 0:
                continue
            s = pow(det, -1, N)
            M = ((v1[0], v2[0] * s % N), (v1[1], v2[1] * s % N))
            check = qz.mat_mul(qz.mat_mul(_mat_inv_sl2(M, N), A.mat_mod(N), N), M, N)
            if check == ((y, 0), (0, y_inv)):
                return SplitDiagonalizer(pp, M, y)
    raise RuntimeError("no unimodular eigenbasis found")


def _mat_inv_sl2(M: qz.Mat2, N: int) -> qz.Mat2:
    (a, b), (c, d) = M
    s = pow((a * d - b * c) % N, -1, N)
    return ((d * s % N, -b * s % N), (-c * s % N, a * s % N))


def unit_dlog_array(group: HeckeGroup, diag: SplitDiagonalizer) -> np.ndarray:
    """Discrete log of every unit mod p^k relative to the image of the group
    generator under the ring map a + b*alpha -> a + b*y (mod N), which takes
    C onto the units; read from the group's walk table.  -1 at non-units."""
    N = group.pp.N
    ga, gb = group.gen
    if (ga + gb * diag.y) % group.pp.p == 0:
        raise RuntimeError("the group generator maps to a non-unit")
    enc, perm = group.walk_table
    arr = np.full(N, -1, dtype=np.int64)
    arr[(enc // N + enc % N * diag.y) % N] = perm
    hit = np.count_nonzero(arr[np.arange(N) % group.pp.p != 0] >= 0)
    if hit != group.order:
        raise RuntimeError(f"the group maps onto {hit} units, expected {group.order}")
    return arr


def split_eigenvectors(group: HeckeGroup, diag: SplitDiagonalizer, unit_dlogs: np.ndarray, index) -> np.ndarray:
    """Std-unit columns U(M) chi~_j, one per character index j, where
    chi~_j is chi_j on the units (read through unit_dlog_array) and 0 on
    the non-units: explicit joint eigenfunctions of the split case."""
    N = group.pp.N
    index = np.asarray(index, dtype=np.int64)
    check_array_size(N * len(index), f"split eigenvectors at {group.pp}")
    units = np.flatnonzero(unit_dlogs >= 0)
    block = np.zeros((N, len(index)), dtype=np.complex128)
    block[units] = roots_table(group.order)[np.outer(unit_dlogs[units], index) % group.order]
    block = propagator_apply(diag.M, group.pp)(block)
    block /= np.linalg.norm(block, axis=0)[None, :]
    return block


# -- eigendecomposition ----------------------------------------------


# a projection of a unit start vector below this norm is roundoff (about 1e-13)
RANK_TOL = 1e-8
RESIDUAL_TOL = 1e-8


def _eig_unitary(U: np.ndarray):
    """Eigenpairs of a dense unitary matrix via a Hermitian combination; the
    oracle that tests hold the orbit eigensolver against.

    H = (U + U*)/2 + gamma (U - U*)/(2i) shares eigenvectors with U unless
    two distinct eigenphases collide in cos(th) + gamma sin(th); the
    residual check detects that and retries with the next of five gammas
    uniform on [0.3, 3), drawn from a fixed seed.
    """
    # imported on first use: scipy.linalg takes longer to import than this package
    from scipy.linalg import eigh

    n = U.shape[0]
    for gamma in [0.7548776662466927, *(0.3 + 2.7 * uniforms(random.Random(0xEC0), 5)).tolist()]:
        # H = (0.5 - 0.5j*gamma) U + (0.5 + 0.5j*gamma) U*
        H = (0.5 - 0.5j * gamma) * U
        H += (0.5 + 0.5j * gamma) * U.conj().T
        _, V = eigh(H, overwrite_a=True, check_finite=False, driver="evd")
        del H
        lam = np.empty(n, dtype=np.complex128)
        resid = 0.0
        step = block_columns(n)
        for start in range(0, n, step):
            blk = slice(start, start + step)
            Vb = V[:, blk]
            Wb = U @ Vb
            lam_b = np.einsum("ij,ij->j", Vb.conj(), Wb)
            Wb -= Vb * lam_b[None, :]
            resid = max(resid, math.sqrt(float(np.einsum("ij,ij->j", Wb.conj(), Wb).real.max())))
            lam[blk] = lam_b
        if resid < RESIDUAL_TOL:
            return lam, V
        del V
    raise EigenClusterError(f"unitary eigensolver residual {resid:.2e} > {RESIDUAL_TOL}")


def fold(v: np.ndarray, parity: int, out: np.ndarray | None = None) -> np.ndarray:
    """The fold of the part of the N-vectors v (along axis 0, N odd) of the
    given parity, +1 (even) or -1 (odd): rows x = 0..(N-1)/2 of
    (v(x) + parity v(-x)) / 2, the rows x >= 1 times sqrt(2); written into
    out when it is given.

    An even vector, v(-x) = v(x), and an odd one, v(-x) = -v(x), are fixed
    by these rows, and on either parity the fold is an isometry: it keeps
    the inner product of two vectors of one parity.
    """
    h = (len(v) + 1) // 2
    w = np.empty((h,) + v.shape[1:], dtype=np.complex128) if out is None else out
    w[0] = v[0] * ((1 + parity) // 2)
    np.multiply(v[: h - 1 : -1], parity, out=w[1:])  # parity v(N - x), x = 1..h-1
    w[1:] += v[1:h]
    w[1:] *= math.sqrt(0.5)
    return w


def unfold(w: np.ndarray, parity: int, N: int, out: np.ndarray | None = None) -> np.ndarray:
    """The N-vectors of the given parity, +1 (even) or -1 (odd), whose
    fold is w (along axis 0); written into out when it is given.  w may
    lie in the memory of out's first len(w) rows, in any layout: it is
    read before those rows are written."""
    h = len(w)
    v = np.empty((N,) + w.shape[1:], dtype=np.complex128) if out is None else out
    row0 = w[0].copy()
    np.divide(w[h - 1 : 0 : -1], math.sqrt(2), out=v[h:])
    v[h:] *= parity  # v(N - x) = parity v(x), x = h-1..1
    np.multiply(v[: h - 1 : -1], parity, out=v[1:h])
    v[0] = row0
    return v


def _gather(V: np.ndarray, cols: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """V[:, cols], for in-range indices cols, as a view of the front of the
    flat array buffer, laid out by columns: np.take reads the rows of V.T,
    in place when V is laid out by columns, and with mode="clip" it writes
    straight into its out ("raise" would go through a copy)."""
    h = len(V)
    return np.take(V.T, cols, axis=0, mode="clip", out=buffer[: h * len(cols)].reshape(len(cols), h)).T


def _mapped_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialized complex array in an anonymous memory map of its
    own, which goes back to the OS when the array is freed: the orbits and
    the stacked split basis of the eigensolver.  From malloc they would
    not: glibc raises its mmap threshold to the size of each large block
    it frees, so after one parity's orbit is freed the next array of about
    that size comes from the heap, whose freed top stays resident below
    the trim threshold (twice the mmap threshold).  The map is private and
    asks for transparent huge pages where the platform has them, as numpy
    does for its large arrays: with 4 KiB pages, first writing the
    orbits at 19^3 took 8 times the page faults and about 1.5 s more.
    tracemalloc does not see these arrays."""
    buf = mmap.mmap(-1, 16 * shape[0] * shape[1], flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=np.complex128).reshape(shape)


def _orbit_projections(apply, v: np.ndarray, half: int, parity: int, angle: float | None) -> tuple[np.ndarray, float]:
    """Row j (< half): the folded projection of v onto the eigenspace of
    U = apply of the given parity, +1 (even) or -1 (odd), with eigenvalue
    e^(i angle / half) e(j / half).  Also returns angle.

    g^half = -1 in C, for half = #C / 2, and U(-I) is the parity v(x) ->
    v(-x) up to a phase, so U^half is a scalar on the even part of v and
    minus that scalar on its odd part.  With the phase divided out, the
    orbit v_s, U v_s, ..., U^(half-1) v_s of the part v_s of that parity
    is periodic in m, and its DFT along m separates every eigenspace of
    that parity at once.  U commutes with the parity, so the part of U^m v
    of a parity is U^m of that part of v: the walk takes one column per
    step, v alone, and folds the part of the parity off U^m v.  Only those
    folds are stored, a half x (N+1)/2 array in a memory map of its own
    (see _mapped_empty), and the DFT is taken in place, block_columns(half)
    columns at a time, with no copy.  angle = None takes it from U^half
    of this v's part.  Orbits that share angle share one row numbering:
    where the scalar is -1, roundoff alone would put one orbit's angle at
    +pi and another's at -pi, a shift of one row.
    """
    N = len(v)
    h = (N + 1) // 2
    orbit = _mapped_empty((half, h))
    combine = np.add if parity > 0 else np.subtract
    w = v
    for m in range(half):
        # fold(w, parity) in place, rows x >= 1 not yet times sqrt(1/2)
        combine(w[1:h], w[: h - 1 : -1], out=orbit[m, 1:])
        orbit[m, 0] = w[0]
        w = apply(w)
    if parity < 0:
        orbit[:, 0] = 0
    if angle is None:  # U^half v_s = scalar * v_s
        angle = float(np.angle(np.vdot(fold(v, parity), fold(w, parity))))
    orbit *= np.exp(-1j * angle / half * np.arange(half))[:, None]
    step = block_columns(half)
    for start in range(0, h, step):
        blk = orbit[:, start : start + step]
        np.fft.fft(blk, axis=0, out=blk)
    orbit[:, 0] /= half
    orbit[:, 1:] *= math.sqrt(0.5) / half
    return orbit, angle


def _check_residuals(apply, V: np.ndarray, parity: int, lam: np.ndarray) -> None:
    """EigenClusterError unless max_j ||U v_j - lam_j v_j|| < RESIDUAL_TOL
    for the unfolded columns v_j of V (folded, all of the given parity)
    under U = apply, against the eigenvalue lam_j of each.

    The columns go through block_columns(N) at a time, in two buffers
    allocated once: `images` takes U of the unfolded columns, and `folds`,
    of N + 1 rows, first the unfolded columns, which the apply uses as its
    scratch space, then the folded columns beside the folds of their
    images.  So beyond V the check holds two BLOCK_BYTES.
    """
    h, count = V.shape
    N = 2 * h - 1
    resid = 0.0
    step = max(1, min(block_columns(N), count))
    folds = np.empty((N + 1) * step, dtype=np.complex128)
    images = np.empty(N * step, dtype=np.complex128)
    for start in range(0, count, step):
        cols = slice(start, start + step)
        width = min(step, count - start)
        W = apply(unfold(V[:, cols], parity, N, out=folds[: N * width].reshape(N, width)),
                  out=images[: N * width].reshape(N, width))
        Vc = folds[: h * width].reshape(width, h).T
        Vc[:] = V[:, cols]
        Wc = fold(W, parity, out=folds[h * width : 2 * h * width].reshape(width, h).T)  # beside Vc
        Vc *= lam[cols]
        Wc -= Vc
        resid = float(np.sqrt(np.vecdot(Wc, Wc, axis=0).real).max(initial=resid))  # keeps a NaN
    if not resid < RESIDUAL_TOL:
        raise EigenClusterError(f"orbit eigensolver residual {resid:.2e}, tolerance {RESIDUAL_TOL}")


def _orbit_eig(group: HeckeGroup, parity: int, angle: float | None = None):
    """Eigenvectors of U = U(iota(g)) for the group generator g on the
    vectors of the given parity, +1 (even) or -1 (odd), from orbit FFTs:
    the folded eigenvectors (see fold) as the columns of a
    (N+1)/2 x (N + parity)/2 array, the orbit row j of each, ascending,
    and the angle of U^half (half = #C/2) on the even vectors, measured on
    the first walk unless given.  U^half is -e^(i angle) on the odd
    vectors, so they walk on angle + pi, and row j holds the eigenvalue
    e^(i angle / half) e(l / #C), l = 2j (even) or 2j + 1 (odd).

    Each seeded random start vector is projected onto every eigenspace of
    the parity by _orbit_projections; every eigenspace lies in one parity,
    since U^half is the parity operator up to a phase.  The start
    vectors have real and imaginary parts 2u - 1, uniform on [-1, 1), for
    u from uniforms() of one random.Random seeded with (p, k, A mod N), so
    both parities walk from the same vectors.  Eigenspaces are at most
    one-dimensional for inert primes, so one start vector is enough;
    split eigenspaces have dimension up to k + 1 (the trivial character),
    so k + 1 vectors are used and each eigenspace is orthonormalized by QR
    on its folded rows, its rank read from the R diagonal.  After the
    first vector only the eigenspaces whose rank still grows are kept.  At
    inert primes the basis is a view of the first orbit's array, its live
    rows moved to the front; at split primes the QR bases are stacked into
    a new array.  Either way the basis is laid out by columns.  The
    residual max ||U v - lambda v|| against the eigenvalue of each
    column's row, with the gap 2 pi / #C between rows, bounds the overlap
    between eigenspaces; _check_residuals checks it in two BLOCK_BYTES, so
    beyond the orbits of this parity the eigensolver holds about that.
    """
    pp, half = group.pp, group.order // 2
    N = pp.N
    apply = propagator_apply(group.ring.matrix_of(group.gen), pp)
    rng = random.Random(f"orbit start {pp.p} {pp.k} {[v % N for row in group.A.mat() for v in row]}")

    def projections(walk: float | None) -> tuple[np.ndarray, float]:
        v = (2.0 * uniforms(rng, 2 * N) - 1.0).view(np.complex128)
        return _orbit_projections(apply, v / np.linalg.norm(v), half, parity, walk)

    shift = 0.0 if parity > 0 else math.pi  # U^half is -e^(i angle) on the odd vectors
    first, walk = projections(None if angle is None else angle + shift)  # every later orbit walks on it
    flat = first.view(np.float64)  # no temporary the size of the orbit
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    live = norms > RANK_TOL
    first /= np.where(live, norms, 1.0)[:, None]
    growing = np.flatnonzero(live).tolist()
    # eigenspace row -> orthonormal folded rows; views keep the first orbit alive
    bases = {j: first[j : j + 1] for j in growing}
    for _ in range(pp.k if group.kind == "split" else 0):
        proj, _ = projections(walk)
        still = []
        for j in growing:
            q, r = np.linalg.qr(np.vstack([bases[j], proj[j : j + 1]]).T)
            if abs(r[-1, -1]) > RANK_TOL:
                bases[j] = q.T
                still.append(j)
        growing = still
        del proj  # before the next orbit is allocated
    found = sum(len(b) for b in bases.values())
    dim = (N + parity) // 2  # the trace of the parity operator is 1
    if found != dim:
        raise EigenClusterError(f"orbit eigensolver found {found} eigenvectors of parity {parity:+d}, dimension {dim}")
    rows = np.repeat(np.array(sorted(bases), dtype=np.int64), [len(bases[j]) for j in sorted(bases)])
    if group.kind == "inert":
        del bases  # a view object per row
        # every eigenspace is one live row of the first orbit; moving rows
        # forward in increasing order never overwrites a row still to move
        for dst, src in enumerate(rows.tolist()):
            if dst != src:
                first[dst] = first[src]
        V = first[:dim].T
    else:
        # stacked into a C-contiguous array, so V is laid out by columns
        V = np.concatenate([bases[j] for j in sorted(bases)], out=_mapped_empty((dim, (N + 1) // 2))).T
        del first, bases
    _check_residuals(apply, V, parity, np.exp(1j * (walk + 2 * np.pi * rows) / half))
    return V, rows, walk - shift if angle is None else angle


def unit_character_level(group: HeckeGroup, index: int) -> int:
    """Smallest l with chi_index trivial on {beta = 1 mod p^l}."""
    if index % group.order == 0:
        return 0
    return group.pp.k - min(valuation(index % group.order, group.pp.p), group.pp.k)


@dataclass
class EigenDecomposition:
    """The joint eigenspaces of the symmetry group within one parity, from
    one generator unitary, whose eigenvalue is e^(i angle / (#C/2)) e(l / #C)
    on the columns labelled l."""

    group: HeckeGroup
    parity: int  # +1: every column is even; -1: every column is odd
    folded: np.ndarray  # (N+1)/2 x (N + parity)/2: the folds of std-orthonormal columns
    labels: np.ndarray  # per column, ascending: 2j (even) or 2j + 1 (odd) for its orbit row j
    angle: float  # the angle of U^(#C/2) on the even vectors

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the unfolded basis, N x (N + parity)/2."""
        return (self.group.pp.N, self.folded.shape[1])

    def columns(self, cols, out: np.ndarray | None = None) -> np.ndarray:
        """The std-unit eigenvectors at cols (an index array or a slice,
        indexed as folded's columns are), unfolded into an N x len(cols)
        array, C-contiguous, or into out, such an array, when it is given.
        The folded columns are gathered into the first rows of out and
        unfolded there."""
        cols = np.arange(self.folded.shape[1])[cols]  # in range, or IndexError
        N = self.group.pp.N
        if out is None:
            out = np.empty((N, len(cols)), dtype=np.complex128)
        return unfold(_gather(self.folded, cols, out.reshape(-1)), self.parity, N, out=out)

    @functools.cached_property
    def clusters(self) -> dict[int, np.ndarray]:
        """Label -> its columns, ascending; labels in ascending order."""
        labels, starts = np.unique(self.labels, return_index=True)
        return {int(label): cols for label, cols in zip(labels, np.split(np.arange(len(self.labels)), starts[1:]))}

    def multiplicity_one_items(self) -> list[tuple[int, int]]:
        """(label, column) pairs for the one-dimensional eigenspaces."""
        return [(lab, int(cols[0])) for lab, cols in self.clusters.items() if len(cols) == 1]


def eigendecompose(group: HeckeGroup, parity: int, angle: float | None = None) -> EigenDecomposition:
    """Diagonalize U(iota(g)) for a group generator g on the vectors of one
    parity, +1 (even) or -1 (odd), and label its eigenspaces.

    The group is cyclic, so eigenspaces of this single unitary are exactly
    the joint eigenspaces, and each lies in one parity.  A column's label
    is l = 2j (even) or 2j + 1 (odd) for its orbit row j (see _orbit_eig),
    defined up to one common shift (a global character twist).  The other
    parity takes this one's angle, so that both halves label on one grid.
    The largest array made is one parity's folded orbit or basis, which is
    checked against the size cap first.
    """
    pp, order = group.pp, group.order
    if parity not in (1, -1):
        raise ValueError(f"parity {parity!r} is neither +1 nor -1")
    # the larger of a folded orbit, #C/2 x (N+1)/2, and the folded basis, (N+1)/2 x (N + parity)/2
    check_array_size(max(order // 2, (pp.N + 1) // 2) * ((pp.N + 1) // 2), f"orbit eigensolver at {pp}")
    folded, rows, angle = _orbit_eig(group, parity, angle)
    decomp = EigenDecomposition(group, parity, folded, 2 * rows + (1 - parity) // 2, angle)
    # distinct joint eigenvalues of a parity: one per column (inert), half
    # of phi(p^k) = #C (split: every character of the unit group appears,
    # and chi_j is even or odd as (-1)^j)
    expected = folded.shape[1] if group.kind == "inert" else order // 2
    if len(decomp.clusters) != expected:
        raise EigenClusterError(
            f"{len(decomp.clusters)} clusters of parity {parity:+d}, predicted {expected} for {group.kind} {pp}"
        )
    return decomp


# relative tolerance of |Tr U(iota(beta))|^2 against #ker(iota(beta) - I)
TRACE_TOL = 1e-6


@dataclass(frozen=True)
class TraceSweep:
    """Both sides of |Tr U(iota(g^m))|^2 = #ker(iota(g^m) - I), m = 0..#C-1,
    with the congruence level l of g^m; at inert primes the kernel is
    p^(2l), which makes every joint eigenspace one-dimensional."""

    trace_sq: np.ndarray  # from the multiplicity histogram of the labels
    kernel: np.ndarray  # Smith normal form count
    level: np.ndarray

    @property
    def worst_gap(self) -> float:
        """max_m |trace_sq - kernel| / kernel; NaN when a trace is NaN."""
        return float(np.max(np.abs(self.trace_sq - self.kernel) / self.kernel))


def trace_sweep(group: HeckeGroup, multiplicity: np.ndarray) -> TraceSweep:
    """The trace identity over every element g^m of the group, from the
    eigenspace dimension multiplicity[l] of each label l, both parities':
    U(iota(g^m)) is U(iota(g))^m up to a phase, so |Tr U(iota(g^m))|^2 is
    |sum_l multiplicity[l] e(l m / #C)|^2 = |FFT(multiplicity)[m]|^2.
    The kernels and levels are evaluated on the arrays of all g^m."""
    ring = group.ring
    beta = group._powers(group.gen, group.order)
    kernel = qz.kernel_count(qz.mat_sub(ring.matrix_of(beta), qz.IDENTITY2), group.pp.N)
    return TraceSweep(np.abs(np.fft.fft(multiplicity)) ** 2, kernel, ring.congruence_level(beta))


# -- split-case verification -----------------------------------------


@dataclass
class SplitMatchReport:
    """Outcome of matching explicit split eigenfunctions to the eigensolver."""

    multiplicities_ok: bool  # checked for every character via the shift
    shift_ok: bool
    max_residual: float


def split_match_report(group: HeckeGroup) -> SplitMatchReport:
    """Locate explicit split eigenfunctions in the numerical eigenbasis.

    The eigendecomposition is built one parity at a time, the odd half on
    the even half's angle, and each half is matched and dropped before the
    other is built.  The character chi_j is even or odd as
    chi_j(-1) = (-1)^j, and so is its eigenfunction b, built by
    split_eigenvectors, since U(M) commutes with the parity.  Each b is
    matched in the half of its parity: its label comes from the Rayleigh
    quotient <U(g) b, b> on the label grid e^(i angle / (#C/2)) e(l / #C),
    and its residual ||b - V_c V_c^* b|| from the columns V_c of that
    label's cluster alone (all of b when the half has no such cluster).
    The matched labels must differ from the character indices by one
    common shift (the free global twist).  Using that shift, the
    multiplicity of every character's cluster is then checked against the
    predicted k - l + 1 for its level l, over the whole dual group.  The
    characters are built and matched block_columns(N) at a time, so the
    blocks take a few BLOCK_BYTES.
    """
    pp = group.pp
    diag = build_split_diagonalizer(group.A, pp)
    apply_g = propagator_apply(group.ring.matrix_of(group.gen), pp)
    unit_dlogs = unit_dlog_array(group, diag)
    order = group.order

    matched = np.empty(order, dtype=np.int64)
    resid = np.empty(order)
    multiplicity = np.zeros(order, dtype=np.int64)
    step = block_columns(pp.N)
    angle = None
    for parity in (1, -1):
        decomp = eigendecompose(group, parity, angle)
        angle = decomp.angle
        multiplicity += np.bincount(decomp.labels, minlength=order)
        index = np.arange(0 if parity > 0 else 1, order, 2)  # the characters of this parity
        for start in range(0, len(index), step):
            js = index[start : start + step]
            block = split_eigenvectors(group, diag, unit_dlogs, js)
            rayleigh = np.einsum("ij,ij->j", block.conj(), apply_g(block))
            # the nearest l with rayleigh = e^(i angle / (#C/2)) e(l / #C)
            labels = np.rint((np.angle(rayleigh) - 2 * angle / order) * order / (2 * np.pi)).astype(np.int64) % order
            matched[js] = labels
            for j, b, label in zip(js.tolist(), block.T, labels.tolist()):
                Vc = decomp.columns(decomp.clusters.get(label, []))
                resid[j] = np.linalg.norm(b - Vc @ (Vc.conj().T @ b))
        del decomp  # before the other half is built

    shifts = (matched - np.arange(order)) % order
    shift_ok = bool(np.all(shifts == shifts[0]))
    shift = int(shifts[0])
    # a level-l character's eigenspace has dimension k - l + 1
    mult_ok = shift_ok and all(
        multiplicity[(ci + shift) % order] == pp.k - unit_character_level(group, ci) + 1
        for ci in range(order)
    )
    return SplitMatchReport(
        multiplicities_ok=mult_ok,
        shift_ok=shift_ok,
        max_residual=float(resid.max()),
    )
