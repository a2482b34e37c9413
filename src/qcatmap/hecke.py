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
joint eigenfunction is even or odd, since -1 is in C, and is stored
folded onto x = 0..(N-1)/2.  A character of C is its integer index j:
chi_j(g^m) = e(j m / #C).
"""

from __future__ import annotations

import functools
import itertools
import math
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
from .quantization import TorusAutomorphism, block_columns, check_array_size, propagator_apply

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

    def congruence_level(self, u: OrderElement) -> int:
        """Largest l <= k with u = 1 (mod p^l)."""
        a, b = (u[0] - 1) % self.N, u[1] % self.N
        level = 0
        q = self.pp.p
        while level < self.pp.k and a % q == 0 and b % q == 0:
            level += 1
            q *= self.pp.p
        return level


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
    residual check detects that and retries with a fresh gamma.
    """
    # imported on first use: scipy.linalg takes longer to import than this package
    from scipy.linalg import eigh

    rng = np.random.default_rng(0xEC0)
    n = U.shape[0]
    gamma = 0.7548776662466927
    for _ in range(6):
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
        gamma = float(rng.uniform(0.3, 3.0))
    raise EigenClusterError(f"unitary eigensolver residual {resid:.2e} > {RESIDUAL_TOL}")


def fold(v: np.ndarray, parity) -> np.ndarray:
    """The fold of the part of the N-vectors v (along axis 0, N odd) of the
    given parity, +1 (even) or -1 (odd), one per vector of v or one for all:
    rows x = 0..(N-1)/2 of (v(x) + parity v(-x)) / 2, the rows x >= 1 times
    sqrt(2).

    An even vector, v(-x) = v(x), and an odd one, v(-x) = -v(x), are fixed
    by these rows, and on either parity the fold is an isometry: it keeps
    the inner product of two vectors of one parity.
    """
    h = (len(v) + 1) // 2
    w = np.empty((h,) + v.shape[1:], dtype=np.complex128)
    w[0] = v[0] * ((1 + np.asarray(parity)) // 2)
    np.multiply(v[: h - 1 : -1], parity, out=w[1:])  # parity v(N - x), x = 1..h-1
    w[1:] += v[1:h]
    w[1:] *= math.sqrt(0.5)
    return w


def unfold(w: np.ndarray, parity, N: int) -> np.ndarray:
    """The N-vectors whose fold is w (along axis 0), each of its parity:
    +1 (even) or -1 (odd), one per vector of w.  They are laid out by
    columns, which the per-column sums of elementary_diagonals read fastest."""
    h = len(w)
    v = np.empty((N,) + w.shape[1:], dtype=np.complex128, order="F")
    np.divide(w, math.sqrt(2), out=v[:h])
    v[0] = w[0]
    np.multiply(v[h - 1 : 0 : -1], parity, out=v[h:])  # v(N - x) = parity v(x)
    return v


def _orbit_projections(apply, v: np.ndarray, half: int, angles: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Row j (< half): the folded projection of v onto the even eigenspace
    of U = apply with eigenvalue e^(i angles[0] / half) e(j / half); row
    half + j: onto the odd one with e^(i angles[1] / half) e(j / half).
    Also returns angles.

    g^half = -1 in C, for half = #C / 2, and U(-I) is the parity v(x) ->
    v(-x) up to a phase, so U^half is a scalar on the even part of v and
    minus that scalar on its odd part.  With the phase divided out, each
    part's orbit v_s, U v_s, ..., U^(half-1) v_s is periodic in m, and its
    DFT along m separates every eigenspace of that parity at once.  U
    commutes with the parity, so the part of U^m v of a parity is U^m of
    that part of v: the walk takes one column per step, v alone, and folds
    each parity part off U^m v.  Only the folds are stored, and the DFT is
    taken in place, block_columns(half) columns at a time.  angles = None
    takes them from U^half of this v's parts.  Orbits that share angles
    share one row numbering: where the scalar is -1, roundoff alone would
    put one orbit's angle at +pi and another's at -pi, a shift of one row.
    """
    N = len(v)
    h = (N + 1) // 2
    orbit = np.empty((2, half, h), dtype=np.complex128)
    w = v
    for m in range(half):
        # fold(w, 1) and fold(w, -1) in place, rows x >= 1 not yet times sqrt(1/2)
        np.add(w[1:h], w[: h - 1 : -1], out=orbit[0, m, 1:])
        np.subtract(w[1:h], w[: h - 1 : -1], out=orbit[1, m, 1:])
        orbit[0, m, 0] = w[0]
        w = apply(w)
    orbit[1, :, 0] = 0
    if angles is None:  # U^half v_s = scalar * v_s
        angles = np.angle([np.vdot(fold(v, s), fold(w, s)) for s in (1, -1)])
    orbit *= np.exp(-1j * angles[:, None] / half * np.arange(half))[:, :, None]
    step = block_columns(half)
    for part in orbit:
        for start in range(0, part.shape[1], step):
            blk = slice(start, start + step)
            part[:, blk] = np.fft.fft(part[:, blk], axis=0)
    orbit[:, :, 0] /= half
    orbit[:, :, 1:] *= math.sqrt(0.5) / half
    return orbit.reshape(2 * half, -1), angles


def _checked_eigenvalues(apply, V: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """The Rayleigh quotients lam_j = <v_j, U v_j> of the unfolded columns
    v_j of V (folded, of the given parities) under U = apply, once
    max_j ||U v_j - lambda_j v_j|| < RESIDUAL_TOL; EigenClusterError if not.

    U commutes with the parity, so for an even v_e and an odd v_o, U v_e
    and U v_o are the even and the odd part of U (v_e + v_o): one apply
    serves a parity pair.  The i-th even column is paired with the i-th odd
    one, the shorter list padded with zero columns, and the pairs go
    through block_columns(N) at a time, so the temporaries take a few
    BLOCK_BYTES.
    """
    N = 2 * len(V) - 1
    even, odd = np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)
    lam = np.empty(V.shape[1], dtype=np.complex128)
    resid = 0.0
    step = block_columns(N)
    for start in range(0, max(len(even), len(odd)), step):
        cols = even[start : start + step], odd[start : start + step]
        pairs = np.zeros((N, max(map(len, cols))), dtype=np.complex128, order="F")
        for c, s in zip(cols, (1, -1)):
            pairs[:, : len(c)] += unfold(V[:, c], s, N)
        W = apply(pairs)
        del pairs
        for c, s in zip(cols, (1, -1)):
            Vc, Wc = V[:, c], fold(W[:, : len(c)], s)  # c indexes, so Vc is a copy
            lam_c = np.vecdot(Vc, Wc, axis=0)
            Vc *= lam_c
            Wc -= Vc
            resid = float(np.sqrt(np.vecdot(Wc, Wc, axis=0).real).max(initial=resid))  # keeps a NaN
            lam[c] = lam_c
        del W, Vc, Wc  # before the next block is allocated
    if not resid < RESIDUAL_TOL:
        raise EigenClusterError(f"orbit eigensolver residual {resid:.2e}, tolerance {RESIDUAL_TOL}")
    return lam


def _orbit_eig(group: HeckeGroup):
    """Eigenpairs of U(iota(g)) for the group generator g, from orbit FFTs:
    the eigenvalues, the folded eigenvectors as the columns of a
    (N+1)/2 x N array, and the parity of each column (see fold).

    Each seeded random start vector is projected onto every eigenspace by
    _orbit_projections; every eigenspace lies in one parity, since U^(#C/2)
    is the parity operator up to a phase.  Eigenspaces are at most
    one-dimensional for inert primes, so one start vector is enough; split
    eigenspaces have dimension up to k + 1 (the trivial character), so
    k + 1 vectors are used and each eigenspace is orthonormalized by QR on
    its folded rows, its rank read from the R diagonal.  After the first
    vector only the eigenspaces whose rank still grows are kept.  At inert
    primes the basis is a view of the first orbit's array, its live rows
    moved to the front; at split primes the QR bases are stacked into a new
    array.  The residual max ||U v - lambda v|| over the unfolded columns,
    with the cluster gap 2 pi / #C, bounds the overlap between eigenspaces;
    _checked_eigenvalues checks it one apply per parity pair, so beyond the
    orbits the temporaries take a few BLOCK_BYTES.
    """
    pp, half = group.pp, group.order // 2
    N = pp.N
    apply = propagator_apply(group.ring.matrix_of(group.gen), pp)
    rng = np.random.default_rng([pp.p, pp.k] + [v % N for row in group.A.mat() for v in row])

    def projections(angles: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        return _orbit_projections(apply, v / np.linalg.norm(v), half, angles)

    first, angles = projections(None)  # every later orbit reuses these phases
    flat = first.view(np.float64)  # no temporary the size of the orbit
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    live = norms > RANK_TOL
    first /= np.where(live, norms, 1.0)[:, None]
    growing = np.flatnonzero(live).tolist()
    # eigenspace row -> orthonormal folded rows; views keep the first orbit alive
    bases = {j: first[j : j + 1] for j in growing}
    for _ in range(pp.k if group.kind == "split" else 0):
        proj, _ = projections(angles)
        still = []
        for j in growing:
            q, r = np.linalg.qr(np.vstack([bases[j], proj[j : j + 1]]).T)
            if abs(r[-1, -1]) > RANK_TOL:
                bases[j] = q.T
                still.append(j)
        growing = still
        del proj  # before the next orbit is allocated
    found = sum(len(b) for b in bases.values())
    if found != N:
        raise EigenClusterError(f"orbit eigensolver found {found} eigenvectors, dimension {N}")
    if group.kind == "inert":
        # every eigenspace is one live row of the first orbit; moving rows
        # forward in increasing order never overwrites a row still to move
        rows = np.flatnonzero(live)
        for dst, src in enumerate(rows.tolist()):
            if dst != src:
                first[dst] = first[src]
        V = first[:N].T
    else:
        keys = sorted(bases)
        rows = np.repeat(keys, [len(bases[j]) for j in keys])
        V = np.vstack([bases[j] for j in keys]).T
        del first, bases
    parity = np.where(rows < half, 1, -1)
    return _checked_eigenvalues(apply, V, parity), V, parity


def unit_character_level(group: HeckeGroup, index: int) -> int:
    """Smallest l with chi_index trivial on {beta = 1 mod p^l}."""
    if index % group.order == 0:
        return 0
    return group.pp.k - min(valuation(index % group.order, group.pp.p), group.pp.k)


@dataclass
class EigenDecomposition:
    """Joint eigenspaces of the symmetry group, from one generator unitary."""

    group: HeckeGroup
    eigenvalues: np.ndarray  # N unitary eigenvalues of U(iota(g))
    folded: np.ndarray  # (N+1)/2 x N: the folds of std-orthonormal columns
    parity: np.ndarray  # per column: +1 even, -1 odd
    labels: np.ndarray  # per-column exponent relative to the fitted phase
    phase: float  # fitted global phase angle

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the unfolded basis, N x N."""
        N = self.group.pp.N
        return (N, N)

    def columns(self, cols) -> np.ndarray:
        """The std-unit eigenvectors at cols (an index array or a slice),
        unfolded into an N x len(cols) array."""
        return unfold(self.folded[:, cols], self.parity[cols], self.group.pp.N)

    @functools.cached_property
    def clusters(self) -> dict[int, np.ndarray]:
        """Label -> its columns, ascending; labels in ascending order."""
        by_label = np.argsort(self.labels, kind="stable")
        labels, starts = np.unique(self.labels[by_label], return_index=True)
        return {int(label): cols for label, cols in zip(labels, np.split(by_label, starts[1:]))}

    def multiplicity(self, label: int) -> int:
        return len(self.clusters.get(int(label), ()))

    def multiplicity_one_items(self) -> list[tuple[int, int]]:
        """(label, column) pairs for the one-dimensional eigenspaces."""
        return [(lab, int(cols[0])) for lab, cols in sorted(self.clusters.items()) if len(cols) == 1]


CLUSTER_TOL = 1e-6


def _phase_labels(lam: np.ndarray, phase: float, order: int) -> np.ndarray:
    """The nearest exponent j with lam ~ e^(i phase) e(j / order), mod order."""
    rel = np.angle(lam) - phase
    return np.rint(rel * order / (2 * np.pi)).astype(np.int64) % order


def eigendecompose(group: HeckeGroup) -> EigenDecomposition:
    """Diagonalize U(iota(g)) for a group generator g and label the clusters.

    The group is cyclic, so eigenspaces of this single unitary are exactly
    the joint eigenspaces.  Labels are exponents of the eigenvalues
    relative to a fitted global phase and are therefore only defined up to
    one common shift (a global character twist).
    """
    pp = group.pp
    # the larger of a folded orbit, #C x (N+1)/2, and the folded basis, (N+1)/2 x N
    check_array_size(max(pp.N, group.order) * ((pp.N + 1) // 2), f"orbit eigensolver at {pp}")
    lam, folded, parity = _orbit_eig(group)
    unit_lam = lam / np.abs(lam)
    wbar = np.mean(unit_lam**group.order)
    phase = float(np.angle(wbar)) / group.order
    labels = _phase_labels(unit_lam, phase, group.order)
    model = np.exp(1j * (phase + 2 * np.pi * labels / group.order))
    err = float(np.abs(unit_lam - model).max())
    if err > CLUSTER_TOL:
        raise EigenClusterError(f"eigenvalue off the root-of-unity grid by {err:.2e}")
    decomp = EigenDecomposition(group, lam, folded, parity, labels, phase)
    # distinct joint eigenvalues: p^k (inert), phi(p^k) (split: every
    # character of the unit group appears)
    expected = pp.N if group.kind == "inert" else pp.p ** (pp.k - 1) * (pp.p - 1)
    if len(decomp.clusters) != expected:
        raise EigenClusterError(
            f"{len(decomp.clusters)} clusters, predicted {expected} for {group.kind} {group.pp}"
        )
    return decomp


def trace_magnitudes_sq_via_spectrum(decomp: EigenDecomposition) -> np.ndarray:
    """|Tr U(iota(g^m))|^2 for every m, from the generator's spectrum.

    The propagator is a representation up to phase, so the trace of the
    m-th Hecke operator equals sum_i lambda_i^m up to a unimodular factor.
    """
    lam = decomp.eigenvalues / np.abs(decomp.eigenvalues)
    out = np.empty(decomp.group.order)
    cur = np.ones_like(lam)
    for m in range(decomp.group.order):
        out[m] = abs(cur.sum()) ** 2
        cur *= lam
    return out


# relative tolerance of |Tr U(iota(beta))|^2 against #ker(iota(beta) - I)
TRACE_TOL = 1e-6


@dataclass(frozen=True)
class TraceSweep:
    """Both sides of |Tr U(iota(g^m))|^2 = #ker(iota(g^m) - I), m = 0..#C-1,
    with the congruence level l of g^m; at inert primes the kernel is
    p^(2l), which makes every joint eigenspace one-dimensional."""

    trace_sq: np.ndarray  # from the spectrum of the decomposition
    kernel: np.ndarray  # Smith normal form count
    level: np.ndarray

    @property
    def worst_gap(self) -> float:
        """max_m |trace_sq - kernel| / kernel; NaN when a trace is NaN."""
        return float(np.max(np.abs(self.trace_sq - self.kernel) / self.kernel))


def trace_sweep(decomp: EigenDecomposition) -> TraceSweep:
    """The trace identity over every element g^m of the group."""
    group = decomp.group
    ring = group.ring
    kernel, level = [], []
    beta = ring.one
    for _ in range(group.order):
        kernel.append(qz.fixed_point_count(ring.matrix_of(beta), group.pp))
        level.append(ring.congruence_level(beta))
        beta = ring.mul(beta, group.gen)
    return TraceSweep(trace_magnitudes_sq_via_spectrum(decomp), np.array(kernel), np.array(level))


# -- split-case verification -----------------------------------------


@dataclass
class SplitMatchReport:
    """Outcome of matching explicit split eigenfunctions to the eigensolver."""

    multiplicities_ok: bool  # checked for every character via the shift
    shift_ok: bool
    max_residual: float


def split_match_report(decomp: EigenDecomposition) -> SplitMatchReport:
    """Locate explicit split eigenfunctions in the numerical eigenbasis.

    Each character is built by split_eigenvectors
    as b; its label comes from the Rayleigh quotient <U(g) b, b> on the
    phase grid of eigendecompose, and its residual ||b - V_c V_c^* b|| from
    the columns V_c of that label's cluster alone.  The matched labels must
    differ from the character indices by one common shift (the free global
    twist).  Using that shift, the multiplicity of every character's
    cluster is then checked against the predicted k - l + 1 for its level
    l, over the whole dual group.  The characters are built and matched
    block_columns(N) at a time, so the blocks take a few BLOCK_BYTES.
    """
    group = decomp.group
    pp = group.pp
    diag = build_split_diagonalizer(group.A, pp)
    apply_g = propagator_apply(group.ring.matrix_of(group.gen), pp)
    unit_dlogs = unit_dlog_array(group, diag)
    order = group.order
    index = np.arange(order)

    matched = np.empty(order, dtype=np.int64)
    resid = np.empty(order)
    step = block_columns(pp.N)
    for start in range(0, order, step):
        block = split_eigenvectors(group, diag, unit_dlogs, index[start : start + step])
        rayleigh = np.einsum("ij,ij->j", block.conj(), apply_g(block))
        labels = _phase_labels(rayleigh, decomp.phase, order)
        matched[start : start + len(labels)] = labels
        for j, label in enumerate(labels.tolist()):
            Vc = decomp.columns(decomp.clusters[label])
            b = block[:, j]
            resid[start + j] = np.linalg.norm(b - Vc @ (Vc.conj().T @ b))

    shifts = (matched - index) % order
    shift_ok = bool(np.all(shifts == shifts[0]))
    shift = int(shifts[0])
    # a level-l character's eigenspace has dimension k - l + 1
    mult_ok = shift_ok and all(
        decomp.multiplicity((ci + shift) % order) == pp.k - unit_character_level(group, ci) + 1
        for ci in range(order)
    )
    return SplitMatchReport(
        multiplicities_ok=mult_ok,
        shift_ok=shift_ok,
        max_residual=float(resid.max()),
    )
