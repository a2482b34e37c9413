"""Norm-one symmetry group of a cat map mod p^k and its joint eigenspaces.

The hidden symmetries of the quantized automorphism A are the commuting
unitaries U(aI + bA) where beta = a + b*alpha runs through the norm-one
group C of the quadratic order Z[alpha], alpha^2 = t*alpha - 1.  C is
cyclic of order p^(k-1)(p -+ 1) according to whether the discriminant
D = t^2 - 4 is a square mod p (split) or not (inert).  This module builds
C with a full discrete-log table, evaluates its characters by exact
integer exponents, and decomposes H_N into the joint eigenspaces by
diagonalizing the propagator of a group generator.
"""

from __future__ import annotations

import functools
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
from .quantization import StateVector, TorusAutomorphism, propagator

OrderElement = tuple[int, int]

# brute force enumerates the whole domain; keep it at desk scale
BRUTE_FORCE_LIMIT = 300_000


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
        a, b = u
        c, d = v
        return ((a * c - b * d) % self.N, (a * d + b * c + b * d * self.t) % self.N)

    def norm(self, u: OrderElement) -> int:
        a, b = u
        return (a * a + a * b * self.t + b * b) % self.N

    def conj(self, u: OrderElement) -> OrderElement:
        a, b = u
        return ((a + b * self.t) % self.N, -b % self.N)

    def inv(self, u: OrderElement) -> OrderElement:
        s = inv_mod(self.norm(u), self.pp)
        a, b = self.conj(u)
        return (a * s % self.N, b * s % self.N)

    def pow(self, u: OrderElement, e: int) -> OrderElement:
        if e < 0:
            return self.pow(self.inv(u), -e)
        out = self.one
        base = u
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    # sqrt(D) realized as the element 2*alpha - t
    @property
    def sqrt_disc(self) -> OrderElement:
        return (-self.t % self.N, 2 % self.N)

    def matrix_of(self, u: OrderElement) -> qz.Mat2:
        """Ring embedding a + b*alpha -> aI + bA (mod N)."""
        a, b = u
        A = self.A
        return (
            ((a + b * A.a) % self.N, (b * A.b) % self.N),
            ((b * A.c) % self.N, (a + b * A.d) % self.N),
        )

    def in_domain(self, x: int) -> bool:
        """True when D*x^2 != 1 (mod p), i.e. the Cayley map is defined."""
        return (self.D * x * x - 1) % self.pp.p != 0

    def cayley_transform(self, x: int) -> OrderElement:
        """(sqrt(D)x + 1) / (sqrt(D)x - 1), a norm-one element for x in the domain.

        Numerator and denominator both have norm 1 - D*x^2.
        """
        if not self.in_domain(x):
            raise SingularPointError(f"D*{x}^2 = 1 mod {self.pp.p}")
        x %= self.N
        num = ((1 - self.t * x) % self.N, 2 * x % self.N)
        den = ((-self.t * x - 1) % self.N, 2 * x % self.N)
        return self.mul(num, self.inv(den))

    def cayley_inverse(self, beta: OrderElement) -> int:
        """x = (1 + beta) / (sqrt(D)(beta - 1)) for beta != 1 (mod p).

        Direct algebra on beta = (sx+1)/(sx-1), s = sqrt(D): 1 + beta =
        2sx/(sx-1) and beta - 1 = 2/(sx-1), so the quotient is exactly x.
        """
        a, b = beta
        num = ((1 + a) % self.N, b)
        den = self.mul(self.sqrt_disc, ((a - 1) % self.N, b))
        quot = self.mul(num, self.inv(den))
        if quot[1] != 0:
            raise ValueError(f"{beta} is not in the image of the Cayley map")
        return quot[0]

    def congruence_level(self, u: OrderElement) -> int:
        """Largest l <= k with u = 1 (mod p^l)."""
        a, b = (u[0] - 1) % self.N, u[1] % self.N
        level = 0
        q = self.pp.p
        while level < self.pp.k and a % q == 0 and b % q == 0:
            level += 1
            q *= self.pp.p
        return level


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
    """The cyclic norm-one group C(p^k) with generator and dlog table."""

    def __init__(self, A: TorusAutomorphism, pp: PrimePower):
        self.A = A
        self.pp = pp
        self.kind = classify_prime(A, pp.p)
        self.ring = QuadOrderMod(A, pp)
        p, k = pp.p, pp.k
        self.order = p ** (k - 1) * (p - 1 if self.kind == "split" else p + 1)
        self.gen = self._find_generator()
        self._walk()

    # -- construction -------------------------------------------------

    def _find_generator(self) -> OrderElement:
        ring = self.ring
        primes = _factor_small(self.order)
        rng = random.Random(self.pp.p * 1_000_003 + self.pp.k * 101 + self.A.trace)

        def is_generator(beta: OrderElement) -> bool:
            if ring.norm(beta) != 1:
                return False
            return all(ring.pow(beta, self.order // q) != ring.one for q in primes)

        for _ in range(200):
            x = rng.randrange(self.pp.N)
            if ring.in_domain(x) and is_generator(ring.cayley_transform(x)):
                return ring.cayley_transform(x)
        for x in range(self.pp.N):  # deterministic fallback
            if ring.in_domain(x) and is_generator(ring.cayley_transform(x)):
                return ring.cayley_transform(x)
        raise RuntimeError(f"no generator found for C({self.pp})")

    def _walk(self):
        """Enumerate g^m for m = 0..order-1 and index them for dlog."""
        N = self.pp.N
        ga, gb = self.gen
        t = self.ring.t
        enc = np.empty(self.order, dtype=np.int64)
        a, b = 1, 0
        for m in range(self.order):
            enc[m] = a * N + b
            a, b = (a * ga - b * gb) % N, (a * gb + b * ga + b * gb * t) % N
        if (a, b) != (1, 0):
            raise RuntimeError("generator order mismatch")
        self.elements_enc = enc
        self._sort_perm = np.argsort(enc, kind="stable")
        self._sorted_enc = enc[self._sort_perm]

    # -- element access -----------------------------------------------

    def encode(self, u: OrderElement) -> int:
        return (u[0] % self.pp.N) * self.pp.N + (u[1] % self.pp.N)

    def element(self, m: int) -> OrderElement:
        e = int(self.elements_enc[m % self.order])
        return (e // self.pp.N, e % self.pp.N)

    def __iter__(self):
        return (self.element(m) for m in range(self.order))

    def __contains__(self, u: OrderElement) -> bool:
        e = self.encode(u)
        i = int(np.searchsorted(self._sorted_enc, e))
        return i < self.order and self._sorted_enc[i] == e

    def dlog(self, u: OrderElement) -> int:
        """Exponent m with g^m = u."""
        return int(self.dlog_encoded(np.asarray([self.encode(u)]))[0])

    def dlog_encoded(self, enc: np.ndarray) -> np.ndarray:
        i = np.searchsorted(self._sorted_enc, enc)
        if np.any(i >= self.order) or np.any(self._sorted_enc[i] != enc):
            raise KeyError("element outside the norm-one group")
        return self._sort_perm[i]

    def cayley_dlogs(self, xs) -> np.ndarray:
        """dlog(beta(x)) for each x (must be in the domain)."""
        enc = np.fromiter(
            (self.encode(self.ring.cayley_transform(int(x))) for x in xs),
            dtype=np.int64,
        )
        return self.dlog_encoded(enc) if len(enc) else enc

    @functools.cached_property
    def cayley_table(self) -> np.ndarray:
        """dlog(beta(x)) over x = 0..N-1, -1 outside the domain (brute force)."""
        N = self.pp.N
        if N > BRUTE_FORCE_LIMIT:
            raise ValueError(f"brute-force table for N = {N} is out of desk scale")
        xs = [x for x in range(N) if self.ring.in_domain(x)]
        tbl = np.full(N, -1, dtype=np.int64)
        tbl[xs] = self.cayley_dlogs(xs)
        return tbl

    def congruence_level(self, u: OrderElement) -> int:
        return self.ring.congruence_level(u)

    def subgroup_size(self, l: int) -> int:
        """#{beta in C : beta = 1 (mod p^l)} = p^(k-l) for 1 <= l <= k."""
        if not 1 <= l <= self.pp.k:
            raise ValueError("level must satisfy 1 <= l <= k")
        return self.pp.p ** (self.pp.k - l)

    @functools.cached_property
    def roots(self) -> np.ndarray:
        return roots_table(self.order)

    def character(self, index: int) -> "HeckeCharacter":
        return HeckeCharacter(self, index % self.order)

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


def build_group(A: TorusAutomorphism, pp: PrimePower) -> HeckeGroup:
    """C(p^k) for A, not memoized: the caller owns it and passes it on."""
    return HeckeGroup(A, pp)


def brute_force_norm_one(A: TorusAutomorphism, pp: PrimePower) -> set[OrderElement]:
    """All (a, b) mod p^k with a^2 + abt + b^2 = 1, by exhaustive search."""
    N = pp.N
    t = A.trace % N
    a = np.arange(N, dtype=np.int64)[:, None]
    b = np.arange(N, dtype=np.int64)[None, :]
    norm = (a * a % N + a * b % N * t + b * b % N) % N
    ii, jj = np.nonzero(norm == 1)
    return {(int(x), int(y)) for x, y in zip(ii, jj)}


@dataclass(frozen=True)
class HeckeCharacter:
    """chi_j(g^m) = e(j*m / #C), held as the exact integer exponent j."""

    group: HeckeGroup
    index: int

    def exponent(self, beta: OrderElement) -> int:
        return self.index * self.group.dlog(beta) % self.group.order

    def value(self, beta: OrderElement) -> complex:
        return complex(self.group.roots[self.exponent(beta)])

    def __mul__(self, other: "HeckeCharacter") -> "HeckeCharacter":
        return HeckeCharacter(self.group, (self.index + other.index) % self.group.order)

    @property
    def t_parameter(self) -> int:
        """t with chi(principal_unit(x)) = e(t*x / t_modulus) for all x."""
        return self.index * self.group.t_unit % self.group.t_modulus

    def is_good(self, nu: int) -> bool:
        """Good for nu: 2*t_parameter != -nu (mod p)."""
        return (2 * self.t_parameter + nu) % self.group.pp.p != 0


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
    """Discrete log of every unit y mod p^k relative to the image of the
    group generator under beta -> eigenvalue of (aI + bA); -1 at non-units."""
    N = group.pp.N
    ga, gb = group.gen
    x_g = (ga + gb * diag.y) % N
    arr = np.full(N, -1, dtype=np.int64)
    x = 1
    for m in range(group.order):
        arr[x] = m
        x = x * x_g % N
    if x != 1:
        raise RuntimeError("unit group walk did not close")
    return arr


def unit_character_values(group: HeckeGroup, unit_dlogs: np.ndarray, index: int) -> np.ndarray:
    """chi on Z/p^k from unit_dlog_array: chi at units via the isomorphism
    beta -> eigenvalue of (aI + bA), zero on non-units."""
    vals = np.zeros(group.pp.N, dtype=np.complex128)
    units = unit_dlogs >= 0
    vals[units] = group.roots[index * unit_dlogs[units] % group.order]
    return vals


def split_eigenfunction(chi: HeckeCharacter, diag: SplitDiagonalizer, U_M: np.ndarray) -> StateVector:
    """Joint eigenfunction U(M) chi~ (normalized), chi~ = chi on units, else 0;
    U_M is the dense propagator(diag.M, pp)."""
    group = chi.group
    if group.kind != "split":
        raise NotSplitError("explicit eigenfunctions exist in the split case only")
    amps = U_M @ unit_character_values(group, unit_dlog_array(group, diag), chi.index)
    return StateVector(group.pp, amps).normalized()


# -- eigendecomposition ----------------------------------------------


def _eig_unitary(U: np.ndarray, tol: float = 1e-8, tries: int = 6):
    """Eigenpairs of a unitary matrix via a Hermitian combination.

    H = (U + U*)/2 + gamma (U - U*)/(2i) shares eigenvectors with U unless
    two distinct eigenphases collide in cos(th) + gamma sin(th); the
    residual check detects that and retries with a fresh gamma.
    """
    # imported on first use: scipy.linalg takes longer to import than this package
    from scipy.linalg import eigh

    rng = np.random.default_rng(0xEC0)
    n = U.shape[0]
    gamma = 0.7548776662466927
    for _ in range(tries):
        # H = (0.5 - 0.5j*gamma) U + (0.5 + 0.5j*gamma) U*
        H = (0.5 - 0.5j * gamma) * U
        H += (0.5 + 0.5j * gamma) * U.conj().T
        _, V = eigh(H, overwrite_a=True, check_finite=False, driver="evd")
        del H
        lam = np.empty(n, dtype=np.complex128)
        resid = 0.0
        for start in range(0, n, 1024):
            blk = slice(start, min(start + 1024, n))
            Vb = V[:, blk]
            Wb = U @ Vb
            lam_b = np.einsum("ij,ij->j", Vb.conj(), Wb)
            Wb -= Vb * lam_b[None, :]
            resid = max(resid, math.sqrt(float(np.einsum("ij,ij->j", Wb.conj(), Wb).real.max())))
            lam[blk] = lam_b
        if resid < tol:
            return lam, V
        del V
        gamma = float(rng.uniform(0.3, 3.0))
    raise EigenClusterError(f"unitary eigensolver residual {resid:.2e} > {tol}")


def predicted_cluster_count(kind: str, pp: PrimePower) -> int:
    """Distinct joint eigenvalues: p^k (inert), phi(p^k) (split: every
    character of the unit group appears)."""
    if kind == "inert":
        return pp.N
    return pp.p ** (pp.k - 1) * (pp.p - 1)


def split_level_multiplicity(pp: PrimePower, level: int) -> int:
    """Eigenspace dimension k - l + 1 for a level-l character (split)."""
    return pp.k - level + 1


def unit_character_level(group: HeckeGroup, index: int) -> int:
    """Smallest l with chi_index trivial on {beta = 1 mod p^l}."""
    if index % group.order == 0:
        return 0
    v = valuation(index % group.order, group.pp.p) if index % group.order else group.pp.k
    return group.pp.k - min(v, group.pp.k)


@dataclass
class EigenDecomposition:
    """Joint eigenspaces of the symmetry group, from one generator unitary."""

    group: HeckeGroup
    eigenvalues: np.ndarray  # N unitary eigenvalues of U(iota(g))
    vectors: np.ndarray  # std-orthonormal columns
    labels: np.ndarray  # per-column exponent relative to the fitted phase
    phase: float  # fitted global phase angle

    @functools.cached_property
    def clusters(self) -> dict[int, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        for label in np.unique(self.labels):
            out[int(label)] = np.nonzero(self.labels == label)[0]
        return out

    def multiplicity(self, label: int) -> int:
        return len(self.clusters.get(int(label), ()))

    def multiplicity_one_items(self) -> list[tuple[int, int]]:
        """(label, column) pairs for the one-dimensional eigenspaces."""
        return [(lab, int(cols[0])) for lab, cols in sorted(self.clusters.items()) if len(cols) == 1]

    def state(self, column: int) -> StateVector:
        """Column as a unit vector of H_N (1/N inner product)."""
        amps = self.vectors[:, column] * math.sqrt(self.group.pp.N)
        return StateVector(self.group.pp, amps)


CLUSTER_TOL = 1e-6


def eigendecompose(group: HeckeGroup) -> EigenDecomposition:
    """Diagonalize U(iota(g)) for a group generator g and label the clusters.

    The group is cyclic, so eigenspaces of this single unitary are exactly
    the joint eigenspaces.  Labels are exponents of the eigenvalues
    relative to a fitted global phase and are therefore only defined up to
    one common shift (a global character twist).
    """
    U = propagator(group.ring.matrix_of(group.gen), group.pp).entries
    lam, V = _eig_unitary(U)
    del U
    unit_lam = lam / np.abs(lam)
    wbar = np.mean(unit_lam**group.order)
    phase = float(np.angle(wbar)) / group.order
    rel = np.angle(unit_lam) - phase
    labels = np.rint(rel * group.order / (2 * np.pi)).astype(np.int64) % group.order
    model = np.exp(1j * (phase + 2 * np.pi * labels / group.order))
    err = float(np.abs(unit_lam - model).max())
    if err > CLUSTER_TOL:
        raise EigenClusterError(f"eigenvalue off the root-of-unity grid by {err:.2e}")
    decomp = EigenDecomposition(group, lam, V, labels, phase)
    expected = predicted_cluster_count(group.kind, group.pp)
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


@dataclass(frozen=True)
class TraceCheck:
    trace_sq: float
    kernel: int
    level: int
    passed: bool


def trace_magnitude_check(beta: OrderElement, group: HeckeGroup, rel_tol: float = 1e-6) -> TraceCheck:
    """|Tr U(iota(beta))|^2 against #ker(iota(beta) - I), dense route.

    For inert primes the kernel count equals p^(2l) with l the congruence
    level of beta, which is what makes every joint eigenspace at most
    one-dimensional.
    """
    B = group.ring.matrix_of(beta)
    tr2 = qz.propagator_trace_magnitude_sq(B, group.pp)
    ker = qz.fixed_point_count(B, group.pp)
    level = group.congruence_level(beta)
    ok = abs(tr2 - ker) <= rel_tol * ker
    if ok and group.kind == "inert":
        ok = ker == group.pp.p ** (2 * level)
    return TraceCheck(tr2, ker, level, ok)


# -- split-case verification -----------------------------------------


@dataclass
class SplitMatchReport:
    """Outcome of matching explicit split eigenfunctions to the eigensolver."""

    sample: np.ndarray  # character indices verified by projection
    residuals: np.ndarray  # per sampled character
    matched_labels: np.ndarray  # cluster label for each sampled character
    shift: int  # matched_label = index + shift (the free global twist)
    multiplicities_ok: bool  # checked for every character via the shift
    shift_ok: bool
    max_residual: float


def split_match_report(
    decomp: EigenDecomposition, batch: int = 256, sample: list[int] | None = None
) -> SplitMatchReport:
    """Locate explicit split eigenfunctions in the numerical eigenbasis.

    The sampled characters (default: all) are built explicitly, projected
    onto the eigenbasis, and must sit inside a single cluster with a small
    residual; the matched labels must differ from the character indices by
    one common shift (the free global twist).  Using that shift, the
    multiplicity of every character's cluster is then checked against the
    predicted k - l + 1 for its level l, over the whole dual group.
    """
    group = decomp.group
    pp = group.pp
    diag = build_split_diagonalizer(group.A, pp)
    U_M = propagator(diag.M, pp).entries
    unit_dlogs = unit_dlog_array(group, diag)
    N = pp.N
    order = group.order
    idx_all = np.arange(order) if sample is None else np.asarray(sorted(set(sample)))

    label_of_col = decomp.labels
    matched = np.empty(len(idx_all), dtype=np.int64)
    resid = np.empty(len(idx_all))
    V = decomp.vectors
    for start in range(0, len(idx_all), batch):
        idx = idx_all[start : start + batch]
        block = np.empty((N, len(idx)), dtype=np.complex128)
        for j, ci in enumerate(idx):
            block[:, j] = unit_character_values(group, unit_dlogs, int(ci))
        block = U_M @ block
        block /= np.linalg.norm(block, axis=0)[None, :]
        # coefficients in the eigenbasis: V* block, without copying V
        W = (V.T @ block.conj()).conj()
        power = (W * W.conj()).real
        for j, pos in enumerate(range(start, start + len(idx))):
            best_col = int(np.argmax(power[:, j]))
            label = int(label_of_col[best_col])
            matched[pos] = label
            # leak = sum of |coefficient|^2 outside the cluster; summing the
            # complement directly avoids cancellation against 1.0
            outside = np.ones(N, dtype=bool)
            outside[decomp.clusters[label]] = False
            resid[pos] = math.sqrt(float(power[outside, j].sum()))

    shifts = (matched - idx_all) % order
    shift_ok = bool(np.all(shifts == shifts[0]))
    shift = int(shifts[0])
    mult_ok = shift_ok and all(
        decomp.multiplicity((ci + shift) % order)
        == split_level_multiplicity(pp, unit_character_level(group, ci))
        for ci in range(order)
    )
    return SplitMatchReport(
        sample=idx_all,
        residuals=resid,
        matched_labels=matched,
        shift=shift,
        multiplicities_ok=mult_ok,
        shift_ok=shift_ok,
        max_residual=float(resid.max()),
    )
