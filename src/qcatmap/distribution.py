"""Matrix-element statistics and their limiting law.

Normalized matrix elements F_j = sqrt(N)(<Op(f) psi_j, psi_j> - mean f)
of Hecke eigenfunctions are compared against the model variable

    Y_f = 2 sum_nu f#(nu) cos(theta_nu),

where f#(nu) sums (-1)^(n1 n2) fhat(n) over the fiber Q(n) = nu of the
quadratic form Q(n) = w(nA, n), and each theta_nu is drawn independently
from the law "atom of mass 1/2 at pi/2 plus 1/2 uniform on [0, pi)".
Two pipelines produce F_j: dense eigenfunctions (small N) and the
closed-form character sums (any p); both are kept so one can check the
other.  Brute-force counting oracles for the square-density and
fiber-tuple estimates live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import expsum
from .errors import BadNuError, EmptySetError, NoMatchError
from .hecke import EigenDecomposition, HeckeGroup, build_group
from .modarith import PrimePower, legendre
from .quantization import FourierObservable, TorusAutomorphism, check_array_size, elementary_diagonals, row_action

SNAP_ZERO_TOL = 1e-9
MOMENT_ORDERS = range(1, 7)  # the moment tables of compare_distribution
FORMULA_TOL = 1e-7  # measured against model matrix elements, absolute


# -- quadratic form and twisted coefficients ---------------------------


def quadratic_form(A: TorusAutomorphism, n: tuple[int, int]) -> int:
    """Q(n) = w(nA, n) with w(m, n) = m1 n2 - m2 n1, over the integers."""
    m = row_action(n, A.mat())
    return m[0] * n[1] - m[1] * n[0]


def twisted_coefficients(f: FourierObservable, A: TorusAutomorphism) -> dict[int, complex]:
    """f#(nu) = sum over Q(n) = nu of (-1)^(n1 n2) fhat(n), nu != 0 only,
    in increasing order of nu."""
    spectrum: dict[int, complex] = {}
    for n, c in sorted(f.coeffs.items()):
        if n == (0, 0):
            continue
        nu = quadratic_form(A, n)
        if nu == 0:
            continue
        sign = -1 if (n[0] * n[1]) % 2 else 1
        spectrum[nu] = spectrum.get(nu, 0.0) + sign * complex(c)
    return dict(sorted(spectrum.items()))


# -- the limiting angle law --------------------------------------------


def model_moment(m: int) -> Fraction:
    """m-th moment of 2cos(theta) under the limit law: C(m, m/2)/2 for
    even m, zero for odd m."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if m == 0:
        return Fraction(1)
    if m % 2:
        return Fraction(0)
    return Fraction(math.comb(m, m // 2), 2)


def model_cdf(v) -> np.ndarray:
    """P(2cos(theta) <= v) at each v: the arccos part from the uniform half
    plus the 1/2 atom at zero (right-continuous), so the left limit is this
    minus 1/2 at v = 0.  Each arccos is libm's, one value at a time: numpy's
    SIMD arccos differs from it in the last bit on some CPUs, so the CDF
    would depend on which SIMD path numpy picks."""
    v = np.asarray(v, dtype=float)
    u = np.clip(v / 2.0, -1.0, 1.0)
    acos = np.fromiter(map(math.acos, u.ravel().tolist()), float, u.size).reshape(u.shape)
    return 0.5 * (1.0 - acos / math.pi) + np.where(v >= 0.0, 0.5, 0.0)


@dataclass(frozen=True)
class ScaledLimitLaw:
    """CDF of c * 2cos(theta) under the limit law (c != 0; symmetric in c)."""

    scale: float

    def cdf(self, v) -> np.ndarray:
        return model_cdf(np.asarray(v, dtype=float) / abs(self.scale))


# -- the model sample ----------------------------------------------------


def sample_limit_variable(spectrum: dict[int, complex], seed: int, count: int) -> np.ndarray:
    """count independent draws of Y_f = 2 sum f#(nu) cos(theta_nu).

    Each theta_nu is the atom pi/2 with probability 1/2 (contributing an
    exact 0.0) and otherwise uniform on [0, pi).  The classes draw in the
    order of the mapping (twisted_coefficients and reduced_classes list
    them by integer class).  Deterministic in seed and that order.
    """
    rng = np.random.default_rng(seed)
    total = np.zeros(count)
    for w in map(complex, spectrum.values()):
        if abs(w.imag) > 1e-12 * (1 + abs(w)):
            raise ValueError("sampler needs a real twisted spectrum")
        atom = rng.random(count) < 0.5
        angles = rng.random(count) * math.pi
        total += np.where(atom, 0.0, 2.0 * w.real * np.cos(angles))
    return total


# -- Kolmogorov-Smirnov distances ---------------------------------------


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b| for two empirical CDFs (ties handled exactly)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_vs_law(values: np.ndarray, law: ScaledLimitLaw) -> float:
    """sup |F_n - F| against a CDF with one jump, using both one-sided
    limits so the atom is compared correctly: at each distinct value u, F(u)
    against the sample CDF and the left limit of F (F minus the atom at 0)
    against the sample CDF just below u."""
    uniq, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    cum = np.cumsum(counts) / len(values)
    cum_prev = cum - counts / len(values)
    at = law.cdf(uniq)
    left = at - np.where(uniq == 0.0, 0.5, 0.0)
    return float(max(np.abs(at - cum).max(initial=0.0), np.abs(left - cum_prev).max(initial=0.0)))


def snap_zeros(values: np.ndarray) -> np.ndarray:
    """Collapse numerical noise around the atom at 0 to exact zeros."""
    out = np.asarray(values, dtype=float).copy()
    out[np.abs(out) < SNAP_ZERO_TOL] = 0.0
    return out


@dataclass
class ComparisonReport:
    ks: float
    moments_left: list[float]
    winsorized_left: int


def _winsorized_moments(values: np.ndarray, bound: float | None) -> tuple[list[float], int]:
    v = np.asarray(values, dtype=float)
    clipped = 0
    if bound is not None:
        clipped = int(np.count_nonzero(np.abs(v) > bound))
        v = np.clip(v, -bound, bound)
    # running products v, v*v, v*v*v, ... in one buffer: no pow() per element
    moments, power = [], np.ones_like(v)
    for m in range(1, max(MOMENT_ORDERS) + 1):
        power *= v
        if m in MOMENT_ORDERS:
            moments.append(float(np.mean(power)))
    return moments, clipped


def compare_distribution(
    left: np.ndarray,
    right: np.ndarray | ScaledLimitLaw,
    winsor_bound: float | None = None,
) -> ComparisonReport:
    """KS distance between a sample (a 1-D float array) and a second sample
    or the scaled limit law, plus the moment table of the sample.

    Moments are winsorized at +-winsor_bound (exceptional values clipped,
    their count reported) so rare unbounded elements cannot dominate.  They
    sum the sample in ascending order, so a sample's moments do not depend
    on the order it comes in.
    """
    if len(left) == 0:
        raise EmptySetError("left sample is empty")
    lv = snap_zeros(np.sort(left))
    ml, wl = _winsorized_moments(lv, winsor_bound)
    if isinstance(right, ScaledLimitLaw):
        ks = ks_vs_law(lv, right)
    else:
        if len(right) == 0:
            raise EmptySetError("right sample is empty")
        ks = ks_two_sample(lv, snap_zeros(right))
    return ComparisonReport(ks, ml, wl)


# -- matrix-element pipelines -------------------------------------------


def reduced_classes(spectrum: dict[int, complex], pp: PrimePower) -> dict[int, complex]:
    """Check every class index is a unit mod p and reduce it mod N: the
    weights of the classes that meet mod N add up.  The classes keep the
    order of their smallest integer member."""
    out: dict[int, complex] = {}
    for nu, w in sorted(spectrum.items()):
        if nu % pp.p == 0:
            raise BadNuError(f"class nu = {nu} is divisible by p = {pp.p}")
        r = nu % pp.N
        out[r] = out.get(r, 0.0) + w
    return out


@dataclass
class MatrixElements:
    """<T(n) psi, psi> of the multiplicity-one eigenfunctions psi of a dense
    eigendecomposition, for a set of modes n."""

    group: HeckeGroup
    labels: np.ndarray  # cluster label per eigenfunction
    rows: dict[tuple[int, int], np.ndarray]  # mode n -> its element per eigenfunction
    n_excluded_multiplicity: int  # eigenfunctions in clusters of dimension > 1


def matrix_elements(decomp: EigenDecomposition, modes) -> MatrixElements:
    """The matrix elements of every distinct mode in one elementary_diagonals
    pass; higher-multiplicity clusters are excluded and counted.  A row
    does not depend on the other modes of the pass, so one pass serves the
    sample and the formula match alike."""
    modes = list(dict.fromkeys((int(n1), int(n2)) for n1, n2 in modes))
    items = decomp.multiplicity_one_items()
    labels = np.array([lab for lab, _ in items], dtype=np.int64)
    rows = elementary_diagonals(modes, decomp, [col for _, col in items])
    return MatrixElements(decomp.group, labels, dict(zip(modes, rows)), decomp.group.pp.N - len(items))


def normalized_elements(f: FourierObservable, elements: MatrixElements) -> np.ndarray:
    """The dense sample F_j = sqrt(N)(<Op(f) psi, psi> - fhat(0)) over the
    multiplicity-one eigenfunctions, aligned with elements.labels, from the
    elements of every mode of f."""
    if not f.is_real:
        raise ValueError("the statistics are defined for real observables")
    pp = elements.group.pp
    reduced_classes(twisted_coefficients(f, elements.group.A), pp)  # validates p does not divide any class
    # <Op(f) psi, psi> = sum_n fhat(n) <T(n) psi, psi>
    quad = np.zeros(len(elements.labels), dtype=np.complex128)
    for n, c in sorted(f.coeffs.items()):
        quad += complex(c) * elements.rows[n]
    # |<Op(f) psi, psi>| <= sum |fhat(n)|, so the tolerance scales with it
    if np.abs(quad.imag).max() > 1e-7 * max(1.0, sum(abs(complex(c)) for c in f.coeffs.values())):
        raise RuntimeError("Hermitian quadratic form came out complex")
    return math.sqrt(pp.N) * (quad.real - f.mean.real)


def _exp_sum_rows(group: HeckeGroup, nus: list[int]) -> np.ndarray:
    """E(nu, chi_j) for each of the distinct classes nus (rows, in their
    order) and every character j (columns), in closed form at k >= 2 (the
    values alone, checked as the expsum table is) and by brute force at
    k = 1.  The #C values of each nu are checked against the size cap
    first."""
    check_array_size(group.order * len(nus), f"closed-form sample at {group.pp}")
    if group.pp.k < 2:
        return np.stack([expsum.exp_sum_bruteforce(group, nu) for nu in nus])
    return expsum._closed_form(group, nus)[0]


def normalized_elements_closed(f: FourierObservable, group: HeckeGroup) -> np.ndarray:
    """Closed-form model of the F_j sample: one value per character,

        F_chi = sqrt(N)/#C * sum_nu f#(nu) E(nu/2, chi).

    This is the matrix-element formula with the unknown fixed character
    absorbed into the sweep and the global sign dropped (the law is
    symmetric).  The multiset differs from the true eigenfunction one by
    a density-O(1/p) set.  Returns the sample F, with F[j] the value of
    chi_j: the weights summed over the (class, character) rows of the
    sums, read in place.
    """
    if not f.is_real:
        raise ValueError("the statistics are defined for real observables")
    pp = group.pp
    spectrum = reduced_classes(twisted_coefficients(f, group.A), pp)
    inv2 = pow(2, -1, pp.N)
    nus = sorted(spectrum)
    # the classes are distinct mod N, and so are their halves
    rows = _exp_sum_rows(group, [nu * inv2 % pp.N for nu in nus])
    weights = np.array([complex(spectrum[nu]).real for nu in nus])
    return (math.sqrt(pp.N) / group.order) * (rows.real.T @ weights)


# -- matrix-element formula verification --------------------------------


@dataclass
class FormulaReport:
    sign: int
    shift: int  # the eigenfunction labelled j matches the character (j + shift) mod #C
    max_residual: float
    unique: bool  # exactly one (sign, shift) pair fits


def verify_matrix_element_formula(elements: MatrixElements, n_list: list[tuple[int, int]]) -> FormulaReport:
    """Match measured matrix elements, with a row for each mode of n_list,
    against the character-sum formula.

    The eigensolver labels characters up to one global twist, so every
    multiplicity-one eigenfunction psi, labelled j, must satisfy

        <T(n) psi, psi> = s (-1)^(n1 n2) E(Q(n)/2, chi_(j + c)) / #C

    on the whole n-list, for one sign s and one shift c per space.  The
    candidate pairs (s, c) come from the first eigenfunction whose element
    vector does not vanish: each character whose row fits it at sign s.
    Each candidate is then compared on every eigenfunction at once, the
    vanishing ones included.  Raises NoMatchError if no pair fits or if
    every element vector vanishes.
    """
    group = elements.group
    A, pp, order = group.A, group.pp, group.order
    inv2 = pow(2, -1, pp.N)
    qs = [quadratic_form(A, n) for n in n_list]
    for n, q in zip(n_list, qs):
        if q % pp.p == 0:
            raise BadNuError(f"Q({n}) = {q} is divisible by p")
    # the distinct halved classes, each evaluated once; column i of the model is mode n_list[i]
    halved, row = np.unique([q * inv2 % pp.N for q in qs], return_inverse=True)
    signs_n = np.array([-1.0 if (n[0] * n[1]) % 2 else 1.0 for n in n_list])
    model = _exp_sum_rows(group, halved.tolist()).real[row].T * signs_n / order

    labels = elements.labels
    # row i: <T(n) psi, psi> over n_list for the i-th multiplicity-one eigenfunction
    measured = np.array([elements.rows[int(n1), int(n2)] for n1, n2 in n_list]).T
    if np.abs(measured.imag).max() > FORMULA_TOL:
        raise NoMatchError("matrix elements are not real")
    measured = measured.real
    live = np.flatnonzero(np.abs(measured).max(axis=1) >= FORMULA_TOL)
    if not len(live):
        raise NoMatchError("every element vector vanishes on the n-list")
    first = live[0]
    candidates = [
        (s, int(j - labels[first]) % order)
        for s in (+1, -1)
        for j in np.flatnonzero(np.abs(s * model - measured[first]).max(axis=1) < FORMULA_TOL)
    ]
    resid = [float(np.abs(s * model[(labels + c) % order] - measured).max()) for s, c in candidates]
    fits = [(s, c, r) for (s, c), r in zip(candidates, resid) if r < FORMULA_TOL]
    if not fits:
        raise NoMatchError(f"none of the {len(candidates)} (sign, shift) pairs from cluster {labels[first]} fits")
    sign, shift, max_resid = fits[0]
    return FormulaReport(sign=sign, shift=shift, max_residual=max_resid, unique=len(fits) == 1)


# -- brute-force counting oracles ---------------------------------------


def square_density(nus: list[int], p: int, D: int) -> float:
    """(1/p) #{t mod p : (t - nu_j)/(D nu_j) is a nonzero square for all j}."""
    if len(set(nu % p for nu in nus)) != len(nus):
        raise ValueError("class values must be distinct mod p")
    count = 0
    invs = [pow(D * nu % p, -1, p) for nu in nus]
    for t in range(p):
        if all(legendre((t - nu) * inv, p) == 1 for nu, inv in zip(nus, invs)):
            count += 1
    return count / p


def _domain_units(p: int, l: int, D: int) -> list[int]:
    N = p**l
    return [x for x in range(1, N) if x % p != 0 and (D * x * x - 1) % p != 0]


def _fiber_map(p: int, l: int, D: int, nu: int) -> dict[int, list[int]]:
    N = p**l
    out: dict[int, list[int]] = {}
    for x in _domain_units(p, l, D):
        out.setdefault(nu * (D * x * x - 1) % N, []).append(x)
    return out


def count_y_tuples(p: int, l: int, nus: list[int], D: int) -> int:
    """#{(x_1..x_r) : all x_j unit, in the domain, and
    nu_1(D x_1^2 - 1) = nu_j(D x_j^2 - 1) mod p^l} by brute force."""
    N = p**l
    fibers = [_fiber_map(p, l, D, nu % N) for nu in nus[1:]]
    total = 0
    nu1 = nus[0] % N
    for x1 in _domain_units(p, l, D):
        v = nu1 * (D * x1 * x1 - 1) % N
        prod = 1
        for fm in fibers:
            prod *= len(fm.get(v, ()))
            if prod == 0:
                break
        total += prod
    return total


def count_y_tuples_with_relation(
    A: TorusAutomorphism, p: int, l: int, nus: list[int], ns: list[int]
) -> int:
    """Tuples counted by count_y_tuples that additionally satisfy
    prod_j beta(x_j)^(n_j) = 1 in the norm-one group mod p^l."""
    if len(ns) != len(nus):
        raise ValueError("need one integer exponent per class value")
    group = build_group(A, PrimePower(p, l))
    D = A.disc
    N = p**l
    units = _domain_units(p, l, D)
    dlog = dict(zip(units, group.cayley_dlogs(np.array(units, dtype=np.int64)).tolist()))
    fibers = [_fiber_map(p, l, D, nu % N) for nu in nus[1:]]
    nu1 = nus[0] % N
    total = 0
    for x1 in units:
        v = nu1 * (D * x1 * x1 - 1) % N
        pools = [fm.get(v, ()) for fm in fibers]
        if any(len(pool) == 0 for pool in pools):
            continue
        base = ns[0] * dlog[x1]
        for rest in product(*pools):
            acc = base + sum(n * dlog[x] for n, x in zip(ns[1:], rest))
            if acc % group.order == 0:
                total += 1
    return total


# -- character-sum table statistics ----------------------------------------


def vanished_fraction(table: expsum.ExpSumTable) -> float:
    """Fraction of vanishing sums among the good (class, character) pairs,
    read per residue: each stands for #C / T characters."""
    if not table.good.any():
        raise EmptySetError("no good characters in the table")
    return float(np.mean(table.vanished[table.good]))


def angle_moment(table: expsum.ExpSumTable, m: int) -> float:
    """Mean of (2 cos theta)^m over the good (class, character) pairs."""
    if not table.good.any():
        raise EmptySetError("no good characters in the table")
    good = np.tile(table.good, table.value.shape[1] // table.good.shape[1])
    return float(np.mean((2.0 * np.cos(expsum.theta_angle(table.pp, table.value.real[good]))) ** m))
