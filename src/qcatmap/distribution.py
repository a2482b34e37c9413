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
from .modarith import PrimePower, binomial, legendre
from .quantization import (
    FourierObservable,
    TorusAutomorphism,
    apply_elementary,
    inner_product,
    op_of_observable,
    row_action,
)

SNAP_ZERO_TOL = 1e-9


# -- quadratic form and twisted coefficients ---------------------------


def quadratic_form(A: TorusAutomorphism, n: tuple[int, int]) -> int:
    """Q(n) = w(nA, n) with w(m, n) = m1 n2 - m2 n1, over the integers."""
    m = row_action(n, A.mat())
    return m[0] * n[1] - m[1] * n[0]


def twisted_coefficients(f: FourierObservable, A: TorusAutomorphism) -> dict[int, complex]:
    """f#(nu) = sum over Q(n) = nu of (-1)^(n1 n2) fhat(n), nu != 0 only."""
    spectrum: dict[int, complex] = {}
    for n, c in sorted(f.coeffs.items()):
        if n == (0, 0):
            continue
        nu = quadratic_form(A, n)
        if nu == 0:
            continue
        sign = -1 if (n[0] * n[1]) % 2 else 1
        spectrum[nu] = spectrum.get(nu, 0.0) + sign * complex(c)
    return spectrum


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
    return Fraction(binomial(m, m // 2), 2)


def model_cdf(v: float) -> float:
    """P(2cos(theta) <= v): arccos part from the uniform half plus the
    1/2 atom at zero (right-continuous)."""
    u = min(1.0, max(-1.0, v / 2.0))
    base = 0.5 * (1.0 - math.acos(u) / math.pi)
    return base + (0.5 if v >= 0.0 else 0.0)


def model_cdf_left(v: float) -> float:
    """Left limit of model_cdf (differs only at the atom)."""
    u = min(1.0, max(-1.0, v / 2.0))
    base = 0.5 * (1.0 - math.acos(u) / math.pi)
    return base + (0.5 if v > 0.0 else 0.0)


@dataclass(frozen=True)
class ScaledLimitLaw:
    """CDF of c * 2cos(theta) under the limit law (c != 0; symmetric in c)."""

    scale: float

    def cdf(self, v: float) -> float:
        return model_cdf(v / abs(self.scale))

    def cdf_left(self, v: float) -> float:
        return model_cdf_left(v / abs(self.scale))

    def moment(self, m: int) -> float:
        return abs(self.scale) ** m * float(model_moment(m))


# -- empirical sets ----------------------------------------------------


@dataclass
class EmpiricalSet:
    """Sorted sample of real values with a provenance tag."""

    values: np.ndarray
    provenance: str

    def __post_init__(self):
        self.values = np.sort(np.asarray(self.values, dtype=float))

    def __len__(self):
        return len(self.values)


def sample_limit_variable(spectrum: dict[int, complex], seed: int, count: int) -> EmpiricalSet:
    """count independent draws of Y_f = 2 sum f#(nu) cos(theta_nu).

    Each theta_nu is the atom pi/2 with probability 1/2 (contributing an
    exact 0.0) and otherwise uniform on [0, pi).  Deterministic in seed.
    """
    rng = np.random.default_rng(seed)
    total = np.zeros(count)
    for nu in sorted(spectrum):
        w = complex(spectrum[nu])
        if abs(w.imag) > 1e-12 * (1 + abs(w)):
            raise ValueError("sampler needs a real twisted spectrum")
        atom = rng.random(count) < 0.5
        angles = rng.random(count) * math.pi
        total += np.where(atom, 0.0, 2.0 * w.real * np.cos(angles))
    return EmpiricalSet(total, "sampler")


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
    limits so the atom is compared correctly."""
    values = np.sort(np.asarray(values, dtype=float))
    n = len(values)
    uniq, counts = np.unique(values, return_counts=True)
    cum = np.cumsum(counts) / n
    cum_prev = cum - counts / n
    d = 0.0
    for u, hi, lo in zip(uniq, cum, cum_prev):
        d = max(d, abs(law.cdf(float(u)) - hi), abs(law.cdf_left(float(u)) - lo))
    return d


def snap_zeros(values: np.ndarray, tol: float = SNAP_ZERO_TOL) -> np.ndarray:
    """Collapse numerical noise around the atom at 0 to exact zeros."""
    out = np.asarray(values, dtype=float).copy()
    out[np.abs(out) < tol] = 0.0
    return out


@dataclass
class ComparisonReport:
    ks: float
    moments_left: list[float]
    moments_right: list[float]
    winsorized_left: int
    winsorized_right: int


def _winsorized_moments(values: np.ndarray, bound: float | None, orders) -> tuple[list[float], int]:
    v = np.asarray(values, dtype=float)
    clipped = 0
    if bound is not None:
        clipped = int(np.count_nonzero(np.abs(v) > bound))
        v = np.clip(v, -bound, bound)
    return [float(np.mean(v**m)) for m in orders], clipped


def compare_distribution(
    left: EmpiricalSet,
    right: EmpiricalSet | ScaledLimitLaw,
    winsor_bound: float | None = None,
    snap_tol: float = SNAP_ZERO_TOL,
    moment_orders=range(1, 7),
) -> ComparisonReport:
    """KS distance plus moment tables between a sample and a second sample
    or the scaled limit law.

    Moments are winsorized at +-winsor_bound (exceptional values clipped,
    their count reported) so rare unbounded elements cannot dominate.
    """
    if len(left) == 0:
        raise EmptySetError("left sample is empty")
    lv = snap_zeros(left.values, snap_tol)
    ml, wl = _winsorized_moments(lv, winsor_bound, moment_orders)
    if isinstance(right, ScaledLimitLaw):
        ks = ks_vs_law(lv, right)
        mr, wr = [right.moment(m) for m in moment_orders], 0
    else:
        if len(right) == 0:
            raise EmptySetError("right sample is empty")
        rv = snap_zeros(right.values, snap_tol)
        ks = ks_two_sample(lv, rv)
        mr, wr = _winsorized_moments(rv, winsor_bound, moment_orders)
    return ComparisonReport(ks, ml, mr, wl, wr)


# -- matrix-element pipelines -------------------------------------------


def _reduced_classes(spectrum: dict[int, complex], pp: PrimePower) -> dict[int, complex]:
    """Check every class index is a unit mod p and reduce it mod N."""
    out: dict[int, complex] = {}
    for nu, w in sorted(spectrum.items()):
        if nu % pp.p == 0:
            raise BadNuError(f"class nu = {nu} is divisible by p = {pp.p}")
        r = nu % pp.N
        out[r] = out.get(r, 0.0) + w
    return out


@dataclass
class NormalizedElements:
    """F_j values of the multiplicity-one eigenfunctions (dense pipeline)."""

    empirical: EmpiricalSet
    values: np.ndarray  # aligned with labels
    labels: np.ndarray  # cluster label per value
    n_excluded_multiplicity: int


def normalized_elements(f: FourierObservable, decomp: EigenDecomposition) -> NormalizedElements:
    """sqrt(N)(<Op(f) psi, psi> - fhat(0)) over multiplicity-one
    eigenfunctions; higher-multiplicity clusters are excluded and counted."""
    if not f.is_real:
        raise ValueError("the statistics are defined for real observables")
    pp = decomp.group.pp
    _reduced_classes(twisted_coefficients(f, decomp.group.A), pp)  # validates p does not divide any class
    items = decomp.multiplicity_one_items()
    op = op_of_observable(f, pp).entries
    labels = np.array([lab for lab, _ in items], dtype=np.int64)
    cols = np.array([col for _, col in items], dtype=np.int64)
    V = decomp.vectors[:, cols]
    quad = np.einsum("ij,ij->j", V.conj(), op @ V)
    if np.abs(quad.imag).max() > 1e-7:
        raise RuntimeError("Hermitian quadratic form came out complex")
    vals = math.sqrt(pp.N) * (quad.real - f.mean.real)
    return NormalizedElements(
        EmpiricalSet(vals, "eigenfunctions"),
        vals,
        labels,
        pp.N - len(items),
    )


def _exp_sum_table(group: HeckeGroup, nus: list[int]) -> np.ndarray:
    """E(nu, chi_j) for all characters j (rows) and the given nus (cols),
    in closed form at k >= 2 and by brute force at k = 1.

    Duplicate nus are evaluated once and broadcast to their columns.
    """
    order, N = group.order, group.pp.N
    uniq = sorted({int(nu) % N for nu in nus})
    if group.pp.k >= 2:
        out = expsum.scan_characters(group, uniq).value.reshape(order, len(uniq))
    else:
        out = np.array(
            [[expsum.exp_sum_bruteforce(nu, group.character(j)) for nu in uniq] for j in range(order)]
        )
    col = {nu: i for i, nu in enumerate(uniq)}
    return out[:, [col[int(nu) % N] for nu in nus]]


def normalized_elements_closed(f: FourierObservable, group: HeckeGroup) -> tuple[EmpiricalSet, int | None]:
    """Closed-form model of the F_j sample: one value per character,

        F_chi = sqrt(N)/#C * sum_nu f#(nu) E(nu/2, chi).

    This is the matrix-element formula with the unknown fixed character
    absorbed into the sweep and the global sign dropped (the law is
    symmetric).  The multiset differs from the true eigenfunction one by
    a density-O(1/p) set.  Returns the sample and the count of characters
    that are bad for at least one class (None at k = 1).
    """
    if not f.is_real:
        raise ValueError("the statistics are defined for real observables")
    pp = group.pp
    spectrum = _reduced_classes(twisted_coefficients(f, group.A), pp)
    inv2 = pow(2, -1, pp.N)
    nus = sorted(spectrum)
    halved = [nu * inv2 % pp.N for nu in nus]
    table = _exp_sum_table(group, halved)
    weights = np.array([complex(spectrum[nu]).real for nu in nus])
    vals = (math.sqrt(pp.N) / group.order) * (table.real @ weights)
    return EmpiricalSet(vals, "characters"), expsum.bad_character_count(group, halved)


# -- matrix-element formula verification --------------------------------


@dataclass
class FormulaMatch:
    label: int
    chi_index: int | None  # None when the element vector vanishes
    sign: int | None
    residual: float


@dataclass
class FormulaReport:
    matches: list[FormulaMatch]
    sign: int
    n_degenerate: int
    matched_unique: bool  # every eigenfunction pinned one character exactly
    max_residual: float
    # uniqueness after merging characters whose model rows coincide on the
    # whole n-list (such characters are indistinguishable by the data)
    unique_up_to_ties: bool = True
    sign_ambiguous: bool = False


def verify_matrix_element_formula(
    decomp: EigenDecomposition, n_list: list[tuple[int, int]], tol: float = 1e-7
) -> FormulaReport:
    """Match measured matrix elements against the character-sum formula.

    For every multiplicity-one eigenfunction psi the measured vector
    (<T(n) psi, psi>)_n must equal s * (-1)^(n1 n2) E(Q(n)/2, chi')/#C
    for a character chi' and a sign s common to all eigenfunctions.
    Uniqueness of chi' is asserted at two levels: strict (exactly one
    character index), and up to ties, where several characters whose model
    rows agree on the entire n-list count as one match (no finite n-list
    can separate them; each tied class may absorb at most its own size in
    eigenfunctions).  Eigenfunctions whose element vector vanishes on the
    whole n-list match any character with a vanishing row; they are
    counted separately and impose no uniqueness constraint.
    """
    group = decomp.group
    A, pp = group.A, group.pp
    inv2 = pow(2, -1, pp.N)
    qs = [quadratic_form(A, n) for n in n_list]
    for n, q in zip(n_list, qs):
        if q % pp.p == 0:
            raise BadNuError(f"Q({n}) = {q} is divisible by p")
    halved = [q * inv2 % pp.N for q in qs]
    signs_n = np.array([-1.0 if (n[0] * n[1]) % 2 else 1.0 for n in n_list])
    model = _exp_sum_table(group, halved).real * signs_n[None, :] / group.order

    zero_rows = int(np.count_nonzero(np.all(np.abs(model) < tol, axis=1)))
    live: list[tuple[int, dict[int, list[tuple[int, float]]]]] = []
    degenerate: list[FormulaMatch] = []
    for label, col in decomp.multiplicity_one_items():
        psi = decomp.state(col)
        measured = np.array([inner_product(apply_elementary(n, psi), psi) for n in n_list])
        if np.abs(measured.imag).max() > tol:
            raise NoMatchError(f"matrix elements of cluster {label} are not real")
        meas = measured.real
        if np.abs(meas).max() < tol:
            # the whole element vector vanishes: consistent with (and only
            # with) the vanishing character rows, no sign information
            if zero_rows == 0:
                raise NoMatchError("vanishing element vector but no vanishing character row")
            degenerate.append(FormulaMatch(label, None, None, float(np.abs(meas).max())))
            continue
        resid_plus = np.abs(model - meas[None, :]).max(axis=1)
        resid_minus = np.abs(model + meas[None, :]).max(axis=1)
        hits = {
            +1: [(int(j), float(resid_plus[j])) for j in np.nonzero(resid_plus < tol)[0]],
            -1: [(int(j), float(resid_minus[j])) for j in np.nonzero(resid_minus < tol)[0]],
        }
        if not hits[+1] and not hits[-1]:
            best = min(float(resid_plus.min()), float(resid_minus.min()))
            raise NoMatchError(f"cluster {label}: best residual {best:.3e} > {tol}")
        live.append((label, hits))

    # the sign is a property of (p, k): one sign must cover every
    # eigenfunction (an individual psi may also collide with some other
    # character at the opposite sign, which carries no information)
    covering = [s for s in (+1, -1) if all(hits[s] for _, hits in live)]
    if not covering:
        raise NoMatchError("no single sign covers all eigenfunctions")
    sign = covering[0]
    matches: list[FormulaMatch] = list(degenerate)
    strict_unique = True
    tie_unique = True
    max_resid = 0.0
    hit_set_of: dict[int, frozenset[int]] = {}
    class_uses: dict[frozenset[int], int] = {}
    for label, hits in live:
        chosen = hits[sign]
        js = frozenset(j for j, _ in chosen)
        if len(js) > 1:
            strict_unique = False
            # a multiple hit is benign only when the colliding characters
            # have identical model rows on the whole n-list
            base = model[min(js)]
            if any(float(np.abs(model[j] - base).max()) > 2 * tol for j in js):
                tie_unique = False
        for j in js:
            if hit_set_of.setdefault(j, js) != js:
                tie_unique = False
        class_uses[js] = class_uses.get(js, 0) + 1
        j, resid = min(chosen)
        max_resid = max(max_resid, resid)
        matches.append(FormulaMatch(label, j, sign, resid))
    if any(uses > len(js) for js, uses in class_uses.items()):
        tie_unique = False
    matches.sort(key=lambda m: m.label)
    return FormulaReport(
        matches=matches,
        sign=sign,
        n_degenerate=len(degenerate),
        matched_unique=strict_unique,
        unique_up_to_ties=tie_unique,
        max_residual=max_resid,
        sign_ambiguous=len(covering) > 1,
    )


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
    dlog = {x: group.dlog(group.ring.cayley_transform(x)) for x in _domain_units(p, l, D)}
    fibers = [_fiber_map(p, l, D, nu % N) for nu in nus[1:]]
    nu1 = nus[0] % N
    total = 0
    for x1 in _domain_units(p, l, D):
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
    """Fraction of vanishing sums among the good-character rows."""
    if not table.good.any():
        raise EmptySetError("no good characters in the table")
    return float(np.mean(table.vanished[table.good]))


def angle_moment(table: expsum.ExpSumTable, m: int) -> float:
    """Mean of (2 cos theta)^m over the good-character rows."""
    if not table.good.any():
        raise EmptySetError("no good characters in the table")
    return float(np.mean((2.0 * np.cos(table.theta[table.good])) ** m))
