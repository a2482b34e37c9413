import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcatmap.errors import BadNuError, BoundExceededError, EmptySetError, NoMatchError
from qcatmap.modarith import PrimePower, valuation
from qcatmap.quantization import (
    BLOCK_BYTES,
    DENSE_CAP_DEFAULT,
    FourierObservable,
    TorusAutomorphism,
    elementary_diagonals,
)
from qcatmap.hecke import build_group, eigendecompose
from qcatmap import cli, expsum
from qcatmap.distribution import (
    FORMULA_TOL,
    MOMENT_ORDERS,
    _exp_sum_rows,
    _winsorized_moments,
    ScaledLimitLaw,
    angle_moment,
    compare_distribution,
    count_y_tuples,
    count_y_tuples_with_relation,
    ks_two_sample,
    ks_vs_law,
    matrix_elements,
    model_cdf,
    model_moment,
    normalized_elements,
    normalized_elements_closed,
    quadratic_form,
    reduced_classes,
    sample_limit_variable,
    square_density,
    twisted_coefficients,
    vanished_fraction,
    verify_matrix_element_formula,
)

from conftest import HYPERBOLIC, by_character, decompose


# -- quadratic form and twisted spectrum --------------------------------


def test_quadratic_form(cat_map):
    assert quadratic_form(cat_map, (0, 0)) == 0
    # nA = (2, 1) for n = (1, 0): w((2,1),(1,0)) = -1
    assert quadratic_form(cat_map, (1, 0)) == -1
    rng = np.random.default_rng(2)
    M = cat_map.mat()
    for _ in range(50):
        n = tuple(int(v) for v in rng.integers(-20, 20, size=2))
        nA = (n[0] * M[0][0] + n[1] * M[1][0], n[0] * M[0][1] + n[1] * M[1][1])
        assert quadratic_form(cat_map, nA) == quadratic_form(cat_map, n)


def test_twisted_coefficients(cat_map):
    assert twisted_coefficients(FourierObservable({(0, 0): 1.0}), cat_map) == {}
    # both +-n land in the same class; n1 n2 even keeps the sign
    f = FourierObservable.harmonic_pair((1, 0))
    spec = twisted_coefficients(f, cat_map)
    assert set(spec) == {-1}
    assert spec[-1] == pytest.approx(1.0)
    # odd n1 n2 flips the sign
    g = FourierObservable.harmonic_pair((1, 1))
    spec = twisted_coefficients(g, cat_map)
    assert spec[quadratic_form(cat_map, (1, 1))] == pytest.approx(-1.0)
    # real observables give real twisted coefficients
    h = FourierObservable({(1, 2): 0.3 + 0.4j, (-1, -2): 0.3 - 0.4j})
    for v in twisted_coefficients(h, cat_map).values():
        assert abs(complex(v).imag) < 1e-12


# -- the limit law -------------------------------------------------------


def _quadrature_moment(m, nodes=200_001):
    # independent oracle: atom at pi/2 plus midpoint rule on the density
    theta = (np.arange(nodes) + 0.5) * math.pi / nodes
    return 0.5 * (2 * math.cos(math.pi / 2)) ** m + 0.5 * np.mean((2 * np.cos(theta)) ** m)


def test_model_moment_values():
    assert model_moment(1) == 0
    assert model_moment(2) == 1
    assert model_moment(4) == 3
    assert model_moment(0) == 1
    assert model_moment(6) == Fraction(10)


@pytest.mark.parametrize("m", range(0, 9))
def test_model_moment_against_quadrature(m):
    assert float(model_moment(m)) == pytest.approx(_quadrature_moment(m), abs=1e-6)


def test_model_cdf_endpoints_and_atom():
    assert model_cdf(-2.0) == pytest.approx(0.0)
    assert model_cdf(2.0) == pytest.approx(1.0)
    # the left limit at the atom is the CDF minus 1/2
    assert model_cdf(0.0) - model_cdf(np.nextafter(0.0, -1.0)) == pytest.approx(0.5)
    # arrays map elementwise
    assert np.allclose(model_cdf(np.array([[-3.0, -2.0, 0.0], [2.0, 3.0, 0.5]])), [[0, 0, 0.75], [1, 1, model_cdf(0.5)]])


def test_model_cdf_against_quadrature():
    nodes = 200_001
    theta = (np.arange(nodes) + 0.5) * math.pi / nodes
    vals = 2 * np.cos(theta)
    for v in np.linspace(-2, 2, 41):
        est = 0.5 * (0.0 <= v) + 0.5 * np.mean(vals <= v)
        assert model_cdf(float(v)) == pytest.approx(float(est), abs=1e-4)


def test_sampler_determinism_and_atom():
    spec = {1: 1.0}
    a = sample_limit_variable(spec, seed=5, count=2000)
    b = sample_limit_variable(spec, seed=5, count=2000)
    assert np.array_equal(a, b)
    atom = np.mean(a == 0.0)
    assert abs(atom - 0.5) < 0.05


def test_sampler_moments():
    # mean ~ 0; Var(2 f# cos) = (f#)^2 E[(2cos)^2] = (f#)^2, taken from the
    # quadrature oracle rather than any remembered constant
    spec = {1: 1.5}
    sample = sample_limit_variable(spec, seed=11, count=1_000_000)
    assert abs(sample.mean()) < 0.01 * 2 * 1.5
    var_expected = 1.5**2 * _quadrature_moment(2)
    assert var_expected == pytest.approx(1.5**2 * float(model_moment(2)), rel=1e-6)
    assert sample.var() == pytest.approx(var_expected, rel=0.01)


def test_sampler_empty_spectrum_is_degenerate():
    sample = sample_limit_variable({}, seed=1, count=100)
    assert np.all(sample == 0.0)


# -- KS machinery --------------------------------------------------------


def test_ks_two_sample_basics():
    assert ks_two_sample(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0
    assert ks_two_sample(np.array([0.0]), np.array([1.0])) == 1.0
    # half mass shifted by one: D = 1/2
    assert ks_two_sample(np.array([0.0, 1.0]), np.array([0.0, 2.0])) == pytest.approx(0.5)


def test_ks_vs_law_handles_the_atom():
    # Y = 2 * 0.5 * cos has the law of scale c = 0.5 (values c * 2cos)
    law = ScaledLimitLaw(0.5)
    sample = sample_limit_variable({1: 0.5}, seed=3, count=40_000)
    assert ks_vs_law(sample, law) < 0.02
    # a sample with noisy zeros must be snapped first, or the atom drifts
    noisy = sample + np.where(sample == 0.0, -1e-13, 0.0)
    rep = compare_distribution(noisy, law)
    assert rep.ks < 0.02


def ks_vs_law_loop(values: np.ndarray, scale: float) -> float:
    """sup |F_n - F| against the law of scale * 2cos(theta), one distinct
    value at a time, with the CDF and its left limit evaluated in scalar
    math: the oracle of the vectorized ks_vs_law."""

    def cdf(v: float, atom_at_zero: bool) -> float:
        x = v / abs(scale)
        base = 0.5 * (1.0 - math.acos(min(1.0, max(-1.0, x / 2.0))) / math.pi)
        return base + (0.5 if (x >= 0.0 if atom_at_zero else x > 0.0) else 0.0)

    values = np.sort(np.asarray(values, dtype=float))
    uniq, counts = np.unique(values, return_counts=True)
    cum = np.cumsum(counts) / len(values)
    cum_prev = cum - counts / len(values)
    d = 0.0
    for u, hi, lo in zip(uniq, cum, cum_prev):
        d = max(d, abs(cdf(float(u), True) - hi), abs(cdf(float(u), False) - lo))
    return d


@pytest.mark.parametrize("scale", [0.7, -1.3, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ks_vs_law_equals_loop_oracle(scale, seed):
    """Bit for bit, on unsorted samples with an atom at 0 (and -0.0), ties,
    the endpoints +-2|scale| and values beyond them."""
    rng = np.random.default_rng(seed)
    c = abs(scale)
    smooth = 2 * c * np.cos(rng.random(500) * math.pi)
    values = np.concatenate(
        [smooth, smooth[:50], np.zeros(300), [-0.0], [2 * c, -2 * c, 3 * c, -5 * c, 2 * c * (1 + 1e-12)], rng.normal(0, 3 * c, 40)]
    )
    rng.shuffle(values)
    assert ks_vs_law(values, ScaledLimitLaw(scale)) == ks_vs_law_loop(values, scale)
    no_atom = values[values != 0.0]
    assert ks_vs_law(no_atom, ScaledLimitLaw(scale)) == ks_vs_law_loop(no_atom, scale)


def test_compare_distribution_identical_and_empty():
    vals = np.linspace(-1, 1, 101)
    rep = compare_distribution(vals, vals[::-1].copy())
    assert rep.ks == 0.0
    with pytest.raises(EmptySetError):
        compare_distribution(np.array([]), vals)


def test_compare_distribution_winsorizes():
    vals = np.array([0.0] * 98 + [50.0, -50.0])
    rep = compare_distribution(vals, vals.copy(), winsor_bound=10.0)
    assert rep.winsorized_left == 2
    assert rep.moments_left[1] == pytest.approx(2 * 100 / 100.0)


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


# zeros of both signs, negatives, and values on and beyond the winsor bound 4
MOMENT_VALUES = st.sampled_from([0.0, -0.0, 4.0, -4.0, 5.5, -1e3]) | st.floats(-1e3, 1e3)


@settings(max_examples=200)
@given(st.lists(MOMENT_VALUES, min_size=1, max_size=300), st.sampled_from([None, 4.0]))
@example([0.0, -0.0, -3.0, 4.0, 7.5, -1e3], 4.0)
def test_property_winsorized_moments_equal_powers(values, bound):
    """The running products against np.mean(v**m) on the sorted sample:
    bit for bit at m = 1, 2, within 8 eps mean(|v|^m) above."""
    v = np.sort(np.array(values))
    moments, clipped = _winsorized_moments(v, bound)
    w = v if bound is None else np.clip(v, -bound, bound)
    assert clipped == (0 if bound is None else int(np.count_nonzero(np.abs(v) > bound)))
    assert len(moments) == len(MOMENT_ORDERS)
    for m, got in zip(MOMENT_ORDERS, moments):
        want = float(np.mean(w**m))
        if m <= 2:
            assert float_bits(got) == float_bits(want), (m, got, want)
        else:
            assert abs(got - want) <= 8 * np.finfo(float).eps * float(np.mean(np.abs(w) ** m)), (m, got, want)


# -- dense pipeline ------------------------------------------------------


def test_normalized_elements_constant_observable(cat_map):
    f = FourierObservable({(0, 0): 2.5})
    out = normalized_elements(f, matrix_elements(decompose(cat_map, 3, 2), f.coeffs))
    assert np.abs(out).max() < 1e-9


def test_normalized_elements_real_and_slow_decay_scale(cat_map):
    # p = 3, k = 3: the N^(-1/3)-scale element exists: max |F_j| >= sqrt(N)/(p+1)
    pp = PrimePower(3, 3)
    f = FourierObservable.harmonic_pair((1, 0))
    out = normalized_elements(f, matrix_elements(eigendecompose(build_group(cat_map, pp)), f.coeffs))
    assert out.dtype == float
    assert np.abs(out).max() >= math.sqrt(pp.N) / 4 * (1 - 1e-9)


def test_normalized_elements_scale_with_the_observable(cat_map):
    """cos 2 pi x1 + cos 2 pi x2 + cos 2 pi (x1 + 2 x2) times s = 1e10 gives
    s times the sample: the realness tolerance scales with sum |fhat(n)|."""
    f = FourierObservable({m: 0.5 for n in ((1, 0), (0, 1), (1, 2)) for m in (n, (-n[0], -n[1]))})
    s = 1e10
    elements = matrix_elements(decompose(cat_map, 11, 2), f.coeffs)
    want = s * normalized_elements(f, elements)
    got = normalized_elements(FourierObservable({n: s * c for n, c in f.coeffs.items()}), elements)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_normalized_elements_rejects_divisible_class(cat_map):
    decomp = decompose(cat_map, 3, 2)
    f = FourierObservable.harmonic_pair((1, 2))  # Q = 5 ... fine at 3? 5 % 3 != 0
    normalized_elements(f, matrix_elements(decomp, f.coeffs))
    g = FourierObservable.harmonic_pair((0, 3))  # Q(0,3) = 9, divisible by 3
    with pytest.raises(BadNuError):
        normalized_elements(g, matrix_elements(decomp, g.coeffs))


def test_bad_character_exceptional_bound(cat_map):
    # elements above the good-character ceiling are at most the bad count
    for p, k in [(7, 2), (11, 2), (13, 2)]:
        pp = PrimePower(p, k)
        group = build_group(cat_map, pp)
        f = FourierObservable.harmonic_pair((1, 0))
        out = normalized_elements(f, matrix_elements(eigendecompose(group), f.coeffs))
        total = sum(abs(w) for w in twisted_coefficients(f, cat_map).values())
        ceiling = 2 * total * (1 + p**-0.5) * math.sqrt(pp.N) * p ** (k / 2) / group.order
        n_exceed = int(np.sum(np.abs(out) > ceiling))
        n_bad = p ** (k - 2) * (group.order // p ** (k - 1))
        assert n_exceed <= n_bad


# -- formula verification and pipeline coherence --------------------------


MODES = [(1, 0), (0, 1), (1, 2), (1, 4), (1, 5), (2, 7)]


def test_formula_brute_force_anchor_k1(cat_map):
    rep = verify_matrix_element_formula(matrix_elements(decompose(cat_map, 3, 1), MODES), MODES)
    assert rep.unique
    assert rep.sign == -1  # inert, odd k


def test_formula_requires_unit_classes(cat_map):
    with pytest.raises(BadNuError):
        verify_matrix_element_formula(matrix_elements(decompose(cat_map, 3, 2), [(0, 3)]), [(0, 3)])


def test_formula_sign_pattern(cat_map):
    # sign +1 except inert with odd k
    for p, k in [(3, 2), (3, 3), (11, 2), (11, 3)]:
        rep = verify_matrix_element_formula(matrix_elements(decompose(cat_map, p, k), MODES), MODES)
        assert rep.unique
        inert = p in (3, 7, 13)
        assert rep.sign == (-1 if inert and k % 2 else 1)


def traced_dense_peaks(A: TorusAutomorphism, p: int, kind: str) -> tuple[int, int, int]:
    """tracemalloc peaks at p^2 (of that kind), which see every numpy
    allocation: of eigendecompose, and of the one matrix-element pass that
    normalized_elements and the formula check read, as distribution runs
    them; and the bytes of one folded orbit, #C x (N+1)/2 complex."""
    group = build_group(A, PrimePower(p, 2))
    assert group.kind == kind
    modes = [n for n in MODES if quadratic_form(A, n) % p]
    tracemalloc.start()
    try:
        decomp = eigendecompose(group)
        eig_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f = FourierObservable({(1, 0): 0.5, (-1, 0): 0.5, (1, 2): 0.25, (-1, -2): 0.25})
        elements = matrix_elements(decomp, [*f.coeffs, *modes])
        normalized_elements(f, elements)
        verify_matrix_element_formula(elements, modes)
        elements_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return eig_peak, elements_peak, group.order * ((group.pp.N + 1) // 2) * 16


def test_dense_pipeline_memory_footprint(cat_map):
    """At the inert 37^2 the orbit eigensolver keeps its folded basis in the
    first folded orbit.  Beyond that orbit, and in the matrix elements, only
    column blocks of at most BLOCK_BYTES are held, whatever N."""
    eig_peak, elements_peak, orbit_bytes = traced_dense_peaks(cat_map, 37, "inert")
    assert eig_peak < orbit_bytes + 8 * BLOCK_BYTES
    assert elements_peak < 8 * BLOCK_BYTES


def test_split_dense_pipeline_memory_footprint(cat_map):
    """At the split 29^2 a second folded orbit, and then the stacked folded
    basis, come on top of the first folded orbit: two folded orbits is the
    eigensolver's floor, and only column blocks of at most BLOCK_BYTES are
    held beyond it."""
    eig_peak, elements_peak, orbit_bytes = traced_dense_peaks(cat_map, 29, "split")
    assert eig_peak < 2 * orbit_bytes + 8 * BLOCK_BYTES
    assert elements_peak < 8 * BLOCK_BYTES


@pytest.mark.parametrize("p,kind", [(37, "inert"), (29, "split")])
def test_one_pass_equals_separate_passes(cat_map, p, kind):
    """The pass that distribution runs, over the observable's modes and the
    default ones together, gives normalized_elements and the formula match
    bit for bit what a pass of each one's own modes gives."""
    decomp = decompose(cat_map, p, 2)
    assert decomp.group.kind == kind
    modes = cli._usable_modes(cat_map, p)
    f = FourierObservable({(1, 0): 0.5, (-1, 0): 0.5, (2, 3): -0.3, (-2, -3): -0.3, (1, 2): 0.2, (-1, -2): 0.2})
    fused = matrix_elements(decomp, [*f.coeffs, *modes])
    alone = normalized_elements(f, matrix_elements(decomp, f.coeffs))
    together = normalized_elements(f, fused)
    assert np.array_equal(together, alone)
    rep = verify_matrix_element_formula(fused, modes)
    assert rep == verify_matrix_element_formula(matrix_elements(decomp, modes), modes)
    assert rep.unique


def matched_characters(decomp, sign: int) -> dict[int, set[int] | None]:
    """Label -> the characters j whose model rows sign * (-1)^(n1 n2)
    E(Q(n)/2, chi_j) / #C over MODES lie within FORMULA_TOL of the measured
    <T(n) psi, psi> of that multiplicity-one eigenfunction (more than one
    where rows tie on MODES); None when the measured vector vanishes.  The
    all-pairs oracle of the one-shift match, on brute-force sums."""
    group = decomp.group
    N, order = group.pp.N, group.order
    model = np.column_stack(
        [
            (-1) ** (n[0] * n[1] % 2)
            * expsum.exp_sum_bruteforce(group, quadratic_form(group.A, n) * pow(2, -1, N) % N).real
            for n in MODES
        ]
    ) * (sign / order)
    items = decomp.multiplicity_one_items()
    measured = elementary_diagonals(MODES, decomp, [col for _, col in items]).real.T
    out: dict[int, set[int] | None] = {}
    for (label, _), meas in zip(items, measured):
        fits = set(np.flatnonzero(np.abs(model - meas[None, :]).max(axis=1) < FORMULA_TOL).tolist())
        assert fits
        out[label] = None if np.abs(meas).max() < FORMULA_TOL else fits
    return out


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (7, 2), (11, 1), (11, 2), (11, 3)])
def test_one_shift_equals_all_pairs_match(cat_map, p, k):
    """Every eigenfunction whose elements do not vanish matches, over all
    characters, the one its label plus the global shift names, and only it
    unless another character's row ties with it on MODES."""
    decomp = decompose(cat_map, p, k)
    order = decomp.group.order
    rep = verify_matrix_element_formula(matrix_elements(decomp, MODES), MODES)
    assert rep.unique
    matched = {label: js for label, js in matched_characters(decomp, rep.sign).items() if js is not None}
    assert len(matched) > 0.5 * len(decomp.multiplicity_one_items())
    assert all((label + rep.shift) % order in js for label, js in matched.items())
    assert sum(len(js) == 1 for js in matched.values()) > 0.8 * len(matched)


@pytest.mark.parametrize("p,k", [(7, 2), (11, 2), (3, 3)])
def test_swapped_labels_match_no_shift(cat_map, p, k):
    """Two eigenfunctions with distinct element vectors trade labels: a
    per-eigenfunction search still finds a character for each, but no one
    global shift fits them all."""
    decomp = decompose(cat_map, p, k)
    items = decomp.multiplicity_one_items()
    measured = elementary_diagonals(MODES, decomp, [col for _, col in items]).real.T
    live = np.flatnonzero(np.abs(measured).max(axis=1) >= FORMULA_TOL)
    a = live[0]
    b = next(i for i in live[1:] if np.abs(measured[i] - measured[a]).max() > 1e-3)
    labels = decomp.labels.copy()
    (la, ca), (lb, cb) = items[a], items[b]
    labels[ca], labels[cb] = lb, la
    with pytest.raises(NoMatchError):
        verify_matrix_element_formula(matrix_elements(dataclasses.replace(decomp, labels=labels), MODES), MODES)


def test_pipeline_coherence_dense_vs_closed_form(cat_map):
    """F_j from dense eigenfunctions equals the character-sum prediction
    through the matched character (label + shift), value by value."""
    for p in (7, 11):
        pp = PrimePower(p, 2)
        group = build_group(cat_map, pp)
        n0 = (1, 0)
        f = FourierObservable.harmonic_pair(n0)
        decomp = eigendecompose(group)
        elements = matrix_elements(decomp, [*f.coeffs, *MODES])
        out = normalized_elements(f, elements)
        rep = verify_matrix_element_formula(elements, MODES)
        nu = quadratic_form(cat_map, n0)
        spec = twisted_coefficients(f, cat_map)[nu]
        half = nu * pow(2, -1, pp.N) % pp.N
        closed = expsum.exp_sum_closed(group, half, (elements.labels + rep.shift) % group.order)
        model = rep.sign * spec.real * math.sqrt(pp.N) / group.order * closed.real
        assert np.abs(out - model).max() < 1e-6


SMALL_SPACES = [(p, k) for p in (3, 5, 7, 11, 13, 17, 19) for k in range(1, 6) if p**k <= 400]


@given(st.sampled_from(HYPERBOLIC), st.sampled_from(SMALL_SPACES))
def test_property_one_shift_match_random_matrix(mat, space):
    """One (sign, shift) pair fits at every unramified p^k <= 400, and the
    sign is -1 exactly at inert primes with odd k."""
    A, (p, k) = TorusAutomorphism(*mat), space
    assume(A.disc % p != 0)
    modes = [n for n in MODES if quadratic_form(A, n) % p != 0]
    assume(len({quadratic_form(A, n) for n in modes}) >= 4)
    decomp = decompose(A, p, k)
    rep = verify_matrix_element_formula(matrix_elements(decomp, modes), modes)
    assert rep.unique
    assert rep.sign == (-1 if decomp.group.kind == "inert" and k % 2 else 1)


def character_mask(group) -> np.ndarray:
    """The characters the multiplicity-one eigenfunctions carry, by rule:
    at split primes the level-k ones, j % p != 0; at inert primes those
    with d even, d = min(v_p(j), k - 1) and d = k at j = 0."""
    p, k = group.pp.p, group.pp.k
    if group.kind == "split":
        return np.arange(group.order) % p != 0
    d = [k] + [min(valuation(j, p), k - 1) for j in range(1, group.order)]
    return np.array(d) % 2 == 0


VERIFY_SWEEP = [
    (p, k)
    for p in cli.DEFAULT_PRIMES
    for k in cli.DEFAULT_KS
    if TorusAutomorphism(*cli.DEFAULT_MATRIX).disc % p and p**k <= DENSE_CAP_DEFAULT
]


@pytest.mark.parametrize("p,k", VERIFY_SWEEP)
def test_eigenvectors_have_their_recorded_parity(p, k):
    """On every dense space of the default verify sweep, each unfolded
    column satisfies v(-x) = s v(x) for its recorded parity s, and exactly
    (N+1)/2 columns are even: the trace of the parity operator is
    #{x : x = -x} = 1, at inert and split primes alike."""
    decomp = decompose(TorusAutomorphism(*cli.DEFAULT_MATRIX), p, k)
    N = decomp.group.pp.N
    V = decomp.columns(np.arange(N))
    assert np.abs(V[-np.arange(N) % N] - V * decomp.parity).max() <= 1e-10
    assert np.count_nonzero(decomp.parity == 1) == (N + 1) // 2


@pytest.mark.parametrize("p,k", VERIFY_SWEEP)
def test_one_shift_match_equals_character_mask(p, k):
    """On every dense space of the default verify sweep, the matched
    characters (label + shift) of the multiplicity-one eigenfunctions are
    the character mask, each once."""
    decomp = decompose(TorusAutomorphism(*cli.DEFAULT_MATRIX), p, k)
    rep = verify_matrix_element_formula(matrix_elements(decomp, MODES), MODES)
    order = decomp.group.order
    matched = sorted((label + rep.shift) % order for label, _ in decomp.multiplicity_one_items())
    assert matched == np.flatnonzero(character_mask(decomp.group)).tolist()


@pytest.mark.parametrize("p,k", VERIFY_SWEEP)
def test_character_mask_and_sign_give_the_dense_sample(p, k):
    """On every dense space of the default verify sweep, the dense sample is
    the per-character closed form on the character mask, times one sign:
    the sorted normalized_elements of f equal sorted s * F[mask],
    F_j = sqrt(N)/#C * (E(nu/2, chi_j).real @ f#), with s = +1 at split
    primes and (-1)^k at inert ones, for three mode pairs."""
    A = TorusAutomorphism(*cli.DEFAULT_MATRIX)
    decomp = decompose(A, p, k)
    group, pp = decomp.group, decomp.group.pp
    modes = cli._usable_modes(A, p)[:3]
    f = FourierObservable({m: c for n, c in zip(modes, (0.5, -0.3, 0.2)) for m in (n, (-n[0], -n[1]))})
    spectrum = twisted_coefficients(f, A)
    nus = sorted(spectrum)
    rows = _exp_sum_rows(group, [nu * pow(2, -1, pp.N) % pp.N for nu in nus])
    F_j = math.sqrt(pp.N) / group.order * (rows.real.T @ np.array([complex(spectrum[nu]).real for nu in nus]))
    F = normalized_elements_closed(f, group)  # in character-index order
    assert np.abs(F - F_j).max() < 1e-12
    sign = 1 if group.kind == "split" else (-1) ** k
    dense = np.sort(normalized_elements(f, matrix_elements(decomp, f.coeffs)))
    assert np.abs(dense - np.sort(sign * F[character_mask(group)])).max() < 1e-9


def test_closed_form_sample_matches_law(cat_map):
    pp = PrimePower(101, 2)
    f = FourierObservable.harmonic_pair((1, 0))
    group = build_group(cat_map, pp)
    sample = normalized_elements_closed(f, group)
    assert len(sample) == group.order
    halved = [nu * pow(2, -1, pp.N) for nu in twisted_coefficients(f, cat_map)]
    assert expsum.bad_character_count(group, halved) == 101 - 1
    scale = math.sqrt(pp.N) * 101 / group.order
    rep = compare_distribution(sample, ScaledLimitLaw(scale))
    assert rep.ks < 0.05


def scan_route_sample(f, group):
    """normalized_elements_closed through the full expsum table, laid out
    as (character, nu) columns and gathered by class, the route before the
    sums were read in place: the oracle of its bits."""
    pp = group.pp
    spectrum = reduced_classes(twisted_coefficients(f, group.A), pp)
    nus = sorted(spectrum)
    halved = [nu * pow(2, -1, pp.N) % pp.N for nu in nus]
    uniq = sorted(set(halved))
    table = np.ascontiguousarray(expsum.scan_characters(group, uniq).value.T)
    table = table[:, [uniq.index(nu) for nu in halved]]
    weights = np.array([complex(spectrum[nu]).real for nu in nus])
    return (math.sqrt(pp.N) / group.order) * (table.real @ weights)


@pytest.mark.parametrize("p,k", [(347, 2), (23, 3)])
def test_closed_sample_equals_scan_route_bits(cat_map, p, k):
    # three classes, -1, 1 and 5, of unequal weight
    f = FourierObservable({m: c for n, c in (((1, 0), 0.5), ((0, 1), -0.3), ((1, 2), 0.2))
                           for m in (n, (-n[0], -n[1]))})
    group = build_group(cat_map, PrimePower(p, k))
    sample = normalized_elements_closed(f, group)
    assert sample.view(np.int64).tolist() == scan_route_sample(f, group).view(np.int64).tolist()


@pytest.mark.parametrize("p", [101, 347])
def test_closed_sample_reads_the_sums_in_place(cat_map, p):
    """normalized_elements_closed of cos 2 pi x1 + cos 2 pi x2 + cos 2 pi (x1 + 2 x2)
    holds its three (class, character) rows of sums once and checks them in
    slabs: its traced peak (1.34 at 101^2, where the fiber tables weigh
    more, and 1.17 at 347^2) stays below 1.4 such (3, #C) complex arrays,
    which a bound check over all three rows at once (2.13 arrays) or a
    transposed copy of the rows and a gather of their columns (3.2 arrays)
    would exceed."""
    f = FourierObservable({m: 0.5 for n in ((1, 0), (0, 1), (1, 2)) for m in (n, (-n[0], -n[1]))})
    group = build_group(cat_map, PrimePower(p, 2))
    tracemalloc.start()
    try:
        normalized_elements_closed(f, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * 3 * group.order * 16, peak / (3 * group.order * 16)


def test_closed_sample_checks_the_bound(cat_map, monkeypatch):
    """A doubled amplitude keeps the lift and realness checks and lifts good
    sums above 2 p^(k/2); the sample refuses them and names the class
    Q(1, 0)/2 = -1/2 mod 121 = 60 and a character."""
    amplitude = expsum._Fiber._amplitude

    def inflated(*args):
        amp, m = amplitude(*args)
        return 2 * amp, m

    monkeypatch.setattr(expsum._Fiber, "_amplitude", inflated)
    with pytest.raises(BoundExceededError, match=r"worst \|E\|/\(2 p\^\(k/2\)\) = .* at nu = 60, chi_\d+ "):
        normalized_elements_closed(FourierObservable.harmonic_pair((1, 0)), build_group(cat_map, PrimePower(11, 2)))


# -- counting oracles -----------------------------------------------------


def test_square_density_windows(cat_map):
    D = cat_map.disc
    assert abs(square_density([1], 499, D) - 0.5) < 3 / math.sqrt(499)
    assert abs(square_density([1, 2], 499, D) - 0.25) < 6 / math.sqrt(499)
    assert abs(square_density([1, 2, 3], 1009, D) - 0.125) < 10 / math.sqrt(1009)
    with pytest.raises(ValueError):
        square_density([1, 1], 11, D)


def test_count_y_tuples(cat_map):
    D = cat_map.disc
    # r = 1: just the unit domain count
    c = count_y_tuples(101, 1, [1], D)
    assert abs(c - 101) <= 2 * math.sqrt(101)
    for p in (101, 211, 499):
        c = count_y_tuples(p, 1, [1, 2], D)
        assert abs(c - p) <= 10 * math.sqrt(p)
        assert c <= 4 * p  # at most 2^r per fiber value


def test_count_y_tuples_with_relation(cat_map):
    # beta(x) = 1 is impossible on the domain
    assert count_y_tuples_with_relation(cat_map, 11, 1, [1], [1]) == 0
    # exponent = group order makes the relation vacuous: count = #X'
    group = build_group(cat_map, PrimePower(11, 1))
    full = count_y_tuples_with_relation(cat_map, 11, 1, [1], [group.order])
    assert full == count_y_tuples(11, 1, [1], cat_map.disc)
    for p in (11, 13, 17):
        c0 = count_y_tuples_with_relation(cat_map, p, 2, [1, 2], [1, 1])
        assert c0 <= count_y_tuples(p, 2, [1, 2], cat_map.disc)
        assert c0 <= 20 * p
        # beta(-x) = 1 / beta(x), and x2 = -x1 is the only partner of x1 in the fiber of nu = 1
        assert count_y_tuples_with_relation(cat_map, p, 2, [1, 1], [1, 1]) == count_y_tuples(p, 2, [1], cat_map.disc)
    # exact counts at p^2, pinned from the scalar dlog of each beta(x): (n1, n2) = (1, 1), (1, 2), (#C/2, #C/2)
    pinned = {11: (0, 2, 0), 13: (0, 2, 0), 17: (0, 2, 272)}
    for p, counts in pinned.items():
        half = build_group(cat_map, PrimePower(p, 2)).order // 2
        got = tuple(count_y_tuples_with_relation(cat_map, p, 2, [1, 2], ns) for ns in ([1, 1], [1, 2], [half, half]))
        assert got == counts


# -- record statistics ----------------------------------------------------


def test_vanished_fraction_and_moments(cat_map):
    group = build_group(cat_map, PrimePower(101, 2))
    table = expsum.scan_characters(group, [1])
    assert abs(vanished_fraction(table) - 0.5) < 3 / math.sqrt(101)
    assert abs(angle_moment(table, 2) - 1.0) < 5 / math.sqrt(101)
    assert abs(angle_moment(table, 4) - 3.0) < 5 / math.sqrt(101)
    # the per-residue masks weigh each residue by its #C / T characters
    good, vanished = (by_character(mask, group.order) for mask in (table.good, table.vanished))
    assert vanished_fraction(table) == np.mean(vanished[good])
    assert angle_moment(table, 2) == pytest.approx(np.mean((table.value.real[good] / 101) ** 2), rel=1e-12)
    with pytest.raises(EmptySetError):
        vanished_fraction(expsum.scan_characters(group, []))
