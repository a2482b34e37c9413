import math
from fractions import Fraction

import numpy as np
import pytest

from qcatmap.errors import BadNuError, EmptySetError
from qcatmap.modarith import PrimePower
from qcatmap.quantization import FourierObservable
from qcatmap.hecke import build_group, eigendecompose
from qcatmap import expsum
from qcatmap.distribution import (
    EmpiricalSet,
    ScaledLimitLaw,
    angle_moment,
    compare_distribution,
    count_y_tuples,
    count_y_tuples_with_relation,
    ks_two_sample,
    ks_vs_law,
    model_cdf,
    model_cdf_left,
    model_moment,
    normalized_elements,
    normalized_elements_closed,
    quadratic_form,
    sample_limit_variable,
    square_density,
    twisted_coefficients,
    vanished_fraction,
    verify_matrix_element_formula,
)

from conftest import decompose


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
    assert model_cdf(0.0) - model_cdf_left(0.0) == pytest.approx(0.5)


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
    assert np.array_equal(a.values, b.values)
    atom = np.mean(a.values == 0.0)
    assert abs(atom - 0.5) < 0.05


def test_sampler_moments():
    # mean ~ 0; Var(2 f# cos) = (f#)^2 E[(2cos)^2] = (f#)^2, taken from the
    # quadrature oracle rather than any remembered constant
    spec = {1: 1.5}
    sample = sample_limit_variable(spec, seed=11, count=1_000_000)
    assert abs(sample.values.mean()) < 0.01 * 2 * 1.5
    var_expected = 1.5**2 * _quadrature_moment(2)
    assert var_expected == pytest.approx(1.5**2 * float(model_moment(2)), rel=1e-6)
    assert sample.values.var() == pytest.approx(var_expected, rel=0.01)


def test_sampler_empty_spectrum_is_degenerate():
    sample = sample_limit_variable({}, seed=1, count=100)
    assert np.all(sample.values == 0.0)


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
    assert ks_vs_law(sample.values, law) < 0.02
    # a sample with noisy zeros must be snapped first, or the atom drifts
    noisy = sample.values + np.where(sample.values == 0.0, -1e-13, 0.0)
    rep = compare_distribution(EmpiricalSet(noisy, "test"), law)
    assert rep.ks < 0.02


def test_compare_distribution_identical_and_empty():
    vals = np.linspace(-1, 1, 101)
    rep = compare_distribution(EmpiricalSet(vals, "a"), EmpiricalSet(vals.copy(), "b"))
    assert rep.ks == 0.0
    with pytest.raises(EmptySetError):
        compare_distribution(EmpiricalSet(np.array([]), "a"), EmpiricalSet(vals, "b"))


def test_compare_distribution_winsorizes():
    vals = np.array([0.0] * 98 + [50.0, -50.0])
    rep = compare_distribution(
        EmpiricalSet(vals, "a"), EmpiricalSet(vals.copy(), "b"), winsor_bound=10.0
    )
    assert rep.winsorized_left == 2
    assert rep.moments_left[1] == pytest.approx(2 * 100 / 100.0)


# -- dense pipeline ------------------------------------------------------


def test_normalized_elements_constant_observable(cat_map):
    f = FourierObservable({(0, 0): 2.5})
    out = normalized_elements(f, decompose(cat_map, 3, 2))
    assert np.abs(out.values).max() < 1e-9


def test_normalized_elements_real_and_slow_decay_scale(cat_map):
    # p = 3, k = 3: the N^(-1/3)-scale element exists: max |F_j| >= sqrt(N)/(p+1)
    pp = PrimePower(3, 3)
    f = FourierObservable.harmonic_pair((1, 0))
    out = normalized_elements(f, eigendecompose(build_group(cat_map, pp)))
    assert out.empirical.values.dtype == float
    assert np.abs(out.values).max() >= math.sqrt(pp.N) / 4 * (1 - 1e-9)


def test_normalized_elements_rejects_divisible_class(cat_map):
    decomp = decompose(cat_map, 3, 2)
    f = FourierObservable.harmonic_pair((1, 2))  # Q = 5 ... fine at 3? 5 % 3 != 0
    normalized_elements(f, decomp)
    g = FourierObservable.harmonic_pair((0, 3))  # Q(0,3) = 9, divisible by 3
    with pytest.raises(BadNuError):
        normalized_elements(g, decomp)


def test_bad_character_exceptional_bound(cat_map):
    # elements above the good-character ceiling are at most the bad count
    for p, k in [(7, 2), (11, 2), (13, 2)]:
        pp = PrimePower(p, k)
        group = build_group(cat_map, pp)
        f = FourierObservable.harmonic_pair((1, 0))
        out = normalized_elements(f, eigendecompose(group))
        total = sum(abs(w) for w in twisted_coefficients(f, cat_map).values())
        ceiling = 2 * total * (1 + p**-0.5) * math.sqrt(pp.N) * p ** (k / 2) / group.order
        n_exceed = int(np.sum(np.abs(out.values) > ceiling))
        n_bad = p ** (k - 2) * (group.order // p ** (k - 1))
        assert n_exceed <= n_bad


# -- formula verification and pipeline coherence --------------------------


MODES = [(1, 0), (0, 1), (1, 2), (1, 4), (1, 5), (2, 7)]


def test_formula_brute_force_anchor_k1(cat_map):
    rep = verify_matrix_element_formula(decompose(cat_map, 3, 1), MODES)
    assert rep.unique_up_to_ties
    assert rep.sign == -1  # inert, odd k


def test_formula_requires_unit_classes(cat_map):
    with pytest.raises(BadNuError):
        verify_matrix_element_formula(decompose(cat_map, 3, 2), [(0, 3)])


def test_formula_sign_pattern(cat_map):
    # sign +1 except inert with odd k
    for p, k in [(3, 2), (3, 3), (11, 2), (11, 3)]:
        rep = verify_matrix_element_formula(decompose(cat_map, p, k), MODES)
        assert rep.unique_up_to_ties

        inert = p in (3, 7, 13)
        assert rep.sign == (-1 if inert and k % 2 else 1)


def test_pipeline_coherence_dense_vs_closed_form(cat_map):
    """F_j from dense eigenfunctions equals the character-sum prediction
    through the matched character, value by value."""
    for p in (7, 11):
        pp = PrimePower(p, 2)
        group = build_group(cat_map, pp)
        n0 = (1, 0)
        f = FourierObservable.harmonic_pair(n0)
        decomp = eigendecompose(group)
        out = normalized_elements(f, decomp)
        rep = verify_matrix_element_formula(decomp, MODES)
        chi_of_label = {m.label: m.chi_index for m in rep.matches}
        nu = quadratic_form(cat_map, n0)
        spec = twisted_coefficients(f, cat_map)[nu]
        half = nu * pow(2, -1, pp.N) % pp.N
        checked = 0
        for label, value in zip(out.labels, out.values):
            j = chi_of_label[int(label)]
            if j is None:
                continue
            model = rep.sign * spec.real * math.sqrt(pp.N) / group.order * expsum.exp_sum_closed(
                half, group.character(j)
            )
            assert abs(value - model.real) < 1e-6
            checked += 1
        assert checked > 0.8 * len(out.values)


def test_closed_form_sample_matches_law(cat_map):
    pp = PrimePower(101, 2)
    f = FourierObservable.harmonic_pair((1, 0))
    group = build_group(cat_map, pp)
    sample, n_bad = normalized_elements_closed(f, group)
    assert len(sample) == group.order
    assert n_bad == 101 - 1
    scale = math.sqrt(pp.N) * 101 / group.order
    rep = compare_distribution(sample, ScaledLimitLaw(scale))
    assert rep.ks < 0.05


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


# -- record statistics ----------------------------------------------------


def test_vanished_fraction_and_moments(cat_map):
    group = build_group(cat_map, PrimePower(101, 2))
    table = expsum.scan_characters(group, [1])
    assert abs(vanished_fraction(table) - 0.5) < 3 / math.sqrt(101)
    assert abs(angle_moment(table, 2) - 1.0) < 5 / math.sqrt(101)
    assert abs(angle_moment(table, 4) - 3.0) < 5 / math.sqrt(101)
    with pytest.raises(EmptySetError):
        vanished_fraction(expsum.scan_characters(group, []))
