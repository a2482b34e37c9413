import random
from collections import Counter

import numpy as np
import pytest

from qcatmap.errors import (
    EvenPrimeError,
    NotSplitError,
    RamifiedPrimeError,
    SingularPointError,
)
from qcatmap.modarith import PrimePower
from qcatmap.quantization import propagator
from qcatmap import hecke
from qcatmap.hecke import (
    brute_force_norm_one,
    build_group,
    build_split_diagonalizer,
    classify_prime,
    eigendecompose,
    split_eigenfunction,
    split_match_report,
    trace_magnitude_check,
    unit_character_level,
)

from conftest import A_DEFAULT, decompose, matrix_for_prime


def test_classify_prime(cat_map):
    assert classify_prime(cat_map, 11) == "split"  # 4^2 = 5 mod 11
    assert classify_prime(cat_map, 3) == "inert"  # 5 is not a square mod 3
    with pytest.raises(RamifiedPrimeError):
        classify_prime(cat_map, 5)
    with pytest.raises(EvenPrimeError):
        classify_prime(cat_map, 2)


@pytest.mark.parametrize(
    "p,k,kind,order",
    [(3, 1, "inert", 4), (11, 1, "split", 10), (3, 2, "inert", 12), (11, 2, "split", 110), (5, 2, "inert", 30)],
)
def test_group_order(p, k, kind, order):
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    assert group.kind == kind
    assert group.order == order
    assert (1, 0) in group


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (11, 1), (11, 2), (7, 2), (5, 2)])
def test_group_matches_brute_force_enumeration(p, k):
    A = matrix_for_prime(p)
    pp = PrimePower(p, k)
    group = build_group(A, pp)
    assert {group.element(m) for m in range(group.order)} == brute_force_norm_one(A, pp)


def test_norm_is_multiplicative():
    ring = build_group(A_DEFAULT, PrimePower(7, 2)).ring
    rng = random.Random(5)
    for _ in range(40):
        u = (rng.randrange(49), rng.randrange(49))
        v = (rng.randrange(49), rng.randrange(49))
        assert ring.norm(ring.mul(u, v)) == ring.norm(u) * ring.norm(v) % 49


def test_matrix_embedding(cat_map):
    group = build_group(cat_map, PrimePower(7, 2))
    ring = group.ring
    assert ring.matrix_of((1, 0)) == ((1, 0), (0, 1))
    assert ring.matrix_of((0, 1)) == cat_map.mat_mod(49)
    rng = random.Random(6)
    for _ in range(30):
        u = (rng.randrange(49), rng.randrange(49))
        M = ring.matrix_of(u)
        det = (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % 49
        assert det == ring.norm(u)
    for m in (0, 1, 5):
        beta = group.element(m)
        det = ring.norm(beta)
        assert det == 1


def test_cayley_transform_basics(cat_map):
    group = build_group(cat_map, PrimePower(3, 3))
    ring = group.ring
    assert ring.cayley_transform(0) == (26, 0)  # -1
    for x in range(27):
        assert ring.in_domain(x)  # inert: D x^2 = 1 has no solution
        assert ring.norm(ring.cayley_transform(x)) == 1
        assert ring.cayley_inverse(ring.cayley_transform(x)) == x
    # split case has two singular lines mod p
    ring11 = build_group(cat_map, PrimePower(11, 1)).ring
    bad = next(x for x in range(11) if not ring11.in_domain(x))
    with pytest.raises(SingularPointError):
        ring11.cayley_transform(bad)


@pytest.mark.parametrize("p,k", [(3, 3), (11, 2), (5, 3), (3, 5)])
def test_cayley_bijection_onto_nontrivial_part(p, k):
    A = matrix_for_prime(p)
    pp = PrimePower(p, k)
    group = build_group(A, pp)
    ring = group.ring
    image = {ring.cayley_transform(x) for x in range(pp.N) if ring.in_domain(x)}
    target = {group.element(m) for m in range(group.order) if group.congruence_level(group.element(m)) == 0}
    assert image == target
    assert len(image) == sum(ring.in_domain(x) for x in range(pp.N))  # injective


def test_congruence_subgroup_sizes(cat_map):
    # #{beta = 1 mod p^l} = p^(k-l) for 1 <= l <= k, either kind
    for p, k in [(3, 2), (3, 3), (11, 2)]:
        group = build_group(matrix_for_prime(p), PrimePower(p, k))
        for l in range(1, k + 1):
            census = sum(
                1 for m in range(group.order) if group.congruence_level(group.element(m)) >= l
            )
            assert census == group.subgroup_size(l) == p ** (k - l)


def test_generator_has_exact_order():
    for p, k in [(3, 3), (11, 2), (7, 2)]:
        group = build_group(matrix_for_prime(p), PrimePower(p, k))
        ring = group.ring
        assert ring.pow(group.gen, group.order) == (1, 0)
        for q in {2, 3, 5, 7, 11, 13, p}:
            if group.order % q == 0:
                assert ring.pow(group.gen, group.order // q) != (1, 0)


def test_dlog_roundtrip():
    group = build_group(A_DEFAULT, PrimePower(11, 2))
    for m in (0, 1, 17, group.order - 1):
        assert group.dlog(group.element(m)) == m
    with pytest.raises(KeyError):
        group.dlog((0, 0))


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (3, 5), (11, 2), (5, 3)])
def test_t_parameter_defining_relation_exhaustive(p, k):
    """chi(unit(x)) = e(t x / t_mod) for every character and every x."""
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    mod_t = group.t_modulus
    order = group.order
    for j in range(order):
        chi = group.character(j)
        t = chi.t_parameter
        for x in range(mod_t):
            lhs = chi.exponent(group.principal_unit(x))
            # e(lhs/order) must equal e(t x / mod_t), i.e. lhs*mod_t = t*x*order
            assert (lhs * mod_t - t * x * order) % (order * mod_t) == 0


def test_t_parameter_additivity_and_trivial():
    group = build_group(A_DEFAULT, PrimePower(3, 3))
    assert group.character(0).t_parameter == 0
    mod_t = group.t_modulus
    for i, j in [(1, 2), (5, 7), (10, 3)]:
        s = (group.character(i).t_parameter + group.character(j).t_parameter) % mod_t
        assert (group.character(i) * group.character(j)).t_parameter == s


def test_hecke_operators_commute(cat_map):
    pp = PrimePower(3, 2)
    group = build_group(cat_map, pp)
    ops = [propagator(group.ring.matrix_of(group.element(m)), pp).entries for m in (1, 3, 7)]
    for X in ops:
        for Y in ops:
            assert np.abs(X @ Y - Y @ X).max() < 1e-7


def test_eigendecompose_inert_multiplicity_one(cat_map):
    decomp = decompose(cat_map, 3, 2)
    assert len(decomp.clusters) == 9
    assert all(len(cols) == 1 for cols in decomp.clusters.values())
    # eigenvalues sit on the fitted root-of-unity grid
    lam = decomp.eigenvalues / np.abs(decomp.eigenvalues)
    model = np.exp(1j * (decomp.phase + 2 * np.pi * decomp.labels / decomp.group.order))
    assert np.abs(lam - model).max() < 1e-6


def test_eigendecompose_character_count_identity(cat_map):
    # sum of n_chi^2 equals (1/#C) sum |Tr U(iota(beta))|^2 = p^k
    for p, k in [(3, 2), (3, 3)]:
        pp = PrimePower(p, k)
        decomp = eigendecompose(build_group(cat_map, pp))
        tr2 = hecke.trace_magnitudes_sq_via_spectrum(decomp)
        assert abs(tr2.sum() / decomp.group.order - pp.N) < 1e-6 * pp.N
        assert sum(len(c) for c in decomp.clusters.values()) == pp.N


def test_eigendecompose_split_multiplicity_pattern(cat_map):
    decomp = decompose(cat_map, 11, 2)
    sizes = Counter(len(cols) for cols in decomp.clusters.values())
    # mult k-l+1 at level l: 1 three-dim (trivial), p-2 two-dim, rest simple
    assert sizes == {1: 100, 2: 9, 3: 1}


def test_unit_character_level():
    group = build_group(A_DEFAULT, PrimePower(11, 2))
    assert unit_character_level(group, 0) == 0
    assert unit_character_level(group, 11) == 1
    assert unit_character_level(group, 22) == 1
    assert unit_character_level(group, 1) == 2
    assert unit_character_level(group, 13) == 2


def test_split_diagonalizer(cat_map):
    for p, k in [(11, 1), (11, 2), (19, 2)]:
        pp = PrimePower(p, k)
        diag = build_split_diagonalizer(cat_map, pp)
        assert (diag.y + diag.y_inv) % pp.N == cat_map.trace % pp.N
        assert diag.y * diag.y_inv % pp.N == 1
    with pytest.raises(NotSplitError):
        build_split_diagonalizer(cat_map, PrimePower(3, 2))


def test_split_eigenfunction_is_joint_eigenfunction(cat_map):
    for p, k in [(11, 1), (11, 2)]:
        pp = PrimePower(p, k)
        group = build_group(cat_map, pp)
        diag = build_split_diagonalizer(cat_map, pp)
        U_M = propagator(diag.M, pp).entries
        ops = [propagator(group.ring.matrix_of(group.element(m)), pp).entries for m in (1, 5)]
        for j in (1, 3, group.order - 1):
            psi = split_eigenfunction(group.character(j), diag, U_M)
            assert abs(psi.norm() - 1) < 1e-10
            v = psi.amplitudes
            for op in ops:
                w = op @ v
                lam = np.vdot(v, w) / np.vdot(v, v)
                assert abs(abs(lam) - 1) < 1e-8
                assert np.abs(w - lam * v).max() < 1e-7


def test_split_match_report_small(cat_map):
    rep = split_match_report(decompose(cat_map, 11, 2))
    assert rep.max_residual < 1e-7
    assert rep.multiplicities_ok
    assert rep.shift_ok


def test_trace_magnitude_check(cat_map):
    pp = PrimePower(3, 3)
    group = build_group(cat_map, pp)
    # identity: |Tr|^2 = p^(2k)
    check = trace_magnitude_check((1, 0), group)
    assert check.passed and check.kernel == 3**6 and check.level == 3
    # levels 0 and 1 hit p^0 and p^2 exactly (inert)
    seen = set()
    for m in range(group.order):
        beta = group.element(m)
        level = group.congruence_level(beta)
        if level in seen or level == 3:
            continue
        seen.add(level)
        check = trace_magnitude_check(beta, group)
        assert check.passed
        assert check.kernel == 3 ** (2 * level)
    assert {0, 1, 2} <= seen | {2}


def test_trace_spectral_sweep_matches_kernels(cat_map):
    for p, k in [(3, 2), (11, 1)]:
        pp = PrimePower(p, k)
        decomp = eigendecompose(build_group(cat_map, pp))
        group = decomp.group
        tr2 = hecke.trace_magnitudes_sq_via_spectrum(decomp)
        for m in range(group.order):
            ker = hecke.qz.fixed_point_count(group.ring.matrix_of(group.element(m)), pp)
            assert abs(tr2[m] - ker) <= 1e-6 * ker
