"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are exercised at their stated parameters and tolerances; the
p = 5 entries use the trace-4 matrix (discriminant 12) because 5 ramifies
for the default matrix.
"""

import math

import numpy as np
import pytest

from qcatmap.modarith import PrimePower, legendre
from qcatmap.quantization import (
    FourierObservable,
    apply_elementary,
    elementary_matrix,
    propagator,
    row_action,
)
from qcatmap import expsum, hecke
from qcatmap import distribution as dist
from qcatmap.hecke import build_group, eigendecompose, split_match_report

from conftest import decompose, matrix_for_prime

EGOROV_MODES = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (1, 5)]
FORMULA_MODES = [(1, 0), (0, 1), (1, 2), (1, 4), (1, 5), (2, 7)]  # Q: -1,1,5,19,29,59


def _pass(msg):
    print(f"[PASS] {msg}")


def test_criterion1_quantization_invariants():
    """Unitarity and twisted exact-Egorov at 1e-8 across eight spaces."""
    worst_u = worst_e = 0.0
    for p, k in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (11, 2), (13, 2)]:
        A = matrix_for_prime(p)
        pp = PrimePower(p, k)
        U = propagator(A, pp)
        worst_u = max(worst_u, float(np.abs(U @ U.conj().T - np.eye(pp.N)).max()))
        Amod = A.mat_mod(pp.N)
        for n in EGOROV_MODES:
            lhs = U.conj().T @ elementary_matrix(n, pp, twisted=True) @ U
            rhs = elementary_matrix(row_action(n, Amod), pp, twisted=True)
            worst_e = max(worst_e, float(np.abs(lhs - rhs).max()))
    assert worst_u < 1e-8
    assert worst_e < 1e-8
    _pass(f"criterion 1: unitarity {worst_u:.1e}, egorov {worst_e:.1e} (tol 1e-8)")


@pytest.mark.parametrize("p", [3, 7, 13])
def test_criterion2_inert_trace_and_multiplicity(p):
    """|Tr U(iota(beta))|^2 = #ker(iota(beta)-I) for every group element,
    eigenspaces all one-dimensional, multiplicities summing to p^k."""
    A = matrix_for_prime(p)
    for k in (1, 2, 3):
        pp = PrimePower(p, k)
        decomp = eigendecompose(build_group(A, pp))
        group = decomp.group
        assert group.kind == "inert"
        mults = [len(c) for c in decomp.clusters.values()]
        assert sum(mults) == pp.N
        assert max(mults) == 1
        sweep = hecke.trace_sweep(decomp)
        assert sweep.worst_gap <= 1e-6
        assert np.array_equal(sweep.kernel, p ** (2 * sweep.level))
    _pass(f"criterion 2: p={p}, k<=3: traces match kernels, all multiplicities 1")


@pytest.mark.parametrize("p,k", [(11, 2), (11, 3), (19, 2)])
def test_criterion3_split_multiplicities(p, k):
    """Level-l characters have multiplicity k-l+1; explicit eigenfunctions
    match the eigensolver basis with residual < 1e-7."""
    A = matrix_for_prime(p)
    rep = split_match_report(decompose(A, p, k))
    assert rep.max_residual < 1e-7
    assert rep.shift_ok
    assert rep.multiplicities_ok
    _pass(f"criterion 3: (p,k)=({p},{k}) residual {rep.max_residual:.1e}, multiplicities k-l+1")


@pytest.mark.slow
def test_criterion3_split_multiplicities_19_cubed():
    """The 6859-dimensional split case: residuals on every character,
    multiplicities for the whole dual group via the label shift."""
    A = matrix_for_prime(19)
    group = build_group(A, PrimePower(19, 3))
    rep = split_match_report(eigendecompose(group))
    assert rep.max_residual < 1e-7
    assert rep.shift_ok
    assert rep.multiplicities_ok
    _pass(
        f"criterion 3: (p,k)=(19,3) residual {rep.max_residual:.1e} on "
        f"all {group.order} characters, multiplicities k-l+1 for all"
    )


def test_criterion4_closed_form_oracle_equivalence():
    """Closed form equals brute force within 1e-7 for every character and
    nu in {1, 2, non-residue}."""
    diffs = []
    for p, k in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (11, 2)]:
        group = build_group(matrix_for_prime(p), PrimePower(p, k))
        nonres = next(v for v in range(2, p) if legendre(v, p) == -1)
        for nu in (1, 2, nonres):
            closed = expsum.exp_sum_closed(group, nu, np.arange(group.order))
            diffs.append(np.abs(closed - expsum.exp_sum_bruteforce(group, nu)))
    diffs = np.concatenate(diffs)
    worst, total = float(diffs.max()), len(diffs)
    assert worst < 1e-7
    _pass(f"criterion 4: {total} sums, max |closed - brute| = {worst:.1e} (tol 1e-7)")


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (7, 2), (11, 2), (11, 3), (13, 2)])
def test_criterion5_matrix_element_formula(p, k):
    """One sign and one label shift per (p, k) match every eigenfunction to
    its character, and no other pair does, tolerance 1e-7."""
    A = matrix_for_prime(p)
    pp = PrimePower(p, k)
    qs = {dist.quadratic_form(A, n) % pp.N for n in FORMULA_MODES}
    assert len(qs) >= 4
    decomp = eigendecompose(build_group(A, pp))
    assert dist.FORMULA_TOL == 1e-7
    rep = dist.verify_matrix_element_formula(dist.matrix_elements(decomp, FORMULA_MODES), FORMULA_MODES)
    assert rep.unique
    expect_sign = -1 if decomp.group.kind == "inert" and k % 2 == 1 else 1
    assert rep.sign == expect_sign
    _pass(
        f"criterion 5: (p,k)=({p},{k}) sign {rep.sign:+d}, shift {rep.shift}, unique, "
        f"residual {rep.max_residual:.1e}"
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_criterion6_slow_decay(p):
    """k = 3: characters with |E| = p^2 exist and the corresponding matrix
    element has magnitude exactly 1/(p +- 1), far above the generic
    sqrt(1/N) scale and within a factor 2 of N^(-1/3)."""
    A = matrix_for_prime(p)
    pp = PrimePower(p, 3)
    group = build_group(A, pp)
    n = next(m for m in FORMULA_MODES if dist.quadratic_form(A, m) % p != 0)
    nu = dist.quadratic_form(A, n) * pow(2, -1, pp.N) % pp.N
    big = expsum.find_large(group, nu)
    assert big
    for _, value in big:
        assert abs(abs(value) - p * p) <= 1e-6 * p * p
    target = p * p / group.order  # = 1/(p +- 1)
    decomp = eigendecompose(group)
    hits = 0
    for _, col in decomp.multiplicity_one_items():
        v = decomp.columns([col])[:, 0]  # std-unit: <T(n) psi, psi> of psi = sqrt(N) v is vdot(v, T(n) v)
        el = abs(np.vdot(v, apply_elementary(n, v)))
        if abs(el - target) <= 1e-6 * target:
            hits += 1
    assert hits >= 1
    assert target > pp.N**-0.5  # slower than the expected square-root decay
    assert target >= 0.5 * pp.N ** (-1 / 3)  # the N^(-1/3) scale
    _pass(
        f"criterion 6: p={p}: {len(big)} large characters, {hits} eigenfunctions "
        f"with element {target:.4f} = 1/(p+1) > N^(-1/2) = {pp.N**-0.5:.4f}"
    )


@pytest.mark.parametrize("p", [101, 211, 499, 1009])
def test_criterion7ab_vanishing_and_moments(p):
    """k = 2 character scan: vanishing fraction within 3/sqrt(p) of 1/2 and
    moments of 2cos(theta) within 5/sqrt(p) of 1 and 3."""
    group = build_group(matrix_for_prime(p), PrimePower(p, 2))
    records = expsum.scan_characters(group, [1])
    frac = dist.vanished_fraction(records)
    m2 = dist.angle_moment(records, 2)
    m4 = dist.angle_moment(records, 4)
    assert abs(frac - 0.5) <= 3 / math.sqrt(p)
    assert abs(m2 - float(dist.model_moment(2))) <= 5 / math.sqrt(p)
    assert abs(m4 - float(dist.model_moment(4))) <= 5 / math.sqrt(p)
    _pass(
        f"criterion 7ab: p={p}: vanish {frac:.4f} (~1/2), m2={m2:.4f} (~1), m4={m4:.4f} (~3)"
    )


def test_criterion7c_limiting_distribution_ks():
    """Two-sample KS between the (101, 2) normalized elements and 1e5 draws
    of the model variable is at most 0.15."""
    A = matrix_for_prime(101)
    pp = PrimePower(101, 2)
    f = FourierObservable.harmonic_pair((1, 0))
    sample = dist.normalized_elements_closed(f, build_group(A, pp))
    model = dist.sample_limit_variable(dist.twisted_coefficients(f, A), seed=20260809, count=100_000)
    rep = dist.compare_distribution(sample, model, winsor_bound=10 * 101 ** (1 / 6))
    assert rep.ks <= 0.15
    _pass(f"criterion 7c: (101,2) two-sample KS {rep.ks:.4f} <= 0.15")


def test_criterion8_counting_oracles():
    """Square densities at 2^-r, fiber-tuple counts near p, and the
    relation-constrained counts below 20 p^(l-1)."""
    D = matrix_for_prime(3).disc
    assert abs(dist.square_density([1], 499, D) - 0.5) <= 3 / math.sqrt(499)
    assert abs(dist.square_density([1], 1009, D) - 0.5) <= 3 / math.sqrt(1009)
    assert abs(dist.square_density([1, 2], 499, D) - 0.25) <= 6 / math.sqrt(499)
    assert abs(dist.square_density([1, 2], 1009, D) - 0.25) <= 6 / math.sqrt(1009)
    assert abs(dist.square_density([1, 2, 3], 1009, D) - 0.125) <= 10 / math.sqrt(1009)

    worst_c = 0.0
    for p in (101, 211, 499):
        count = dist.count_y_tuples(p, 1, [1, 2], D)
        worst_c = max(worst_c, abs(count - p) / math.sqrt(p))
    assert worst_c <= 10

    A = matrix_for_prime(3)
    for p in (11, 13, 17):
        c0 = dist.count_y_tuples_with_relation(A, p, 2, [1, 2], [1, 1])
        assert c0 <= 20 * p
        c1 = dist.count_y_tuples_with_relation(A, p, 1, [1, 2], [2, 1])
        assert c1 <= 20
    _pass(
        f"criterion 8: square densities at 2^-r (r<=3), |Y'-p| <= {worst_c:.2f} sqrt(p), "
        f"relation counts within 20 p^(l-1)"
    )
