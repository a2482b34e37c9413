import math
import re
import tracemalloc

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from qcatmap.errors import (
    BoundExceededError,
    KTooSmallError,
    NonUnitError,
    QcatError,
    SizeLimitError,
    WrongKError,
)
from qcatmap.modarith import (
    PrimePower,
    gauss_quadratic,
    gauss_quadratic_closed,
    legendre,
    roots_table,
    sqrt_set,
)
from qcatmap import expsum, quantization
from qcatmap.cli import records_to_csv
from qcatmap.distribution import normalized_elements_closed
from qcatmap.hecke import build_group
from qcatmap.quantization import FourierObservable, TorusAutomorphism
from qcatmap.expsum import (
    bad_character_count,
    exp_sum_bruteforce,
    exp_sum_closed,
    check_bound,
    find_large,
    scan_characters,
    theta_angle,
)

from conftest import (
    A_DEFAULT,
    HYPERBOLIC,
    bad_count_by_character,
    by_character,
    exp_sum_direct,
    gather_closed_form,
    good_by_definition,
    matrix_for_prime,
)


def non_residue(p):
    return next(v for v in range(2, p) if legendre(v, p) == -1)


def test_bruteforce_trivial_character_inert_k1():
    # inert: the domain is all of Z/p, so the trivial-character sum is a
    # complete additive sum and vanishes
    group = build_group(A_DEFAULT, PrimePower(3, 1))
    for nu in (1, 2):
        assert abs(exp_sum_bruteforce(group, nu)[0]) < 1e-12


def test_bruteforce_trivial_character_split_k1():
    # split: two excluded points +-1/d, so the sum is -2cos(2 pi nu/(d p))
    p = 11
    group = build_group(A_DEFAULT, PrimePower(p, 1))
    d = min(sqrt_set(A_DEFAULT.disc % p, p, 1))
    dinv = pow(d, -1, p)
    for nu in (1, 2, 3):
        expect = -2 * math.cos(2 * math.pi * nu * dinv / p)
        assert abs(exp_sum_bruteforce(group, nu)[0] - expect) < 1e-12


def test_bruteforce_rejects_non_unit():
    group = build_group(A_DEFAULT, PrimePower(3, 2))
    with pytest.raises(NonUnitError):
        exp_sum_bruteforce(group, 3)


def test_sums_are_real():
    group = build_group(matrix_for_prime(5), PrimePower(5, 3))
    rng = np.random.default_rng(12)
    for _ in range(50):
        j = int(rng.integers(group.order))
        nu = int(rng.integers(1, 125))
        if nu % 5 == 0:
            continue
        val = exp_sum_bruteforce(group, nu)[j]
        assert abs(val.imag) < 1e-8 * (1 + abs(val))


def assert_table_equals_bruteforce(group, nus):
    table = scan_characters(group, nus)
    # row i holds the i-th of the distinct sorted classes, column j the character chi_j
    classes = sorted({nu % group.pp.N for nu in nus})
    assert table.nu.tolist() == classes
    assert table.value.shape == (len(classes), group.order) and len(table) == table.value.size
    assert table.good.shape == table.vanished.shape == (len(classes), group.t_modulus)
    for nu, row in zip(classes, table.value):
        assert np.abs(row - exp_sum_bruteforce(group, nu)).max() < 1e-7
    assert np.all(table.value[by_character(table.vanished, group.order)] == 0)
    return table


# the oracle's exponent grouping and DFT against one term per x, at k = 1 too
@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (13, 2), (7, 3), (11, 3), (13, 3), (3, 4)])
def test_bruteforce_equals_direct_sum(p, k):
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    for nu in (1, non_residue(p)):
        brute = exp_sum_bruteforce(group, nu)
        assert brute.shape == (group.order,)
        direct = np.array([exp_sum_direct(group, nu, j) for j in range(group.order)])
        assert np.abs(brute - direct).max() < 1e-12


# at (3, 5) and (7, 4) the fiber modulus is p^2, where w = 0 has p roots
@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (5, 3), (5, 4), (11, 2), (3, 5), (7, 4)])
def test_closed_form_equals_bruteforce(p, k):
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    nus = (1, 2, non_residue(p))
    assert_table_equals_bruteforce(group, nus)
    # the index-array entry point is the same closed form
    j = np.array([0, 1, group.order // 2, group.order - 1])
    for nu in nus:
        assert np.abs(exp_sum_closed(group, nu, j) - exp_sum_bruteforce(group, nu)[j]).max() < 1e-7


# inert at 3, 7, 13, 23 and 347, split at 11, 29 and 349; (3, 6), (7, 5) and
# (11, 4) have more than two roots at the w divisible by p
RESIDUE_SPACES = [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (7, 5), (11, 4), (13, 3), (29, 3), (23, 3), (349, 2), (347, 2)]


@pytest.mark.parametrize("p,k", RESIDUE_SPACES)
def test_residue_form_matches_gather_oracle(p, k):
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    nus = [1, 2, non_residue(p)]
    value, good, vanished = expsum._closed_form(group, nus)
    want, want_good, want_vanished = gather_closed_form(group, nus, np.arange(group.order))
    assert np.abs(value - want).max() <= 1e-12 * 2 * p ** (k / 2)
    assert np.array_equal(by_character(good, group.order), want_good)
    assert np.array_equal(by_character(vanished, group.order), want_vanished)
    # an index array reads the same residue rows, in any order
    j = np.random.default_rng(p * k).permutation(group.order)[:50]
    assert np.array_equal(expsum._closed_form(group, nus, j)[0], value[:, j])


@pytest.mark.parametrize("p,k", [(11, 2), (7, 3), (3, 4)])
def test_lift_check_catches_a_wrong_lifted_dlog(p, k, monkeypatch):
    """A dlog of beta(x + p^l) that is off by one breaks m_(x + p^l) = m_x
    (mod #C / t_modulus) at every root, and the lift check raises."""
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    pl, dlogs = p ** (k // 2), group.cayley_dlogs
    monkeypatch.setattr(group, "cayley_dlogs", lambda xs: (dlogs(xs) + (xs >= pl)) % group.order)
    with pytest.raises(RuntimeError, match="lift dependence"):
        scan_characters(group, [1])


def test_realness_check_catches_an_imaginary_part(monkeypatch):
    """A constant phase on e(q m_x / Q) keeps the lift check and rotates
    every sum off the real line."""
    group = build_group(A_DEFAULT, PrimePower(11, 2))
    table = expsum.roots_table
    monkeypatch.setattr(expsum, "roots_table", lambda n: table(n) * np.exp(0.01j))
    with pytest.raises(RuntimeError, match="realness check"):
        scan_characters(group, [1])


@pytest.mark.parametrize("p,k", [(11, 2), (13, 3), (3, 5)])
def test_exp_sum_closed_reads_indices_mod_order(p, k):
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    j = np.array([0, 1, 7, group.order // 2, group.order - 1])
    for nu in (1, non_residue(p)):
        want = exp_sum_closed(group, nu, j)
        assert np.array_equal(exp_sum_closed(group, nu, j + group.order), want)
        assert np.array_equal(exp_sum_closed(group, nu, j - group.order), want)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 5), (11, 2), (7, 3), (13, 2)])
def test_bad_character_count_formula_matches_per_character_count(p, k):
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    rng = np.random.default_rng(p + k)
    for size in (1, 2, 3, 5):
        nus = rng.integers(1, p**k, size).tolist()
        nus.append(nus[0] + p)  # the same class mod p counts once
        assert bad_character_count(group, nus) == bad_count_by_character(group, nus)


def test_closed_path_leaves_the_walk_table_unbuilt():
    group = build_group(A_DEFAULT, PrimePower(29, 3))
    scan_characters(group, [1, 2])
    normalized_elements_closed(FourierObservable.harmonic_pair((1, 0)), group)
    assert bad_character_count(group, [1, 2]) == 2 * group.order // 29
    assert find_large(group, 1)
    assert "walk_table" not in group.__dict__
    assert "cayley_table" not in group.__dict__


def test_size_checks_follow_the_allocations(monkeypatch):
    """At the split 11^2 (#C = 110) the group holds p - 1 = 10 powers of g
    and one digit table of p = 11 entries.  A cap of 25 admits them and
    refuses each #C-long table on its own, before it allocates; a closed
    form at a few characters needs none of them."""
    monkeypatch.setattr(quantization, "MAX_ARRAY_ENTRIES", 25)
    group = build_group(A_DEFAULT, PrimePower(11, 2))
    with pytest.raises(SizeLimitError, match="walk table at 11\\^2 needs 110"):
        group.walk_table
    with pytest.raises(SizeLimitError, match="character-sum table at 11\\^2 needs 110"):
        scan_characters(group, [1])
    with pytest.raises(SizeLimitError, match="closed-form sample at 11\\^2 needs 110"):
        normalized_elements_closed(FourierObservable.harmonic_pair((1, 0)), group)
    assert len(exp_sum_closed(group, 1, [0, 1, 2])) == 3
    monkeypatch.setattr(quantization, "MAX_ARRAY_ENTRIES", 20)
    with pytest.raises(SizeLimitError, match="group table at 11\\^2 needs 21"):
        build_group(A_DEFAULT, PrimePower(11, 2))


def test_closed_form_rejects_k1():
    group = build_group(A_DEFAULT, PrimePower(3, 1))
    with pytest.raises(KTooSmallError):
        exp_sum_closed(group, 1, [1])


def test_closed_form_vanishing_is_structural():
    # a good character whose square-root target is a non-residue gives 0
    group = build_group(A_DEFAULT, PrimePower(3, 2))
    table = scan_characters(group, [1])
    zero = by_character(table.good, group.order)[0] & (exp_sum_closed(group, 1, np.arange(group.order)) == 0)
    assert zero.any()
    for t in group.t_parameters(np.flatnonzero(zero)).tolist():
        w = (2 * t + 1) * pow(group.ring.D % 3, -1, 3) % 3
        assert legendre(w, 3) == -1 or not group.ring.in_domain(min(sqrt_set(w, 3, 1), default=0))


def test_good_bound_and_pair_structure():
    # good characters: |E| <= 2 p^(k/2); a nonvanishing sum is a pair of
    # conjugate fiber terms
    for p, k in [(3, 3), (11, 2), (7, 2)]:
        group = build_group(A_DEFAULT, PrimePower(p, k))
        bound = 2 * p ** (k / 2) * (1 + 1e-8)
        table = scan_characters(group, [1])
        assert np.all(np.abs(table.value[by_character(table.good, group.order)]) <= bound)
        assert np.all(np.abs(table.value.imag) < 1e-8 * (1 + np.abs(table.value)))


def test_theta_angle():
    pp = PrimePower(3, 2)  # 2 p^(k/2) = 6
    theta = theta_angle(pp, np.array([0, 6.0, -6.0, 7.0, -7.0]))
    assert theta == pytest.approx([math.pi / 2, 0.0, math.pi, 0.0, math.pi])  # a bad sum's value clips
    # the angles reproduce the values of the good characters
    group = build_group(A_DEFAULT, PrimePower(11, 2))
    table = scan_characters(group, [1, 2])
    good = by_character(table.good, group.order)
    assert np.allclose(2 * 11.0 * np.cos(theta_angle(table.pp, table.value.real[good])), table.value.real[good], atol=1e-9)


def test_check_bound():
    """One class row at the split 11^2 (T = 11, Q = 10): block[q, i] is
    E(nu, chi_(r[i] + 11 q)).  A good sum above 2 p^(k/2) = 22 is refused,
    not clamped to 0 or pi, and named; a bad residue is not bounded."""
    group = build_group(A_DEFAULT, PrimePower(11, 2))
    r = np.array([2, 5, 7])
    block = np.zeros((10, 3), dtype=np.complex128)
    block[4, 0] = 22.0 * (1 + 1e-12)  # within tolerance
    block[6, 2] = -30.0  # bad
    check_bound(group, 3, r, np.abs(block).max(axis=0), np.array([True, True, False]), block)
    block[8, 1] = -22.22
    with pytest.raises(BoundExceededError, match=r"= 1.01 at nu = 3, chi_93 \(tolerance"):
        check_bound(group, 3, r, np.abs(block).max(axis=0), np.array([True, True, False]), block)
    assert issubclass(BoundExceededError, QcatError) and issubclass(BoundExceededError, ArithmeticError)


@pytest.mark.parametrize("p,k,slab_rows", [(11, 2, None), (7, 3, None), (11, 2, 1)])
def test_scan_refuses_a_corrupted_sum(p, k, slab_rows, monkeypatch):
    """A doubled amplitude keeps the lift and realness checks and lifts the
    largest good sums above 2 p^(k/2): the scan raises on the worst one,
    named by its class and character, also when each row of the block is
    a slab of its own."""
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    true = scan_characters(group, [1])
    amplitude = expsum._Fiber._amplitude

    def inflated(*args):
        amp, m = amplitude(*args)
        return 2 * amp, m

    monkeypatch.setattr(expsum._Fiber, "_amplitude", inflated)
    if slab_rows:
        monkeypatch.setattr(expsum, "block_columns", lambda width: slab_rows)
    with pytest.raises(BoundExceededError, match=r"at nu = 1, chi_\d+ ") as err:
        scan_characters(group, [1])
    ratio, j = re.search(r"= (\S+) at nu = 1, chi_(\d+) ", str(err.value)).groups()
    worst = np.abs(true.value[0, by_character(true.good, group.order)[0]]).max()
    assert abs(true.value[0, int(j)]) == worst
    assert float(ratio) == pytest.approx(worst / p ** (k / 2), rel=1e-11)


def test_scan_bad_character_count_and_rows():
    # bad characters for one nu: p^(k-2)(p -+ 1), the kernel of the
    # restriction to the level-one subgroup
    for p, k in [(3, 2), (3, 3), (11, 2)]:
        group = build_group(A_DEFAULT, PrimePower(p, k))
        table = scan_characters(group, [2, 1])
        assert len(table) == 2 * group.order
        assert table.nu.tolist() == [1, 2]
        # the CSV rows run over the characters in index order, and over the sorted classes within each
        keys = [tuple(map(int, line.split(b",")[2:4])) for line in records_to_csv(table).splitlines()[1:]]
        assert keys == [(nu, j) for j in range(group.order) for nu in (1, 2)]
        for row, nu in enumerate((1, 2)):
            n_bad = int(np.count_nonzero(~by_character(table.good, group.order)[row]))
            assert n_bad == group.order // (p ** (k - 1)) * p ** (k - 2)
            assert bad_character_count(group, [nu]) == n_bad
        # a character bad for both classes counts once
        assert bad_character_count(group, [1, 1 + p]) == n_bad
    # at k = 1 characters carry no t-parameter
    assert bad_character_count(build_group(A_DEFAULT, PrimePower(13, 1)), [1]) is None


@pytest.mark.parametrize("p,k", [(7, 2), (5, 3), (3, 4)])
def test_scan_table_equals_bruteforce(p, k):
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    table = assert_table_equals_bruteforce(group, [1])
    chi_index = [int(line.split(b",")[3]) for line in records_to_csv(table).splitlines()[1:]]
    assert chi_index == list(range(group.order))


def test_scan_keeps_no_table_alive():
    """Once the table of a scan is dropped, nothing of it stays allocated:
    no memo keeps roots_table(N) or a #C-long table of roots (3.7 MiB at
    349^2)."""
    group = build_group(A_DEFAULT, PrimePower(349, 2))
    tracemalloc.start()
    try:
        table = scan_characters(group, [1])
        del table
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 0.5e6, kept


def test_good_fiber_terms_conjugate():
    # nonvanishing good sum = p^l * (z + conj(z)) over the two roots
    p = 11
    group = build_group(A_DEFAULT, PrimePower(p, 2))
    table = scan_characters(group, [1])
    nu, j = int(table.nu[0]), int(np.argmax(by_character(table.good & ~table.vanished, group.order)[0]))
    w = (2 * int(group.t_parameters(j)) + nu) * pow(nu * group.ring.D % p, -1, p) % p
    r1, r2 = sqrt_set(w, p, 1)

    def term(x):
        chi = roots_table(group.order)[j * group.dlog(group.ring.cayley_transform(x)) % group.order]
        return roots_table(p * p)[nu * x % (p * p)] * chi

    t1, t2 = term(r1), term(r2)
    assert abs(t1 - t2.conjugate()) < 1e-10
    assert abs(p * (t1 + t2) - table.value[0, j]) < 1e-9


def test_find_large_p3():
    group = build_group(A_DEFAULT, PrimePower(3, 3))
    hits = find_large(group, 1)
    assert hits
    for j, value in hits:
        assert abs(abs(value) - 9) < 1e-6 * 9
        assert (2 * group.t_parameters(j) + 1) % 3 == 0  # 2t = -nu mod p^2 implies bad mod p
    # the large set is the fiber of the t-restriction: order / p^2 members
    assert len(hits) == group.order // 9


def test_find_large_p5():
    group = build_group(matrix_for_prime(5), PrimePower(5, 3))
    hits = find_large(group, 1)
    assert hits and all(abs(abs(v) - 25) < 1e-6 * 25 for _, v in hits)


def test_find_large_wrong_k():
    group = build_group(A_DEFAULT, PrimePower(3, 2))
    with pytest.raises(WrongKError):
        find_large(group, 1)


# -- property tests (derandomized profile, see conftest.py) ---------------

SPACES = [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2)]


@st.composite
def space_and_nu(draw):
    p, k = draw(st.sampled_from(SPACES))
    nu = draw(st.integers(1, p**k - 1).filter(lambda v: v % p != 0))
    return p, k, nu


@given(space_and_nu())
def test_property_table_equals_bruteforce(case):
    p, k, nu = case
    assert_table_equals_bruteforce(build_group(matrix_for_prime(p), PrimePower(p, k)), [nu])


@given(st.sampled_from([5, 13, 17, 29, 3, 7, 11, 19, 23]))
def test_property_gauss_closed_form(p):
    f, g = (a.ravel() for a in np.meshgrid(np.arange(p), np.arange(p)))
    closed = gauss_quadratic_closed(f, g, p)
    direct = np.array([gauss_quadratic(int(a), int(b), p) for a, b in zip(f, g)])
    assert np.abs(closed - direct).max() < 1e-9


@given(space_and_nu())
def test_property_good_matches_is_good(case):
    p, k, nu = case
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    table = scan_characters(group, [nu])
    assert by_character(table.good, group.order)[0].tolist() == good_by_definition(group, nu).tolist()


@st.composite
def hyperbolic_space_and_nu(draw):
    A = TorusAutomorphism(*draw(st.sampled_from(HYPERBOLIC)))
    p = draw(st.sampled_from([p for p in (3, 5, 7, 11, 13) if A.disc % p]))
    k = draw(st.sampled_from([k for k in (2, 3) if p**k <= 2197]))
    nu = draw(st.integers(1, p**k - 1).filter(lambda v: v % p != 0))
    return A, p, k, nu


@given(hyperbolic_space_and_nu())
def test_property_closed_form_random_matrix(case):
    A, p, k, nu = case
    group = build_group(A, PrimePower(p, k))
    table = scan_characters(group, [nu])
    assert np.abs(table.value[0] - exp_sum_bruteforce(group, nu)).max() < 1e-7
    assert by_character(table.good, group.order)[0].tolist() == good_by_definition(group, nu).tolist()
