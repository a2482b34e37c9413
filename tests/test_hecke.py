import functools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qcatmap.errors import (
    EigenClusterError,
    EvenPrimeError,
    NotSplitError,
    RamifiedPrimeError,
    SingularPointError,
    SizeLimitError,
)
from qcatmap.modarith import PrimePower, is_prime, legendre
from qcatmap.quantization import IDENTITY2, TorusAutomorphism, mat_sub, propagator, propagator_apply
from qcatmap import hecke, quantization
from qcatmap.hecke import (
    QuadOrderMod,
    _power_blocks,
    brute_force_norm_one,
    build_group,
    build_split_diagonalizer,
    classify_prime,
    EigenDecomposition,
    eigendecompose,
    fold,
    split_eigenvectors,
    split_match_report,
    trace_sweep,
    unit_character_level,
    unit_dlog_array,
    unfold,
)

from conftest import (
    A_DEFAULT,
    HYPERBOLIC,
    decompose,
    group_walk,
    halves_of,
    kernel_count_exhaustive,
    matrix_for_prime,
    multiplicity,
    stacked_clusters,
    stacked_labels,
    unfolded,
    unit_walk,
)


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
    assert group.dlog(group.ring.one) == 0


# inert at 3, 5, 7 and split at 11, 19, for k = 1..4; the orders 4 and 36 are
# perfect squares, the others (12, 108, 8, 392, 30, 10, 1210, 13310, 6498, ...) are not
POWER_TABLE_SPACES = [(3, 1), (3, 2), (3, 3), (3, 4), (7, 1), (7, 3), (5, 2), (11, 1), (11, 2), (11, 3), (11, 4), (19, 3)]


@pytest.mark.parametrize("p,k", POWER_TABLE_SPACES)
def test_power_tables_match_sequential_walks(p, k):
    A = matrix_for_prime(p)
    group = build_group(A, PrimePower(p, k))
    walk = group_walk(group)
    sorted_enc, sort_perm = group.walk_table
    assert np.array_equal(sorted_enc, np.sort(walk))
    assert np.array_equal(sort_perm, np.argsort(walk))
    if group.kind == "split":
        diag = build_split_diagonalizer(A, group.pp)
        assert np.array_equal(unit_dlog_array(group, diag), unit_walk(group, diag))


def test_power_tables_keep_closing_checks(cat_map):
    group = build_group(cat_map, PrimePower(11, 2))
    diag = build_split_diagonalizer(cat_map, group.pp)
    N, (ga, gb) = group.pp.N, group.gen
    # a y that is not the eigenvalue may map g to a non-unit x_g
    y = next(y for y in range(2, N) if (ga + gb * y) % 11 == 0)
    with pytest.raises(RuntimeError, match="generator maps to a non-unit"):
        unit_dlog_array(group, hecke.SplitDiagonalizer(diag.pp, diag.M, y))
    # a y that is not an eigenvalue but maps g to a unit maps the group
    # onto fewer than #C units
    y = next(y for y in range(N) if y not in (diag.y, diag.y_inv) and (ga + gb * y) % 11 != 0)
    with pytest.raises(RuntimeError, match=r"maps onto \d+ units, expected 110"):
        unit_dlog_array(group, hecke.SplitDiagonalizer(diag.pp, diag.M, y))
    del group.walk_table  # built by unit_dlog_array above
    group.gen = (11, 0)  # not a unit
    with pytest.raises(RuntimeError, match="generator order mismatch"):
        group.walk_table


@pytest.mark.parametrize("p", [100003, 100019])  # inert and split
def test_walk_table_at_k1_is_the_pohlig_hellman_table(p):
    """At k = 1 the Pohlig-Hellman keys a*p + b of the powers mod p are the
    walk table's encodings a*N + b: reading the walk table allocates no
    #C-long array (8 #C bytes for one of int64), and the Pohlig-Hellman
    dlog of each entry is the exponent it records."""
    group = build_group(A_DEFAULT, PrimePower(p, 1))
    tracemalloc.start()
    try:
        enc, perm = group.walk_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < group.order, peak
    assert np.all(np.diff(enc) > 0) and np.array_equal(np.sort(perm), np.arange(group.order))
    assert np.array_equal(group.dlogs((enc // p, enc % p)), perm)


@pytest.mark.parametrize("block", [1000, hecke.POWER_BLOCK])
@pytest.mark.parametrize("p", [3001, 10007])
def test_power_blocks_without_int64_overflow(p, block, monkeypatch):
    """The first 10^4 powers of an element mod p^2 in a ring whose t is near
    N: unreduced, b*d*t would be near N^3 > 2^63.  Blocks of 1000 entries
    are 10 rows of 100 powers each."""
    monkeypatch.setattr(hecke, "POWER_BLOCK", block)
    pp = PrimePower(p, 2)
    N = pp.N
    ring = QuadOrderMod(TorusAutomorphism(N - 6, 1, N - 7, 1), pp)  # trace N - 5
    assert ring.t == N - 5 and (N - 1) ** 3 > 2**63 > 3 * N**2
    g = (N - 2, N - 3)
    want = np.empty((2, 10**4), dtype=np.int64)
    a, b = ring.one
    for m in range(10**4):  # Python ints do not overflow
        want[:, m] = a, b
        a, b = (a * g[0] - b * g[1]) % N, (a * g[1] + b * g[0] + b * g[1] * ring.t) % N
    blocks = list(_power_blocks(g, ring.one, ring.mul, 10**4))
    sizes = [x.shape[1] for _, x in blocks]
    assert [m0 for m0, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
    assert len(blocks) == -(-(10**4) // block)
    assert np.array_equal(np.concatenate([x for _, x in blocks], axis=1), want)


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
    # split case has two singular lines mod p
    ring11 = build_group(cat_map, PrimePower(11, 1)).ring
    bad = next(x for x in range(11) if not ring11.in_domain(x))
    with pytest.raises(SingularPointError):
        ring11.cayley_transform(bad)
    # on an array the error names the first of its singular x
    with pytest.raises(SingularPointError, match=rf"D\*{bad}\^2 = 1 mod 11"):
        ring11.cayley_transform(np.array([1, 2, bad, 11 - bad, 4], dtype=np.int64))


@pytest.mark.parametrize("p,k", [(7, 1), (7, 2), (7, 3), (11, 1), (11, 2), (11, 3)])
def test_cayley_table_matches_per_x_loop(p, k, monkeypatch):
    """The array Cayley table, inert at 7 and split at 11, equals one scalar
    Cayley map and dlog per x; blocks of 5 values of x put block
    boundaries inside N."""
    monkeypatch.setattr(quantization, "BLOCK_BYTES", 16 * 5)
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    ring = group.ring
    loop = [group.dlog(ring.cayley_transform(x)) if ring.in_domain(x) else -1 for x in range(group.pp.N)]
    assert group.cayley_table.tolist() == loop


def test_cayley_table_size_cap(cat_map, monkeypatch):
    """At the split 11^2 a cap of 115 admits the walk table (#C = 110) and
    refuses the Cayley table (N = 121) before it allocates."""
    monkeypatch.setattr(quantization, "MAX_ARRAY_ENTRIES", 115)
    group = build_group(cat_map, PrimePower(11, 2))
    with pytest.raises(SizeLimitError, match="Cayley table at 11\\^2"):
        group.cayley_table


@pytest.mark.parametrize("p,k", [(3, 3), (11, 2), (5, 3), (3, 5)])
def test_cayley_bijection_onto_nontrivial_part(p, k):
    A = matrix_for_prime(p)
    pp = PrimePower(p, k)
    group = build_group(A, pp)
    ring = group.ring
    image = {ring.cayley_transform(x) for x in range(pp.N) if ring.in_domain(x)}
    target = {group.element(m) for m in range(group.order) if ring.congruence_level(group.element(m)) == 0}
    assert image == target
    assert len(image) == sum(ring.in_domain(x) for x in range(pp.N))  # injective


def test_congruence_subgroup_sizes(cat_map):
    # #{beta = 1 mod p^l} = p^(k-l) for 1 <= l <= k, either kind
    for p, k in [(3, 2), (3, 3), (11, 2)]:
        group = build_group(matrix_for_prime(p), PrimePower(p, k))
        for l in range(1, k + 1):
            census = sum(
                1 for m in range(group.order) if group.ring.congruence_level(group.element(m)) >= l
            )
            assert census == p ** (k - l)


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


# inert at 3, 5 (trace 4), 7, 13 and split at 11, 19; #C up to 123,462
DLOG_SPACES = [(p, k) for p in (3, 5, 7, 11, 13, 19) for k in (1, 2, 3, 4)]


@functools.cache
def shared_group(p: int, k: int):
    return build_group(matrix_for_prime(p), PrimePower(p, k))


@given(st.sampled_from(DLOG_SPACES), st.data())
def test_property_dlog_inverts_element(space, data):
    group = shared_group(*space)
    m = data.draw(st.integers(0, group.order - 1))
    assert group.dlog(group.element(m)) == m


@given(st.sampled_from(DLOG_SPACES), st.sampled_from(["pair", "element", "shifted"]), st.data())
def test_property_membership_matches_dlog_table(space, kind, data):
    """A random pair, a group element, or one shifted by a multiple of
    p^(k-1) in one coordinate (a near miss) is in the group exactly when
    the dlog table finds it."""
    group = shared_group(*space)
    N, p = group.pp.N, group.pp.p
    if kind == "pair":
        u = (data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1)))
    else:
        u = group.element(data.draw(st.integers(0, group.order - 1)))
    if kind == "shifted":
        step = data.draw(st.integers(1, p - 1)) * (N // p)
        u = ((u[0] + step) % N, u[1]) if data.draw(st.booleans()) else (u[0], (u[1] + step) % N)
    try:
        group.dlog_encoded(np.array([group.encode(u)]))
        found = True
    except KeyError:
        found = False
    assert (group.ring.norm(u) == 1) == found
    assert found or kind != "element"


@st.composite
def pohlig_hellman_space(draw):
    """A hyperbolic matrix, an odd prime below 60 that does not divide its
    discriminant (split or inert) and an exponent 1-5, with N <= 200,000
    so that the walk table stays small."""
    A = TorusAutomorphism(*draw(st.sampled_from(HYPERBOLIC)))
    p = draw(st.sampled_from([p for p in range(3, 60) if is_prime(p) and A.disc % p]))
    k = draw(st.sampled_from([k for k in range(1, 6) if p**k <= 200_000]))
    return A, p, k


@given(pohlig_hellman_space(), st.data())
def test_property_pohlig_hellman_equals_walk_table(space, data):
    """The Pohlig-Hellman dlog of g^m is m, and it equals the walk table's
    dlog at random powers and at Cayley points; a pair of norm != 1 raises
    KeyError, alone or among members."""
    A, p, k = space
    group = build_group(A, PrimePower(p, k))
    ring, N = group.ring, group.pp.N
    m = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=8))
    powers = [group.element(e) for e in m]
    a, b = (np.array(c, dtype=np.int64) for c in zip(*powers))
    assert group.dlogs((a, b)).tolist() == m
    assert group.dlog_encoded(group.encode((a, b))).tolist() == m
    xs = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=8)), dtype=np.int64)
    xs = xs[ring.in_domain(xs)]
    walk = group.dlog_encoded(group.encode(ring.cayley_transform(xs)))
    assert np.array_equal(group.cayley_dlogs(xs), walk)
    u = (data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1)))
    if ring.norm(u) != 1:
        with pytest.raises(KeyError, match="outside the norm-one group"):
            group.dlog(u)
        with pytest.raises(KeyError, match="outside the norm-one group"):
            group.dlogs((np.append(a, u[0]), np.append(b, u[1])))
    else:
        assert group.element(group.dlog(u)) == u


# A = [[t - 1, 1], [t - 2, 1]] has trace t; (t, p, k) with p split for it
SPLIT_CASES = [
    (t, p, k)
    for t in range(3, 30)
    for p in range(3, 60)
    if is_prime(p) and (t * t - 4) % p and legendre(t * t - 4, p) == 1
    for k in (1, 2, 3, 4)
    if p**k <= 100_000
]


@given(st.sampled_from(SPLIT_CASES))
def test_property_unit_dlogs_equal_unit_walk(case):
    t, p, k = case
    A = TorusAutomorphism(t - 1, 1, t - 2, 1)
    group = build_group(A, PrimePower(p, k))
    diag = build_split_diagonalizer(A, group.pp)
    assert np.array_equal(unit_dlog_array(group, diag), unit_walk(group, diag))


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (3, 5), (11, 2), (5, 3)])
def test_t_parameter_defining_relation_exhaustive(p, k):
    """chi(unit(x)) = e(t x / t_mod) for every character and every x."""
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    mod_t = group.t_modulus
    order = group.order
    j = np.arange(order)
    t = group.t_parameters(j)
    for x in range(mod_t):
        lhs = j * group.dlog(group.principal_unit(x)) % order  # exponent of chi_j(unit(x))
        # e(lhs/order) must equal e(t x / mod_t), i.e. lhs*mod_t = t*x*order
        assert np.all((lhs * mod_t - t * x * order) % (order * mod_t) == 0)


def test_t_parameter_additivity_and_trivial():
    group = build_group(A_DEFAULT, PrimePower(3, 3))
    assert group.t_parameters(0) == 0
    mod_t = group.t_modulus
    for i, j in [(1, 2), (5, 7), (10, 3)]:
        s = (group.t_parameters(i) + group.t_parameters(j)) % mod_t
        assert group.t_parameters((i + j) % group.order) == s


def test_hecke_operators_commute(cat_map):
    pp = PrimePower(3, 2)
    group = build_group(cat_map, pp)
    ops = [propagator(group.ring.matrix_of(group.element(m)), pp) for m in (1, 3, 7)]
    for X in ops:
        for Y in ops:
            assert np.abs(X @ Y - Y @ X).max() < 1e-7


def test_eigendecompose_inert_multiplicity_one(cat_map):
    halves = decompose(cat_map, 3, 2)
    assert [half.shape for half in halves] == [(9, 5), (9, 4)]
    assert len(stacked_clusters(halves)) == 9
    for half in halves:
        assert all(len(cols) == 1 for cols in half.clusters.values())


@pytest.mark.parametrize(
    "matrix,p,k", [(A_DEFAULT, 37, 2), (A_DEFAULT, 11, 3), (TorusAutomorphism(1, 1, -5, -4), 11, 1)]
)
def test_rayleigh_quotients_are_the_label_eigenvalues(matrix, p, k):
    """Each column's Rayleigh quotient <v, U v> under the matrix-free
    U = U(iota(g)) is the eigenvalue e^(i angle / (#C/2)) e(l / #C) of its
    label l, within 1e-12.  The labels ascend, even on the even half and
    odd on the odd half."""
    group = build_group(matrix, PrimePower(p, k))
    apply = propagator_apply(group.ring.matrix_of(group.gen), group.pp)
    for half in halves_of(group):
        V = half.columns(slice(None))
        rayleigh = np.einsum("ij,ij->j", V.conj(), apply(V))
        model = np.exp(1j * (half.angle / (group.order // 2) + 2 * np.pi * half.labels / group.order))
        assert np.abs(rayleigh - model).max() < 1e-12
        assert np.all(half.labels % 2 == (1 - half.parity) // 2)
        assert np.all(np.diff(half.labels) >= 0)


def test_eigendecompose_character_count_identity(cat_map):
    # sum of n_chi^2 equals (1/#C) sum |Tr U(iota(beta))|^2 = p^k
    for p, k in [(3, 2), (3, 3)]:
        pp = PrimePower(p, k)
        halves = decompose(cat_map, p, k)
        order = halves[0].group.order
        tr2 = trace_sweep(halves[0].group, multiplicity(halves)).trace_sq
        assert abs(tr2.sum() / order - pp.N) < 1e-6 * pp.N
        assert sum(len(c) for c in stacked_clusters(halves).values()) == pp.N


@example(1, 0)  # N = 3
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_property_fold_unfold_round_trip(h, seed):
    """At odd N = 2h + 1, unfold inverts fold on even columns and on odd
    ones, the fold of any vector is that of its part of the given parity,
    and the fold keeps the norms and the inner products of the columns of
    one parity."""
    N = 2 * h + 1
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((N, 4)) + 1j * rng.standard_normal((N, 4))
    for parity in (1, -1):
        cols = u[:, [0, 1] if parity > 0 else [2, 3]]
        v = (cols + cols[-np.arange(N) % N] * parity) / 2
        w = fold(v, parity)
        assert w.shape == (h + 1, 2)
        assert np.abs(fold(cols, parity) - w).max() <= 1e-14 * np.abs(cols).max()
        assert np.array_equal(fold(cols[:, 0], parity), fold(cols, parity)[:, 0])
        assert np.abs(unfold(w, parity, N) - v).max() <= 1e-14 * np.abs(v).max()
        # unfolded in place: w held in the memory of out's first h + 1 rows,
        # laid out by columns, as EigenDecomposition.columns gathers it
        out = np.empty((N, 2), dtype=complex)
        w_in = out.reshape(-1)[: w.size].reshape(2, h + 1).T
        w_in[:] = w
        assert unfold(w_in, parity, N, out=out) is out and np.array_equal(out, unfold(w, parity, N))
        gram = v.conj().T @ v
        assert np.abs(w.conj().T @ w - gram).max() <= 1e-13 * np.abs(gram).max()


def dense_oracle_eig(U: np.ndarray, half: int, parity: int, angle: float | None):
    """The eigenpairs of the dense _eig_unitary in the form eigen_blocks
    hands them out, as one block: the folded columns of the given parity,
    labelled 2j (even) or 2j + 1 (odd) by the row j of each, ascending,
    and the angle of U^half on the even vectors, measured on these
    columns' eigenvalues unless it is given.  A column's row is the
    nearest j with lambda = e^(i walk / half) e(j / half), where walk is
    angle on the even vectors and angle + pi on the odd ones.  Every dense
    column must be even or odd: U(g)^half is the parity operator up to a
    phase."""
    lam, V = hecke._eig_unitary(U)
    reflected = V[-np.arange(len(V)) % len(V)]
    parities = np.where(np.einsum("ij,ij->j", V.conj(), reflected).real > 0, 1, -1)
    assert np.abs(reflected - V * parities).max() < 1e-10
    keep = parities == parity
    lam, V = lam[keep], V[:, keep]
    shift = 0.0 if parity > 0 else math.pi
    walk = float(np.angle(np.mean(lam**half))) if angle is None else angle + shift
    rows = np.rint((np.angle(lam) - walk / half) * half / (2 * np.pi)).astype(np.int64) % half
    assert np.abs(lam - np.exp(1j * (walk + 2 * np.pi * rows) / half)).max() < 1e-8
    order = np.argsort(rows, kind="stable")
    return fold(V[:, order], parity), 2 * rows[order] + (1 - parity) // 2, walk - shift if angle is None else angle


def assert_orbit_matches_dense_oracle(group, monkeypatch):
    """eigendecompose through the orbit solver against the dense _eig_unitary
    route, both halves stacked: orthonormality, residuals and cluster
    projectors; returns the orbit decomposition's halves."""
    N, order = group.pp.N, group.order
    orbit = halves_of(group)
    U = propagator(group.ring.matrix_of(group.gen), group.pp)
    monkeypatch.setattr(
        hecke,
        "eigen_blocks",
        lambda group, parity, angle: iter([EigenDecomposition(group, parity, *dense_oracle_eig(U, order // 2, parity, angle))]),
    )
    dense = halves_of(group)
    V = unfolded(orbit)
    assert np.abs(V.conj().T @ V - np.eye(N)).max() < 1e-10
    # residual against the dense propagator; its Rayleigh quotients fit its phase
    W = U @ V
    lam = np.einsum("ij,ij->j", V.conj(), W)
    assert np.linalg.norm(W - V * lam[None, :], axis=0).max() < 1e-8
    # the same cluster projectors up to one label shift: for orthonormal
    # bases, ||P_c - P'_c||_F^2 = dim P' - dim P + 2 * (the weight of cluster
    # c's columns outside dense cluster c' = c + shift)
    M = np.abs(unfolded(dense).conj().T @ V) ** 2
    dense_labels, orbit_labels = stacked_labels(dense), stacked_labels(orbit)
    shift = (dense_labels[np.argmax(M[:, 0])] - orbit_labels[0]) % order
    outside = (dense_labels[:, None] - orbit_labels[None, :] - shift) % order != 0
    leak = (M * outside).sum(axis=0)
    dense_multiplicity = Counter(dense_labels.tolist())
    worst = max(
        math.sqrt(dense_multiplicity[(label + shift) % order] - len(cols) + 2 * leak[cols].sum())
        for label, cols in stacked_clusters(orbit).items()
    )
    assert worst < 1e-9
    return orbit


@pytest.mark.parametrize("p,k", [(3, 3), (13, 2), (11, 2), (11, 3)])
def test_orbit_eigendecompose_matches_dense_oracle(cat_map, p, k, monkeypatch):
    assert_orbit_matches_dense_oracle(build_group(cat_map, PrimePower(p, k)), monkeypatch)


def test_orbit_eigendecompose_when_generator_power_is_minus_identity(monkeypatch):
    """At (1, 1, -5, -4), split 11^1, the matrix-free U(g)^#C is -I: the
    phase of U^#C v sits at +-pi, and every orbit must use the first one's
    branch, or the eigenspace rows of later orbits shift by one."""
    group = build_group(TorusAutomorphism(1, 1, -5, -4), PrimePower(11, 1))
    assert group.kind == "split"
    apply = propagator_apply(group.ring.matrix_of(group.gen), group.pp)
    W = np.eye(group.pp.N, dtype=complex)
    for _ in range(group.order):
        W = apply(W)
    assert np.abs(W + np.eye(group.pp.N)).max() < 1e-12
    clusters = stacked_clusters(assert_orbit_matches_dense_oracle(group, monkeypatch))
    assert len(clusters) == 10
    assert Counter(len(cols) for cols in clusters.values()) == {1: 9, 2: 1}


def test_halves_share_one_label_grid_when_generator_power_is_minus_identity():
    """At (1, 1, -5, -4), split 11^1, U(g)^#C = -I, so U(g)^(#C/2) is +-i
    on the even vectors.  The odd half walks on the even half's angle plus
    pi, so the halves label on one grid: the even labels are even, the odd
    ones odd, and together they name every character once.  Walked on the
    other branch of that angle, 2 pi lower, each odd eigenspace moves one
    orbit row, and its label two: off the even half's grid by one twist."""
    group = build_group(TorusAutomorphism(1, 1, -5, -4), PrimePower(11, 1))
    even, odd = halves_of(group)
    order = group.order
    assert odd.angle == even.angle
    assert abs(abs(even.angle) - math.pi / 2) < 1e-12
    assert np.all(even.labels % 2 == 0) and np.all(odd.labels % 2 == 1)
    assert sorted(set(even.labels.tolist()) | set(odd.labels.tolist())) == list(range(order))
    other = eigendecompose(group, -1, even.angle - 2 * math.pi)
    # the column of other holding each odd column: the folds are isometries
    match = np.argmax(np.abs(other.folded.conj().T @ odd.folded), axis=0)
    assert np.array_equal(other.labels[match], (odd.labels + 2) % order)


@pytest.mark.parametrize("p,kind", [(37, "inert"), (29, "split")])
def test_orbit_start_vectors_are_pinned(cat_map, p, kind, monkeypatch):
    """The start vectors of p^2, one at 37 and k + 1 = 3 at the split 29,
    are the consecutive 16 N-byte slices of one randbytes stream of
    random.Random("orbit start p 2 [2, 1, 1, 1]"): each byte slice read as
    little-endian uint64 words w, real and imaginary parts (w >> 11) 2^-52 - 1
    alternating, then scaled to a unit vector."""
    group = build_group(cat_map, PrimePower(p, 2))
    assert group.kind == kind
    N, starts = group.pp.N, []
    giant_rows = hecke._giant_rows

    def spy(giant, v, *args):
        starts.append(v.copy())
        return giant_rows(giant, v, *args)

    monkeypatch.setattr(hecke, "_giant_rows", spy)
    list(hecke.eigen_blocks(group, 1))
    count = len(starts)
    assert count == (1 if kind == "inert" else 3)
    list(hecke.eigen_blocks(group, -1))  # both parities walk from the same vectors
    assert len(starts) == 2 * count
    assert all(np.array_equal(a, b) for a, b in zip(starts[:count], starts[count:]))
    raw = random.Random(f"orbit start {p} 2 [2, 1, 1, 1]").randbytes(16 * N * count)
    for i, v in enumerate(starts[:count]):
        words = np.frombuffer(raw[16 * N * i : 16 * N * (i + 1)], dtype="<u8")
        expected = ((words >> 11) * 2.0**-52 - 1.0).view(np.complex128)
        assert np.array_equal(v, expected / np.linalg.norm(expected))


def orbit_projections(apply, v: np.ndarray, half: int, parity: int, angle: float | None):
    """The single-walk orbit DFT that the two-level walk replaced, kept as
    its oracle: row j (< half) is the folded projection of the unit vector
    v onto the eigenspace of U = apply of the given parity, +1 (even) or
    -1 (odd), with eigenvalue e^(i angle / half) e(j / half).  Also returns
    angle, taken from U^half on the part of v of the parity when it is
    None.  Every step U^m v, m < half, is folded into a half x (N+1)/2
    orbit, which the twist and one DFT along m turn into the rows."""
    orbit = np.empty((half, (len(v) + 1) // 2), dtype=complex)
    w = v
    for m in range(half):
        fold(w, parity, out=orbit[m])
        w = apply(w)
    if angle is None:  # U^half is a scalar on the part of v of the parity
        angle = float(np.angle(np.vdot(fold(v, parity), fold(w, parity))))
    orbit *= np.exp(-1j * angle / half * np.arange(half))[:, None]
    return np.fft.fft(orbit, axis=0) / half, angle


def two_level_projections(group, v: np.ndarray, parity: int, walk: float | None):
    """The rows of orbit_projections for U = U(iota(g)), from the pieces of
    the two-level walk: the giant rows of v, and the baby rows of every
    residue class t mod b, all walking together, which are the rows
    j = t + b s."""
    half = group.order // 2
    a, b = hecke._walk_sizes(half)
    apply = propagator_apply(group.ring.matrix_of(group.gen), group.pp)
    giant = hecke._giant_step(group, a)
    Y, walk = hecke._giant_rows(giant, v, parity, b, hecke._step_turn(apply, giant, v, a), walk)
    R = hecke._baby_rows(apply, Y, parity, walk, half, np.arange(b), a)
    return R.transpose(0, 2, 1).reshape(half, -1), walk


ORACLE_SPACES = [(p, k) for p in (3, 5, 7, 11, 13) for k in (1, 2, 3)]


@given(st.sampled_from(HYPERBOLIC), st.sampled_from(ORACLE_SPACES), st.sampled_from([1, -1]), st.integers(0, 2**32 - 1))
@example((2, 1, 1, 1), (13, 1), 1, 0)  # inert, half = 7: one walk, b = 1
@example((2, 1, 1, 1), (11, 1), -1, 1)  # split, half = 5: one walk, b = 1
@example((2, 1, 1, 1), (13, 3), -1, 2)  # half = 1183 = 13 x 91
def test_property_two_level_rows_equal_the_single_walk(mat, space, parity, seed):
    """Every projection row of the two-level walk, on the single walk's
    angle, equals the single walk's row within 1e-12 of the largest row
    norm, and the angle that the giant steps measure is the single
    walk's.  A prime half (only at k = 1) has b = 1, the single walk."""
    A, (p, k) = TorusAutomorphism(*mat), space
    assume(A.disc % p != 0)
    group = build_group(A, PrimePower(p, k))
    half = group.order // 2
    a, b = hecke._walk_sizes(half)
    assert a * b == half and (b == 1) == (half == 1 or is_prime(half))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(group.pp.N) + 1j * rng.standard_normal(group.pp.N)
    v /= np.linalg.norm(v)
    apply = propagator_apply(group.ring.matrix_of(group.gen), group.pp)
    expected, walk = orbit_projections(apply, v, half, parity, None)
    rows, _ = two_level_projections(group, v, parity, walk)
    assert np.abs(rows - expected).max() <= 1e-12 * np.linalg.norm(expected, axis=1).max()
    _, measured = two_level_projections(group, v, parity, None)
    assert abs(np.exp(1j * measured) - np.exp(1j * walk)) < 1e-12


def test_dense_oracle_retries_a_colliding_gamma(monkeypatch):
    """Two eigenphases a != b with cos a + g sin a = cos b + g sin b for the
    first gamma g make one eigenvalue of H double, so its eigh basis mixes
    them; the residual check rejects it and the next seeded gamma parts
    them."""
    import scipy.linalg

    g = 0.7548776662466927
    a = 0.3
    b = 2 * math.atan2(g, 1.0) - a
    phases = np.array([a, b, 1.0, 2.0, -1.5, 2.8])
    assert abs((math.cos(a) + g * math.sin(a)) - (math.cos(b) + g * math.sin(b))) < 1e-15
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    U = Q @ np.diag(np.exp(1j * phases)) @ Q.conj().T
    calls = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh", lambda H, **kw: calls.append(1) or eigh(H, **kw))
    lam, V = hecke._eig_unitary(U)
    assert len(calls) == 2
    assert np.abs(U @ V - V * lam[None, :]).max() < 1e-10
    assert np.allclose(np.sort(np.angle(lam)), np.sort(phases))


class Reached(Exception):
    pass


def reached(*args):
    raise Reached


def test_eigendecompose_size_cap(cat_map, monkeypatch):
    """The check counts one parity's folded basis, (N+1)/2 x (N + parity)/2:
    the inert 137^2 (9385 x 9385, 8.81e7 entries) is refused before any
    allocation, and the inert 127^2 (8065 x 8065, 6.50e7 entries) is
    admitted."""
    group = build_group(cat_map, PrimePower(137, 2))
    assert group.kind == "inert"
    monkeypatch.setattr(hecke, "eigen_blocks", lambda group, parity, angle: pytest.fail("allocated past the cap"))
    for parity in (1, -1):
        with pytest.raises(SizeLimitError):
            eigendecompose(group, parity)
    group = build_group(cat_map, PrimePower(127, 2))
    assert group.kind == "inert"
    monkeypatch.setattr(hecke, "eigen_blocks", reached)
    with pytest.raises(Reached):
        eigendecompose(group, 1)


def test_eigendecompose_size_cap_admits_split_101_squared(cat_map, monkeypatch):
    """The split 101^2 needs a folded basis of 5101 x 5101, 2.6e7 entries,
    under the cap: the check lets it through to the solver."""
    group = build_group(cat_map, PrimePower(101, 2))
    assert group.kind == "split"
    monkeypatch.setattr(hecke, "eigen_blocks", reached)
    with pytest.raises(Reached):
        eigendecompose(group, 1)


def test_orbit_walk_size_cap(cat_map, monkeypatch):
    """eigen_blocks checks its giant rows and one baby walk, (b (k + 1) + a)
    (N+1)/2 entries at split primes, against the cap before it walks."""
    group = build_group(cat_map, PrimePower(29, 2))
    a, b = hecke._walk_sizes(group.order // 2)
    need = (3 * b + a) * (group.pp.N + 1) // 2
    monkeypatch.setattr(quantization, "MAX_ARRAY_ENTRIES", need - 1)
    monkeypatch.setattr(hecke, "propagator_apply", lambda *args: pytest.fail("walked past the cap"))
    with pytest.raises(SizeLimitError, match="orbit walk"):
        next(hecke.eigen_blocks(group, 1))
    monkeypatch.setattr(quantization, "MAX_ARRAY_ENTRIES", need)
    monkeypatch.setattr(hecke, "propagator_apply", reached)
    with pytest.raises(Reached):
        next(hecke.eigen_blocks(group, 1))


@pytest.mark.parametrize("p,kind", [(13, "inert"), (11, "split")])
def test_residual_check_rejects_mixed_and_misparity_columns(cat_map, p, kind):
    """The residual check passes each half of the solver's own basis
    against the eigenvalues of its labels, and raises EigenClusterError
    when one folded column, even or odd, is mixed with the nearest
    eigenspace of its parity, or when a column of the other parity takes
    its place, so that it is unfolded with the wrong parity."""
    group = build_group(cat_map, PrimePower(p, 2))
    assert group.kind == kind
    halves = halves_of(group)
    apply = propagator_apply(group.ring.matrix_of(group.gen), group.pp)
    for decomp, other_half in zip(halves, halves[::-1]):
        V, s, labels = decomp.folded, decomp.parity, decomp.labels
        lam = np.exp(1j * (decomp.angle / (group.order // 2) + 2 * np.pi * labels / group.order))
        hecke._check_residuals(apply, V, s, lam)
        col = len(V) // 3
        other = np.flatnonzero(labels != labels[col])
        near = int(other[np.argmin(np.abs(lam[other] - lam[col]))])
        mixed = V.copy()
        mixed[:, col] = (V[:, col] + V[:, near]) / math.sqrt(2)
        with pytest.raises(EigenClusterError, match="residual"):
            hecke._check_residuals(apply, mixed, s, lam)
        flipped = V.copy()
        flipped[:, col] = other_half.folded[:, col]
        with pytest.raises(EigenClusterError, match="residual"):
            hecke._check_residuals(apply, flipped, s, lam)


@pytest.mark.parametrize(
    "p,kind,offset,fault",
    [(37, "inert", 1e-5, "found"), (11, "split", 1e-5, "found"), (37, "inert", 1e-7, "residual")],
)
def test_odd_half_off_the_even_angle_fails(cat_map, p, kind, offset, fault):
    """An odd half walked on the even half's angle plus an offset leaves in
    each orbit row a little of the eigenspaces of the other rows: at 1e-5
    rows that hold no eigenspace pass the rank test, and the solver finds
    more eigenvectors than the parity has; at 1e-7 the columns are off
    their label eigenvalues by more than the residual tolerance."""
    group = build_group(cat_map, PrimePower(p, 2))
    assert group.kind == kind
    even = eigendecompose(group, 1)
    with pytest.raises(EigenClusterError, match=fault):
        eigendecompose(group, -1, even.angle + offset)


def test_eigendecompose_split_multiplicity_pattern(cat_map):
    sizes = Counter(len(cols) for cols in stacked_clusters(decompose(cat_map, 11, 2)).values())
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


def test_split_diagonalizer_size_cap(cat_map, monkeypatch):
    """At the split 11^2 a cap of 115 refuses the table of square roots
    mod N = 121 before sqrt_set builds it."""
    def no_table(*args):
        raise AssertionError("sqrt_set called past the size check")

    monkeypatch.setattr(quantization, "MAX_ARRAY_ENTRIES", 115)
    monkeypatch.setattr(hecke, "sqrt_set", no_table)
    with pytest.raises(SizeLimitError, match="square-root table at 11\\^2 needs 121"):
        build_split_diagonalizer(cat_map, PrimePower(11, 2))


def test_split_eigenfunction_is_joint_eigenfunction(cat_map):
    for p, k in [(11, 1), (11, 2)]:
        pp = PrimePower(p, k)
        group = build_group(cat_map, pp)
        diag = build_split_diagonalizer(cat_map, pp)
        ops = [propagator(group.ring.matrix_of(group.element(m)), pp) for m in (1, 5)]
        block = split_eigenvectors(group, diag, unit_dlog_array(group, diag), [1, 3, group.order - 1])
        assert np.abs(np.linalg.norm(block, axis=0) - 1).max() < 1e-10
        for v in block.T * math.sqrt(pp.N):  # unit vectors of H_N
            for op in ops:
                w = op @ v
                lam = np.vdot(v, w) / np.vdot(v, v)
                assert abs(abs(lam) - 1) < 1e-8
                assert np.abs(w - lam * v).max() < 1e-7


def test_split_match_report_small(cat_map):
    rep = split_match_report(build_group(cat_map, PrimePower(11, 2)))
    assert rep.max_residual < 1e-7
    assert rep.multiplicities_ok
    assert rep.shift_ok


def test_trace_sweep_matches_dense_propagator(cat_map):
    pp = PrimePower(3, 3)
    group = build_group(cat_map, pp)
    sweep = trace_sweep(group, multiplicity(halves_of(group)))
    # the identity: level 3, |Tr|^2 = #ker = p^(2k)
    assert sweep.level[0] == 3 and sweep.kernel[0] == 3**6
    # one element of each level 0, 1, 2 (inert: #ker = p^(2l)), and a few more
    first_of_level = {}
    for m, level in enumerate(sweep.level.tolist()):
        first_of_level.setdefault(level, m)
    assert {0, 1, 2, 3} <= set(first_of_level)
    sample = sorted({first_of_level[level] for level in (0, 1, 2)} | {1, 5, group.order - 1})
    for m in sample:
        U = propagator(group.ring.matrix_of(group.element(m)), pp)
        dense = abs(np.trace(U)) ** 2
        assert abs(dense - sweep.trace_sq[m]) <= hecke.TRACE_TOL * sweep.kernel[m]
        assert sweep.kernel[m] == 3 ** (2 * sweep.level[m])


def test_trace_spectral_sweep_matches_kernels(cat_map):
    for p, k in [(3, 3), (7, 2), (13, 2), (11, 2)]:
        pp = PrimePower(p, k)
        group = build_group(cat_map, pp)
        sweep = trace_sweep(group, multiplicity(halves_of(group)))
        assert sweep.worst_gap <= hecke.TRACE_TOL
        oracle = [
            kernel_count_exhaustive(mat_sub(group.ring.matrix_of(group.element(m)), IDENTITY2), pp.N)
            for m in range(group.order)
        ]
        assert sweep.kernel.tolist() == oracle
        assert sweep.level.tolist() == [group.ring.congruence_level(group.element(m)) for m in range(group.order)]
        if group.kind == "inert":
            assert np.array_equal(sweep.kernel, p ** (2 * sweep.level))
    # one NaN trace makes the worst gap NaN, which fails every <= tolerance
    trace_sq = sweep.trace_sq.copy()
    trace_sq[3] = np.nan
    assert np.isnan(hecke.TraceSweep(trace_sq, sweep.kernel, sweep.level).worst_gap)
