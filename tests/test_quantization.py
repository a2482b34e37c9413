import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcatmap.errors import NotUnimodularError, SizeLimitError
from qcatmap.hecke import unfold
from qcatmap.modarith import PrimePower
from qcatmap.quantization import (
    IDENTITY2,
    FourierObservable,
    TorusAutomorphism,
    apply_elementary,
    block_columns,
    diagonal_reader,
    elementary_diagonals,
    elementary_matrix,
    kernel_count,
    mat_mul,
    mat_sub,
    op_of_observable,
    propagator,
    propagator_apply,
    row_action,
    uniforms,
)

from conftest import decompose, kernel_count_exhaustive, unfolded

PP5 = PrimePower(5, 1)
PP9 = PrimePower(3, 2)


def random_state(pp, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=pp.N) + 1j * rng.normal(size=pp.N)


def norm_h(x: np.ndarray) -> float:
    """The norm of H_N, with the 1/N-weighted inner product."""
    return float(np.linalg.norm(x)) / math.sqrt(len(x))


def delta(pp, y: int) -> np.ndarray:
    out = np.zeros(pp.N, dtype=np.complex128)
    out[y % pp.N] = 1.0
    return out


def test_uniforms_on_the_53_bit_grid_in_one_stream():
    """uniforms: each value is the top 53 bits of a little-endian 64-bit
    word of randbytes over 2^53 (Python's exact int division as the
    oracle), so it lies in [0, 1) on the 2^-53 grid; the same generator
    state gives the same values, and successive calls continue one stream."""
    rng = random.Random("uniforms")
    state = rng.getstate()
    u = uniforms(rng, 10_000)
    assert u.dtype == np.float64 and u.shape == (10_000,)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
    raw = random.Random("uniforms").randbytes(80_000)
    assert u.tolist() == [(int.from_bytes(raw[i : i + 8], "little") >> 11) / 2**53 for i in range(0, 80_000, 8)]
    rng.setstate(state)
    assert np.array_equal(np.concatenate([uniforms(rng, 3), uniforms(rng, 0), uniforms(rng, 9_997)]), u)
    assert np.array_equal(uniforms(rng, 5), uniforms(random.Random("uniforms"), 10_005)[10_000:])


def test_automorphism_validation():
    A = TorusAutomorphism(2, 1, 1, 1)
    assert A.trace == 3 and A.disc == 5
    with pytest.raises(NotUnimodularError):
        TorusAutomorphism(2, 1, 1, 2)
    with pytest.raises(ValueError):
        TorusAutomorphism(0, 1, -1, 0)  # rotation: trace 0


def test_apply_elementary_examples():
    psi = random_state(PrimePower(3, 1), 3)
    out = apply_elementary((0, 0), psi)
    assert np.allclose(out, psi)
    # translation: delta_0 -> delta_2 for n = (1, 0), N = 3
    out = apply_elementary((1, 0), delta(PrimePower(3, 1), 0))
    assert np.argmax(np.abs(out)) == 2
    # modulation: n = (0, 1) multiplies by e_3(y)
    out = apply_elementary((0, 1), psi)
    phases = np.exp(2j * np.pi * np.arange(3) / 3)
    assert np.allclose(out, phases * psi)
    # along axis 0: each column of an N x w array on its own
    V = np.column_stack([psi, 2 * psi])
    assert np.allclose(apply_elementary((2, 1), V), np.column_stack([apply_elementary((2, 1), v) for v in V.T]))


def test_apply_twisted_signs_and_norm():
    psi = random_state(PP9, 4)
    plus = elementary_matrix((2, 1), PP9, twisted=True) @ psi
    assert np.allclose(plus, apply_elementary((2, 1), psi))
    minus = elementary_matrix((1, 1), PP9, twisted=True) @ psi
    assert np.allclose(minus, -apply_elementary((1, 1), psi))
    for n in [(1, 2), (3, 5), (0, 4)]:
        assert abs(norm_h(elementary_matrix(n, PP9, twisted=True) @ psi) - norm_h(psi)) < 1e-12


def test_twisted_periodic_mod_N():
    psi = random_state(PP9, 5)
    for n in [(1, 2), (4, 7)]:
        a = elementary_matrix(n, PP9, twisted=True) @ psi
        b = elementary_matrix((n[0] + PP9.N, n[1]), PP9, twisted=True) @ psi
        c = elementary_matrix((n[0], n[1] + 2 * PP9.N), PP9, twisted=True) @ psi
        assert np.allclose(a, b) and np.allclose(a, c)


def test_composition_law_scalar_is_root_of_unity():
    pp = PrimePower(5, 1)
    for m, n in [((1, 0), (0, 1)), ((2, 3), (1, 1)), ((1, 4), (3, 2))]:
        Tm = elementary_matrix(m, pp, twisted=True)
        Tn = elementary_matrix(n, pp, twisted=True)
        Tmn = elementary_matrix((m[0] + n[0], m[1] + n[1]), pp, twisted=True)
        prod = Tm @ Tn
        mask = np.abs(Tmn) > 0.5
        scalar = prod[mask][0] / Tmn[mask][0]
        assert np.allclose(prod, scalar * Tmn)
        assert abs(abs(scalar) - 1) < 1e-12
        assert abs(scalar ** (2 * pp.N) - 1) < 1e-10


def test_elementary_trace():
    pp = PP9
    for n in [(1, 0), (0, 2), (4, 7), (3, 3)]:
        tr = np.trace(elementary_matrix(n, pp, twisted=True))
        if n[0] % pp.N == 0 and n[1] % pp.N == 0:
            assert abs(tr - pp.N) < 1e-12
        else:
            assert abs(tr) < 1e-12
    # untwisted trace at n = 0 mod N is +-N
    tr = np.trace(elementary_matrix((pp.N, pp.N), pp, twisted=False))
    assert abs(abs(tr) - pp.N) < 1e-12


def test_op_of_observable():
    f1 = FourierObservable({(0, 0): 1.0})
    assert np.allclose(op_of_observable(f1, PP5), np.eye(5))
    # real observable -> Hermitian matrix
    f = FourierObservable({(1, 2): 0.5 + 0.25j, (-1, -2): 0.5 - 0.25j, (0, 0): 2.0})
    assert f.is_real
    H = op_of_observable(f, PP9)
    assert np.abs(H - H.conj().T).max() < 1e-9
    # a +-n pair assembles to T(n) + T(-n)
    g = FourierObservable({(1, 2): 1.0, (-1, -2): 1.0})
    direct = elementary_matrix((1, 2), PP9) + elementary_matrix((-1, -2), PP9)
    assert np.abs(op_of_observable(g, PP9) - direct).max() < 1e-12


def test_matrix_element_basics():
    """T(0) = 1, <T(-n) v, v> = conj <T(n) v, v>, and |<T(n) v, v>| <= 1 on a
    unit vector v."""
    v = random_state(PP9, 6)
    v = (v / np.linalg.norm(v))[:, None]
    assert abs(elementary_diagonals([(0, 0)], v)[0, 0] - 1.0) < 1e-10
    for n in [(1, 2), (2, 1), (5, 3)]:
        lhs, rhs = elementary_diagonals([n, (-n[0], -n[1])], v)[:, 0]
        assert abs(lhs - rhs.conjugate()) < 1e-12
        assert abs(lhs) <= 1 + 1e-10


def test_kernel_count_smith_vs_exhaustive():
    rng = np.random.default_rng(8)
    for N in (9, 27, 121, 125):
        for _ in range(25):
            M = tuple(tuple(int(v) for v in row) for row in rng.integers(-30, 30, size=(2, 2)))
            assert kernel_count(M, N) == kernel_count_exhaustive(M, N)


def test_kernel_count_known_kernels():
    # identity-minus-scaled matrices with known kernels
    N = 2197
    assert kernel_count(((0, 0), (0, 0)), N) == N * N
    assert kernel_count(((13, 0), (0, 13)), N) == 13 * 13
    assert kernel_count(((1, 0), (0, 0)), N) == N


def test_propagator_identity_and_unimodularity():
    U = propagator(((1, 0), (0, 1)), PP9)
    assert np.abs(U - np.eye(9)).max() < 1e-12
    with pytest.raises(NotUnimodularError):
        propagator(((2, 0), (0, 1)), PP9)
    with pytest.raises(NotUnimodularError):
        propagator_apply(((2, 0), (0, 1)), PP9)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (7, 1), (3, 3), (11, 1)])
def test_propagator_unitary_and_egorov(cat_map, p, k):
    pp = PrimePower(p, k)
    N = pp.N
    U = propagator(cat_map, pp)
    assert np.abs(U @ U.conj().T - np.eye(N)).max() < 1e-8
    Amod = cat_map.mat_mod(N)
    for n in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2)]:
        lhs = U.conj().T @ elementary_matrix(n, pp, twisted=True) @ U
        rhs = elementary_matrix(row_action(n, Amod), pp, twisted=True)
        assert np.abs(lhs - rhs).max() < 1e-8


def test_propagator_unitarity_on_random_sl2():
    pp = PrimePower(7, 1)
    rng = np.random.default_rng(9)
    psi = random_state(pp, 10)
    cases = 0
    while cases < 5:
        a, b = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        # complete (a, b) to det 1 mod 7 when possible
        if a == 0 and b == 0:
            continue
        for c in range(7):
            for d in range(7):
                if (a * d - b * c) % 7 == 1:
                    U = propagator(((a, b), (c, d)), pp)
                    assert abs(norm_h(U @ psi) - norm_h(psi)) < 1e-10
                    cases += 1
                    break
            else:
                continue
            break


def test_propagator_norm_preservation_many_states(cat_map):
    pp = PP9
    U = propagator(cat_map, pp)
    rng = np.random.default_rng(12)
    for _ in range(100):
        psi = rng.normal(size=pp.N) + 1j * rng.normal(size=pp.N)
        assert abs(norm_h(U @ psi) - norm_h(psi)) < 1e-8


def test_projective_representation(cat_map):
    pp = PP9
    U1 = propagator(cat_map, pp)
    A2 = mat_mul(cat_map.mat(), cat_map.mat())
    U2 = propagator(A2, pp)
    P = U1 @ U1
    mask = np.abs(U2) > 0.1
    lam = P[mask][0] / U2[mask][0]
    assert abs(abs(lam) - 1) < 1e-10
    assert np.abs(P - lam * U2).max() < 1e-8


def test_propagator_trace_matches_kernel(cat_map):
    for p, k in [(3, 1), (3, 2), (7, 1)]:
        pp = PrimePower(p, k)
        U = propagator(cat_map, pp)
        ker = kernel_count(mat_sub(cat_map.mat(), IDENTITY2), pp.N)
        assert abs(abs(np.trace(U)) ** 2 - ker) < 1e-8 * max(1, ker)


def test_diagonal_propagator_is_scaled_permutation():
    pp = PrimePower(11, 1)
    x, xinv = 3, pow(3, -1, 11)
    U = propagator(((x, 0), (0, xinv)), pp)
    for y in (0, 1, 5, 7):
        col = U @ delta(pp, y)
        support = np.nonzero(np.abs(col) > 1e-9)[0]
        assert list(support) == [(xinv * y) % 11]
        assert abs(abs(col[support[0]]) - 1) < 1e-10


def test_size_cap_raises_before_allocating(cat_map):
    pp = PrimePower(101, 3)  # N^2 is about 1e12 entries
    with pytest.raises(SizeLimitError):
        propagator(cat_map, pp)
    with pytest.raises(SizeLimitError):
        op_of_observable(FourierObservable.harmonic_pair((1, 0)), pp)
    with pytest.raises(SizeLimitError):
        elementary_matrix((1, 0), pp)


# -- matrix-free propagator against the dense oracle --------------------


@st.composite
def sl2_mod_prime_power(draw, max_N=2000):
    """(pp, B) with B in SL2(Z/p^k) and p^k < max_N; about half have p | B21,
    where the chirp kernel needs a two-factor split.  13^3 is left out by
    default: its dense oracle alone takes a second."""
    p, k = draw(st.sampled_from([(p, k) for p in (3, 7, 11, 13) for k in (1, 2, 3) if p**k < max_N]))
    N = p**k
    entry = st.integers(0, N - 1)
    unit = entry.filter(lambda v: v % p != 0)
    if draw(st.booleans()):
        c = p * draw(entry) % N
        a, b = draw(unit), draw(entry)
        d = (1 + b * c) * pow(a, -1, N) % N
    else:
        c, a, d = draw(unit), draw(entry), draw(entry)
        b = (a * d - 1) * pow(c, -1, N) % N
    return PrimePower(p, k), ((a, b), (c, d))


@given(sl2_mod_prime_power())
def test_property_propagator_apply_equals_dense(case):
    pp, B = case
    dense = propagator(B, pp)
    apply = propagator_apply(B, pp)
    applied = apply(np.eye(pp.N))
    i = np.unravel_index(np.argmax(np.abs(dense)), dense.shape)
    phase = applied[i] / dense[i]  # the one free global phase
    assert abs(abs(phase) - 1) < 1e-10
    assert np.abs(applied - phase * dense).max() < 1e-10
    psi = random_state(pp, 13)
    assert np.abs(apply(psi) - applied @ psi).max() < 1e-10
    # with out, the same values, psi serving as scratch
    block = np.stack([psi, random_state(pp, 14)], axis=1)
    out = np.empty_like(block)
    assert apply(block.copy(), out=out) is out and np.array_equal(out, apply(block))


@given(sl2_mod_prime_power(max_N=170), st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=3))
def test_property_twisted_egorov(case, modes):
    """U(B)* Ttw(n) U(B) = Ttw(nB) for the dense propagator of a random B in
    SL2(Z/p^k), p^k <= 169."""
    pp, B = case
    U = propagator(B, pp)
    for n in modes:
        lhs = U.conj().T @ elementary_matrix(n, pp, twisted=True) @ U
        rhs = elementary_matrix(row_action(n, B), pp, twisted=True)
        assert np.abs(lhs - rhs).max() < 1e-8


@pytest.mark.parametrize("p,k", [(13, 2), (7, 3), (11, 2)])
def test_elementary_diagonal_matches_dense_oracles(cat_map, p, k):
    halves = decompose(cat_map, p, k)
    pp = halves[0].group.pp
    V = unfolded(halves)
    f = FourierObservable(
        {(0, 0): 0.7, (1, 0): 0.5, (-1, 0): 0.5, (1, 2): 0.3 - 0.1j, (-1, -2): 0.3 + 0.1j, (2, 7): 0.2, (-2, -7): 0.2}
    )
    modes = list(f.coeffs)
    quad = np.array([complex(c) for c in f.coeffs.values()]) @ elementary_diagonals(modes, V)
    dense = np.einsum("ij,ij->j", V.conj(), op_of_observable(f, pp) @ V)
    assert np.abs(quad - dense).max() < 1e-12
    for n in [(1, 0), (2, 7), (-3, 5)]:
        diag = elementary_diagonals([n], V)[0]
        # <T(n) psi, psi> of the unit vector psi = sqrt(N) v of H_N is vdot(v, T(n) v)
        oracle = [np.vdot(V[:, j], apply_elementary(n, V[:, j])) for j in range(pp.N)]
        assert np.abs(diag - np.array(oracle)).max() < 1e-12
        # each half's folded basis, unfolded a block at a time
        by_halves = np.concatenate([elementary_diagonals([n], half)[0] for half in halves])
        assert np.abs(by_halves - np.array(oracle)).max() < 1e-12
        # one reader over both halves gives each half's rows bit for bit
        read = diagonal_reader([n], pp.N)
        assert np.array_equal(np.concatenate([read(half)[0] for half in halves]), by_halves)
    # columns gathered and unfolded in a given array are those of unfold;
    # a negative index counts from the end, as it does in folded[:, cols]
    for half in halves:
        width = half.shape[1]
        for cols in (np.arange(1, width, 3), [-1, 0, -width]):
            want = unfold(half.folded[:, cols], half.parity, pp.N)
            out = np.empty((pp.N, len(cols)), dtype=complex)
            assert half.columns(cols, out=out) is out and np.array_equal(out, want)
            assert np.array_equal(half.columns(cols), want)
        with pytest.raises(IndexError):
            half.columns([width])


def diagonals_by_dense_oracle(modes, V: np.ndarray, pp: PrimePower) -> np.ndarray:
    """<T(n) v, v> = v^* T(n) v with the dense T(n) of elementary_matrix,
    one row per mode and one column per column of V."""
    return np.array([np.einsum("ij,ij->j", V.conj(), elementary_matrix(n, pp) @ V) for n in modes])


def random_columns(N: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((N, width)) + 1j * rng.standard_normal((N, width))
    return V / np.linalg.norm(V, axis=0)


# a repeated shift n1 = 1, negative n1 and n2, and n1 = 0 and n1 = N (both shift 0)
def awkward_modes(N: int) -> list[tuple[int, int]]:
    return [(1, 0), (1, 3), (-2, 5), (0, 1), (N, -4), (3, -7), (-1, -1), (1, 3)]


# one full column block of elementary_diagonals and a partial one
@pytest.mark.parametrize("p,k", [(17, 2), (7, 3), (3, 2)])
def test_elementary_diagonals_match_dense_oracle(p, k):
    pp = PrimePower(p, k)
    N = pp.N
    width = block_columns(N) + 5
    V = random_columns(N, width, seed=p * k)
    modes = awkward_modes(N)
    want = diagonals_by_dense_oracle(modes, V, pp)
    got = elementary_diagonals(modes, V)
    assert got.shape == (len(modes), width)
    assert np.abs(got - want).max() < 1e-12
    # an unsorted subset of the columns, again more than one block
    cols = np.random.default_rng(k).permutation(width)[: width - 2]
    assert np.abs(elementary_diagonals(modes, V, cols) - want[:, cols]).max() < 1e-12
    for i, n in enumerate(modes):
        assert np.array_equal(elementary_diagonals([n], V)[0], got[i])


def test_elementary_diagonals_empty_inputs():
    V = random_columns(9, 4, seed=1)
    assert elementary_diagonals([], V).shape == (0, 4)
    assert elementary_diagonals([(1, 1)], V, []).shape == (1, 0)


@given(
    st.sampled_from([(5, 1), (3, 2), (13, 1), (17, 2)]),
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=6),
    st.data(),
)
def test_property_elementary_diagonals_equal_dense(space, modes, data):
    pp = PrimePower(*space)
    N = pp.N
    width = data.draw(st.integers(1, N + 3))
    V = random_columns(N, width, seed=N + width)
    cols = data.draw(st.lists(st.integers(-width, width - 1), max_size=2 * width))
    want = diagonals_by_dense_oracle(modes, V[:, cols], pp)
    assert np.abs(elementary_diagonals(modes, V, cols) - want).max(initial=0.0) < 1e-12
    # the last column, by a negative index; one past the end raises
    want = diagonals_by_dense_oracle(modes, V[:, [-1]], pp)
    assert np.abs(elementary_diagonals(modes, V, [-1]) - want).max() < 1e-12
    with pytest.raises(IndexError):
        elementary_diagonals(modes, V, [width])
