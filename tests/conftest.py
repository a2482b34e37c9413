import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from qcatmap.cli import CSV_BLOCK_ROWS, _byte_rows, _int_text
from qcatmap.expsum import theta_angle
from qcatmap.hecke import build_group, eigendecompose
from qcatmap.modarith import PrimePower, gauss_quadratic_closed, inv_mod, roots_table
from qcatmap.quantization import TorusAutomorphism

# canonical hyperbolic matrix, trace 3, discriminant 5 (split at 11, 19;
# inert at 3, 7, 13; ramified at 5)
A_DEFAULT = TorusAutomorphism(2, 1, 1, 1)

# trace 4, discriminant 12: inert at 5, used whenever p = 5 is needed
A_TRACE4 = TorusAutomorphism(2, 3, 1, 2)


@pytest.fixture(scope="session")
def cat_map():
    return A_DEFAULT


@pytest.fixture(scope="session")
def cat_map_p5():
    return A_TRACE4


# hyperbolic A in SL2(Z) with entries in [-5, 5], negative traces included:
# 168 matrices, 6 discriminants
HYPERBOLIC = [
    (a, b, c, d)
    for a, b, c, d in itertools.product(range(-5, 6), repeat=4)
    if a * d - b * c == 1 and abs(a + d) > 2
]


def matrix_for_prime(p: int) -> TorusAutomorphism:
    """Default matrix except at the ramified prime 5."""
    return A_TRACE4 if p == 5 else A_DEFAULT


def group_at(A: TorusAutomorphism, p: int, k: int):
    """A fresh C(p^k) for A."""
    return build_group(A, PrimePower(p, k))


def halves_of(group):
    """Both halves of the dense eigendecomposition of the group's space:
    the even half, then the odd half on its angle."""
    even = eigendecompose(group, 1)
    return even, eigendecompose(group, -1, even.angle)


def decompose(A: TorusAutomorphism, p: int, k: int):
    """Both halves of the dense eigendecomposition of L^2(Z/p^k), built
    from a fresh group."""
    return halves_of(group_at(A, p, k))


def stacked_labels(halves) -> np.ndarray:
    """The labels of both halves, the even columns first."""
    return np.concatenate([half.labels for half in halves])


def multiplicity(halves) -> np.ndarray:
    """The dimension of the eigenspace of each label 0..#C-1, both halves."""
    return np.bincount(stacked_labels(halves), minlength=halves[0].group.order)


def unfolded(halves) -> np.ndarray:
    """The N x N unfolded basis of both halves, the even columns first."""
    return np.hstack([half.columns(slice(None)) for half in halves])


def stacked_clusters(halves) -> dict[int, np.ndarray]:
    """Label -> its columns in the stacked basis of both halves; the
    halves' labels are disjoint."""
    even, odd = halves
    merged = {**even.clusters, **{label: cols + even.shape[1] for label, cols in odd.clusters.items()}}
    assert len(merged) == len(even.clusters) + len(odd.clusters)
    return merged


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


def kernel_count_exhaustive(M, N: int) -> int:
    """#{n in (Z/NZ)^2 : nM = 0 (mod N)} by trying every n: the oracle of
    the Smith-normal-form quantization.kernel_count."""
    n1 = np.arange(N, dtype=np.int64)[:, None]
    n2 = np.arange(N, dtype=np.int64)[None, :]
    c1 = (n1 * (M[0][0] % N) + n2 * (M[1][0] % N)) % N
    c2 = (n1 * (M[0][1] % N) + n2 * (M[1][1] % N)) % N
    return int(np.count_nonzero((c1 == 0) & (c2 == 0)))


def group_walk(group) -> np.ndarray:
    """g^m for m = 0..#C-1, encoded a*N + b, one product at a time: the
    oracle of the sorted dlog table of HeckeGroup."""
    N = group.pp.N
    ga, gb = group.gen
    t = group.ring.t
    enc = np.empty(group.order, dtype=np.int64)
    a, b = 1, 0
    for m in range(group.order):
        enc[m] = a * N + b
        a, b = (a * ga - b * gb) % N, (a * gb + b * ga + b * gb * t) % N
    assert (a, b) == (1, 0)
    return enc


def unit_walk(group, diag) -> np.ndarray:
    """The dlog of every unit mod p^k, -1 at non-units, one product at a
    time: the oracle of hecke.unit_dlog_array."""
    N = group.pp.N
    ga, gb = group.gen
    x_g = (ga + gb * diag.y) % N
    arr = np.full(N, -1, dtype=np.int64)
    x = 1
    for m in range(group.order):
        arr[x] = m
        x = x * x_g % N
    assert x == 1
    return arr


def exp_sum_direct(group, nu: int, j: int) -> complex:
    """E(nu, chi_j) as one term e_N(nu x) chi_j(beta(x)) per x of the
    Cayley domain: the oracle of expsum.exp_sum_bruteforce."""
    N = group.pp.N
    tbl = group.cayley_table
    xs = np.flatnonzero(tbl >= 0)
    return complex((roots_table(group.order)[j * tbl[xs] % group.order] * roots_table(N)[nu * xs % N]).sum())


def good_by_definition(group, nu: int) -> np.ndarray:
    """The good mask 2 t_j + nu != 0 (mod p) over every index j, with t_j
    read off chi_j(principal_unit(1)) = e(j m1 / #C) = e(t_j / t_modulus),
    where m1 = dlog principal_unit(1)."""
    m1 = group.dlog(group.principal_unit(1))
    mod_t, order = group.t_modulus, group.order
    assert m1 * mod_t % order == 0
    t = [j * m1 * mod_t // order % mod_t for j in range(order)]
    return np.array([(2 * tj + nu) % group.pp.p != 0 for tj in t])


def gather_closed_form(group, nus, j):
    """E(nu, chi_j) for each nu (rows) and character index j (columns),
    with the good and vanished masks, by gathering the square roots of
    every character's w into per-root arrays, with dlogs read from the
    walk table: the oracle of expsum._closed_form, which works by residue
    rows and Pohlig-Hellman dlogs."""
    pp = group.pp
    p, N, order = pp.p, pp.N, group.order
    l = pp.k // 2
    pl, pl1 = p**l, p ** (l + 1)
    odd = pp.k % 2 == 1
    D = group.ring.D
    j = np.asarray(j, dtype=np.int64)
    t = group.t_parameters(j)

    # per-x tables over [0, p^l) (row 0) and the lifts x + p^l (row 1)
    xs = np.arange(pl, dtype=np.int64)
    dom = np.flatnonzero(group.ring.in_domain(xs))
    dlogs = np.full((2, pl), -1, dtype=np.int64)
    den_inv = np.zeros((2, pl), dtype=np.int64)
    for lift in (0, 1):
        shifted = dom + lift * pl
        dlogs[lift, dom] = group.dlog_encoded(group.encode(group.ring.cayley_transform(shifted)))
        if odd:
            den_inv[lift, dom] = inv_mod(D * shifted % pl1 * shifted - 1, PrimePower(p, l + 1))

    squares = xs * xs % pl
    by_square = np.argsort(squares, kind="stable")
    root_count = np.bincount(squares, minlength=pl)
    root_first = np.cumsum(root_count) - root_count
    roots_N, roots_C = roots_table(N), roots_table(order)

    value = np.zeros((len(nus), len(j)), dtype=np.complex128)
    good = np.empty((len(nus), len(j)), dtype=bool)
    vanished = np.empty((len(nus), len(j)), dtype=bool)
    for row, nu in enumerate(nus):
        good[row] = (2 * t + nu) % p != 0
        w = (2 * t + nu) % pl * pow(nu * D % pl, -1, pl) % pl
        count = root_count[w]
        # the roots of each character's w in turn, the i-th at by_square[root_first[w] + i]
        start = root_first[w] - (np.cumsum(count) - count)
        owner = np.repeat(np.arange(len(j)), count)
        x = by_square[np.arange(len(owner)) + np.repeat(start, count)]
        in_dom = dlogs[0, x] >= 0
        owner, x = owner[in_dom], x[in_dom]
        jo = j[owner]
        terms = []
        for lift in (0, 1):
            xl = x + lift * pl
            term = roots_N[nu * xl % N] * roots_C[jo * dlogs[lift, x] % order]
            if odd:
                to, den = t[owner], den_inv[lift, x]
                f = 2 * to * (D % p) % p * (xl % p) % p * (den % p) ** 2 % p
                rest = (nu - 2 * to * den) % pl1
                assert not np.any(rest % pl)
                term = term * gauss_quadratic_closed(f, rest // pl, p)
            terms.append(term)
        term, lifted = terms
        assert np.all(np.abs(term - lifted) <= 1e-9 * (1.0 + np.abs(term)))
        value[row].real = pl * np.bincount(owner, weights=term.real, minlength=len(j))
        value[row].imag = pl * np.bincount(owner, weights=term.imag, minlength=len(j))
        vanished[row] = np.bincount(owner, minlength=len(j)) == 0
    return value, good, vanished


def bad_count_by_character(group, nus) -> int:
    """Characters bad for at least one of the nus, counted one character
    at a time from its t-parameter: the oracle of
    expsum.bad_character_count."""
    t = group.t_parameters(np.arange(group.order))
    good = np.logical_and.reduce([(2 * t + int(nu)) % group.pp.p != 0 for nu in nus])
    return int(np.count_nonzero(~good))


def by_character(mask: np.ndarray, order: int) -> np.ndarray:
    """A (classes, T) mask of the residues r = j mod T of an ExpSumTable as
    the (classes, #C) mask of the characters chi_j."""
    return np.tile(mask, order // mask.shape[1])


def csv_rows(table) -> str:
    """The CSV text of an ExpSumTable, one f-string per sum, looping over
    the characters (columns) and, within each, over the classes (rows),
    with the masks copied out to every character and theta taken from
    every re: the oracle of cli.records_to_csv."""
    flag = ("false", "true")
    head = f"{table.pp.p},{table.pp.k}"
    width = table.value.shape[1]
    arrays = (table.value.real, table.value.imag, theta_angle(table.pp, table.value.real),
              by_character(table.good, width), by_character(table.vanished, width))
    return "p,k,nu,chi_index,re,im,theta,good,vanished\n" + "".join(
        f"{head},{nu},{j},{re:.17g},{im:.17g},{f'{th:.17g}' if good else ''},{flag[good]},{flag[van]}\n"
        for j, sums in enumerate(zip(*(a.T.tolist() for a in arrays)))
        for nu, re, im, th, good, van in zip(table.nu.tolist(), *sums)
    )


def csv_by_character(table) -> bytes:
    """cli.records_to_csv by the route it took while the table held a theta
    array and per-character masks: the masks copied out to every
    character, theta_angle over every good sum, and re, im and theta each
    formatted over a sort of its own: the oracle of the writer's bytes."""
    width = table.value.shape[1]
    good, vanished = by_character(table.good, width), by_character(table.vanished, width)
    theta = np.full(table.value.shape, np.nan)
    theta[good] = theta_angle(table.pp, table.value.real[good])

    def float_text(col, keep=None):
        bits = np.ascontiguousarray(col).view(np.int64)
        distinct, inverse = np.unique(bits if keep is None else bits[keep], return_inverse=True)
        text = ("%.17g,\n" * len(distinct)) % tuple(distinct.view(np.float64).tolist())
        strings = _byte_rows(([] if keep is None else [b","]) + text.encode("ascii").split(b"\n")[:-1])
        if keep is None:
            return strings, inverse.reshape(col.shape)
        row = np.zeros(col.shape, dtype=np.int64)
        row[keep] = inverse + 1
        return strings, row

    head = np.frombuffer(f"{table.pp.p},{table.pp.k},".encode("ascii"), dtype=np.uint8)
    columns = [
        float_text(table.value.real),
        float_text(table.value.imag),
        float_text(theta, good),
        (_byte_rows([b"false,", b"true,"]), good.view(np.uint8)),
        (_byte_rows([b"false\n", b"true\n"]), vanished.view(np.uint8)),
    ]
    text = bytearray(b"p,k,nu,chi_index,re,im,theta,good,vanished\n")
    for lo in range(0, table.value.size, CSV_BLOCK_ROWS):
        chi, i = np.divmod(np.arange(lo, min(lo + CSV_BLOCK_ROWS, table.value.size)), len(table.nu))
        chars, cut = slice(chi[0], chi[-1] + 1), slice(i[0], i[0] + len(chi))
        block = np.hstack([
            np.broadcast_to(head, (len(chi), len(head))),
            _int_text(table.nu[i]),
            _int_text(chi),
            *(strings.take(row[:, chars].T.ravel()[cut], axis=0) for strings, row in columns),
        ])
        text += block.tobytes().translate(None, b"\0")
    return bytes(text)


# property tests draw the same examples on every run
settings.register_profile("qcatmap", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("qcatmap")
