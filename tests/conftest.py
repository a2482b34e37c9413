import itertools

import numpy as np
import pytest
from hypothesis import settings

from qcatmap.hecke import build_group, eigendecompose
from qcatmap.modarith import PrimePower, roots_table
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


def decompose(A: TorusAutomorphism, p: int, k: int):
    """The dense eigendecomposition of L^2(Z/p^k), built from a fresh group."""
    return eigendecompose(build_group(A, PrimePower(p, k)))


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


def csv_rows(table) -> str:
    """The CSV text of an ExpSumTable, one f-string per row: the oracle of
    cli.records_to_csv."""
    flag = ("false", "true")
    head = f"{table.pp.p},{table.pp.k}"
    columns = (table.nu, table.chi_index, table.value.real, table.value.imag, table.theta, table.good, table.vanished)
    return "p,k,nu,chi_index,re,im,theta,good,vanished\n" + "".join(
        f"{head},{nu},{j},{re:.17g},{im:.17g},{f'{th:.17g}' if good else ''},{flag[good]},{flag[van]}\n"
        for nu, j, re, im, th, good, van in zip(*(col.tolist() for col in columns))
    )


# property tests draw the same examples on every run
settings.register_profile("qcatmap", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("qcatmap")
