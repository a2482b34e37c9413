import numpy as np
import pytest
from hypothesis import settings

from qcatmap.hecke import build_group, eigendecompose
from qcatmap.modarith import PrimePower
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


# property tests draw the same examples on every run
settings.register_profile("qcatmap", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("qcatmap")
