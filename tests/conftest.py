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


# property tests draw the same examples on every run
settings.register_profile("qcatmap", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("qcatmap")
