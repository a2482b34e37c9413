"""Quantized cat map modulo odd prime powers.

Hilbert-space quantization of a hyperbolic torus automorphism, its
commuting symmetry group with characters, closed-form and brute-force
evaluation of the associated character exponential sums, and the
statistics of eigenfunction matrix elements against their limiting law.
"""

from .modarith import PrimePower
from .quantization import FourierObservable, TorusAutomorphism
from .hecke import HeckeGroup, classify_prime, eigendecompose
from .expsum import ExpSumTable, exp_sum_bruteforce, exp_sum_closed, find_large, scan_characters
from .distribution import (
    compare_distribution,
    model_cdf,
    model_moment,
    normalized_elements,
    quadratic_form,
    sample_limit_variable,
    twisted_coefficients,
    verify_matrix_element_formula,
)

__all__ = [
    "PrimePower",
    "TorusAutomorphism",
    "FourierObservable",
    "HeckeGroup",
    "classify_prime",
    "eigendecompose",
    "ExpSumTable",
    "exp_sum_bruteforce",
    "exp_sum_closed",
    "scan_characters",
    "find_large",
    "quadratic_form",
    "twisted_coefficients",
    "normalized_elements",
    "verify_matrix_element_formula",
    "sample_limit_variable",
    "compare_distribution",
    "model_moment",
    "model_cdf",
]

__version__ = "0.1.0"
