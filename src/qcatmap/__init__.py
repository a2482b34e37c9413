"""Quantized cat map modulo odd prime powers.

Hilbert-space quantization of a hyperbolic torus automorphism, its
commuting symmetry group with characters, closed-form and brute-force
evaluation of the associated character exponential sums, and the
statistics of eigenfunction matrix elements against their limiting law.

The public names load their module on first use (PEP 562), so importing
the package, or one of its modules, loads no module it does not run.
"""

import importlib

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
    "model_cdf",
]

__version__ = "0.1.0"

# each module after the modules it imports: the first one that holds a
# public name defines it, and loading the ones before it loads nothing
# that module would not load itself
_MODULES = ("modarith", "quantization", "hecke", "expsum", "distribution")


def __getattr__(name: str):
    if name in __all__:
        for module in _MODULES:
            value = getattr(importlib.import_module(f".{module}", __name__), name, None)
            if value is not None:
                globals()[name] = value  # later lookups skip this function
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
