"""Exception types shared across the package."""


class QcatError(Exception):
    """Base class for all package errors."""


class NonUnitError(QcatError, ValueError):
    """A residue required to be a unit is divisible by p."""


class NotUnimodularError(QcatError, ValueError):
    """Matrix determinant is not 1 modulo N."""


class RamifiedPrimeError(QcatError, ValueError):
    """p divides the discriminant; the norm-one group degenerates."""


class BadPrimePowerError(QcatError, ValueError):
    """A modulus p^k needs an odd prime p and an exponent k >= 1."""


class EvenPrimeError(BadPrimePowerError):
    """p = 2 is outside the supported odd-prime setting."""


class NotSplitError(QcatError, ValueError):
    """Operation requires the discriminant to be a square mod p."""


class SingularPointError(QcatError, ValueError):
    """D*x^2 = 1 (mod p): the rational parametrization has a pole."""


class KTooSmallError(QcatError, ValueError):
    """Closed-form sum evaluation needs exponent k >= 2."""


class BoundExceededError(QcatError, ArithmeticError):
    """A good character sum breaks the bound |E| <= 2 p^(k/2)."""


class WrongKError(QcatError, ValueError):
    """Operation is only defined for a specific exponent k."""


class NoMatchError(QcatError, RuntimeError):
    """No (sign, shift) pair reproduces the measured matrix elements."""


class BadNuError(QcatError, ValueError):
    """A twisted-spectrum class index is divisible by p."""


class EmptySetError(QcatError, ValueError):
    """A sample is empty."""


class EigenClusterError(QcatError, RuntimeError):
    """Eigenvalue clustering disagrees with the predicted spectral layout."""


class SizeLimitError(QcatError, MemoryError):
    """A size limit would be exceeded: an array past MAX_ARRAY_ENTRIES
    complex entries, or a brute-force domain past BRUTE_FORCE_LIMIT."""
