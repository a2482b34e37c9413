import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcatmap.errors import BadPrimePowerError, EvenPrimeError, NonUnitError
from qcatmap.modarith import (
    PrimePower,
    gauss_quadratic,
    hensel_sqrt,
    inv_mod,
    is_prime,
    legendre,
    sqrt_set,
    tonelli_shanks,
    valuation,
)


def test_prime_power_validation():
    pp = PrimePower(3, 2)
    assert pp.N == 9
    with pytest.raises(EvenPrimeError):
        PrimePower(2, 3)
    with pytest.raises(ValueError):
        PrimePower(9, 1)
    with pytest.raises(ValueError):
        PrimePower(3, 0)
    for p, k in [(9, 1), (3, 0), (2, 3)]:
        with pytest.raises(BadPrimePowerError):
            PrimePower(p, k)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 1009, 2447}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n))
    assert all(is_prime(p) for p in primes)


def test_inv_mod_examples():
    assert inv_mod(1, PrimePower(7, 3)) == 1
    # 2 * 5 = 10 = 1 mod 9
    assert inv_mod(2, PrimePower(3, 2)) == 5
    with pytest.raises(NonUnitError):
        inv_mod(3, PrimePower(3, 2))


def test_inv_mod_involution():
    rng = random.Random(7)
    for p, k in [(3, 3), (7, 2), (11, 1), (101, 2)]:
        pp = PrimePower(p, k)
        for _ in range(50):
            a = rng.randrange(1, pp.N)
            if a % p == 0:
                continue
            b = inv_mod(a, pp)
            assert a * b % pp.N == 1
            assert inv_mod(b, pp) == a


@st.composite
def units_mod_prime_power(draw):
    """(a, pp): an int64 array of units modulo p^k <= ~1e9, k = 1..4, with
    p the first prime at or above a drawn integer."""
    k = draw(st.integers(1, 4))
    start = draw(st.integers(3, int(1e9 ** (1 / k))))
    pp = PrimePower(next(q for q in itertools.count(start) if is_prime(q)), k)
    a = draw(st.lists(st.integers(1, pp.N - 1), min_size=1, max_size=40))
    return np.array([x for x in a if x % pp.p] or [1], dtype=np.int64), pp


@given(units_mod_prime_power())
@example((np.array([2, 999_999_936, 123_456_789], dtype=np.int64), PrimePower(999_999_937, 1)))
@example((np.array([2, 173**4 - 1, 173**4 - 2], dtype=np.int64), PrimePower(173, 4)))
def test_property_inv_mod_array_equals_pow(case):
    """inv_mod on an array is Python's pow(a, -1, N) entry by entry, and one
    non-unit in the array raises NonUnitError naming it."""
    a, pp = case
    assert inv_mod(a, pp).tolist() == [pow(x, -1, pp.N) for x in a.tolist()]
    bad = 3 * pp.p % pp.N
    with pytest.raises(NonUnitError, match=f"^{bad} is not a unit"):
        inv_mod(np.insert(a, len(a) // 2, bad), pp)


def test_legendre_examples():
    assert legendre(1, 131) == 1
    # 4^2 = 16 = 5 mod 11
    assert legendre(5, 11) == 1
    # squares mod 3 are {0, 1}
    assert legendre(5, 3) == -1
    assert legendre(0, 7) == 0


def test_legendre_against_exhaustive_squaring():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]:
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expect


def test_tonelli_shanks_roots():
    rng = random.Random(11)
    for p in [3, 7, 11, 13, 101, 1009, 2447]:  # both p mod 4 classes
        for _ in range(20):
            x = rng.randrange(1, p)
            r = tonelli_shanks(x * x % p, p)
            assert r * r % p == x * x % p


def test_hensel_sqrt_lift():
    for p, m in [(3, 5), (7, 4), (101, 3)]:
        for x in (1, 2, 5, 12):
            a = x * x % p**m
            if a % p == 0 or legendre(a, p) != 1:
                continue
            r = hensel_sqrt(a, p, m)
            assert r * r % p**m == a


def test_sqrt_set_examples():
    # +-1 mod 3
    assert sqrt_set(1, 3, 1) == (1, 2)
    # squares mod 3 are {0, 1}
    assert sqrt_set(2, 3, 1) == ()
    assert sqrt_set(0, 3, 1) == (0,)


def test_sqrt_set_zero_has_p_to_half_k_elements():
    for p, l in [(3, 1), (3, 2), (3, 3), (3, 4), (7, 2), (7, 3), (5, 4)]:
        assert len(sqrt_set(0, p, l)) == p ** (l // 2)


def sqrt_set_exhaustive(nu: int, p: int, l: int) -> tuple[int, ...]:
    """The oracle of sqrt_set: every x mod p^l tried, as a sorted tuple."""
    N = p**l
    x = np.arange(N, dtype=np.int64)
    return tuple(int(v) for v in np.nonzero((x * x) % N == nu % N)[0])


def test_sqrt_set_complete_and_unit_counts():
    for p, l in [(3, 2), (5, 2), (7, 3), (11, 2)]:
        N = p**l
        for nu in range(N):
            roots = sqrt_set(nu, p, l)
            assert roots == sqrt_set_exhaustive(nu, p, l)
            if nu % p != 0:
                assert len(roots) in (0, 2)


def test_sqrt_set_paths_agree_on_overlap():
    # Tonelli-Shanks + Hensel against exhaustive search on the same moduli
    rng = random.Random(3)
    for p, l in [(3, 7), (7, 4), (11, 3), (97, 2)]:
        for _ in range(40):
            nu = rng.randrange(p**l)
            assert sqrt_set(nu, p, l) == sqrt_set_exhaustive(nu, p, l)


@st.composite
def class_mod_prime_power(draw):
    """(nu, p, l) with p^l <= 30000 and nu = p^a u, a <= l drawn apart from u."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]))
    l = draw(st.integers(1, int(math.log(30_000) / math.log(p))))
    a = draw(st.integers(0, l))
    u = draw(st.integers(0, p ** (l - a) - 1))
    return p**a * u, p, l


@settings(max_examples=200)
@given(class_mod_prime_power())
def test_property_sqrt_set_equals_exhaustive(case):
    nu, p, l = case
    assert sqrt_set(nu, p, l) == sqrt_set_exhaustive(nu, p, l)


def test_sqrt_set_nonunit_classes():
    # nu = p^a u: empty unless a even and u is a residue, then 2 p^(a/2) roots
    p, l = 3, 5
    assert sqrt_set(3, p, l) == ()  # odd valuation
    roots = sqrt_set(9 * 1, p, l)
    assert len(roots) == 2 * 3
    for x in roots:
        assert x * x % 3**5 == 9


def test_valuation():
    assert valuation(9, 3) == 2
    assert valuation(5, 3) == 0
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_gauss_quadratic_magnitude_classes():
    for p in [3, 7, 11, 13, 101]:
        assert abs(gauss_quadratic(0, 0, p) - p) < 1e-9 * p
        for g in (1, 2, p - 1):
            assert abs(gauss_quadratic(0, g, p)) < 1e-9 * p
        for f in (1, 2, p - 1):
            for g in (0, 1, 5 % p):
                assert abs(abs(gauss_quadratic(f, g, p)) - math.sqrt(p)) < 1e-9 * p


def test_gauss_quadratic_matches_term_sum():
    # independent accumulation in a different order
    p, f, g = 13, 4, 7
    acc = 0j
    for y in reversed(range(p)):
        acc += np.exp(2j * np.pi * ((f * y * y + g * y) % p) / p)
    assert abs(gauss_quadratic(f, g, p) - acc) < 1e-10
