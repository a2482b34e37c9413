"""Exact arithmetic over Z/p^k for odd primes p.

Inverses, Legendre symbols, square-root sets with Hensel lifting, a
table of roots of unity, and quadratic Gauss sums.  All of it is exact, on
Python integers or int64 arrays; nothing modular ever passes through floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadPrimePowerError, EvenPrimeError, NonUnitError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond desk scale)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePower:
    """Modulus N = p^k for an odd prime p."""

    p: int
    k: int

    def __post_init__(self):
        if self.p == 2:
            raise EvenPrimeError("p = 2 is not supported")
        if self.p < 3 or not is_prime(self.p):
            raise BadPrimePowerError(f"p = {self.p} is not an odd prime")
        if self.k < 1:
            raise BadPrimePowerError(f"exponent k = {self.k} must be >= 1")

    @functools.cached_property
    def N(self) -> int:
        return self.p**self.k

    def __str__(self):
        return f"{self.p}^{self.k}"


def valuation(n: int, p: int) -> int:
    """Largest a with p^a | n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def inv_mod(a, pp: PrimePower):
    """Inverse a^(phi(N) - 1) of a modulo N = p^k, of a Python int or
    elementwise of an int64 array; NonUnitError when p divides any a.  On
    arrays every sum of products, here and in the ring arithmetic, stays
    below 3 N^2 < 2^63: every array caller runs within the size cap, N <= ~1e8."""
    N = pp.N
    a = a % N
    nonunit = a % pp.p == 0
    if np.any(nonunit):
        raise NonUnitError(f"{np.extract(nonunit, a)[0]} is not a unit mod {pp}")
    out, e = 1, N - N // pp.p - 1
    while e:
        if e & 1:
            out = out * a % N
        a = a * a % N
        e >>= 1
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1} by Euler's criterion."""
    if p == 2:
        raise EvenPrimeError("Legendre symbol needs an odd prime")
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def tonelli_shanks(a: int, p: int) -> int:
    """One square root of a quadratic residue a modulo an odd prime p."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def hensel_sqrt(a: int, p: int, m: int) -> int:
    """Lift the mod-p square root of a unit square a to modulus p^m."""
    root = tonelli_shanks(a % p, p)
    modulus = p
    while modulus < p**m:
        modulus = min(modulus * modulus, p**m)
        # Newton step x -> x - (x^2 - a) / (2x), exact in Z/modulus
        root = (root - (root * root - a) * pow(2 * root, -1, modulus)) % modulus
    return root % p**m


def sqrt_set(nu: int, p: int, l: int) -> tuple[int, ...]:
    """All x mod p^l with x^2 = nu (mod p^l), as a sorted tuple.

    For nu = p^a * u with u a unit, solutions exist iff a is even and u is
    a square mod p; there are then 2*p^(a/2) of them, lifted from a root
    of u by Tonelli-Shanks and Hensel lifting.  For nu = 0 the set is the
    multiples of p^ceil(l/2).
    """
    N = p**l
    nu %= N
    if nu == 0:
        step = p ** ((l + 1) // 2)
        return tuple(range(0, N, step))
    a = valuation(nu, p)
    u = nu // p**a
    if a % 2 == 1 or legendre(u, p) != 1:
        return ()
    y0 = hensel_sqrt(u, p, l - a)
    half = p ** (a // 2)
    mod_y = p ** (l - a)
    roots = set()
    for y in (y0, mod_y - y0):
        for j in range(half):
            roots.add(half * (y + mod_y * j) % N)
    return tuple(sorted(roots))


def unit_roots(x, N: int) -> np.ndarray:
    """e(x/N) = exp(2*pi*i*x/N) for each integer x of an array."""
    return np.exp(2j * np.pi * np.asarray(x) / N)


def roots_table(N: int) -> np.ndarray:
    """Table of e(x/N) for x = 0..N-1, built anew on each call."""
    return unit_roots(np.arange(N), N)


def gauss_quadratic(f: int, g: int, p: int) -> complex:
    """Quadratic Gauss sum sum_y e_p(f*y^2 + g*y) by direct summation.

    |result| is p, 0 or sqrt(p) according to whether (f, g) is (0,0),
    (0, nonzero) or f is a unit.
    """
    if p == 2:
        raise EvenPrimeError("Gauss sums are evaluated for odd p only")
    y = np.arange(p, dtype=np.int64)
    expo = (f % p * ((y * y) % p) + g % p * y) % p
    return complex(roots_table(p)[expo].sum())


def gauss_quadratic_closed(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """gauss_quadratic for arrays of (f, g) mod p, in closed form.

    Completing the square gives (f|p) eps_p sqrt(p) e_p(-g^2/(4f)) for
    f != 0, with eps_p = 1 or i as p = 1 or 3 (mod 4).  For f = 0 the sum
    is p when g = 0 and 0 otherwise.
    """
    if p == 2:
        raise EvenPrimeError("Gauss sums are evaluated for odd p only")
    f = np.asarray(f, dtype=np.int64) % p
    g = np.asarray(g, dtype=np.int64) % p
    units = np.arange(1, p, dtype=np.int64)
    symbol = np.full(p, -1.0)
    symbol[0] = 0.0
    symbol[units * units % p] = 1.0
    inverse = np.zeros(p, dtype=np.int64)
    inverse[units] = inv_mod(units, PrimePower(p, 1))
    eps_sqrt = math.sqrt(p) * (1 if p % 4 == 1 else 1j)
    out = np.where(g == 0, complex(p), 0j)
    unit = f != 0
    expo = -(g[unit] ** 2) * inverse[4 * f[unit] % p] % p
    out[unit] = symbol[f[unit]] * eps_sqrt * roots_table(p)[expo]
    return out
