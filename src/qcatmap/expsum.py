"""Character exponential sums E(nu, chi) = sum_x e_N(nu x) chi(beta(x)).

The sum runs over the Cayley domain X = {x : D x^2 != 1 mod p}.  Two
evaluation routes are kept deliberately independent:

  * brute force - one term per x in X through the discrete-log table,
    for every character at once (the oracle);
  * closed form (k >= 2) - the sum collapses to the square-root fiber
    mod p^(k//2), with an extra p-term Gauss factor for odd k.  One numpy
    evaluation covers an array of characters at once.

Conventions: a character chi_j is its index j = 0..#C-1 (see hecke).
E is always real (terms pair conjugately under x -> -x); a character is
"good" for nu when 2 t_chi != -nu (mod p), in which case |E| <= 2 p^(k/2)
and an angle theta with E = 2 p^(k/2) cos(theta) exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundExceededError, KTooSmallError, NonUnitError, WrongKError
from .hecke import HeckeGroup
from .modarith import PrimePower, gauss_quadratic_closed, inv_mod, roots_table

LIFT_CHECK_TOL = 1e-9
REALNESS_TOL = 1e-8
# slack on |E| <= 2 p^(k/2) for good characters before theta is refused
THETA_BOUND_TOL = 1e-9
LARGE_SUM_TOL = 1e-6  # relative, on |E| = p^2 in find_large


@dataclass(frozen=True, eq=False)
class ExpSumTable:
    """Closed-form sums as columns, one row per (character, nu), ordered by
    (chi_index, nu).  theta is NaN on the rows of bad characters."""

    pp: PrimePower
    nu: np.ndarray
    chi_index: np.ndarray
    value: np.ndarray
    theta: np.ndarray
    good: np.ndarray
    vanished: np.ndarray

    def __len__(self) -> int:
        return len(self.value)


def _check_nu(nu: int, pp: PrimePower) -> int:
    nu %= pp.N
    if nu % pp.p == 0:
        raise NonUnitError(f"nu = {nu} is not a unit mod {pp.p}")
    return nu


def exp_sum_bruteforce(group: HeckeGroup, nu: int) -> np.ndarray:
    """E(nu, chi_j) for every index j = 0..#C-1, summed over the whole
    domain (the oracle route).

    The terms are grouped by the exponent m = dlog beta(x): with c_m the
    sum of e_N(nu x) over those x, E(nu, chi_j) = sum_m c_m e(j m / #C),
    which is #C times the inverse DFT of c.
    """
    pp = group.pp
    nu = _check_nu(nu, pp)
    tbl = group.cayley_table
    xs = np.flatnonzero(tbl >= 0)
    add = roots_table(pp.N)[nu * xs % pp.N]
    m, order = tbl[xs], group.order
    c = np.bincount(m, weights=add.real, minlength=order) + 1j * np.bincount(m, weights=add.imag, minlength=order)
    return order * np.fft.ifft(c)


def _good(pp: PrimePower, t: np.ndarray, nu: int) -> np.ndarray:
    """Good for nu: 2 t != -nu (mod p), for each t-parameter t."""
    return (2 * t + nu) % pp.p != 0


def _closed_form(group: HeckeGroup, nus, j: np.ndarray):
    """E(nu, chi_j) for each nu (rows) and character index j (columns),
    with the masks of good characters and of vanished sums.

    E = p^l * sum over x in the square-root set of w = (2t+nu)/(nu D)
    mod p^l (within the domain) of e_N(nu x) chi(beta(x)) [* G(x) for odd
    k], with x lifted canonically from [0, p^l).  The summand is
    independent of the lift exactly on the fiber; every term is recomputed
    at x + p^l and compared.  A sum vanishes when no fiber point lies in
    the domain.

    For odd k, G(x) is the Gauss sum of the second-order expansion of the
    Cayley map along the fiber x + p^l y:

        f = 2 t D x / (D x^2 - 1)^2  (mod p)
        g = p^-l (nu - 2t/(D x^2 - 1))  (mod p)

    The quadratic coefficient comes from beta''/(2 beta) =
    2D(sqrt(D)x + 1)/(Dx^2-1)^2; it vanishes mod p exactly when t*x does,
    so good characters always see a nondegenerate Gauss sum.
    """
    pp = group.pp
    if pp.k < 2:
        raise KTooSmallError("closed form needs k >= 2; use exp_sum_bruteforce")
    nus = [_check_nu(int(nu), pp) for nu in nus]
    p, N, order = pp.p, pp.N, group.order
    l = pp.k // 2
    pl, pl1 = p**l, p ** (l + 1)
    odd = pp.k % 2 == 1
    D = group.ring.D
    j = np.asarray(j, dtype=np.int64)
    t = group.t_parameters(j)

    # per-x tables over [0, p^l) (row 0) and the lifts x + p^l (row 1):
    # dlog beta(x), -1 outside the domain, and for odd k 1/(D x^2 - 1)
    xs = np.arange(pl, dtype=np.int64)
    dom = np.flatnonzero(group.ring.in_domain(xs))
    dlogs = np.full((2, pl), -1, dtype=np.int64)
    den_inv = np.zeros((2, pl), dtype=np.int64)
    for lift in (0, 1):
        shifted = dom + lift * pl
        dlogs[lift, dom] = group.cayley_dlogs(shifted)
        if odd:
            den_inv[lift, dom] = inv_mod(D * shifted % pl1 * shifted - 1, PrimePower(p, l + 1))

    # every square root mod p^l of every w, from one stable sort of the
    # squares: the roots of w are by_square[first[w] : first[w] + count[w]]
    squares = xs * xs % pl
    by_square = np.argsort(squares, kind="stable")
    root_count = np.bincount(squares, minlength=pl)
    root_first = np.cumsum(root_count) - root_count
    roots_N, roots_C = roots_table(N), roots_table(order)

    value = np.zeros((len(nus), len(j)), dtype=np.complex128)
    good = np.empty((len(nus), len(j)), dtype=bool)
    vanished = np.empty((len(nus), len(j)), dtype=bool)
    for row, nu in enumerate(nus):
        good[row] = _good(pp, t, nu)
        w = (2 * t + nu) % pl * pow(nu * D % pl, -1, pl) % pl
        count = root_count[w]
        # x lists the roots of each character's w in turn, the i-th one
        # at by_square[root_first[w] + i]
        start = root_first[w] - (np.cumsum(count) - count)
        del w  # the #C-long temporaries go before the per-root arrays are made
        owner = np.repeat(np.arange(len(j)), count)
        x = by_square[np.arange(len(owner)) + np.repeat(start, count)]
        del count, start
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
                if np.any(rest % pl):
                    raise RuntimeError("square-root fiber violates the divisibility constraint")
                term = term * gauss_quadratic_closed(f, rest // pl, p)
            terms.append(term)
        term, lifted = terms
        drift = np.abs(term - lifted) > LIFT_CHECK_TOL * (1.0 + np.abs(term))
        if drift.any():
            i = int(np.argmax(drift))
            raise RuntimeError(f"lift dependence at x = {x[i]} for chi_{jo[i]}: {term[i]} vs {lifted[i]}")
        value[row].real = pl * np.bincount(owner, weights=term.real, minlength=len(j))
        value[row].imag = pl * np.bincount(owner, weights=term.imag, minlength=len(j))
        vanished[row] = np.bincount(owner, minlength=len(j)) == 0

    complex_ = np.abs(value.imag) > REALNESS_TOL * (1.0 + np.abs(value))
    if complex_.any():
        raise RuntimeError(f"sum failed the realness check: {value[complex_][0]}")
    return value, good, vanished


def exp_sum_closed(group: HeckeGroup, nu: int, j) -> np.ndarray:
    """The closed form (k >= 2) E(nu, chi_j) for each character index j."""
    return _closed_form(group, [nu], j)[0][0]


def check_bound(pp: PrimePower, value: np.ndarray, good: np.ndarray) -> None:
    """A good sum with |E| / (2 p^(k/2)) above 1 + THETA_BOUND_TOL breaks
    the paper's bound and raises BoundExceededError, which names the row
    of the worst one in the flattened value array."""
    ratio = np.abs(value).ravel() / (2.0 * pp.p ** (pp.k / 2.0))
    good = np.ravel(good)
    if good.any() and ratio[good].max() > 1.0 + THETA_BOUND_TOL:
        i = int(np.argmax(np.where(good, ratio, -1.0)))
        raise BoundExceededError(
            f"good sum above 2 p^(k/2) at {pp}: worst |E|/(2 p^(k/2)) = {ratio[i]:.12g} "
            f"(row {i}, tolerance 1 + {THETA_BOUND_TOL:g})"
        )


def theta_angle(pp: PrimePower, value: np.ndarray, good: np.ndarray) -> np.ndarray:
    """theta in [0, pi] with E = 2 p^(k/2) cos(theta) on good rows, NaN on
    bad rows, after check_bound."""
    check_bound(pp, value, good)
    scale = 2.0 * pp.p ** (pp.k / 2.0)
    theta = np.full(len(value), np.nan)
    theta[good] = np.arccos(np.clip(value.real[good] / scale, -1.0, 1.0))
    return theta


def scan_characters(group: HeckeGroup, nus) -> ExpSumTable:
    """The closed form for every character and every nu, as one table
    ordered by (chi_index, nu)."""
    pp = group.pp
    nus = sorted(int(nu) % pp.N for nu in nus)
    j = np.arange(group.order, dtype=np.int64)
    value, good, vanished = (a.T.ravel() for a in _closed_form(group, nus, j))
    return ExpSumTable(
        pp=pp,
        nu=np.tile(np.asarray(nus, dtype=np.int64), group.order),
        chi_index=np.repeat(j, len(nus)),
        value=value,
        theta=theta_angle(pp, value, good),
        good=good,
        vanished=vanished,
    )


def bad_character_count(group: HeckeGroup, nus) -> int | None:
    """Characters bad for at least one of the nus (2 t_chi = -nu mod p).

    None at k = 1, where characters carry no t-parameter.
    """
    if group.pp.k < 2:
        return None
    t = group.t_parameters(np.arange(group.order))
    good = np.logical_and.reduce([_good(group.pp, t, int(nu)) for nu in nus])
    return int(np.count_nonzero(~good))


def find_large(group: HeckeGroup, nu: int) -> list[tuple[int, complex]]:
    """Characters with 2 t_chi = -nu (mod p^2) at k = 3; each has |E| = p^2.

    Returns (chi_index, E) pairs; any other magnitude raises RuntimeError.
    """
    pp = group.pp
    if pp.k != 3:
        raise WrongKError("the exceptionally large sums live at k = 3")
    nu = _check_nu(nu, pp)
    p2 = pp.p**2
    # 2 t_chi = 2 j t_unit = -nu (mod p^2) has order/p^2 solutions j
    j0 = -nu * pow(2 * group.t_unit % p2, -1, p2) % p2
    j = np.arange(j0, group.order, p2, dtype=np.int64)
    value = exp_sum_closed(group, nu, j)
    off = np.abs(np.abs(value) - p2) > LARGE_SUM_TOL * p2
    if off.any():
        i = int(np.argmax(off))
        raise RuntimeError(f"|E| = {abs(value[i])} != p^2 = {p2} at chi_{j[i]}")
    return list(zip(j.tolist(), value.tolist()))
