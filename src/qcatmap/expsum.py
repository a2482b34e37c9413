"""Character exponential sums E(nu, chi) = sum_x e_N(nu x) chi(beta(x)).

The sum runs over the Cayley domain X = {x : D x^2 != 1 mod p}.  Two
evaluation routes are kept deliberately independent:

  * brute force - one term per x in X, its dlog read from the group's
    walk table, for every character at once (the oracle);
  * closed form (k >= 2) - the sum collapses to the square-root fiber
    mod p^(k//2), with an extra p-term Gauss factor for odd k.  It depends
    on the character j only through r = j mod t_modulus and one phase per
    root, so it is evaluated by residue rows, with Pohlig-Hellman dlogs at
    the 2 p^(k//2) fiber points; no #C-long table or per-root array.

Conventions: a character chi_j is its index j = 0..#C-1 (see hecke).
E is always real (terms pair conjugately under x -> -x); a character is
"good" for nu when 2 t_chi != -nu (mod p), in which case |E| <= 2 p^(k/2)
and an angle theta with E = 2 p^(k/2) cos(theta) exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundExceededError, KTooSmallError, NonUnitError, WrongKError
from .hecke import HeckeGroup
from .modarith import PrimePower, gauss_quadratic_closed, inv_mod, roots_table, square_roots, unit_roots
from .quantization import block_columns, check_array_size

LIFT_CHECK_TOL = 1e-9
REALNESS_TOL = 1e-8
# slack on |E| <= 2 p^(k/2) for good characters before a sum is refused
THETA_BOUND_TOL = 1e-9
LARGE_SUM_TOL = 1e-6  # relative, on |E| = p^2 in find_large


@dataclass(frozen=True, eq=False)
class ExpSumTable:
    """Closed-form sums: value[i, j] = E(nu[i], chi_j), a (len(nu), #C)
    array, and the (len(nu), T) masks good[i, r] and vanished[i, r] of the
    characters chi_j with j = r (mod T), T = t_modulus = good.shape[1]."""

    pp: PrimePower
    nu: np.ndarray
    value: np.ndarray
    good: np.ndarray
    vanished: np.ndarray

    def __len__(self) -> int:
        return self.value.size


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


def _closed_form(group: HeckeGroup, nus, j=None):
    """E(nu, chi_j) for each nu (rows) and character index j (columns),
    with the (len(nus), T) masks of good (2 t + nu != 0 mod p) and vanished
    residues r; j = None stands for every character, in index order.

    E = p^l * sum over x in the square-root set of w = (2t+nu)/(nu D)
    mod p^l (within the domain) of e_N(nu x) chi(beta(x)) [* G(x) for odd
    k], with x lifted canonically from [0, p^l).  A sum vanishes when no
    fiber point lies in the domain.

    The t-parameter, w, its roots and G depend on j only through its
    residue r = j mod T (T = t_modulus).  With j = r + T q, Q = #C / T and
    m_x = dlog beta(x),

        E(nu, chi_j) = p^l sum_x a(r, x) e(q m_x / Q),
        a(r, x) = e_N(nu x) e(r m_x / #C) [* G(x)],

    so each residue row is evaluated for every q < Q at once.  The
    summand is independent of the lift exactly on the fiber: at each
    (r, x) the amplitude is recomputed at x + p^l and compared, and
    m_(x + p^l) = m_x (mod Q) is required, which together hold the term
    of every character of the row.  Each class row is then checked, its
    sums for realness and its good ones by check_bound, in slabs of rows
    whose temporaries fit in BLOCK_BYTES.

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
    T, order = group.t_modulus, group.order
    Q = order // T
    if j is None:
        residues = np.arange(T, dtype=np.int64)
        width = order
    else:
        j = np.asarray(j, dtype=np.int64) % order
        residues, column = np.unique(j % T, return_inverse=True)
        width = len(j)
    fiber = _Fiber(group)
    value = np.zeros((len(nus), width), dtype=np.complex128)
    good, vanished = np.empty((2, len(nus), T), dtype=bool)
    for row, nu in enumerate(nus):
        # rows q < Q, columns the residues: for every r < T this is E in j order
        block = value[row].reshape(Q, T) if j is None else np.zeros((Q, len(residues)), dtype=np.complex128)
        good[row], vanished[row] = fiber.residue_rows(nu, residues, block)
        peak = np.zeros(block.shape[1])  # the largest |E| of each residue
        step = block_columns(block.shape[1] or 1)
        for slab in (block[q0 : q0 + step] for q0 in range(0, Q, step)):
            # |Im E| > tol (1 + |E|) needs |Im E| > tol, so only those sums are tested in full
            suspect = slab[np.abs(slab.imag) > REALNESS_TOL]
            complex_ = np.abs(suspect.imag) > REALNESS_TOL * (1.0 + np.abs(suspect))
            if complex_.any():
                raise RuntimeError(f"sum failed the realness check: {suspect[complex_][0]}")
            np.maximum(peak, np.abs(slab).max(axis=0), out=peak)
        check_bound(group, nu, residues, peak, good[row, residues], block)
        if j is not None:
            value[row] = block[j // T, column]
    return value, good, vanished


class _Fiber:
    """The tables of one closed-form call, over x in [0, p^l) (row 0) and
    the lifts x + p^l (row 1): dlog beta(x) by Pohlig-Hellman, -1 outside
    the domain, and for odd k 1/(D x^2 - 1) mod p^(l+1); and the square
    roots mod p^l of every w, modarith.square_roots(p^l): the roots of w
    are by_square[first[w] : first[w] + count[w]]."""

    def __init__(self, group: HeckeGroup):
        pp = group.pp
        self.group = group
        l = pp.k // 2
        self.pl = pl = pp.p**l
        self.D = D = group.ring.D
        xs = np.arange(pl, dtype=np.int64)
        dom = np.flatnonzero(group.ring.in_domain(xs))
        self.dlogs = np.full((2, pl), -1, dtype=np.int64)
        self.den_inv = np.zeros((2, pl), dtype=np.int64)
        for lift in (0, 1):
            shifted = dom + lift * pl
            self.dlogs[lift, dom] = group.cayley_dlogs(shifted)
            if pp.k % 2 == 1:
                pl1 = pl * pp.p
                self.den_inv[lift, dom] = inv_mod(D * shifted % pl1 * shifted - 1, PrimePower(pp.p, l + 1))
        self.by_square, self.first, self.count = square_roots(pl)
        self.phases = np.tile(roots_table(group.order // group.t_modulus), 2)  # e(i / Q), i < 2Q

    def residue_rows(self, nu: int, r: np.ndarray, block: np.ndarray):
        """Add E(nu, chi_(r + T q)) into block[q, i] for each residue r[i]
        and every q < Q, one root slot at a time.  Slots 0 and 1 span every
        residue, with a zero amplitude where a residue has fewer roots in the
        domain; later slots only the residues with more (p | w, bad ones).
        Returns the good and the vanished mask of every residue r < T."""
        group, pl, D = self.group, self.pl, self.D
        order, p = group.order, group.pp.p
        Q = order // group.t_modulus
        t = group.t_parameters(np.arange(group.t_modulus))
        w = (2 * t + nu) % pl * pow(nu * D % pl, -1, pl) % pl
        # every root x of w has x^2 = w (mod p), so all or none is in the domain
        count = np.where((D % p * w - 1) % p != 0, self.count[w], 0)
        masks = (2 * t + nu) % p != 0, count == 0
        t, w, count = t[r], w[r], count[r]
        for slot in range(int(count.max(initial=0))):
            has = np.flatnonzero(count > slot)
            x = self.by_square[self.first[w[has]] + slot]
            (amp, m), (lifted, m_lifted) = (self._amplitude(nu, r[has], t[has], x, lift) for lift in (0, 1))
            drift = (m % Q != m_lifted % Q) | (np.abs(amp - lifted) > LIFT_CHECK_TOL * (1.0 + np.abs(amp)))
            if drift.any():
                i = int(np.argmax(drift))
                raise RuntimeError(
                    f"lift dependence at x = {x[i]} for r = {r[has][i]}: {amp[i]} vs {lifted[i]}, "
                    f"dlog {m[i]} vs {m_lifted[i]} mod {Q}"
                )
            cols = slice(None) if slot < 2 else has
            full_amp = np.zeros(len(r), dtype=np.complex128)
            full_m = np.zeros(len(r), dtype=np.int64)
            full_amp[has], full_m[has] = pl * amp, m % Q
            amp, m = full_amp[cols], full_m[cols]
            # q m mod Q at row q0 + i of a block of isqrt(Q) rows is i m mod Q,
            # formed once, plus q0 m mod Q, read from two periods of e(i / Q)
            step = math.isqrt(Q)
            head = np.multiply.outer(np.arange(step), m) % Q
            for q0 in range(0, Q, step):
                rows = min(step, Q - q0)
                block[q0 : q0 + rows, cols] += amp * self.phases[head[:rows] + q0 * m % Q]
        return masks

    def _amplitude(self, nu: int, r, t, x, lift: int):
        """a(r, x) at the lift x + lift p^l, and m = dlog beta(x + lift p^l)."""
        pp, order, pl = self.group.pp, self.group.order, self.pl
        p, N = pp.p, pp.N
        xl = x + lift * pl
        m = self.dlogs[lift, x]
        amp = unit_roots(nu * xl % N, N) * unit_roots(r * m % order, order)
        if pp.k % 2 == 1:
            den = self.den_inv[lift, x]
            f = 2 * t * (self.D % p) % p * (xl % p) % p * (den % p) ** 2 % p
            rest = (nu - 2 * t * den) % (pl * p)
            if np.any(rest % pl):
                raise RuntimeError("square-root fiber violates the divisibility constraint")
            amp = amp * gauss_quadratic_closed(f, rest // pl, p)
        return amp, m


def exp_sum_closed(group: HeckeGroup, nu: int, j) -> np.ndarray:
    """The closed form (k >= 2) E(nu, chi_j) for each character index j,
    from the checked residue rows of the j mod t_modulus present."""
    return _closed_form(group, [nu], j)[0][0]


def check_bound(group: HeckeGroup, nu: int, r: np.ndarray, peak: np.ndarray, good: np.ndarray, block) -> None:
    """The paper's bound on one class row, block[q, i] = E(nu, chi_j) at
    j = r[i] + T q, peak[i] the largest |E| over q and good the mask of r:
    peak / (2 p^(k/2)) must stay within 1 + THETA_BOUND_TOL on the good
    residues, or BoundExceededError names the worst sum."""
    pp = group.pp
    ratio = peak / (2.0 * pp.p ** (pp.k / 2.0))
    if np.any(ratio[good] > 1.0 + THETA_BOUND_TOL):
        i = int(np.argmax(np.where(good, ratio, -1.0)))
        j = r[i] + group.t_modulus * int(np.argmax(np.abs(block[:, i])))
        raise BoundExceededError(
            f"good sum above 2 p^(k/2) at {pp}: worst |E|/(2 p^(k/2)) = {ratio[i]:.12g} "
            f"at nu = {nu}, chi_{j} (tolerance 1 + {THETA_BOUND_TOL:g})"
        )


def theta_angle(pp: PrimePower, re: np.ndarray) -> np.ndarray:
    """theta in [0, pi] with E = 2 p^(k/2) cos(theta), for the real parts re
    of good sums; a bad sum's value past 2 p^(k/2) clips to 0 or pi."""
    return np.arccos(np.clip(re / (2.0 * pp.p ** (pp.k / 2.0)), -1.0, 1.0))


def scan_characters(group: HeckeGroup, nus) -> ExpSumTable:
    """The closed form of every character at each distinct class of the nus
    mod N, in increasing order: _closed_form's arrays, checked there."""
    pp = group.pp
    nus = sorted({int(nu) % pp.N for nu in nus})
    check_array_size(group.order * len(nus), f"character-sum table at {pp}")
    return ExpSumTable(pp, np.array(nus, dtype=np.int64), *_closed_form(group, nus))


def bad_character_count(group: HeckeGroup, nus) -> int | None:
    """Characters bad for at least one of the nus (2 t_chi = -nu mod p).

    t_chi mod p is a bijective function of j mod p (t_unit is a unit), so
    each class of nu mod p has #C / p bad characters, and distinct classes
    have disjoint ones.  None at k = 1, where characters carry no
    t-parameter.
    """
    pp = group.pp
    if pp.k < 2:
        return None
    return group.order // pp.p * len({int(nu) % pp.p for nu in nus})


def find_large(group: HeckeGroup, nu: int) -> list[tuple[int, complex]]:
    """Characters with 2 t_chi = -nu (mod p^2) at k = 3; each has |E| = p^2.

    Returns (index j, E) pairs; any other magnitude raises RuntimeError.
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
