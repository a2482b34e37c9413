"""Batch front end: verification suites, character sweeps, distribution runs.

    qcatmap verify       [--matrix 2,1,1,1] [--p 3,5,7,11,13] [--k 1-3]
    qcatmap expsum       --p 101 --k 2 --nu 1 [--out sums.csv]
    qcatmap distribution --p 101 --k 2 --obs observable.json [--out rep.json]

Each flag may also come from a --config JSON file, under the flag's name;
CONFIG_KEYS reads both, and a flag wins.  Exit codes: 0 all checks pass;
1 a check failed, a non-finite number was about to be emitted, or a size
limit would be exceeded (an array, group, walk, character-sum or Cayley
table past the size cap); 2 a configuration error: a bad flag or config
value, an unreadable config or observable file, a `distribution`
observable with a class Q(n) divisible by p, or an unwritable --out.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import distribution as dist
from . import expsum, hecke
from .errors import BadNuError, BadPrimePowerError, QcatError, RamifiedPrimeError, SizeLimitError
from .modarith import PrimePower, gauss_quadratic, inv_mod, legendre, sqrt_set
from .quantization import (
    DENSE_CAP_DEFAULT,
    FourierObservable,
    TorusAutomorphism,
    elementary_diagonals,
    load_observable,
    propagator_apply,
    row_action,
)

DEFAULT_MATRIX = (2, 1, 1, 1)
DEFAULT_PRIMES = (3, 5, 7, 11, 13)
DEFAULT_KS = (1, 2, 3)
DEFAULT_SEED = 20260809
# default observable modes; Q values -1, 1, 5, 19, 29, 59 for the default matrix
DEFAULT_MODES = ((1, 0), (0, 1), (1, 2), (1, 4), (1, 5), (2, 7))
KS_BOUND = 0.15
EXPSUM_TOL = 1e-7
SAMPLER_COUNT = 100_000
CSV_BLOCK_ROWS = 8192
QUANT_VECTORS = 4  # seeded unit vectors on which verify checks the propagator


@dataclass
class RunConfig:
    matrix: tuple[int, int, int, int] = DEFAULT_MATRIX
    p_list: tuple[int, ...] = DEFAULT_PRIMES
    k_list: tuple[int, ...] = DEFAULT_KS
    nu_list: tuple[int, ...] = (1,)
    obs_path: str | None = None
    seed: int = DEFAULT_SEED
    out_path: str | None = None
    dense_cap: int = DENSE_CAP_DEFAULT
    explicit_p: bool = False  # user passed --p (ramified members then fail hard)


class ConfigError(Exception):
    pass


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma list with ascending ranges: '3,5,7' or '1-3' or '1-3,5';
    anything else, a descending range included, is a ConfigError."""
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part[1:]:
                cut = part.index("-", 1)
                lo, hi = int(part[:cut]), int(part[cut + 1 :])
                if hi < lo:
                    raise ConfigError(f"descending range {part!r} in {text!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc
    return tuple(out)


def _distinct(name: str, values: tuple[int, ...]) -> tuple[int, ...]:
    """values, with a repeated entry as a ConfigError: a prime or exponent
    listed twice would check its spaces twice."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{name} list repeats {', '.join(map(str, repeated))}")
    return values


def _prime_power(p: int, k: int) -> PrimePower:
    """PrimePower(p, k), with a p that is no odd prime or a k < 1 as a ConfigError."""
    try:
        return PrimePower(p, k)
    except BadPrimePowerError as exc:
        raise ConfigError(str(exc)) from exc


def _int_list(value) -> tuple[int, ...]:
    """A flag's text (see _parse_int_list) or a config file's JSON list of
    integers; a float in it is a TypeError, not truncated."""
    return _parse_int_list(value) if isinstance(value, str) else tuple(map(operator.index, value))


def _seed(value) -> int:
    """A seed of numpy's generator: a non-negative integer."""
    seed = operator.index(value)
    if seed < 0:
        raise ValueError(f"negative seed {seed}")
    return seed


# flag or config-file key -> (RunConfig field, parser of the flag's text or the file's value)
CONFIG_KEYS = {
    "matrix": ("matrix", _int_list),  # _automorphism checks it
    "p": ("p_list", lambda v: _distinct("p", _int_list(v))),
    "k": ("k_list", lambda v: _distinct("k", _int_list(v))),
    "nu": ("nu_list", _int_list),
    "obs": ("obs_path", str),
    "seed": ("seed", _seed),
    "out": ("out_path", str),
    "dense_cap": ("dense_cap", operator.index),
}
# config-file keys with no flag, by command
CONFIG_ONLY_KEYS = {"verify": {"dense_cap"}, "distribution": {"dense_cap"}}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags that are set, each
    value read by its CONFIG_KEYS parser.  The file may set only what the
    command's own flags set, under their names, and its CONFIG_ONLY_KEYS;
    any other key is a ConfigError."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} is not a JSON object")
        allowed = (set(vars(args)) - {"command", "config"}) | CONFIG_ONLY_KEYS.get(args.command, set())
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ConfigError(f"config keys {unknown} are not read by {args.command}")
    flags = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS and value is not None}
    cfg = RunConfig(explicit_p="p" in raw or "p" in flags)
    for values in (raw, flags):
        for key, (field, parse) in CONFIG_KEYS.items():
            if key in values:
                try:
                    cfg = replace(cfg, **{field: parse(values[key])})
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad config value {key} = {values[key]!r}") from exc
    return cfg


def _automorphism(cfg: RunConfig) -> TorusAutomorphism:
    try:
        return TorusAutomorphism.from_flat(cfg.matrix)
    except (QcatError, ValueError) as exc:
        raise ConfigError(f"bad matrix {cfg.matrix}: {exc}") from exc


def _usable_modes(A: TorusAutomorphism, p: int) -> list[tuple[int, int]]:
    modes = [n for n in DEFAULT_MODES if dist.quadratic_form(A, n) % p != 0]
    if len({dist.quadratic_form(A, n) for n in modes}) < 4:
        raise ConfigError(f"fewer than 4 usable default modes at p = {p}")
    return modes


# -- verify -------------------------------------------------------------


class CheckTable:
    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.rows.append((name, ok, detail))
        mark = "PASS" if ok else "FAIL"
        print(f"[{mark}] {name}" + (f": {detail}" if detail else ""))

    def run(self, name: str, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # loud but recorded
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.rows)


@dataclass
class Space:
    """A dense space of the verify sweep: its group and eigendecomposition are
    built on first use and freed with it; a build error fails each check using it."""

    A: TorusAutomorphism
    pp: PrimePower

    @functools.cached_property
    def group(self) -> hecke.HeckeGroup:
        return hecke.build_group(self.A, self.pp)

    @functools.cached_property
    def decomp(self) -> hecke.EigenDecomposition:
        return hecke.eigendecompose(self.group)

    @functools.cached_property
    def elements(self) -> dist.MatrixElements:
        """The matrix elements of the usable default modes, one pass for every check that reads them."""
        return dist.matrix_elements(self.decomp, _usable_modes(self.A, self.pp.p))


def _check_modarith() -> dict[str, int]:
    """Mismatches of each family of modarith routines against its oracle."""
    inverses = [inv_mod(2, PrimePower(3, 2)) == 5]
    for p in (3, 7, 11, 101):
        ppk = PrimePower(p, 2)
        inverses += [inv_mod(inv_mod(a, ppk), ppk) == a % ppk.N for a in range(1, 20) if a % p]
    legendres = []
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        legendres += [legendre(a, p) == (1 if a in squares else -1) for a in range(1, p)]
    sqrts = [set(sqrt_set(nu, 3, 2)) == {x for x in range(9) if (x * x) % 9 == nu} for nu in range(9)]
    gauss = [  # a NaN fails each comparison
        abs(gauss_quadratic(0, 0, 7) - 7) < 1e-9,
        abs(gauss_quadratic(0, 3, 7)) < 1e-9,
        abs(abs(gauss_quadratic(2, 5, 7)) - math.sqrt(7)) < 1e-9,
    ]
    return {
        "inverses": inverses.count(False),
        "legendre": legendres.count(False),
        "sqrt sets": sqrts.count(False),
        "gauss magnitudes": gauss.count(False),
    }


def _modarith_summary(mismatches: dict[str, int]) -> tuple[bool, str]:
    if not any(mismatches.values()):
        return True, ", ".join(mismatches)
    return False, "mismatches: " + ", ".join(f"{name} {n}" for name, n in mismatches.items() if n)


def _worst(errors) -> float:
    """The largest error, 0.0 for none; a NaN error makes the result NaN
    (Python's max would drop it)."""
    return float(np.max([0.0, *errors]))


def _quantization_part(space: Space) -> tuple[float, float]:
    """Unitarity and the twisted Egorov identity U* Ttw(n) U = Ttw(nA) of the
    matrix-free U = U(A), on QUANT_VECTORS unit vectors v seeded from
    (A, p, k): the Gram matrix of the U v against that of the v, and
    <Ttw(n) U v, U v> against <Ttw(nA) v, v>."""
    A, pp = space.A, space.pp
    N = pp.N
    rng = np.random.default_rng([pp.p, pp.k] + [v % N for row in A.mat() for v in row])
    V = rng.standard_normal((N, QUANT_VECTORS)) + 1j * rng.standard_normal((N, QUANT_VECTORS))
    V /= np.linalg.norm(V, axis=0)
    W = propagator_apply(A, pp)(V)
    worst_u = float(np.abs(W.conj().T @ W - V.conj().T @ V).max())
    ns = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (1, 5)]
    ms = [row_action(n, A.mat_mod(N)) for n in ns]
    # Ttw(n) = (-1)^(n1 n2) T(n)
    signs = np.array([(-1) ** ((n[0] * n[1] + m[0] * m[1]) % 2) for n, m in zip(ns, ms)])
    errs_e = np.abs(elementary_diagonals(ns, W) - signs[:, None] * elementary_diagonals(ms, V)).max(axis=1)
    return worst_u, _worst(errs_e)


def _quantization_summary(parts) -> tuple[bool, str]:
    worst_u = _worst(u for u, _ in parts)
    worst_e = _worst(e for _, e in parts)
    ok = worst_u < 1e-8 and worst_e < 1e-8  # False on a NaN
    return ok, f"unitarity {worst_u:.1e}, egorov {worst_e:.1e} over {len(parts)} spaces"


def _hecke_part(space: Space) -> tuple[str, list[str], float]:
    """The space's note, the structure checks it failed, and the worst gap
    of its trace sweep."""
    pp, group = space.pp, space.group
    note = f"{pp}:{group.kind[0]}"
    mults = [len(v) for v in space.decomp.clusters.values()]
    faults = []
    # brute_force_norm_one checks its N^2 pairs against the size cap itself
    count = len(hecke.brute_force_norm_one(space.A, pp))
    if group.order != count:
        faults.append(f"{note} order {group.order}, brute-force count {count}")
    if sum(mults) != pp.N:
        faults.append(f"{note} multiplicities sum to {sum(mults)}, expected {pp.N}")
    if group.kind == "inert" and max(mults) > 1:
        faults.append(f"{note} inert multiplicity {max(mults)}")
    return note, faults, hecke.trace_sweep(space.decomp).worst_gap


def _hecke_summary(parts) -> tuple[bool, str]:
    faults = [fault for _, space_faults, _ in parts for fault in space_faults]
    off = [note for note, _, gap in parts if not gap <= hecke.TRACE_TOL]  # a NaN gap is off
    if off:
        worst = _worst(gap for _, _, gap in parts)
        faults.append(f"trace gap {worst:.1e} > tol {hecke.TRACE_TOL:g} at " + " ".join(off))
    if faults:
        return False, "; ".join(faults)
    return True, "orders, multiplicities, trace sweep (" + " ".join(note for note, _, _ in parts) + ")"


def _expsum_part(space: Space) -> tuple[float, int]:
    """The worst |closed - brute| over every character at nu = 1, 2 and a
    non-residue, and the number of sums compared.  The closed form takes
    its dlogs by Pohlig-Hellman, the brute force from the walk table."""
    pp, group = space.pp, space.group
    nonres = next(v for v in range(2, pp.p) if legendre(v, pp.p) == -1)
    errs = np.concatenate(
        [
            np.abs(expsum.scan_characters(group, [nu]).value[0] - expsum.exp_sum_bruteforce(group, nu))
            for nu in (1, 2, nonres)
        ]
    )
    return _worst(errs), len(errs)


def _expsum_summary(parts) -> tuple[bool, str]:
    worst = _worst(w for w, _ in parts)
    count = sum(c for _, c in parts)
    ok = worst < EXPSUM_TOL  # False on a NaN
    return ok, f"{count} sums, closed-vs-brute max err {worst:.1e} (tol {EXPSUM_TOL:g})"


def _formula_part(space: Space) -> tuple[PrimePower, bool, int]:
    rep = dist.verify_matrix_element_formula(space.elements, _usable_modes(space.A, space.pp.p))
    return space.pp, rep.unique, rep.sign


def _formula_summary(parts) -> tuple[bool, str]:
    for pp, unique, _ in parts:
        if not unique:
            return False, f"match not unique at {pp}"
    return True, "signs " + " ".join(f"{pp}:{sign:+d}" for pp, _, sign in parts)


def _slow_decay_part(space: Space) -> tuple[int, int, int]:
    """p, the number of characters with |E| = p^2, and the number of
    eigenfunctions with |<T(n) psi, psi>| = p^2 / #C, for the first usable
    default mode n."""
    A, pp, group = space.A, space.pp, space.group
    p = pp.p
    n = _usable_modes(A, p)[0]
    nu = dist.quadratic_form(A, n) * pow(2, -1, pp.N) % pp.N
    big = expsum.find_large(group, nu)
    target = p * p / group.order
    el = np.abs(space.elements.rows[n])
    hits = int(np.count_nonzero(np.abs(el - target) <= 1e-6 * target))
    return p, len(big), hits


def _slow_decay_summary(parts) -> tuple[bool, str]:
    # one note per prime, in increasing order whatever the order of --p
    notes = [f"p={p}:{big}ch/{hits}ef" for p, big, hits in sorted(set(parts))]
    if all(big and hits for _, big, hits in parts):
        return True, " ".join(notes)
    return False, "no large sum or no eigenfunction at 1/(p+-1): " + " ".join(notes)


def _check_distribution(A: TorusAutomorphism, seed: int) -> tuple[bool, str]:
    p = next(q for q in (101, 103, 107, 109) if A.disc % q != 0)
    pp = PrimePower(p, 2)
    f = FourierObservable.harmonic_pair((1, 0))
    sample = dist.normalized_elements_closed(f, hecke.build_group(A, pp))
    spectrum = dist.twisted_coefficients(f, A)
    model = dist.sample_limit_variable(spectrum, seed, SAMPLER_COUNT)
    rep = dist.compare_distribution(sample, model, winsor_bound=10 * p ** (1 / 6))
    ok = rep.ks <= KS_BOUND
    return ok, f"(p,k)=({p},2) two-sample KS {rep.ks:.4f} <= {KS_BOUND}"


def cmd_verify(cfg: RunConfig) -> int:
    A = _automorphism(cfg)
    table = CheckTable()
    usable: list[PrimePower] = []
    for p in cfg.p_list:
        spaces = [_prime_power(p, k) for k in sorted(cfg.k_list)]
        try:
            hecke.classify_prime(A, p)
        except RamifiedPrimeError:
            if cfg.explicit_p:
                raise ConfigError(f"p = {p} is ramified for D = {A.disc}")
            table.add(f"p={p}", True, "skipped (ramified)")
            continue
        usable.extend(spaces)
    dense = [pp for pp in usable if pp.N <= cfg.dense_cap]
    skipped = [pp for pp in usable if pp.N > cfg.dense_cap]
    if skipped:
        table.add("dense cap", True, "skipped " + " ".join(str(pp) for pp in skipped))

    table.run("modarith oracles", lambda: _modarith_summary(_check_modarith()))
    # row name, the spaces it checks, its part on one space, the row from its parts
    rows = [
        ("quantization invariants", lambda pp: True, _quantization_part, _quantization_summary),
        ("hecke group/eigen", lambda pp: True, _hecke_part, _hecke_summary),
        ("expsum oracle equivalence", lambda pp: pp.k >= 2, _expsum_part, _expsum_summary),
        ("matrix-element formula", lambda pp: pp.k >= 2, _formula_part, _formula_summary),
        ("slow decay (k=3)", lambda pp: pp.k == 3, _slow_decay_part, _slow_decay_summary),
    ]
    # a row that selects no dense space would check nothing
    rows = [row for row in rows if any(map(row[1], dense))]
    parts: dict[str, list] = {name: [] for name, *_ in rows}
    failed: dict[str, str] = {}  # the first error of a row; it then skips the remaining spaces
    for pp in dense:
        space = Space(A, pp)  # frees the previous space before this one builds anything
        for name, when, part, _ in rows:
            if name not in failed and when(pp):
                try:
                    parts[name].append(part(space))
                except Exception as exc:  # loud but recorded
                    failed[name] = f"{type(exc).__name__}: {exc}"
    for name, _, _, summary in rows:
        table.add(name, *((False, failed[name]) if name in failed else summary(parts[name])))
    table.run("limiting distribution", lambda: _check_distribution(A, cfg.seed))
    return 0 if table.all_ok else 1


# -- expsum -------------------------------------------------------------


def _byte_rows(strings: list[bytes]) -> np.ndarray:
    """The strings as a byte matrix, one per row, NUL-padded on the right."""
    rows = np.array(strings, dtype="S")
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def _float_strings(floats: np.ndarray, head: list[bytes]) -> np.ndarray:
    """The strings head, then each float as "%.17g,", as a byte matrix."""
    text = ("%.17g,\n" * len(floats)) % tuple(floats.tolist())
    return _byte_rows(head + text.encode("ascii").split(b"\n")[:-1])


def _float_text(col: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct float of col formatted once: the distinct floats, their
    strings (see _float_strings) and the row of them for each entry, in the
    shape of col.  Floats are told apart by their bits, so -0.0 prints as
    -0."""
    distinct, inverse = np.unique(np.ascontiguousarray(col).view(np.int64), return_inverse=True)
    floats = distinct.view(np.float64)
    # the rows live until the last block is gathered: keep them small
    return floats, _float_strings(floats, []), inverse.astype(np.min_scalar_type(len(floats))).reshape(col.shape)


def _int_text(col: np.ndarray) -> np.ndarray:
    """The decimal digits of non-negative ints and a comma, one row each,
    right-aligned and NUL-padded on the left."""
    width = len(str(int(col.max())))
    out = np.empty((len(col), width + 1), dtype=np.uint8)
    out[:, width] = ord(",")
    rest = col.astype(np.int64)
    for i in range(width - 1, -1, -1):
        quot = rest // 10
        out[:, i] = rest - 10 * quot + ord("0")
        rest = quot
    for i in range(width - 1):  # leading zeros
        out[col < 10 ** (width - 1 - i), i] = 0
    return out


def records_to_csv(table: expsum.ExpSumTable) -> bytearray:
    """One CSV row per sum, ordered by (chi_index, nu), as ASCII bytes;
    theta is empty where the character is bad.

    The rows are gathered as bytes, CSV_BLOCK_ROWS rows at a time, and
    appended to one bytearray, so the text is never held twice.  Row r is
    character r // #nu at class nu[r % #nu]: each block writes these keys
    digit by digit with integer arithmetic, reads the values over its
    characters, transposed, and the masks at the residues r // #nu mod T.
    Each float array formats its distinct values once, and theta, a
    function of re, once per distinct re, after the bad rows' empty field.
    """
    value = table.value
    finite = np.isfinite(value)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise ArithmeticError(f"non-finite value at chi_{j}, nu = {table.nu[i]}: E = {value[i, j]}")
    if len(table.nu) and table.nu.min() < 0:
        raise ValueError(f"negative nu {int(table.nu.min())} has no CSV text")
    head = np.frombuffer(f"{table.pp.p},{table.pp.k},".encode("ascii"), dtype=np.uint8)
    re, re_text, re_row = _float_text(value.real)
    _, im_text, im_row = _float_text(value.imag)
    theta_text = _float_strings(expsum.theta_angle(table.pp, re), [b","])
    flags = _byte_rows([b"false,", b"true,"]), _byte_rows([b"false\n", b"true\n"])
    text = bytearray(b"p,k,nu,chi_index,re,im,theta,good,vanished\n")
    for lo in range(0, len(table), CSV_BLOCK_ROWS):
        chi, i = np.divmod(np.arange(lo, min(lo + CSV_BLOCK_ROWS, len(table))), len(table.nu))
        chars, cut = slice(chi[0], chi[-1] + 1), slice(i[0], i[0] + len(chi))
        re_at, im_at = (row[:, chars].T.ravel()[cut] for row in (re_row, im_row))
        good, vanished = (mask[i, chi % mask.shape[1]].view(np.uint8) for mask in (table.good, table.vanished))
        block = np.hstack([
            np.broadcast_to(head, (len(chi), len(head))),
            _int_text(table.nu[i]),
            _int_text(chi),
            re_text.take(re_at, axis=0),
            im_text.take(im_at, axis=0),
            theta_text.take(np.where(good, re_at.astype(np.int64) + 1, 0), axis=0),
            flags[0].take(good, axis=0),
            flags[1].take(vanished, axis=0),
        ])
        text += block.tobytes().translate(None, b"\0")
    return text


def _write(data: bytes | bytearray, out_path: str | None, what: str) -> None:
    """data to out_path, and "wrote {what} to out_path" on stdout; without
    an out_path, data to stdout.  An unwritable out_path is a ConfigError."""
    if not out_path:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        return
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc
    print(f"wrote {what} to {out_path}")


def cmd_expsum(cfg: RunConfig) -> int:
    A = _automorphism(cfg)
    if len(cfg.p_list) != 1 or len(cfg.k_list) != 1:
        raise ConfigError("expsum needs exactly one p and one k")
    p, k = cfg.p_list[0], cfg.k_list[0]
    if k < 2:
        raise ConfigError("expsum needs k >= 2 (closed form)")
    pp = _prime_power(p, k)
    if not cfg.nu_list:
        raise ConfigError("expsum needs at least one nu")
    first_of_class: dict[int, int] = {}
    for nu in cfg.nu_list:
        if nu % p == 0:
            raise ConfigError(f"nu = {nu} is not a unit mod {p}")
        if nu % pp.N in first_of_class:
            raise ConfigError(f"nu = {first_of_class[nu % pp.N]} and nu = {nu} are the same class mod {pp.N}")
        first_of_class[nu % pp.N] = nu
    try:
        group = hecke.build_group(A, pp)
    except RamifiedPrimeError as exc:
        raise ConfigError(str(exc)) from exc
    table = expsum.scan_characters(group, list(cfg.nu_list))
    _write(records_to_csv(table), cfg.out_path, f"{len(table)} records")
    return 0


# -- distribution -------------------------------------------------------


def observable_digest(f: FourierObservable) -> str:
    canon = ";".join(
        f"{n1},{n2},{complex(c).real:.17g},{complex(c).imag:.17g}"
        for (n1, n2), c in sorted(f.coeffs.items())
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def distribution_report(cfg: RunConfig) -> dict:
    """The `distribution` report.  Up to dense_cap it comes from the dense
    eigenfunctions, and the sign and matched_unique come from the
    one-shift match of the matrix-element formula; above it, from the
    closed-form character sums.  The bad-character count and the model law
    read the observable's classes mod N, the classes the sample sums over;
    a class whose weights cancel there leaves the model.  A class divisible
    by p is a ConfigError, raised before the group is built."""
    A = _automorphism(cfg)
    if len(cfg.p_list) != 1 or len(cfg.k_list) != 1:
        raise ConfigError("distribution needs exactly one p and one k")
    if not cfg.obs_path:
        raise ConfigError("distribution needs --obs with a JSON observable")
    try:
        f = load_observable(cfg.obs_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad observable file: {exc}") from exc
    p, k = cfg.p_list[0], cfg.k_list[0]
    pp = _prime_power(p, k)
    try:
        # each class mod N, a unit mod p, before any work
        classes = dist.reduced_classes(dist.twisted_coefficients(f, A), pp)
        group = hecke.build_group(A, pp)
    except (BadNuError, RamifiedPrimeError) as exc:
        raise ConfigError(str(exc)) from exc
    winsor = 10.0 * p ** (1.0 / 6.0)
    n_bad = expsum.bad_character_count(group, [nu * pow(2, -1, pp.N) for nu in classes])

    if pp.N <= cfg.dense_cap:
        # the sign is a property of (p, k); pin it on the default mode set
        modes = _usable_modes(A, p)
        # one pass for the observable's modes and the default ones; the
        # basis is freed before the formula's sums and the model sample
        elements = dist.matrix_elements(hecke.eigendecompose(group), [*f.coeffs, *modes])
        sample = dist.normalized_elements(f, elements)
        n_eig = len(sample)
        n_excl = elements.n_excluded_multiplicity
        rep1 = dist.verify_matrix_element_formula(elements, modes)
        sign = rep1.sign
        matched = rep1.unique
    else:
        sample = dist.normalized_elements_closed(f, group)
        n_eig = len(sample)
        n_excl = None
        sign = None
        matched = None

    model_classes = {nu: w for nu, w in classes.items() if w != 0}
    if len(model_classes) == 1 and pp.k >= 2:
        (w,) = model_classes.values()
        scale = abs(complex(w).real) * math.sqrt(pp.N) * p ** (k / 2.0) / group.order
        comp = dist.compare_distribution(sample, dist.ScaledLimitLaw(scale), winsor_bound=winsor)
    else:
        model = dist.sample_limit_variable(model_classes, cfg.seed, SAMPLER_COUNT)
        comp = dist.compare_distribution(sample, model, winsor_bound=winsor)

    report = {
        "p": p,
        "k": k,
        "kind": group.kind,
        "observable_digest": observable_digest(f),
        "n_eigenfunctions": n_eig,
        "n_excluded_multiplicity": n_excl,
        "n_bad_character": n_bad,
        "ks": comp.ks,
        "moments": comp.moments_left,
        "winsorized": comp.winsorized_left,
        "sign": sign,
        "matched_unique": matched,
    }
    for key, val in report.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ArithmeticError(f"non-finite {key} in report")
    for m in report["moments"]:
        if not math.isfinite(m):
            raise ArithmeticError("non-finite moment in report")
    return report


def cmd_distribution(cfg: RunConfig) -> int:
    text = json.dumps(distribution_report(cfg), sort_keys=True, indent=2) + "\n"
    _write(text.encode("ascii"), cfg.out_path, "report")
    return 0


# -- entry point --------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcatmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command registers only the flags it reads, so any other exits 2;
    # build_config takes the config-file keys a command accepts from them
    for name in ("verify", "expsum", "distribution"):
        sp = sub.add_parser(name)
        sp.add_argument("--matrix", help="a,b,c,d of the automorphism")
        sp.add_argument("--p", help="prime list, e.g. 3,5,7")
        sp.add_argument("--k", help="exponent list or range, e.g. 1-3")
        if name == "expsum":
            sp.add_argument("--nu", help="class values, e.g. 1,2")
        if name == "distribution":
            sp.add_argument("--obs", help="observable JSON path")
        if name in ("verify", "distribution"):
            sp.add_argument("--seed", type=int)
        if name in ("expsum", "distribution"):
            sp.add_argument("--out", help="output path")
        sp.add_argument("--config", help="JSON config file (flags win)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "expsum":
            return cmd_expsum(cfg)
        return cmd_distribution(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
