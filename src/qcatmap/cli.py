"""Batch front end: verification suites, character sweeps, distribution runs.

    qcatmap verify       [--matrix 2,1,1,1] [--p 3,5,7,11,13] [--k 1-3]
    qcatmap expsum       --p 101 --k 2 --nu 1 [--out sums.csv]
    qcatmap distribution --p 101 --k 2 --obs observable.json [--out rep.json]

Exit codes: 0 all checks pass, 1 a check failed or a non-finite number
was about to be emitted, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import distribution as dist
from . import expsum, hecke
from .errors import QcatError, RamifiedPrimeError
from .modarith import PrimePower, gauss_quadratic, inv_mod, legendre, sqrt_set
from .quantization import (
    DENSE_CAP_DEFAULT,
    FourierObservable,
    TorusAutomorphism,
    elementary_matrix,
    load_observable,
    propagator,
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
    """Comma list with ranges: '3,5,7' or '1-3' or '1-3,5'."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            cut = part.index("-", 1)
            lo, hi = int(part[:cut]), int(part[cut + 1 :])
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    return tuple(out)


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        fields = {
            "matrix": lambda v: tuple(int(x) for x in v),
            "p": lambda v: tuple(int(x) for x in v),
            "k": lambda v: tuple(int(x) for x in v),
            "nu": lambda v: tuple(int(x) for x in v),
            "obs": str,
            "seed": int,
            "out": str,
            "dense_cap": int,
        }
        unknown = sorted(set(raw) - set(fields))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        rename = {"p": "p_list", "k": "k_list", "nu": "nu_list", "obs": "obs_path", "out": "out_path"}
        for key, conv in fields.items():
            if key in raw:
                cfg = replace(cfg, **{rename.get(key, key): conv(raw[key])})
        if "p" in raw:
            cfg = replace(cfg, explicit_p=True)
    if args.matrix:
        vals = _parse_int_list(args.matrix)
        if len(vals) != 4:
            raise ConfigError("--matrix needs exactly 4 integers a,b,c,d")
        cfg = replace(cfg, matrix=vals)
    if args.p:
        cfg = replace(cfg, p_list=_parse_int_list(args.p), explicit_p=True)
    if args.k:
        cfg = replace(cfg, k_list=_parse_int_list(args.k))
    if getattr(args, "nu", None):
        cfg = replace(cfg, nu_list=_parse_int_list(args.nu))
    if getattr(args, "obs", None):
        cfg = replace(cfg, obs_path=args.obs)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_path=args.out)
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
    def __init__(self, stream):
        self.rows: list[tuple[str, bool, str]] = []
        self.stream = stream

    def add(self, name: str, ok: bool, detail: str = ""):
        self.rows.append((name, ok, detail))
        mark = "PASS" if ok else "FAIL"
        print(f"[{mark}] {name}" + (f": {detail}" if detail else ""), file=self.stream)

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


def _check_modarith() -> tuple[bool, str]:
    pp = PrimePower(3, 2)
    assert inv_mod(2, pp) == 5
    for p in (3, 7, 11, 101):
        ppk = PrimePower(p, 2)
        for a in range(1, 20):
            if a % p:
                assert inv_mod(inv_mod(a, ppk), ppk) == a % ppk.N
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
    for nu in range(9):
        assert set(sqrt_set(nu, 3, 2)) == {x for x in range(9) if (x * x) % 9 == nu}
    assert abs(gauss_quadratic(0, 0, 7) - 7) < 1e-9
    assert abs(gauss_quadratic(0, 3, 7)) < 1e-9
    assert abs(abs(gauss_quadratic(2, 5, 7)) - math.sqrt(7)) < 1e-9
    return True, "inverses, legendre, sqrt sets, gauss magnitudes"


def _quantization_part(space: Space) -> tuple[float, float]:
    pp = space.pp
    U = propagator(space.A, pp)
    N = pp.N
    worst_u = float(np.abs(U.entries @ U.entries.conj().T - np.eye(N)).max())
    worst_e = 0.0
    Amod = space.A.mat_mod(N)
    for n in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (1, 5)]:
        lhs = U.entries.conj().T @ elementary_matrix(n, pp, twisted=True).entries @ U.entries
        rhs = elementary_matrix(row_action(n, Amod), pp, twisted=True).entries
        worst_e = max(worst_e, float(np.abs(lhs - rhs).max()))
    return worst_u, worst_e


def _quantization_summary(parts) -> tuple[bool, str]:
    worst_u = max([0.0] + [u for u, _ in parts])
    worst_e = max([0.0] + [e for _, e in parts])
    ok = worst_u < 1e-8 and worst_e < 1e-8
    return ok, f"unitarity {worst_u:.1e}, egorov {worst_e:.1e} over {len(parts)} spaces"


def _hecke_part(space: Space) -> str:
    pp, group = space.pp, space.group
    expected = pp.p ** (pp.k - 1) * (pp.p - 1 if group.kind == "split" else pp.p + 1)
    assert group.order == expected
    decomp = space.decomp
    mults = sorted(len(v) for v in decomp.clusters.values())
    assert sum(mults) == pp.N
    if group.kind == "inert":
        assert mults[-1] == 1, f"inert multiplicity > 1 at {pp}"
    tr2 = hecke.trace_magnitudes_sq_via_spectrum(decomp)
    for m in range(group.order):
        ker = hecke.qz.fixed_point_count(group.ring.matrix_of(group.element(m)), pp)
        assert abs(tr2[m] - ker) <= 1e-6 * ker, f"trace mismatch at {pp}, m={m}"
    return f"{pp}:{group.kind[0]}"


def _expsum_part(space: Space) -> tuple[float, int]:
    pp, group = space.pp, space.group
    worst = 0.0
    count = 0
    nonres = next(v for v in range(2, pp.p) if legendre(v, pp.p) == -1)
    for nu in (1, 2, nonres):
        table = expsum.scan_characters(group, [nu])
        for j, value in zip(table.chi_index.tolist(), table.value.tolist()):
            worst = max(worst, abs(value - expsum.exp_sum_bruteforce(nu, group.character(j))))
        count += len(table)
    return worst, count


def _expsum_summary(parts) -> tuple[bool, str]:
    worst = max([0.0] + [w for w, _ in parts])
    count = sum(c for _, c in parts)
    ok = worst < EXPSUM_TOL
    return ok, f"{count} sums, closed-vs-brute max err {worst:.1e} (tol {EXPSUM_TOL:g})"


def _formula_part(space: Space) -> tuple[PrimePower, bool, int]:
    rep = dist.verify_matrix_element_formula(space.decomp, _usable_modes(space.A, space.pp.p))
    return space.pp, rep.unique_up_to_ties, rep.sign


def _formula_summary(parts) -> tuple[bool, str]:
    for pp, unique, _ in parts:
        if not unique:
            return False, f"match not unique at {pp}"
    return True, "signs " + " ".join(f"{pp}:{sign:+d}" for pp, _, sign in parts)


def _slow_decay_part(space: Space) -> tuple[int, str]:
    A, pp, group = space.A, space.pp, space.group
    p = pp.p
    n = next(m for m in DEFAULT_MODES if dist.quadratic_form(A, m) % p != 0)
    nu = dist.quadratic_form(A, n) * pow(2, -1, pp.N) % pp.N
    big = expsum.find_large(group, nu)
    assert big, f"no large sums at p={p}"
    decomp = space.decomp
    target = p * p / group.order
    hits = 0
    for _, col in decomp.multiplicity_one_items():
        psi = decomp.state(col)
        el = abs(dist.inner_product(dist.apply_elementary(n, psi), psi))
        if abs(el - target) <= 1e-6 * target:
            hits += 1
    assert hits, f"no eigenfunction realizes 1/(p+-1) at p={p}"
    return p, f"p={p}:{len(big)}ch/{hits}ef"


def _check_distribution(A: TorusAutomorphism, seed: int) -> tuple[bool, str]:
    p = next(q for q in (101, 103, 107, 109) if A.disc % q != 0)
    pp = PrimePower(p, 2)
    f = FourierObservable.harmonic_pair((1, 0))
    sample, _ = dist.normalized_elements_closed(f, hecke.build_group(A, pp))
    spectrum = dist.twisted_coefficients(f, A)
    model = dist.sample_limit_variable(spectrum, seed, SAMPLER_COUNT)
    rep = dist.compare_distribution(sample, model, winsor_bound=10 * p ** (1 / 6))
    ok = rep.ks <= KS_BOUND
    return ok, f"(p,k)=({p},2) two-sample KS {rep.ks:.4f} <= {KS_BOUND}"


def cmd_verify(cfg: RunConfig, stream=None) -> int:
    stream = stream or sys.stdout
    A = _automorphism(cfg)
    table = CheckTable(stream)
    usable: list[PrimePower] = []
    for p in cfg.p_list:
        try:
            hecke.classify_prime(A, p)
        except RamifiedPrimeError:
            if cfg.explicit_p:
                print(f"error: p = {p} is ramified for D = {A.disc}", file=stream)
                return 2
            table.add(f"p={p}", True, "skipped (ramified)")
            continue
        usable.extend(PrimePower(p, k) for k in sorted(cfg.k_list))
    dense = [pp for pp in usable if pp.N <= cfg.dense_cap]
    skipped = [pp for pp in usable if pp.N > cfg.dense_cap]
    if skipped:
        table.add("dense cap", True, "skipped " + " ".join(str(pp) for pp in skipped))

    table.run("modarith oracles", _check_modarith)
    # row name, the spaces it checks, its part on one space, the row from its parts
    rows = [
        ("quantization invariants", lambda pp: True, _quantization_part, _quantization_summary),
        ("hecke group/eigen", lambda pp: True, _hecke_part,
         lambda notes: (True, "orders, multiplicities, trace sweep (" + " ".join(notes) + ")")),
        ("expsum oracle equivalence", lambda pp: pp.k >= 2, _expsum_part, _expsum_summary),
        ("matrix-element formula", lambda pp: pp.k >= 2, _formula_part, _formula_summary),
        # one note per prime, in increasing order whatever the order of --p
        ("slow decay (k=3)", lambda pp: pp.k == 3, _slow_decay_part,
         lambda notes: (True, " ".join(note for _, note in sorted(set(notes))))),
    ]
    if not any(pp.k == 3 for pp in dense):
        rows.pop()
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


def records_to_csv(table: expsum.ExpSumTable) -> str:
    """One CSV row per table row; theta is empty on bad rows."""
    value = table.value
    finite = np.isfinite(value.real) & np.isfinite(value.imag) & (np.isfinite(table.theta) | ~table.good)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ArithmeticError(
            f"non-finite value at chi_{table.chi_index[i]}, nu = {table.nu[i]}: E = {value[i]}"
        )
    flag = ("false", "true")
    head = f"{table.pp.p},{table.pp.k}"
    columns = (table.nu, table.chi_index, value.real, value.imag, table.theta, table.good, table.vanished)
    chunks = ["p,k,nu,chi_index,re,im,theta,good,vanished\n"]
    # rows are formatted a block at a time to bound the Python objects alive
    for lo in range(0, len(table), CSV_BLOCK_ROWS):
        rows = zip(*(col[lo : lo + CSV_BLOCK_ROWS].tolist() for col in columns))
        chunks.append("".join(
            f"{head},{nu},{j},{re:.17g},{im:.17g},{f'{th:.17g}' if good else ''},{flag[good]},{flag[van]}\n"
            for nu, j, re, im, th, good, van in rows
        ))
    return "".join(chunks)


def cmd_expsum(cfg: RunConfig, stream=None) -> int:
    stream = stream or sys.stdout
    A = _automorphism(cfg)
    if len(cfg.p_list) != 1 or len(cfg.k_list) != 1:
        raise ConfigError("expsum needs exactly one p and one k")
    p, k = cfg.p_list[0], cfg.k_list[0]
    if k < 2:
        raise ConfigError("expsum needs k >= 2 (closed form)")
    for nu in cfg.nu_list:
        if nu % p == 0:
            raise ConfigError(f"nu = {nu} is not a unit mod {p}")
    try:
        group = hecke.build_group(A, PrimePower(p, k))
    except RamifiedPrimeError as exc:
        raise ConfigError(str(exc)) from exc
    table = expsum.scan_characters(group, list(cfg.nu_list))
    text = records_to_csv(table)
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(text)
        print(f"wrote {len(table)} records to {cfg.out_path}", file=stream)
    else:
        stream.write(text)
    return 0


# -- distribution -------------------------------------------------------


def observable_digest(f: FourierObservable) -> str:
    canon = ";".join(
        f"{n1},{n2},{complex(c).real:.17g},{complex(c).imag:.17g}"
        for (n1, n2), c in sorted(f.coeffs.items())
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def distribution_report(cfg: RunConfig) -> dict:
    A = _automorphism(cfg)
    if len(cfg.p_list) != 1 or len(cfg.k_list) != 1:
        raise ConfigError("distribution needs exactly one p and one k")
    if not cfg.obs_path:
        raise ConfigError("distribution needs --obs with a JSON observable")
    try:
        f = load_observable(cfg.obs_path, require_real=True)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad observable file: {exc}") from exc
    p, k = cfg.p_list[0], cfg.k_list[0]
    pp = PrimePower(p, k)
    try:
        group = hecke.build_group(A, pp)
    except RamifiedPrimeError as exc:
        raise ConfigError(str(exc)) from exc
    spectrum = dist.twisted_coefficients(f, A)
    winsor = 10.0 * p ** (1.0 / 6.0)

    if pp.N <= cfg.dense_cap:
        decomp = hecke.eigendecompose(group)
        elements = dist.normalized_elements(f, decomp)
        sample = elements.empirical
        n_eig = len(sample)
        n_excl = elements.n_excluded_multiplicity
        # the sign is a property of (p, k); pin it on the default mode set
        rep1 = dist.verify_matrix_element_formula(decomp, _usable_modes(A, p))
        sign = rep1.sign
        matched = rep1.unique_up_to_ties
        n_bad = expsum.bad_character_count(group, [nu * pow(2, -1, pp.N) for nu in spectrum])
    else:
        sample, n_bad = dist.normalized_elements_closed(f, group)
        n_eig = len(sample)
        n_excl = None
        sign = None
        matched = None

    if len(spectrum) == 1 and pp.k >= 2:
        ((nu, w),) = spectrum.items()
        scale = abs(complex(w).real) * math.sqrt(pp.N) * p ** (k / 2.0) / group.order
        comp = dist.compare_distribution(sample, dist.ScaledLimitLaw(scale), winsor_bound=winsor)
    else:
        model = dist.sample_limit_variable(spectrum, cfg.seed, SAMPLER_COUNT)
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


def cmd_distribution(cfg: RunConfig, stream=None) -> int:
    stream = stream or sys.stdout
    report = distribution_report(cfg)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(text)
        print(f"wrote report to {cfg.out_path}", file=stream)
    else:
        stream.write(text)
    return 0


# -- entry point --------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcatmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command registers only the flags it reads, so any other exits 2;
    # config-file keys stay one shared set
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
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
