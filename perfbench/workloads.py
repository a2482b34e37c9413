"""The benchmark's workloads: seeded inputs and the CLI commands of one round.

A round is a fixed list of `qcatmap` commands.  The seed picks the `--nu`
units, the observable's modes and real coefficients, and the CLI `--seed`;
the primes and exponents are fixed per workload.  The program sees only
the files written here and the flags.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

MATRIX = (2, 1, 1, 1)  # the CLI default: trace 3, D = 5
D = checks.disc(MATRIX)
# half-plane of small modes; an observable takes three with distinct Q mod p
MODE_POOL = [(n1, n2) for n1 in range(4) for n2 in range(-3, 4) if n1 > 0 or n2 > 0]
N_MODES = 3
# verify sweep: 10 dense spaces, more than the eigendecomposition cache holds
VERIFY_PRIMES = (3, 7, 11, 13)
VERIFY_KS = (1, 2, 3)
VERIFY_DENSE_CAP = 400


@dataclass
class Command:
    """One CLI invocation: its arguments, the file it writes (None when
    the result is its standard output), and the check of that result."""

    label: str
    argv: list[str]
    output: str | None
    check: Callable[[str, int], list[str]]


def _units(rng: random.Random, p: int, k: int, count: int) -> list[int]:
    """Distinct units mod p^k, sorted."""
    out: set[int] = set()
    while len(out) < count:
        nu = rng.randrange(1, p**k)
        if nu % p:
            out.add(nu)
    return sorted(out)


def write_observable(rng: random.Random, p: int, path: Path) -> dict[tuple[int, int], float]:
    """Real observable sum_n c_n cos(2 pi n.x) over N_MODES seeded modes.

    The modes have Q(n) nonzero and pairwise distinct mod p, so every class
    is a unit and the closed-form moment identity applies; |c_n| <= 1 keeps
    every normalized element inside the report's winsorizing bound.
    """
    modes: dict[tuple[int, int], float] = {}
    seen: set[int] = set()
    for n in rng.sample(MODE_POOL, len(MODE_POOL)):
        q = checks.quadratic_form(MATRIX, n) % p
        if q == 0 or q in seen:
            continue
        seen.add(q)
        c = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        modes[n] = c / 2
        modes[(-n[0], -n[1])] = c / 2
        if len(seen) == N_MODES:
            break
    records = [{"n1": n1, "n2": n2, "re": c, "im": 0.0} for (n1, n2), c in sorted(modes.items())]
    path.write_text(json.dumps(records))
    return modes


def _expsum(rng, p: int, k: int, n_nu: int) -> Command:
    nus = _units(rng, p, k, n_nu)
    out = f"expsum-{p}-{k}.csv"
    argv = ["expsum", "--p", str(p), "--k", str(k), "--nu", ",".join(map(str, nus)), "--out", out]
    return Command(
        f"expsum {p}^{k}",
        argv,
        out,
        lambda text, rc: checks.check_expsum_csv(text, p, k, nus, D),
    )


def _distribution(rng, work: Path, p: int, k: int, check) -> Command:
    obs = f"obs-{p}-{k}.json"
    modes = write_observable(rng, p, work / obs)
    out = f"distribution-{p}-{k}.json"
    argv = ["distribution", "--p", str(p), "--k", str(k), "--obs", obs,
            "--seed", str(rng.randrange(2**31)), "--out", out]
    return Command(
        f"distribution {p}^{k}",
        argv,
        out,
        lambda text, rc: check(text, p, k, D, modes, MATRIX),
    )


def _dense_spectrum(rng: random.Random, work: Path) -> list[Command]:
    cfg = "verify-config.json"
    (work / cfg).write_text(json.dumps({"dense_cap": VERIFY_DENSE_CAP}))
    dense = [(p, k) for p in VERIFY_PRIMES for k in VERIFY_KS if p**k <= VERIFY_DENSE_CAP]
    verify = Command(
        "verify sweep",
        ["verify", "--p", ",".join(map(str, VERIFY_PRIMES)), "--k", f"{VERIFY_KS[0]}-{VERIFY_KS[-1]}",
         "--config", cfg, "--seed", str(rng.randrange(2**31))],
        None,
        lambda text, rc: checks.check_verify(text, rc, dense, D),
    )
    return [verify, _distribution(rng, work, 37, 2, checks.check_dense_report)]


def _charsum_k2(rng: random.Random, work: Path) -> list[Command]:
    return [
        _expsum(rng, 349, 2, 2),
        _distribution(rng, work, 347, 2, checks.check_closed_report),
    ]


def _charsum_k3(rng: random.Random, work: Path) -> list[Command]:
    return [
        _expsum(rng, 29, 3, 2),
        _distribution(rng, work, 23, 3, checks.check_closed_report),
        _expsum(rng, 11, 4, 1),
    ]


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "dense-spectrum": _dense_spectrum,
    "charsum-k2": _charsum_k2,
    "charsum-k3": _charsum_k3,
}


def commands(name: str, seed: int, work: Path) -> list[Command]:
    """The seeded command list of one round of workload `name`; inputs are
    written into `work`, and outputs are paths relative to it."""
    return WORKLOADS[name](random.Random(seed), work)
