"""Benchmark of the qcatmap CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload charsum-k2 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  Every command is a fresh
`python -m qcatmap.cli ...` process with `src/` on PYTHONPATH and its
BLAS/OpenMP threads fixed at one, run one at a time (one client, closed
loop).  A round is the workload's fixed command list; rounds repeat until
`--seconds` is used up, and each end-to-end metric is a median over
rounds.  Every output is checked (perfbench/checks.py) on first sight and
must repeat byte for byte in later rounds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced rounds (perfbench/tracer.py) and reports
its per-layer metrics.  The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; a full result file with a
machine and provenance block goes to bench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench_results"
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_ROUND = 2
COMMAND_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# What the child interpreter reports about itself (versions, BLAS threads).
PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(argv: list[str], cwd: Path, log: Path, env) -> dict:
    """Run argv to its end; wall time from spawn to exit, peak RSS and CPU
    from wait4 on the child."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
    }


class Run:
    """One run of one workload: its commands, counts and checked outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.env = child_env()
        self.commands = workloads.commands(workload, seed, work)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}  # command index -> first output digest
        self.rounds: list[dict] = []

    def setup_samples(self, count: int) -> list[float]:
        """Wall times of fresh interpreters that only import qcatmap.cli."""
        argv = [sys.executable, "-c", "import qcatmap.cli"]
        samples = []
        for _ in range(count):
            res = spawn(argv, self.work, self.work / "setup", self.env)
            if res["returncode"] != 0:
                err = (self.work / "setup.err").read_text()
                raise SystemExit(f"error: importing qcatmap.cli failed:\n{err}")
            samples.append(res["wall_s"])
        return samples

    def round(self, traced: bool):
        number = len(self.rounds)
        cmds = []
        for i, cmd in enumerate(self.commands):
            log = self.work / f"r{number}-c{i}"
            if cmd.output:
                (self.work / cmd.output).unlink(missing_ok=True)
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(log.with_suffix(".spans.json"))]
            else:
                argv = [sys.executable, "-m", "qcatmap.cli"]
            res = spawn(argv + cmd.argv, self.work, log, self.env)
            self.attempted += 1
            if res["returncode"] != 0:
                self.failed += 1
                self.problems.append(f"{cmd.label}: exit code {res['returncode']}")
            else:
                self._check(i, cmd, log)
            if traced:
                res["spans"] = json.loads(log.with_suffix(".spans.json").read_text())
            cmds.append(res)
        rnd = {
            "traced": traced,
            "wall_s": sum(c["wall_s"] for c in cmds),
            "cpu_s": sum(c["cpu_s"] for c in cmds),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in cmds),
            "commands": cmds,
        }
        self.rounds.append(rnd)

    def _check(self, i: int, cmd, log: Path):
        path = self.work / cmd.output if cmd.output else log.with_suffix(".out")
        text = path.read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if i not in self.digests:
            self.digests[i] = digest
            self.problems += [f"{cmd.label}: {p}" for p in cmd.check(text, 0)]
        elif digest != self.digests[i]:
            self.problems.append(f"{cmd.label}: output differs from the first round")

    def cleanup(self):
        for cmd in self.commands:
            if cmd.output:
                (self.work / cmd.output).unlink(missing_ok=True)


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over traced rounds of per-round sums."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]

    def per_round(fn) -> float:
        return statistics.median(fn(r) for r in traced)

    def total(r, name, key) -> float:
        return sum(c["spans"]["functions"][name][key] for c in r["commands"])

    out: dict[str, float] = {}
    for name in tracer.TRACED:
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = per_round(lambda r: total(r, name, key))
    out["expsum.scan_characters.chars_per_s"] = per_round(
        lambda r: total(r, "expsum.scan_characters", "items")
        / max(total(r, "expsum.scan_characters", "s"), 1e-12)
    )
    out["cli.records_to_csv.bytes"] = per_round(lambda r: total(r, "cli.records_to_csv", "items"))
    out["hecke.eigendecompose.cache_hits"] = (
        out["hecke.eigendecompose.calls"] - out["hecke._eig_unitary.calls"]
    )

    def attributed(r) -> float:
        inside = sum(total(r, name, "self_s") for name in tracer.TRACED)
        return inside + sum(c["spans"]["import_s"] for c in r["commands"])

    out["trace.import_s"] = per_round(lambda r: sum(c["spans"]["import_s"] for c in r["commands"]))
    out["trace.attributed_share"] = per_round(lambda r: attributed(r) / r["wall_s"])
    out["trace.wall_s"] = per_round(lambda r: r["wall_s"])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcatmap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(env, args, n_rounds: int, n_setup: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    machine = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr}
    machine["usable_cores"] = len(os.sched_getaffinity(0))
    machine["thread_env"] = {var: env[var] for var in THREAD_VARS}
    revision = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = git.stdout.strip() or None
    return {
        "machine": machine,
        "git_revision": revision,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": n_rounds,
        "setup_samples": n_setup,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_start = time.perf_counter()
    if not (SRC / "qcatmap" / "cli.py").is_file():
        print(f"error: no qcatmap sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = RESULTS / run_id
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, work)
    run.setup_samples(1)  # untimed: writes the bytecode cache
    setup = run.setup_samples(SETUP_SAMPLES_FIRST)
    start = time.perf_counter()
    while True:
        if args.trace:
            run.round(traced=False)
        run.round(traced=bool(args.trace))
        # spread the set-up samples over the run, outside the timed rounds
        setup += run.setup_samples(SETUP_SAMPLES_PER_ROUND)
        elapsed = time.perf_counter() - start
        # stop at the round count that lands nearest to --seconds
        if elapsed + 0.5 * elapsed / (len(run.rounds) // (1 + args.trace)) >= args.seconds:
            break
    run.cleanup()

    timed = [r for r in run.rounds if not r["traced"]]
    if args.trace:
        values = layer_metrics(run.rounds)
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "setup_s": statistics.median(setup),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        problems=run.problems,
        cpu_s=statistics.median(r["cpu_s"] for r in timed),
        setup_samples_s=setup,
        commands=[{"label": c.label, "argv": c.argv} for c in run.commands],
        rounds=run.rounds,
        provenance=provenance(run.env, args, len(run.rounds), len(setup)),
        run_s=time.perf_counter() - t_start,
    )
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
