"""Per-layer benchmark: the group build, the character-sum scan, the expsum
CSV writer, the closed-form statistics, the dense matrix elements and the
eigensolver at fixed sizes, and three CLI commands end to end.

    python bench/layers.py --out BENCH_<n>.json --tree LABEL=SRC_DIR [--tree LABEL=SRC_DIR ...]
                           [--case NAME ...]

Each case runs in a fresh interpreter with `SRC_DIR` on PYTHONPATH and
one BLAS/OpenMP thread.  The child times its own layer with
`time.perf_counter` and reports its own peak RSS from
`getrusage(RUSAGE_SELF)`, which, unlike `wait4` in the parent, does not
count the RSS this script had when it forked.  A case records the median
over REPEATS fresh runs.  The runs alternate between the `--tree`s, so
drift on the machine hits each tree alike.  The layer child imports
`numpy.fft`, which numpy loads lazily, before any timer starts; it loads
nothing for random draws, which the package takes from the stdlib
`random`.  The output also records the machine: cores, CPU, BLAS, thread
settings, Python and numpy.  `--case NAME` (repeatable) runs only the
cases so named, by their full name as the output keys them ("eigen
13^3") or by their layer ("eigen" for both eigen cases, "cli-verify").

Cases (matrix (2, 1, 1, 1): inert at 37 and 13, split at every other p below):
  group p^2     -- `hecke.build_group` at 349^2, 1009^2 and 3001^2
  scan p^k      -- `expsum.scan_characters(group, [1])` at 1009^2 and
                   3001^2, and at 101^3, where the odd-k Gauss factors run
                   at #C = 1,020,100 (the group is not timed)
  csv p^2       -- `cli.records_to_csv` of `scan_characters(group, [1])` at
                   349^2 and 1009^2 (the group and the scan are not timed)
  closed p^2    -- the closed-form statistics of `distribution` at 347^2,
                   1009^2 and 3001^2:
                   `distribution.normalized_elements_closed` of the
                   observable cos 2 pi x1 + cos 2 pi x2 + cos 2 pi (x1 + 2 x2),
                   then `distribution.compare_distribution` against a model
                   sample drawn before the timer starts (the group is not
                   timed either).  After the timed run and its peak RSS,
                   the sample runs once more under tracemalloc:
                   `sample_peak_arrays` is its traced peak in (3, #C)
                   complex arrays, the size of its three rows of sums
  elements p^2  -- the dense pipeline as `distribution` runs it, at 37^2
                   (inert) and 41^2 (split): one
                   `distribution.matrix_elements` pass over the modes +-n
                   of `cli.DEFAULT_MODES` and the usable default modes,
                   which solves and reads the eigendecomposition one
                   parity and one block at a time, then
                   `distribution.normalized_elements` of the observable
                   with those +-n and
                   `distribution.verify_matrix_element_formula` over the
                   usable modes, both read from that pass.  The solve,
                   the steps of the `hecke.eigen_blocks` streams that the
                   pass reads (the `hecke.eigendecompose` calls in trees
                   before them), is timed apart, in sum, as
                   `eigendecompose_s`, and `s` is the rest;
                   `eigendecompose_peak_rss_mb` is the peak RSS when the
                   last step of the solve returns.
  eigen p^3     -- the solve of both parities at 13^3 (inert) and 19^3
                   (split), as `distribution.matrix_elements(group, [])`
                   runs it, the even half dropped before the odd half is
                   solved; `s` is the time inside the solve, timed as in
                   the elements cases, and the group build is not timed.
  cli-distribution 37^2 and 1009^2, cli-expsum 29^3, cli-verify 3,7,11,13^1-3
                -- the commands `distribution --p 37 --k 2` (dense, inert)
                   and `distribution --p 1009 --k 2` (closed form, split)
                   with the observable above, `expsum --p 29 --k 3`
                   (nu = 1) and the perfbench `dense-spectrum` sweep
                   `verify --p 3,7,11,13 --k 1-3` with `dense_cap` 400 from
                   a config file (10 dense spaces), each a fresh
                   `python -m qcatmap.cli` run in an empty directory, with
                   `--out` where the command takes one.  `s` runs from
                   spawn to exit, imports included; the child reports its
                   own `getrusage` peak as it exits.  `items` is the size
                   of the written file in bytes, and for verify that of
                   its check table on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CASES = [
    ("group", 349, 2), ("group", 1009, 2), ("group", 3001, 2), ("scan", 1009, 2), ("scan", 3001, 2), ("scan", 101, 3),
    ("csv", 349, 2), ("csv", 1009, 2), ("closed", 347, 2), ("closed", 1009, 2), ("closed", 3001, 2),
    ("elements", 37, 2), ("elements", 41, 2), ("eigen", 13, 3), ("eigen", 19, 3),
    ("cli-distribution", 37, 2), ("cli-distribution", 1009, 2), ("cli-expsum", 29, 3),
    ("cli-verify", "3,7,11,13", "1-3"),
]
REPEATS = 3
VERIFY_DENSE_CAP = 400

# argv: layer, p, k.  Prints {"s": layer seconds, "peak_rss_mb": ..., "items": ...},
# for the elements layer also the eigendecompose_* keys, and for the closed
# layer sample_peak_arrays.
CHILD = r"""
import functools, json, resource, sys, time, tracemalloc
import numpy.fft
from qcatmap import cli, distribution, expsum, hecke
from qcatmap.modarith import PrimePower
from qcatmap.quantization import FourierObservable, TorusAutomorphism

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

eig = {"s": 0.0, "peak_rss_mb": 0.0}

def timed(solve, *args):  # solve(*args), its time added to eig["s"], the peak RSS read as it returns
    t0 = time.perf_counter()
    try:
        return solve(*args)
    finally:
        eig["s"] += time.perf_counter() - t0
        eig["peak_rss_mb"] = peak_rss_mb()

# the module attribute that matrix_elements calls: the block stream, whose
# every step is the solve's, or in the trees before it eigendecompose
if hasattr(hecke, "eigen_blocks"):
    blocks = hecke.eigen_blocks

    def timed_blocks(*args):
        stream = blocks(*args)
        while (block := timed(next, stream, None)) is not None:
            yield block

    hecke.eigen_blocks = timed_blocks
else:
    hecke.eigendecompose = functools.partial(timed, hecke.eigendecompose)

layer, p, k = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
A, pp = TorusAutomorphism(2, 1, 1, 1), PrimePower(p, k)
extra = {}
if layer == "group":
    t0 = time.perf_counter()
    group = hecke.build_group(A, pp)
    s, items = time.perf_counter() - t0, group.order
elif layer == "scan":
    group = hecke.build_group(A, pp)
    t0 = time.perf_counter()
    table = expsum.scan_characters(group, [1])
    s, items = time.perf_counter() - t0, len(table)
elif layer == "closed":
    group = hecke.build_group(A, pp)
    f = FourierObservable({m: 0.5 for n in ((1, 0), (0, 1), (1, 2)) for m in (n, (-n[0], -n[1]))})
    model = distribution.sample_limit_variable(distribution.twisted_coefficients(f, A), 7, cli.SAMPLER_COUNT)
    t0 = time.perf_counter()
    sample = distribution.normalized_elements_closed(f, group)
    distribution.compare_distribution(sample, model, winsor_bound=10.0 * p ** (1.0 / 6.0))
    s, items = time.perf_counter() - t0, len(sample)
    extra = {"peak_rss_mb": peak_rss_mb()}  # read before tracemalloc, and kept in the output
    tracemalloc.start()
    distribution.normalized_elements_closed(f, group)
    extra["sample_peak_arrays"] = tracemalloc.get_traced_memory()[1] / (3 * group.order * 16)
    tracemalloc.stop()
elif layer == "csv":
    table = expsum.scan_characters(hecke.build_group(A, pp), [1])
    t0 = time.perf_counter()
    text = cli.records_to_csv(table)
    s, items = time.perf_counter() - t0, len(text)
elif layer == "eigen":
    distribution.matrix_elements(hecke.build_group(A, pp), [])
    s, items = eig["s"], pp.N
else:
    group = hecke.build_group(A, pp)
    f = FourierObservable({m: 0.5 for n in cli.DEFAULT_MODES for m in (n, (-n[0], -n[1]))})
    modes = cli._usable_modes(A, p)
    t0 = time.perf_counter()
    elements = distribution.matrix_elements(group, [*f.coeffs, *modes])
    distribution.normalized_elements(f, elements)
    distribution.verify_matrix_element_formula(elements, modes)
    s, items = time.perf_counter() - t0 - eig["s"], pp.N
    extra = {"eigendecompose_s": eig["s"], "eigendecompose_peak_rss_mb": eig["peak_rss_mb"]}
print(json.dumps({"s": s, "peak_rss_mb": peak_rss_mb(), "items": items, **extra}))
"""

# argv: the qcatmap arguments.  Runs the CLI as `python -m qcatmap.cli` does
# and prints {"peak_rss_mb": ...} of this process as the interpreter exits.
CLI_CHILD = r"""
import atexit, json, resource, runpy, sys
atexit.register(lambda: print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})))
sys.argv = ["qcatmap", *sys.argv[1:]]
runpy.run_module("qcatmap.cli", run_name="__main__", alter_sys=True)
"""
# cos 2 pi x1 + cos 2 pi x2 + cos 2 pi (x1 + 2 x2), the observable of the closed cases
OBS3 = [{"n1": s * n1, "n2": s * n2, "re": 0.5, "im": 0.0} for n1, n2 in ((1, 0), (0, 1), (1, 2)) for s in (1, -1)]

# what the child interpreter reports about its numpy and BLAS
PROBE = r"""
import json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(src: Path, layer: str, p, k) -> dict:
    if layer.startswith("cli-"):
        return run_cli(src, layer[len("cli-") :], p, k)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, layer, str(p), str(k)],
        env=child_env(src), capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"error: {layer} {p}^{k} under {src} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def run_cli(src: Path, command: str, p, k) -> dict:
    """One fresh CLI run of `command` at p^k (lists of them for verify) in an
    empty directory: its wall time from spawn to exit, its own peak RSS, and
    the bytes it wrote."""
    with tempfile.TemporaryDirectory() as work:
        argv = [command, "--p", str(p), "--k", str(k)]
        if command == "verify":
            Path(work, "config.json").write_text(json.dumps({"dense_cap": VERIFY_DENSE_CAP}))
            argv += ["--config", "config.json"]
        else:
            argv += ["--out", "out"]
        if command == "distribution":
            Path(work, "obs.json").write_text(json.dumps(OBS3))
            argv += ["--obs", "obs.json"]
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, *argv],
            cwd=work, env=child_env(src), capture_output=True, text=True, timeout=600,
        )
        s = time.perf_counter() - t0
        if out.returncode != 0:
            raise SystemExit(f"error: {command} {p}^{k} under {src} failed:\n{out.stderr}")
        *table, peak = out.stdout.splitlines(keepends=True)
        items = len("".join(table).encode()) if command == "verify" else Path(work, "out").stat().st_size
        return {"s": s, **json.loads(peak), "items": items}


def tree_info(src: Path) -> dict:
    h = hashlib.sha256()
    for path in sorted((src / "qcatmap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    git = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"], capture_output=True, text=True)
    return {"source_digest": h.hexdigest()[:16], "git_describe": git.stdout.strip() or None}


def machine(src: Path) -> dict:
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(src), capture_output=True, text=True)
    info = json.loads(probe.stdout) if probe.returncode == 0 else {"probe_error": probe.stderr}
    cpu = None
    if Path("/proc/cpuinfo").exists():
        names = [line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")]
        cpu = names[0] if names else None
    info.update(
        python=platform.python_version(),
        usable_cores=len(os.sched_getaffinity(0)),
        cpu=cpu,
        thread_env={var: "1" for var in THREAD_VARS},
    )
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC_DIR",
                        help="a source directory to measure (repeatable)")
    parser.add_argument("--case", action="append", metavar="NAME",
                        help='run only this case, e.g. "eigen 13^3", or the cases of this layer (repeatable)')
    args = parser.parse_args()
    trees = {label: (ROOT / src).resolve() for label, src in (t.split("=", 1) for t in args.tree)}
    cases = CASES
    if args.case:
        unknown = set(args.case) - {name for layer, p, k in CASES for name in (layer, f"{layer} {p}^{k}")}
        if unknown:
            parser.error(f"no case named {', '.join(sorted(unknown))}")
        cases = [(layer, p, k) for layer, p, k in CASES if {layer, f"{layer} {p}^{k}"} & set(args.case)]

    runs: dict[str, dict[str, list[dict]]] = {label: {} for label in trees}
    for rep in range(REPEATS):
        for layer, p, k in cases:
            # alternate which tree goes first from one repeat to the next
            for label in list(trees)[:: 1 if rep % 2 == 0 else -1]:
                res = run_child(trees[label], layer, p, k)
                runs[label].setdefault(f"{layer} {p}^{k}", []).append(res)
                print(f"{label:10s} {layer:8s} {p}^{k}  {res['s']:8.3f} s  {res['peak_rss_mb']:7.1f} MB", flush=True)

    result = {
        "machine": machine(next(iter(trees.values()))),
        "repeats": REPEATS,
        "trees": {
            label: dict(
                tree_info(src),
                cases={
                    case: {
                        **{key: statistics.median(r[key] for r in rs) for key in rs[0] if key != "items"},
                        "items": rs[0]["items"],
                        "runs_s": [r["s"] for r in rs],
                    }
                    for case, rs in runs[label].items()
                },
            )
            for label, src in trees.items()
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
