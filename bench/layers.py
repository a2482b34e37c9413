"""Per-layer benchmark: the group build, the character-sum scan, the expsum
CSV writer, the closed-form statistics, the dense matrix elements and the
eigensolver at fixed sizes.

    python bench/layers.py --out BENCH_<n>.json --tree LABEL=SRC_DIR [--tree LABEL=SRC_DIR ...]

Each case runs in a fresh interpreter with `SRC_DIR` on PYTHONPATH and
one BLAS/OpenMP thread.  The child times its own layer with
`time.perf_counter` and reports its own peak RSS from
`getrusage(RUSAGE_SELF)`, which, unlike `wait4` in the parent, does not
count the RSS this script had when it forked.  A case records the median
over REPEATS fresh runs.  The runs alternate between the `--tree`s, so
drift on the machine hits each tree alike.  The child imports `numpy.fft`
and `numpy.random`, which numpy loads lazily, before any timer starts.
The output also records the machine: cores, CPU, BLAS, thread settings,
Python and numpy.

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
  elements p^2  -- the dense matrix elements as `distribution` runs them,
                   at 37^2 (inert) and 41^2 (split): one
                   `distribution.matrix_elements` pass over the modes +-n
                   of `cli.DEFAULT_MODES` and the usable default modes,
                   then `distribution.normalized_elements` of the
                   observable with those +-n and
                   `distribution.verify_matrix_element_formula` over the
                   usable modes, both read from that pass.
                   `eigendecompose` is timed apart as `eigendecompose_s`,
                   and `eigendecompose_peak_rss_mb` is the peak RSS when it
                   returns, so `peak_rss_mb` above it is the elements' own.
  eigen p^3     -- `hecke.eigendecompose` alone at 13^3 (inert) and 19^3
                   (split); the group build is not timed.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CASES = [
    ("group", 349, 2), ("group", 1009, 2), ("group", 3001, 2), ("scan", 1009, 2), ("scan", 3001, 2), ("scan", 101, 3),
    ("csv", 349, 2), ("csv", 1009, 2), ("closed", 347, 2), ("closed", 1009, 2), ("closed", 3001, 2),
    ("elements", 37, 2), ("elements", 41, 2), ("eigen", 13, 3), ("eigen", 19, 3),
]
REPEATS = 3

# argv: layer, p, k.  Prints {"s": layer seconds, "peak_rss_mb": ..., "items": ...},
# for the elements layer also the eigendecompose_* keys, and for the closed
# layer sample_peak_arrays.
CHILD = r"""
import json, resource, sys, time, tracemalloc
import numpy.fft, numpy.random
from qcatmap import cli, distribution, expsum, hecke
from qcatmap.modarith import PrimePower
from qcatmap.quantization import FourierObservable, TorusAutomorphism

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

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
    group = hecke.build_group(A, pp)
    t0 = time.perf_counter()
    hecke.eigendecompose(group)
    s, items = time.perf_counter() - t0, pp.N
else:
    group = hecke.build_group(A, pp)
    t0 = time.perf_counter()
    decomp = hecke.eigendecompose(group)
    extra = {"eigendecompose_s": time.perf_counter() - t0, "eigendecompose_peak_rss_mb": peak_rss_mb()}
    f = FourierObservable({m: 0.5 for n in cli.DEFAULT_MODES for m in (n, (-n[0], -n[1]))})
    modes = cli._usable_modes(A, p)
    t0 = time.perf_counter()
    elements = distribution.matrix_elements(decomp, [*f.coeffs, *modes])
    distribution.normalized_elements(f, elements)
    distribution.verify_matrix_element_formula(elements, modes)
    s, items = time.perf_counter() - t0, pp.N
print(json.dumps({"s": s, "peak_rss_mb": peak_rss_mb(), "items": items, **extra}))
"""

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


def run_child(src: Path, layer: str, p: int, k: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, layer, str(p), str(k)],
        env=child_env(src), capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"error: {layer} {p}^{k} under {src} failed:\n{out.stderr}")
    return json.loads(out.stdout)


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
    args = parser.parse_args()
    trees = {label: (ROOT / src).resolve() for label, src in (t.split("=", 1) for t in args.tree)}

    runs: dict[str, dict[str, list[dict]]] = {label: {} for label in trees}
    for rep in range(REPEATS):
        for layer, p, k in CASES:
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
