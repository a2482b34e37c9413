"""Run one qcatmap CLI command with its public functions wrapped in spans.

    python perfbench/tracer.py SPANS.json <qcatmap arguments>

The wrappers are installed from outside the program: each traced function
is replaced in every qcatmap module namespace that holds it, since `cli`,
`expsum` and `distribution` import names directly.  Spans are aggregated
in memory per function (calls, inclusive time, self time = time minus that
of wrapped children) and per caller edge, and written to SPANS.json when
the command ends.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module.function -> what its "items" count is, or None
TRACED = {
    "cli.cmd_verify": None,
    "cli.cmd_expsum": None,
    "cli.cmd_distribution": None,
    "cli.distribution_report": None,
    "cli.records_to_csv": "bytes",  # length of the CSV text
    "hecke.build_group": None,
    "hecke.eigendecompose": None,
    "hecke._eig_unitary": None,  # one call per eigendecomposition actually computed
    "quantization.propagator": None,
    "quantization.op_of_observable": None,
    "expsum.scan_characters": "records",  # one per (character, nu)
    "expsum.exp_sum_closed": None,
    "expsum.exp_sum_bruteforce": None,
    "modarith.gauss_quadratic": None,
    "modarith.sqrt_set": None,
    "distribution.normalized_elements": None,
    "distribution.normalized_elements_closed": None,
    "distribution.verify_matrix_element_formula": None,
    "distribution.compare_distribution": None,
    "distribution.sample_limit_variable": None,
}


class Spans:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, time of wrapped children]
        # name -> [calls, inclusive s, self s, items, active depth]
        self.stats = {name: [0, 0.0, 0.0, 0, 0] for name in TRACED}
        self.edges: dict[tuple[str, str], int] = {}  # (caller, callee) -> calls

    def wrap(self, name: str, fn):
        stack, stat, edges = self.stack, self.stats[name], self.edges
        clock = time.perf_counter
        sized = TRACED[name] is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edge = (stack[-1][0] if stack else "", name)
            edges[edge] = edges.get(edge, 0) + 1
            stat[4] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                stat[4] -= 1
                stat[0] += 1
                if not stat[4]:  # a recursive call counts once in the inclusive time
                    stat[1] += dur
                stat[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if sized:
                stat[3] += len(result)
            return result

        return traced

    def summary(self) -> dict:
        keys = ("calls", "s", "self_s", "items")
        return {name: dict(zip(keys, stat)) for name, stat in self.stats.items()}

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "qcatmap" or n.startswith("qcatmap.")]
        for name in TRACED:
            mod_name, attr = name.split(".")
            orig = getattr(importlib.import_module(f"qcatmap.{mod_name}"), attr)
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from qcatmap import cli

    import_s = time.perf_counter() - t0
    spans = Spans()
    spans.install()
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "argv": argv,
                    "import_s": import_s,
                    "functions": spans.summary(),
                    "edges": [[a, b, n] for (a, b), n in sorted(spans.edges.items())],
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
