"""Summarize result files: per workload and metric, the median and quartiles over runs.

    python3 perfbench/summarize.py [RESULT.json ...]    (default: bench_results/*.json)

Untraced runs give one row per end-to-end metric with its median, first
and third quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1)
as a share of the median.  Traced runs give the per-layer medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import run


def main() -> int:
    paths = [Path(p) for p in sys.argv[1:]] or sorted(run.RESULTS.glob("*.json"))
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        rec = json.loads(path.read_text())
        groups[(rec["provenance"]["workload"], rec["provenance"]["trace"])].append(rec)
    for (workload, trace), recs in sorted(groups.items()):
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        correct = all(r["correct"] for r in recs)
        print(f"\n{workload} trace={trace}: {len(recs)} runs, "
              f"failed {failed}/{attempted}, correct={correct}")
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            unit = recs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"  {name:48s} {med:12.5g} {unit:6s} Q1 {q1:10.5g} Q3 {q3:10.5g} "
                      f"spread {spread:6.1%}")
            else:
                print(f"  {name:48s} {med:12.5g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
