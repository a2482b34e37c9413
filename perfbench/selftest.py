"""Self-test of the output checks: each passes real output and fails corrupted output.

    python3 perfbench/selftest.py

Runs the qcatmap CLI from this tree at desk sizes (a few seconds), feeds
every check its genuine output, which must pass, and then corrupted copies
(a dropped row, a flipped sign, a wrong bad-character count, a wrong kind,
...), each of which must fail.  Exit code 0 when every case behaves.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import checks
import run
import workloads

D = workloads.D
MATRIX = workloads.MATRIX


def cli(work, *argv) -> tuple[str, int]:
    proc = subprocess.run(
        [sys.executable, "-m", "qcatmap.cli", *argv],
        cwd=work, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.stdout, proc.returncode


def csv_cases(work):
    p, k, nus = 11, 2, [1, 3]
    cli(work, "expsum", "--p", str(p), "--k", str(k), "--nu", "1,3", "--out", "s.csv")
    text = (work / "s.csv").read_text()
    lines = text.splitlines(keepends=True)
    rows = [line.split(",") for line in lines]
    big = max(range(1, len(rows)), key=lambda i: abs(float(rows[i][4])))
    good = next(i for i in range(1, len(rows)) if rows[i][7] == "true")

    def edit(i, col, val):
        cells = list(rows[i])
        cells[col] = val
        return "".join(lines[:i]) + ",".join(cells) + "".join(lines[i + 1 :])

    def flag_bad(i):
        cells = list(rows[i])
        cells[6], cells[7] = "", "false"
        return "".join(lines[:i]) + ",".join(cells) + "".join(lines[i + 1 :])

    check = lambda t: checks.check_expsum_csv(t, p, k, nus, D)  # noqa: E731
    yield "expsum 11^2 genuine", check(text), True
    yield "expsum dropped row", check("".join(lines[:-1])), False
    yield "expsum flipped sign", check(edit(big, 4, repr(-float(rows[big][4])))), False
    yield "expsum wrong bad count", check(flag_bad(good)), False
    yield "expsum wrong p column", check(edit(big, 0, "13")), False

    p3, k3 = 7, 3
    cli(work, "expsum", "--p", "7", "--k", "3", "--nu", "2", "--out", "s3.csv")
    text3 = (work / "s3.csv").read_text()
    yield "expsum 7^3 genuine", checks.check_expsum_csv(text3, p3, k3, [2], D), True
    again, _ = cli(work, "expsum", "--p", "7", "--k", "3", "--nu", "2")
    yield "expsum 7^3 repeats byte for byte", [] if again == text3 else ["bytes differ"], True


def report_cases(work):
    (work / "cap.json").write_text(json.dumps({"dense_cap": 10}))
    cases = [
        ("closed 13^2", 13, 2, ["--config", "cap.json"], checks.check_closed_report),
        ("closed 7^3", 7, 3, ["--config", "cap.json"], checks.check_closed_report),
        ("dense 7^2", 7, 2, [], checks.check_dense_report),
    ]
    for label, p, k, extra, check in cases:
        modes = workloads.write_observable(random.Random(p * k), p, work / "obs.json")
        cli(work, "distribution", "--p", str(p), "--k", str(k), "--obs", "obs.json",
            "--seed", "5", "--out", "rep.json", *extra)
        rep = json.loads((work / "rep.json").read_text())

        def run_check(**changes):
            return check(json.dumps(dict(rep, **changes)), p, k, D, modes, MATRIX)

        other = "split" if rep["kind"] == "inert" else "inert"
        yield f"{label} genuine", run_check(), True
        yield f"{label} wrong bad-character count", run_check(n_bad_character=rep["n_bad_character"] + 1), False
        yield f"{label} wrong kind", run_check(kind=other), False
        yield f"{label} wrong eigenfunction count", run_check(n_eigenfunctions=rep["n_eigenfunctions"] - 1), False
        yield f"{label} nonzero mean", run_check(moments=[rep["moments"][0] + 1e-3] + rep["moments"][1:]), False
        if check is checks.check_closed_report:
            second = [rep["moments"][0], rep["moments"][1] * 1.001] + rep["moments"][2:]
            yield f"{label} wrong second moment", run_check(moments=second), False
        else:
            yield f"{label} excluded multiplicity", run_check(n_excluded_multiplicity=1), False
            yield f"{label} match not unique", run_check(matched_unique=False), False


def verify_cases(work):
    dense = [(3, 1), (3, 2), (3, 3)]
    text, rc = cli(work, "verify", "--p", "3", "--k", "1-3")
    check = lambda t, c: checks.check_verify(t, c, dense, D)  # noqa: E731
    yield "verify genuine", check(text, rc), True
    yield "verify failed row", check(text.replace("[PASS] matrix", "[FAIL] matrix"), rc), False
    yield "verify exit code", check(text, 1), False
    dropped = "".join(line for line in text.splitlines(True) if "limiting" not in line)
    yield "verify dropped row", check(dropped, rc), False
    yield "verify wrong spaces", checks.check_verify(text, rc, dense[:2], D), False


def main() -> int:
    work = run.RESULTS / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bad = 0
    for gen in (csv_cases, report_cases, verify_cases):
        for label, problems, should_pass in gen(work):
            ok = (not problems) == should_pass
            bad += not ok
            note = "passes" if not problems else f"fails: {problems[0]}"
            print(f"[{'ok' if ok else 'WRONG'}] {label}: {note}")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
