"""Output checks for the qcatmap CLI, from number theory computed here.

Nothing in this module imports qcatmap: every expected value comes from
the Legendre symbol, the orders of the norm-one group and of the Cayley
domain, and the orthogonality of characters.  Each check returns a list
of problems; an empty list means the output passed.

For the cat map A with discriminant D and N = p^k:

    #C = p^(k-1) (p - (D|p))          norm-one group (characters)
    #X = p^(k-1) (p - 1 - (D|p))      Cayley domain {x : D x^2 != 1 mod p}

and for every class nu, summing over all characters,

    sum_chi E(nu, chi) = 0,   sum_chi |E(nu, chi)|^2 = #C #X,

because the Cayley map is injective and never hits 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

CSV_HEADER = ["p", "k", "nu", "chi_index", "re", "im", "theta", "good", "vanished"]
REPORT_KEYS = {
    "p", "k", "kind", "observable_digest", "n_eigenfunctions", "n_excluded_multiplicity",
    "n_bad_character", "ks", "moments", "winsorized", "sign", "matched_unique",
}
VERIFY_ROWS = (
    "modarith oracles",
    "quantization invariants",
    "hecke group/eigen",
    "expsum oracle equivalence",
    "matrix-element formula",
    "limiting distribution",
)
# relative tolerance of the float identities; the program writes %.17g
REL_TOL = 1e-9


def legendre(a: int, p: int) -> int:
    """(a|p) by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def disc(matrix) -> int:
    a, _, _, d = matrix
    return (a + d) ** 2 - 4


def kind(p: int, D: int) -> str:
    return "split" if legendre(D, p) == 1 else "inert"


def group_order(p: int, k: int, D: int) -> int:
    return p ** (k - 1) * (p - legendre(D, p))


def domain_size(p: int, k: int, D: int) -> int:
    return p ** (k - 1) * (p - 1 - legendre(D, p))


def quadratic_form(matrix, n) -> int:
    """Q(n) = w(nA, n), w(m, n) = m1 n2 - m2 n1, row-vector convention."""
    a, b, c, d = matrix
    m1, m2 = n[0] * a + n[1] * c, n[0] * b + n[1] * d
    return m1 * n[1] - m2 * n[0]


def twisted_spectrum(matrix, modes) -> dict[int, float]:
    """f#(nu) = sum over Q(n) = nu of (-1)^(n1 n2) fhat(n), for real fhat."""
    out: dict[int, float] = {}
    for (n1, n2), c in modes.items():
        nu = quadratic_form(matrix, (n1, n2))
        if (n1, n2) != (0, 0) and nu != 0:
            out[nu] = out.get(nu, 0.0) + (-1 if (n1 * n2) % 2 else 1) * c
    return out


def observable_digest(modes) -> str:
    """The report's digest of the observable (real coefficients only)."""
    canon = ";".join(f"{n1},{n2},{c:.17g},{0.0:.17g}" for (n1, n2), c in sorted(modes.items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def expected_bad(p: int, k: int, D: int, classes) -> int:
    """Characters bad for at least one class: chi is bad for nu when
    2 t_chi = -nu (mod p), and t_chi mod p runs evenly over Z/p, so each
    distinct residue of nu/2 mod p removes #C/p characters."""
    halves = {nu * pow(2, -1, p) % p for nu in classes}
    return group_order(p, k, D) // p * len(halves)


def check_expsum_csv(text: str, p: int, k: int, nus, D: int) -> list[str]:
    """Rows of `qcatmap expsum`, one per (character, nu), ordered by both."""
    N = p**k
    C, X = group_order(p, k, D), domain_size(p, k, D)
    bound = 2.0 * p ** (k / 2.0)
    nus = sorted(nu % N for nu in nus)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return ["bad or missing CSV header"]
    rows = rows[1:]
    if len(rows) != C * len(nus):
        return [f"{len(rows)} rows, expected #C * #nu = {C} * {len(nus)}"]
    problems: list[str] = []
    sums = {nu: [] for nu in nus}
    squares = {nu: [] for nu in nus}
    bad = {nu: [] for nu in nus}
    for i, row in enumerate(rows):
        chi, nu = i // len(nus), nus[i % len(nus)]
        if row[:4] != [str(p), str(k), str(nu), str(chi)]:
            problems.append(f"row {i}: key {row[:4]} != {[p, k, nu, chi]}")
            break
        re, im = float(row[4]), float(row[5])
        good, vanished = row[7] == "true", row[8] == "true"
        sums[nu].append(re)
        squares[nu].append(re * re + im * im)
        if abs(im) > REL_TOL * bound:
            problems.append(f"row {i}: E is not real ({im})")
        if vanished and (re != 0.0 or im != 0.0):
            problems.append(f"row {i}: vanished but E = {re}")
        if not good:
            bad[nu].append(chi)
            if row[6] != "":
                problems.append(f"row {i}: theta on a bad character")
            continue
        theta = float(row[6])
        if abs(re) > bound * (1 + REL_TOL):
            problems.append(f"row {i}: |E| = {abs(re)} > 2 p^(k/2) = {bound}")
        if not 0.0 <= theta <= math.pi or abs(re - bound * math.cos(theta)) > REL_TOL * bound:
            problems.append(f"row {i}: E = {re} != 2 p^(k/2) cos({theta})")
    for nu in nus:
        total = math.fsum(sums[nu])
        if abs(total) > REL_TOL * C * math.sqrt(X):
            problems.append(f"nu={nu}: sum_chi E = {total}, expected 0")
        energy = math.fsum(squares[nu])
        if abs(energy - C * X) > REL_TOL * C * X:
            problems.append(f"nu={nu}: sum_chi |E|^2 = {energy}, expected #C #X = {C * X}")
        if len(bad[nu]) != C // p:
            problems.append(f"nu={nu}: {len(bad[nu])} bad characters, expected #C/p = {C // p}")
        elif len({j % p for j in bad[nu]}) != 1:
            problems.append(f"nu={nu}: bad characters are not one residue class mod p")
    return problems[:20]


def _report_common(rep: dict, p: int, k: int, D: int, modes, matrix) -> list[str]:
    if set(rep) != REPORT_KEYS:
        return [f"report keys {sorted(rep)}"]
    spectrum = twisted_spectrum(matrix, modes)
    problems = []
    want = {
        "p": p,
        "k": k,
        "kind": kind(p, D),
        "observable_digest": observable_digest(modes),
        "n_bad_character": expected_bad(p, k, D, spectrum),
    }
    for key, val in want.items():
        if rep[key] != val:
            problems.append(f"{key} = {rep[key]!r}, expected {val!r}")
    if not 0.0 <= rep["ks"] <= 1.0:
        problems.append(f"ks = {rep['ks']} outside [0, 1]")
    moments = rep["moments"]
    if len(moments) != 6 or not all(math.isfinite(m) for m in moments):
        problems.append(f"moments {moments} are not six finite numbers")
    return problems


def check_closed_report(text: str, p: int, k: int, D: int, modes, matrix) -> list[str]:
    """`qcatmap distribution` above the dense cap: one F value per character,
    F_chi = sqrt(N)/#C sum_nu f#(nu) E(nu/2, chi).  Orthogonality gives a
    zero mean and, with distinct classes, E[F^2] = N #X sum f#^2 / #C^2."""
    rep = json.loads(text)
    problems = _report_common(rep, p, k, D, modes, matrix)
    if problems:
        return problems
    N, C, X = p**k, group_order(p, k, D), domain_size(p, k, D)
    if rep["n_eigenfunctions"] != C:
        problems.append(f"n_eigenfunctions = {rep['n_eigenfunctions']}, expected #C = {C}")
    for key in ("n_excluded_multiplicity", "sign", "matched_unique"):
        if rep[key] is not None:
            problems.append(f"{key} = {rep[key]!r} on a closed-form report")
    weights = twisted_spectrum(matrix, modes).values()
    second = N * X * math.fsum(w * w for w in weights) / C**2
    m1, m2 = rep["moments"][:2]
    if abs(m1) > REL_TOL * math.sqrt(second):
        problems.append(f"moments[0] = {m1}, expected 0")
    if rep["winsorized"] == 0 and abs(m2 - second) > REL_TOL * second:
        problems.append(f"moments[1] = {m2}, expected N #X sum f#^2 / #C^2 = {second}")
    return problems


def check_dense_report(text: str, p: int, k: int, D: int, modes, matrix) -> list[str]:
    """`qcatmap distribution` at an inert space within the dense cap: every
    joint eigenspace is a line, so all N eigenfunctions enter, and their
    elements sum to Tr Op(f) - N fhat(0) = 0."""
    rep = json.loads(text)
    problems = _report_common(rep, p, k, D, modes, matrix)
    if problems:
        return problems
    if kind(p, D) != "inert":
        return [f"dense check needs an inert prime, {p} is split"]
    want = {"n_eigenfunctions": p**k, "n_excluded_multiplicity": 0, "matched_unique": True}
    for key, val in want.items():
        if rep[key] != val:
            problems.append(f"{key} = {rep[key]!r}, expected {val!r}")
    if rep["sign"] not in (1, -1):
        problems.append(f"sign = {rep['sign']!r}")
    scale = math.sqrt(max(abs(rep["moments"][1]), 1.0))
    if abs(rep["moments"][0]) > REL_TOL * scale:
        problems.append(f"moments[0] = {rep['moments'][0]}, expected 0")
    return problems


def check_verify(text: str, returncode: int, dense_spaces, D: int) -> list[str]:
    """`qcatmap verify`: every battery row PASS, exit code 0, and the group
    row lists exactly the dense spaces with their split/inert letter."""
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    rows = [line for line in text.splitlines() if line.startswith("[")]
    problems += [f"row failed: {line}" for line in rows if not line.startswith("[PASS] ")]
    names = [line[7:].split(":")[0] for line in rows]
    problems += [f"missing row {name!r}" for name in VERIFY_ROWS if name not in names]
    if any(k == 3 for _, k in dense_spaces) and "slow decay (k=3)" not in names:
        problems.append("missing row 'slow decay (k=3)'")
    want = " ".join(f"{p}^{k}:{kind(p, D)[0]}" for p, k in dense_spaces)
    group_rows = [line for line in rows if line[7:].startswith("hecke group/eigen:")]
    if group_rows and f"({want})" not in group_rows[0]:
        problems.append(f"group row does not list the dense spaces ({want})")
    return problems
