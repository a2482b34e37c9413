import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qcatmap.cli import ConfigError, _parse_int_list, build_config, main, make_parser, observable_digest, records_to_csv
from qcatmap.errors import EigenClusterError
from qcatmap.expsum import ExpSumTable, scan_characters
from qcatmap.hecke import build_group
from qcatmap.modarith import PrimePower
from qcatmap.quantization import FourierObservable

from conftest import csv_by_character, csv_rows, matrix_for_prime


def run_cli(args):
    return main(list(args))


def run_python(*args):
    """A fresh interpreter on this checkout's package: python ARGS."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_parse_int_list():
    assert _parse_int_list("3,5,7") == (3, 5, 7)
    assert _parse_int_list("1-3") == (1, 2, 3)
    assert _parse_int_list("1-3,7") == (1, 2, 3, 7)
    assert _parse_int_list("-1,2") == (-1, 2)


def write_obs(path, coeffs):
    records = [
        {"n1": n1, "n2": n2, "re": c.real, "im": c.imag} for (n1, n2), c in coeffs.items()
    ]
    path.write_text(json.dumps(records))


def test_verify_small_config_passes(capsys):
    assert run_cli(["verify", "--p", "3", "--k", "1-2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_bad_matrix_exits_2():
    assert run_cli(["verify", "--matrix", "2,1,1,2", "--p", "3", "--k", "1"]) == 2


def assert_one_line_error(capsys, *words):
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(word in err for word in words), err
    return captured.out


def test_verify_ramified_explicit_prime_exits_2(capsys):
    """An explicitly requested ramified prime is a configuration error: one
    line on stderr and nothing on stdout, where the check table goes, also
    after a usable prime."""
    for p_list in ("5", "3,5"):
        assert run_cli(["verify", "--p", p_list, "--k", "1"]) == 2
        assert assert_one_line_error(capsys, "p = 5", "ramified") == ""


@pytest.mark.parametrize(
    "argv,words",
    [
        (["verify", "--p", "9", "--k", "1"], ["p = 9"]),
        (["expsum", "--p", "9", "--k", "2"], ["p = 9"]),
        (["verify", "--p", "3", "--k", "0"], ["k = 0"]),
        (["verify", "--p", "2", "--k", "1"], ["p = 2"]),
        (["expsum", "--p", "abc", "--k", "2"], ["'abc'"]),
        (["distribution", "--p", "3", "--k", "1-x", "--obs", "obs.json"], ["'1-x'"]),
        (["verify", "--p", "3", "--k", "3-1"], ["descending range '3-1'"]),
        (["verify", "--p", "13-11", "--k", "1"], ["descending range '13-11'"]),
        (["expsum", "--p", "11", "--k", "2", "--nu", "1,5-2"], ["descending range '5-2'"]),
        (["verify", "--p", "3,3", "--k", "1"], ["p list repeats 3"]),
        (["verify", "--p", "3,5,7,5,3", "--k", "1"], ["p list repeats 3, 5"]),
        (["verify", "--p", "3", "--k", "1-2,2"], ["k list repeats 2"]),
        (["distribution", "--p", "3", "--k", "2,2", "--obs", "obs.json"], ["k list repeats 2"]),
        (["verify", "--p", "3", "--k", "1", "--seed", "-5"], ["seed = -5"]),
        (["distribution", "--p", "13", "--k", "2", "--obs", "obs.json", "--seed", "-5"], ["seed = -5"]),
    ],
)
def test_bad_modulus_or_integer_list_exits_2(argv, words, capsys):
    """A p that is no odd prime, a k < 1, a list that is not integers, a
    descending range (it names no value), a repeated prime or exponent
    (it names its spaces twice) or a negative seed (numpy's generator
    takes none) is a configuration error: exit 2 and one line on stderr,
    no traceback, and no check runs."""
    assert run_cli(argv) == 2
    assert assert_one_line_error(capsys, *words) == ""


def test_matrix_entries_may_repeat():
    """Only primes and exponents must be distinct."""
    args = make_parser().parse_args(["verify", "--matrix", "2,1,1,1", "--p", "3", "--k", "1"])
    assert build_config(args).matrix == (2, 1, 1, 1)


@pytest.mark.parametrize(
    "text,word",
    [
        (json.dumps({"p": ["abc"], "k": [2]}), "abc"),
        ('{"p": [3', "cfg.json"),
        (None, "cfg.json"),
        (json.dumps({"p": [3, 3], "k": [2]}), "p list repeats 3"),
        (json.dumps({"p": [3], "k": [2, 3, 2]}), "k list repeats 2"),
        ("3", "not a JSON object"),
        (json.dumps({"p": [11.9], "k": [2]}), "11.9"),
        (json.dumps({"p": [11], "k": [2], "nu": ["1"]}), "'1'"),
    ],
)
def test_bad_config_file_exits_2(text, word, tmp_path, capsys):
    """A non-integer list, a file that is no JSON, a missing file, a
    repeated prime or exponent, a file that is no JSON object, and a float
    or a string where an integer belongs (never truncated or parsed)."""
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run_cli(["expsum", "--config", str(cfg)]) == 2
    assert_one_line_error(capsys, word)


@pytest.mark.parametrize("command", ["verify", "distribution"])
def test_negative_seed_in_config_file_exits_2(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -5}))
    assert run_cli([command, "--config", str(cfg)]) == 2
    assert assert_one_line_error(capsys, "seed = -5") == ""


def test_expsum_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["expsum", "--p", "11", "--k", "2", "--nu", "1,2"]
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()  # byte-identical rerun
    lines = text.strip().splitlines()
    assert lines[0] == "p,k,nu,chi_index,re,im,theta,good,vanished"
    assert len(lines) - 1 == 110 * 2  # #C(11^2) * #nu
    # theta column empty exactly on bad rows
    for line in lines[1:]:
        cols = line.split(",")
        assert (cols[6] == "") == (cols[7] == "false")


def test_expsum_row_count_at_101(tmp_path):
    # #C(101^2) = 101 * 100 rows for the split default matrix
    out = tmp_path / "c.csv"
    assert run_cli(["expsum", "--p", "101", "--k", "2", "--nu", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) - 1 == 101 * 100


# signed zeros, subnormals, huge magnitudes, and neighbours that differ only
# in the 17th significant digit
CSV_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
              0.1, float(np.nextafter(0.1, 1.0)), 1 / 3, float(np.nextafter(1 / 3, 0.0)), -2.5]


def table_of(pp, nu, width, re, im, good, vanished, T=None) -> ExpSumTable:
    """A table of len(nu) classes and width characters from the columns of
    its CSV rows, in their (character, nu) order: row r is the sum of
    character r // len(nu) at nu[r % len(nu)].  The masks are given in
    (residue, nu) order for T residues (by default one per character)."""

    def array(col, dtype, columns):
        return np.asarray(col, dtype=dtype).reshape(columns, len(nu)).T

    T = T or max(width, 1)
    value = np.empty((len(nu), width), dtype=np.complex128)
    value.real, value.imag = array(re, np.float64, width), array(im, np.float64, width)  # keeps the sign of every zero
    return ExpSumTable(pp, np.asarray(nu, dtype=np.int64), value, array(good, bool, T), array(vanished, bool, T))


@st.composite
def synthetic_tables(draw):
    nu = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=4))
    T = draw(st.integers(1, 4))  # the masks repeat with period T along the characters
    width = T * draw(st.integers(0, 3))
    # a small pool per table makes repeated values common
    pool = draw(st.lists(st.sampled_from(CSV_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=8))

    def column(elements, columns):
        return draw(st.lists(elements, min_size=len(nu) * columns, max_size=len(nu) * columns))

    return table_of(
        PrimePower(7, 2), nu, width, column(st.sampled_from(pool), width), column(st.sampled_from(pool), width),
        column(st.booleans(), T), column(st.booleans(), T), T,
    )


EDGE_ROWS = 2 * len(CSV_FLOATS)  # each edge value twice, and -0.0 next to 0.0 in every column


# decimal digit boundaries of the integer columns, up to the int64 maximum; a
# table of CHI_WIDTH characters reaches those of chi_index up to 100
CSV_INTS = [0, 9, 10, 99, 100, 10**6, 2**62, 2**63 - 1]
CHI_WIDTH = 101
INT_ROWS = len(CSV_INTS) * CHI_WIDTH


@given(synthetic_tables())
@example(table_of(PrimePower(7, 2), [], 0, [], [], [], []))
@example(table_of(PrimePower(7, 2), [], 3, [], [], [], []))
@example(table_of(PrimePower(7, 2), [0], 1, [0.5], [0.0], [True], [False]))
@example(table_of(
    PrimePower(7, 2), CSV_INTS, CHI_WIDTH, (CSV_FLOATS * INT_ROWS)[:INT_ROWS], (CSV_FLOATS[::-1] * INT_ROWS)[:INT_ROWS],
    [False, True] * (INT_ROWS // 2), [True] * INT_ROWS,
))
@example(table_of(
    PrimePower(7, 2), [1, 3], len(CSV_FLOATS), CSV_FLOATS * 2, CSV_FLOATS[::-1] * 2,
    [i % 3 > 0 for i in range(EDGE_ROWS)], [i % 2 > 0 for i in range(EDGE_ROWS)],
))
def test_records_to_csv_matches_row_writer(table):
    assert records_to_csv(table) == csv_rows(table).encode() == csv_by_character(table)


@pytest.mark.parametrize("p,k", [(7, 2), (5, 3), (11, 2), (29, 3)])
def test_records_to_csv_matches_row_writer_on_real_tables(p, k):
    table = scan_characters(build_group(matrix_for_prime(p), PrimePower(p, k)), [1, 2, 3])
    assert not table.good.all()  # some rows have an empty theta
    assert records_to_csv(table) == csv_rows(table).encode()


# split at 349, 29 and 11, inert at 347 and 7
@pytest.mark.parametrize(
    "p,k,nus", [(349, 2, [1, 7]), (347, 2, [1]), (29, 3, [1]), (11, 4, [1]), (7, 5, [1, 2, 3])],
)
def test_records_to_csv_matches_the_per_character_route(p, k, nus):
    """The writer formats theta once per distinct re and reads the masks per
    residue; the route that copied them out to every character and took
    theta over every good sum writes the same bytes."""
    group = build_group(matrix_for_prime(p), PrimePower(p, k))
    table = scan_characters(group, nus)
    assert table.good.shape == table.vanished.shape == (len(nus), group.t_modulus)
    assert records_to_csv(table) == csv_by_character(table)


@pytest.mark.parametrize("column", ["nu"])
def test_records_to_csv_refuses_negative_keys(column):
    table = table_of(PrimePower(7, 2), [3, -1], 1, [0.5, 1.0], [0.0, 0.0], [True, True], [False, False])
    assert "-1" in csv_rows(table)  # the row writer would print it
    with pytest.raises(ValueError, match=f"negative {column} -1"):
        records_to_csv(table)


def test_records_to_csv_names_a_non_finite_sum():
    table = table_of(PrimePower(7, 2), [1, 2], 2, [0.5, 1.0, 0.25, np.inf], [0.0] * 4, [True] * 4, [False] * 4)
    with pytest.raises(ArithmeticError, match="non-finite value at chi_1, nu = 2: E = "):
        records_to_csv(table)


def test_expsum_refuses_an_empty_nu_list(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "sums.csv"
    cfg.write_text(json.dumps({"nu": []}))
    assert run_cli(["expsum", "--p", "11", "--k", "2", "--config", str(cfg), "--out", str(out)]) == 2
    assert assert_one_line_error(capsys, "at least one nu") == ""
    assert not out.exists()


def test_expsum_stdout_is_the_file_bytes(tmp_path):
    out = tmp_path / "sums.csv"
    argv = ["-m", "qcatmap.cli", "expsum", "--p", "11", "--k", "2", "--nu", "1,2"]
    to_file, to_stdout = run_python(*argv, "--out", str(out)), run_python(*argv)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_stdout.stdout == out.read_text()
    assert to_file.stdout == "wrote 220 records to " + str(out) + "\n"


def test_expsum_rejects_bad_nu():
    assert run_cli(["expsum", "--p", "11", "--k", "2", "--nu", "0"]) == 2
    assert run_cli(["expsum", "--p", "11", "--k", "1", "--nu", "1"]) == 2


@pytest.mark.parametrize("nus", ["1,50", "3,3"])
def test_expsum_rejects_repeated_nu_class(nus, capsys):
    """Two --nu values of one class mod N would write every row twice."""
    assert run_cli(["expsum", "--p", "7", "--k", "2", "--nu", nus]) == 2
    assert_one_line_error(capsys, *[f"nu = {nu}" for nu in nus.split(",")], "mod 49")


def test_distribution_report_roundtrip(tmp_path):
    obs = tmp_path / "obs.json"
    write_obs(obs, {(1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j})
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    base = ["distribution", "--p", "13", "--k", "2", "--obs", str(obs), "--seed", "7"]
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    report = json.loads(out1.read_text())
    expected_keys = {
        "p", "k", "kind", "observable_digest", "n_eigenfunctions",
        "n_excluded_multiplicity", "n_bad_character", "ks", "moments",
        "winsorized", "sign", "matched_unique",
    }
    assert set(report) == expected_keys
    assert report["p"] == 13 and report["kind"] == "inert"
    assert report["sign"] in (-1, 1)
    assert report["matched_unique"] is True
    assert len(report["moments"]) == 6


def test_distribution_constant_observable(tmp_path):
    obs = tmp_path / "const.json"
    write_obs(obs, {(0, 0): 1.0 + 0j})
    out = tmp_path / "r.json"
    assert run_cli(["distribution", "--p", "7", "--k", "2", "--obs", str(obs), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ks"] == 0.0


def test_distribution_rejects_non_real(tmp_path):
    obs = tmp_path / "bad.json"
    write_obs(obs, {(1, 0): 0.5 + 0j})  # missing the conjugate mode
    assert run_cli(["distribution", "--p", "7", "--k", "2", "--obs", str(obs)]) == 2


def test_distribution_ramified_prime(tmp_path):
    obs = tmp_path / "obs.json"
    write_obs(obs, {(1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j})
    assert run_cli(["distribution", "--p", "5", "--k", "2", "--obs", str(obs)]) == 2


@pytest.mark.parametrize("k", [2, 3])  # the dense path and the closed form
def test_distribution_rejects_class_divisible_by_p_first(k, tmp_path, monkeypatch, capsys):
    """Q(1, 4) = 19 for the default matrix: at p = 19 the observable is not
    admissible, which exits 2 before the group is built."""
    from qcatmap import hecke

    def no_work(*args):
        raise AssertionError("the group was built")

    monkeypatch.setattr(hecke, "build_group", no_work)
    obs = tmp_path / "obs.json"
    write_obs(obs, {(1, 4): 0.5 + 0j, (-1, -4): 0.5 + 0j})
    assert run_cli(["distribution", "--p", "19", "--k", str(k), "--obs", str(obs)]) == 2
    assert "class nu = 19 is divisible by p = 19" in capsys.readouterr().err


def distribution_of_cosines(tmp_path, p, modes, name="r"):
    """The report of distribution at p^2 for the sum of cos 2 pi n.x over
    the modes n, each n as (n1, n2, weight); seed 7."""
    obs, out = tmp_path / f"{name}.obs.json", tmp_path / f"{name}.json"
    write_obs(obs, {m: 0.5 * c + 0j for n1, n2, c in modes for m in ((n1, n2), (-n1, -n2))})
    assert run_cli(["distribution", "--p", str(p), "--k", "2", "--obs", str(obs), "--seed", "7",
                    "--out", str(out)]) == 0
    return json.loads(out.read_text())


# Q = w(nA, n) under the default matrix, with the twist sign (-1)^(n1 n2)
@pytest.mark.parametrize(
    "p,modes",
    [
        pytest.param(7, [(1, 5, 1), (4, -2, 1)], id="meet-mod-49"),  # Q = 29, -20 (29 = -20 mod 49); -1 + 1
        pytest.param(13, [(1, 0, 1), (1, -1, 1)], id="same-Q-dense"),  # Q = -1 twice; +1 - 1
        pytest.param(101, [(1, 0, 1), (1, -1, 1)], id="same-Q-closed"),
    ],
)
def test_distribution_classes_that_cancel_leave_the_model(p, modes, tmp_path):
    """Two classes that meet mod N with weights -1 and +1 leave an all-zero
    sample.  The model reads the same classes mod N, where the weight is
    exactly 0, so it is all zero too: ks 0, and every moment 0."""
    report = distribution_of_cosines(tmp_path, p, modes)
    assert report["ks"] == 0.0
    assert report["moments"] == [0.0] * 6


def test_distribution_classes_that_add_take_the_single_class_law(tmp_path):
    """Q(1, 2) = 5 and Q(6, -2) = -44 meet mod 49 with weights +1 and +1:
    one class of weight 2, compared with the exact law of that one class,
    as the single mode of weight 2 is."""
    pair = distribution_of_cosines(tmp_path, 7, [(1, 2, 1), (6, -2, 1)], "pair")
    single = distribution_of_cosines(tmp_path, 7, [(1, 2, 2)], "single")
    assert pair["ks"] == pytest.approx(single["ks"], rel=1e-9, abs=1e-12)
    assert pair["moments"] == pytest.approx(single["moments"], rel=1e-9, abs=1e-12)
    assert pair["n_bad_character"] == single["n_bad_character"]


COS_OBS = json.dumps([{"n1": 1, "n2": 0, "re": 0.5, "im": 0.0}, {"n1": -1, "n2": 0, "re": 0.5, "im": 0.0}])
FLOAT_MODES_OBS = json.dumps([{"n1": 1.7, "n2": 0, "re": 0.5, "im": 0.0}, {"n1": -1.7, "n2": 0, "re": 0.5, "im": 0.0}])


@pytest.mark.parametrize(
    "argv,obs,code,words",
    [
        pytest.param(["expsum", "--p", "100003", "--k", "2", "--nu", "1"], None, 1, ["character-sum table"],
                     id="group-table"),
        pytest.param(["distribution", "--p", "67108879", "--k", "1"], COS_OBS, 1, ["group table"], id="brute-force"),
        pytest.param(["expsum", "--p", "11", "--k", "2", "--out", "/nonexistent/x.csv"], None, 2, ["cannot write"],
                     id="expsum-out"),
        pytest.param(["distribution", "--p", "13", "--k", "2", "--out", "/nonexistent/x.json"], COS_OBS, 2,
                     ["cannot write"], id="distribution-out"),
        pytest.param(["distribution", "--p", "13", "--k", "2"], '{"n1": 1}', 2, ["bad observable"], id="obs-object"),
        pytest.param(["distribution", "--p", "13", "--k", "2"], "[1, 2]", 2, ["bad observable"], id="obs-numbers"),
        pytest.param(["distribution", "--p", "13", "--k", "2"], FLOAT_MODES_OBS, 2, ["bad observable"],
                     id="obs-float-modes"),
    ],
)
def test_limits_and_files_exit_with_one_line(argv, obs, code, words, tmp_path, monkeypatch, capsys):
    """A character-sum table past the size cap at k = 2, and a norm-one
    group table past it at k = 1, checked before the group looks for a
    generator (split p = 67108879: #C = p - 1 > 2^26);
    an unwritable --out; an observable file that is no list of records, or
    whose modes are no integers (1.7 is not read as 1).  Each exits with
    one line on stderr and no traceback."""
    from qcatmap import hecke

    def no_work(self):
        raise AssertionError("the generator search ran")

    if words == ["group table"]:
        monkeypatch.setattr(hecke.HeckeGroup, "_find_generator", no_work)
    if obs is not None:
        path = tmp_path / "obs.json"
        path.write_text(obs)
        argv = argv + ["--obs", str(path)]
    assert run_cli(argv) == code
    assert_one_line_error(capsys, *words)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_observable_coefficient_exits_2(part, literal, tmp_path, capsys):
    """JSON's NaN and Infinity literals, which Python's json reads, make a
    bad observable file: exit 2 with one line, before the group is built."""
    coeff = {"re": "0.5", "im": "0.0", part: literal}
    obs = tmp_path / "obs.json"
    obs.write_text(f'[{{"n1": 1, "n2": 0, "re": {coeff["re"]}, "im": {coeff["im"]}}}, '
                   '{"n1": -1, "n2": 0, "re": 0.5, "im": 0.0}]')
    assert run_cli(["distribution", "--p", "13", "--k", "2", "--obs", str(obs)]) == 2
    assert assert_one_line_error(capsys, "bad observable file", "non-finite coefficient", "(1, 0)") == ""


@pytest.mark.parametrize("p", [11, 37])
def test_distribution_of_a_large_observable(p, tmp_path):
    """cos 2 pi x1 + cos 2 pi x2 + cos 2 pi (x1 + 2 x2) times 1e10 on the
    dense path: the realness tolerance scales with sum |fhat(n)|."""
    obs = tmp_path / "obs.json"
    write_obs(obs, {m: 0.5e10 + 0j for n in ((1, 0), (0, 1), (1, 2)) for m in (n, (-n[0], -n[1]))})
    assert run_cli(["distribution", "--p", str(p), "--k", "2", "--obs", str(obs), "--out", str(tmp_path / "r.json")]) == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": [11], "k": [2], "nu": [1]}))
    out = tmp_path / "out.csv"
    # flag --nu overrides the config nu list
    assert run_cli(["expsum", "--config", str(cfg), "--nu", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) - 1 == 110
    assert all(line.split(",")[2] == "2" for line in lines[1:])


def test_distribution_k1_reports_null_bad_count(tmp_path):
    obs = tmp_path / "obs.json"
    write_obs(obs, {(1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j})  # cos 2 pi x1
    out = tmp_path / "r.json"
    assert run_cli(["distribution", "--p", "13", "--k", "1", "--obs", str(obs), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_eigenfunctions"] == 13
    assert report["n_bad_character"] is None


def test_expsum_sum_above_bound_exits_1(monkeypatch, capsys):
    from qcatmap import expsum

    amplitude = expsum._Fiber._amplitude

    def inflated(*args):
        amp, m = amplitude(*args)
        return 2 * amp, m

    monkeypatch.setattr(expsum._Fiber, "_amplitude", inflated)
    assert run_cli(["expsum", "--p", "11", "--k", "2", "--nu", "1"]) == 1
    assert_one_line_error(capsys, "worst |E|/(2 p^(k/2))", "at nu = 1, chi_")


@pytest.mark.parametrize(
    "command,flag",
    [
        pytest.param("expsum", ["--jobs", "2"], id="expsum-jobs"),
        pytest.param("expsum", ["--format", "json"], id="expsum-format"),
        # flags a command would parse and then ignore are not registered on it
        pytest.param("verify", ["--nu", "1"], id="verify-nu"),
        pytest.param("distribution", ["--nu", "1"], id="distribution-nu"),
        pytest.param("verify", ["--obs", "obs.json"], id="verify-obs"),
        pytest.param("expsum", ["--obs", "obs.json"], id="expsum-obs"),
        pytest.param("verify", ["--out", "out.txt"], id="verify-out"),
        pytest.param("expsum", ["--seed", "1"], id="expsum-seed"),
    ],
)
def test_removed_flags_exit_2(command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--p", "11", "--k", "2"] + flag)
    assert exc.value.code == 2


def test_one_eigendecomposition_per_dense_space(monkeypatch, tmp_path):
    from qcatmap import hecke

    sizes = []
    orbit_eig = hecke._orbit_eig

    def counted(group, *args, **kwargs):
        sizes.append(group.pp.N)
        return orbit_eig(group, *args, **kwargs)

    monkeypatch.setattr(hecke, "_orbit_eig", counted)
    assert run_cli(["verify", "--p", "3,7", "--k", "1-3"]) == 0
    assert sorted(sizes) == [3, 7, 9, 27, 49, 343]
    sizes.clear()
    obs = tmp_path / "obs.json"
    write_obs(obs, {(1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j})
    assert run_cli(["distribution", "--p", "13", "--k", "2", "--obs", str(obs)]) == 0
    assert sizes == [169]


def test_verify_nan_fails_quantization_row(monkeypatch, capsys):
    from qcatmap import cli

    matrix_free = cli.propagator_apply

    def with_nan(B, pp):
        apply = matrix_free(B, pp)

        def nan_apply(psi):
            out = apply(psi)
            out[0] = np.nan
            return out

        return nan_apply

    monkeypatch.setattr(cli, "propagator_apply", with_nan)
    assert run_cli(["verify", "--p", "3", "--k", "1-2"]) == 1
    assert "[FAIL] quantization invariants: unitarity nan, egorov nan" in capsys.readouterr().out


def test_verify_wrong_propagator_fails_quantization_row(monkeypatch, capsys):
    """U(A) times a non-constant diagonal phase is unitary, but breaks Egorov."""
    from qcatmap import cli

    matrix_free = cli.propagator_apply

    def with_phase(B, pp):
        apply = matrix_free(B, pp)
        phase = np.exp(1j * np.sqrt(np.arange(pp.N)))[:, None]
        return lambda psi: apply(phase * psi)

    monkeypatch.setattr(cli, "propagator_apply", with_phase)
    assert run_cli(["verify", "--p", "3,7", "--k", "1-2"]) == 1
    row = next(line for line in capsys.readouterr().out.splitlines() if "quantization invariants" in line)
    unitarity, egorov = (float(x) for x in re.search(r"unitarity (\S+), egorov (\S+) over", row).groups())
    assert row.startswith("[FAIL]") and unitarity < 1e-12 and egorov > 1e-2


def test_dense_distribution_does_not_import_scipy_linalg(tmp_path):
    obs = tmp_path / "obs.json"
    write_obs(obs, {(1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j})
    code = (
        "import sys\n"
        "from qcatmap.cli import main\n"
        f"assert main(['distribution', '--p', '13', '--k', '2', '--obs', {str(obs)!r}]) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_verify_space_error_fails_only_its_rows(monkeypatch, capsys):
    from qcatmap import hecke

    eigendecompose = hecke.eigendecompose

    def failing_at_9(group):
        if group.pp.N == 9:
            raise EigenClusterError("injected")
        return eigendecompose(group)

    monkeypatch.setattr(hecke, "eigendecompose", failing_at_9)
    assert run_cli(["verify", "--p", "3", "--k", "1-3"]) == 1
    out = capsys.readouterr().out
    # rows that need the 3^2 decomposition fail with its error ...
    assert "[FAIL] hecke group/eigen: EigenClusterError: injected" in out
    assert "[FAIL] matrix-element formula: EigenClusterError: injected" in out
    # ... the others still check every space
    assert "[PASS] quantization invariants: unitarity" in out and "over 3 spaces" in out
    assert "[PASS] expsum oracle equivalence" in out
    assert "[PASS] slow decay (k=3): p=3:4ch/4ef" in out


CONFIG_VALUES = {
    "matrix": [2, 1, 1, 1], "p": [11], "k": [2], "nu": [1], "obs": "obs.json",
    "seed": 1, "out": "out.txt", "dense_cap": 400, "jobs": 2,
}
# the keys each command reads: its flags, plus dense_cap where a dense path exists
CONFIG_KEYS = {
    "verify": {"matrix", "p", "k", "seed", "dense_cap"},
    "expsum": {"matrix", "p", "k", "nu", "out"},
    "distribution": {"matrix", "p", "k", "obs", "seed", "out", "dense_cap"},
}


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for command, keys in CONFIG_KEYS.items():
        for key, value in CONFIG_VALUES.items():
            cfg.write_text(json.dumps({key: value}))
            if key in keys:
                build_config(make_parser().parse_args([command, "--config", str(cfg)]))
            else:
                # refused before any work, whatever else the command needs
                assert run_cli([command, "--config", str(cfg)]) == 2, (command, key)
                assert f"['{key}']" in capsys.readouterr().err
                with pytest.raises(ConfigError):
                    build_config(make_parser().parse_args([command, "--config", str(cfg)]))
    # the keys that remain still apply
    cfg.write_text(json.dumps({"dense_cap": 400}))
    assert run_cli(["verify", "--p", "3", "--k", "1-2", "--config", str(cfg)]) == 0


def test_verify_leaves_out_rows_that_check_no_space(tmp_path, capsys):
    """A row whose spaces are all k = 1, or all above the dense cap, is left
    out rather than passed over nothing."""
    assert run_cli(["verify", "--p", "3,7", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "over 2 spaces" in out and "[PASS] hecke group/eigen" in out
    assert "expsum oracle" not in out and "matrix-element formula" not in out and "slow decay" not in out
    cfg = tmp_path / "cfg.json"
    for cap, kept in ((8, 1), (2, 0)):
        cfg.write_text(json.dumps({"dense_cap": cap}))
        assert run_cli(["verify", "--p", "3", "--k", "1-3", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert ("skipped 3^2 3^3" if kept else "skipped 3^1 3^2 3^3") in out
        assert ("over 1 spaces" in out) == bool(kept) and ("hecke group/eigen" in out) == bool(kept)
        assert "expsum oracle" not in out and "matrix-element formula" not in out and "slow decay" not in out
        assert "[PASS] limiting distribution" in out


def test_verify_rows_fail_by_value(monkeypatch, capsys):
    from qcatmap import cli, expsum

    monkeypatch.setattr(cli, "sqrt_set", lambda nu, p, l: ())
    monkeypatch.setattr(expsum, "find_large", lambda group, nu: [])
    assert run_cli(["verify", "--p", "3", "--k", "1-3"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] modarith oracles: mismatches: sqrt sets 4\n" in out  # the squares 0, 1, 4, 7 mod 9
    assert "[FAIL] slow decay (k=3): no large sum or no eigenfunction at 1/(p+-1): p=3:0ch/4ef\n" in out
    assert "[PASS] hecke group/eigen" in out


def test_verify_wrong_group_order_fails_hecke_row(monkeypatch, capsys):
    from qcatmap import hecke

    brute_force = hecke.brute_force_norm_one
    # one norm-one element fewer than the group at 3^2 holds
    monkeypatch.setattr(hecke, "brute_force_norm_one", lambda A, pp: set(sorted(brute_force(A, pp))[pp.N == 9 :]))
    assert run_cli(["verify", "--p", "3", "--k", "1-2"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] hecke group/eigen: 3^2:i order 12, brute-force count 11\n" in out
    assert out.count("[FAIL]") == 1


def test_verify_checks_survive_optimize_flag():
    args = ["-m", "qcatmap.cli", "verify", "--p", "3,7", "--k", "1-3"]
    plain, optimized = run_python(*args), run_python("-O", *args)
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert optimized.stdout == plain.stdout


def test_verify_zeroed_traces_fail_under_optimize_flag():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from qcatmap import hecke\n"
        "from qcatmap.cli import main\n"
        "hecke.trace_magnitudes_sq_via_spectrum = lambda decomp: np.zeros(decomp.group.order)\n"
        "sys.exit(main(['verify', '--p', '3,7', '--k', '1-3']))\n"
    )
    out = run_python("-O", "-c", code)
    assert out.returncode == 1, out.stderr
    assert "[FAIL] hecke group/eigen: trace gap 1.0e+00 > tol 1e-06 at 3^1:i" in out.stdout
    assert "[FAIL]" not in out.stdout.replace("[FAIL] hecke group/eigen", "")


@pytest.mark.slow
def test_verify_default_config_passes(capsys):
    # the full default battery: p in {3,5,7,11,13}, k <= 3 (5 skipped as ramified)
    assert run_cli(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "skipped (ramified)" in out


def test_observable_digest_stable():
    f = FourierObservable({(1, 0): 0.5, (-1, 0): 0.5})
    g = FourierObservable({(-1, 0): 0.5, (1, 0): 0.5})
    assert observable_digest(f) == observable_digest(g)
    assert len(observable_digest(f)) == 16


def test_benchmark_tracer_finds_its_targets(tmp_path):
    """perfbench/tracer.py wraps qcatmap functions by name: each must still
    exist, and the verify sweep makes one oracle call per (space, nu)."""
    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracer_py = os.path.join(root, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_py)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg, spans = tmp_path / "cfg.json", tmp_path / "spans.json"
    cfg.write_text(json.dumps({"dense_cap": 400}))
    out = run_python(tracer_py, str(spans), "verify", "--p", "3,7", "--k", "1-3", "--config", str(cfg))
    assert out.returncode == 0, out.stderr
    functions = json.loads(spans.read_text())["functions"]
    assert set(tracer.TRACED) <= set(functions)
    # 4 spaces with k >= 2 (3^2, 3^3, 7^2, 7^3) times nu in {1, 2, non-residue}
    assert functions["expsum.exp_sum_bruteforce"]["calls"] == 12


def test_every_public_name_resolves():
    """Each name in qcatmap.__all__ is an attribute of the package, once."""
    import qcatmap

    assert [name for name in qcatmap.__all__ if not hasattr(qcatmap, name)] == []
    assert len(set(qcatmap.__all__)) == len(qcatmap.__all__)


def test_no_unused_imports():
    """Every name a qcatmap module imports is referenced in that module or
    listed in its __all__; the repository runs no linter, so this test
    stands in for one."""
    import qcatmap

    unused = []
    for path in sorted(Path(qcatmap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported.update({(alias.asname or alias.name).split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
