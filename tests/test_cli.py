import json

import pytest

from qcatmap.cli import _parse_int_list, main, observable_digest
from qcatmap.errors import EigenClusterError
from qcatmap.quantization import FourierObservable


def run_cli(args):
    return main(list(args))


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


def test_verify_ramified_explicit_prime_exits_2():
    assert run_cli(["verify", "--p", "5", "--k", "1"]) == 2


def test_verify_bad_matrix_exits_2():
    assert run_cli(["verify", "--matrix", "2,1,1,2", "--p", "3", "--k", "1"]) == 2


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


def test_expsum_rejects_bad_nu():
    assert run_cli(["expsum", "--p", "11", "--k", "2", "--nu", "0"]) == 2
    assert run_cli(["expsum", "--p", "11", "--k", "1", "--nu", "1"]) == 2


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

    closed_form = expsum._closed_form

    def inflated(*args):
        value, good, vanished = closed_form(*args)
        return 2 * value, good, vanished

    monkeypatch.setattr(expsum, "_closed_form", inflated)
    assert run_cli(["expsum", "--p", "11", "--k", "2", "--nu", "1"]) == 1
    assert "worst |E|/(2 p^(k/2))" in capsys.readouterr().err


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
    eig_unitary = hecke._eig_unitary

    def counted(U, *args, **kwargs):
        sizes.append(U.shape[0])
        return eig_unitary(U, *args, **kwargs)

    monkeypatch.setattr(hecke, "_eig_unitary", counted)
    assert run_cli(["verify", "--p", "3,7", "--k", "1-3"]) == 0
    assert sorted(sizes) == [3, 7, 9, 27, 49, 343]
    sizes.clear()
    obs = tmp_path / "obs.json"
    write_obs(obs, {(1, 0): 0.5 + 0j, (-1, 0): 0.5 + 0j})
    assert run_cli(["distribution", "--p", "13", "--k", "2", "--obs", str(obs)]) == 0
    assert sizes == [169]


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


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    assert run_cli(["verify", "--p", "3", "--k", "1", "--config", str(cfg)]) == 2
    assert "jobs" in capsys.readouterr().err
    # the keys that remain still apply
    cfg.write_text(json.dumps({"dense_cap": 400}))
    assert run_cli(["verify", "--p", "3", "--k", "1-2", "--config", str(cfg)]) == 0


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
