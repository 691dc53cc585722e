import hashlib
import json

import pytest

from curvlab import __version__, cli, connection, goldens
from curvlab.cli import main
from curvlab.scalars import BACKEND, Rat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_names_the_rational_backend(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"curvlab {__version__} ({BACKEND})\n"
    assert BACKEND == ("gmpy2" if Rat.__name__ == "mpq" else "fractions")


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for fid in ("Np", "Ni", "Sii", "Siv3", "sl2c"):
        assert fid in out
    assert "h1" in out and "g9" in out


def test_catalog_list_json(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 15


def test_check_kl_chern_true(capsys):
    code, out, _ = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "chern")
    assert code == 0
    assert "kahler-like = true" in out


def test_check_kl_bismut_false_with_witness(capsys):
    code, out, _ = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "bismut")
    assert code == 0
    assert "kahler-like = false" in out
    assert "B[1,1b,3,3b] = 1/2" in out


def test_check_kl_json_round_trip(capsys):
    code, out, _ = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "bismut",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["n_bianchi_nonzero"] > 0


def test_classify_example(capsys):
    code, out, _ = run(capsys, "classify", "--family", "Ni",
                       "--set", "rho=0,lambda=0,D=i", "--metric", "r2=1,s2=1,t2=1")
    assert code == 0
    assert "pluriclosed=true" in out
    assert "balanced=false" in out


def test_check_flat(capsys):
    code, out, _ = run(capsys, "check-flat", "--family", "sl2c",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "chern")
    assert code == 0 and "flat = true" in out
    code, out, _ = run(capsys, "check-flat", "--family", "Ni",
                       "--set", "rho=0,lambda=0,D=i",
                       "--metric", "r2=1,s2=1,t2=2", "--spec", "bismut")
    assert code == 0
    assert "flat = false" in out and "R[1,1b,1,1b] = 2" in out


def test_curvature_json_reparses(capsys):
    code, out, _ = run(capsys, "curvature", "--family", "Ni",
                       "--set", "rho=0,lambda=0,D=i",
                       "--metric", "r2=1,s2=1,t2=2", "--spec", "bismut",
                       "--format", "json")
    assert code == 0
    components = json.loads(out)["components"]
    assert {"i": "1", "h": "1b", "k": "1", "l": "1b", "value": "2"} in components


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check-kl", "--family", "Np", "--set", "rho=7",
                       "--metric", "r2=1,s2=1,t2=1")
    assert code == 2 and "rho in {0, 1}" in err

    code, _, err = run(capsys, "check-kl", "--family", "Ni",
                       "--set", "rho=0,lambda=0,D=i", "--metric", "r2=1,s2=1,t2=1,u=5")
    assert code == 2 and "r2*s2 > |u|^2" in err

    code, _, err = run(capsys, "classify", "--family", "Np", "--set", "rho=0",
                       "--metric", "bogus=1")
    assert code == 2 and "unknown metric keys" in err

    code, _, err = run(capsys, "check-kl", "--family", "Np", "--set", "rho=0",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "nonsense")
    assert code == 2 and "preset" in err

    code, _, err = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=3/0,s2=1,t2=1")
    assert code == 2 and "denominator" in err

    code, _, err = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1,u=1/0*i")
    assert code == 2 and "denominator" in err

    code, _, err = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "eps=1/0,rho=0")
    assert code == 2 and "denominator" in err

    code, _, err = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "eps=1/2,rho=1/2,eps=0")
    assert code == 2 and "repeated key 'eps'" in err

    for horizon, step in (("1", "2"), ("1", "3/10")):
        code, out, err = run(capsys, "flow", "run", "--family", "Np", "--set", "rho=1",
                             "--metric", "r2=1,s2=1,t2=1", "--horizon", horizon, "--step", step)
        assert code == 2 and "whole number of steps" in err and not out

    for family, params in (("Np", "rho=1,lambda=2"), ("sl2c", "A=5")):
        code, out, err = run(capsys, "classify", "--family", family, "--set", params,
                             "--metric", "r2=1")
        assert code == 2 and "unknown parameter(s)" in err and not out

    cfg = tmp_path / "curvlab.cfg"
    cfg.write_text("points=0\n")
    for sub in ("theorems", "appendix"):
        for argv in (("verify", sub, "--points", "0"), ("--config", str(cfg), "verify", sub),
                     (f"--config={cfg}", "verify", sub), ("--conf", str(cfg), "verify", sub)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and "--points must be at least 1" in err and not out

    kl = ("check-kl", "--family", "Np", "--set", "rho=1", "--metric", "r2=1,s2=1,t2=1")
    cases = (("witness_cap=-1", kl, ("--witness-cap", "-1"), "--witness-cap must be at least 0"),
             ("draws=0", ("verify", "appendix"), ("--draws", "0"), "--draws must be at least 1"))
    for line, argv, flag, message in cases:
        cfg.write_text(line + "\n")
        for full in (argv + flag, ("--config", str(cfg)) + argv):
            code, out, err = run(capsys, *full)
            assert code == 2 and message in err and not out

    classify = ("classify", "--family", "Np", "--set", "rho=1", "--metric", "r2=1,s2=1,t2=1")
    with pytest.raises(SystemExit) as exc:  # argparse's own exit for a flag
        main([*classify, "--format", "xml"])
    assert exc.value.code == 2 and "invalid choice: 'xml'" in capsys.readouterr().err
    cfg.write_text("format=xml\n")
    code, out, err = run(capsys, "--config", str(cfg), *classify)
    assert code == 2 and "'format': invalid choice 'xml'" in err and not out

    # the commands that write no csv refuse it as a flag and from a config file
    for argv in (classify, kl, ("check-flat", *kl[1:]), ("verify", "structural")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "invalid choice: 'csv' (choose from 'text', 'json')" in err
        cfg.write_text("format=csv\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and "'format': invalid choice 'csv'" in err and not out

    cfg.write_text("points=0\npoints=1\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "theorems")
    assert code == 2 and "repeated config key 'points'" in err and not out


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "kahler_like_check", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["check-kl", "--family", "Np", "--set", "rho=1", "--metric", "r2=1,s2=1,t2=1"])


def test_config_integer_key_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "curvlab.cfg"
    cfg.write_text("seed=seven\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "theorems")
    assert code == 2 and "'seed' needs an integer" in err and not out


def test_config_boolean_key(capsys, tmp_path):
    # a store_true flag takes true or false from a config file, never any non-empty string
    cfg = tmp_path / "curvlab.cfg"
    appendix = ("verify", "appendix", "--seed", "0", "--points", "1", "--draws", "1")
    _, brief, _ = run(capsys, *appendix)
    _, full, _ = run(capsys, *appendix, "--full")
    assert len(brief.splitlines()) == 1 < len(full.splitlines())
    for line, expected in (("full=false", brief), ("full=true", full)):
        cfg.write_text(line + "\n")
        code, out, _ = run(capsys, "--config", str(cfg), *appendix)
        assert code == 0 and out == expected
    cfg.write_text("full=false\n")  # the flag overrides the file
    code, out, _ = run(capsys, "--config", str(cfg), *appendix, "--full")
    assert code == 0 and out == full
    for value in ("False", "yes", "1", ""):
        cfg.write_text(f"full={value}\n")
        code, out, err = run(capsys, "--config", str(cfg), *appendix)
        assert code == 2 and not out
        assert f"config key 'full' needs true or false, got {value!r}" in err


def test_verify_theorems_deterministic(capsys, tmp_path):
    args = ["verify", "theorems", "--seed", "7", "--points", "1", "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    board = json.loads(out1)
    assert board["passed"] is True


def test_verify_theorems_csv(capsys):
    code, out, _ = run(capsys, "verify", "theorems", "--seed", "0", "--points", "1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "case_id,family,spec,expected,observed,witness"


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify", "appendix", "--seed", "0",
                       "--points", "1", "--draws", "1")
    assert code == 0
    assert "0 mismatches" in out and "PASS" in out


def test_verify_appendix_bytes_are_pinned(capsys):
    # every comparison row for a fixed seed, on either rational backend; the metric
    # draws come from verify.sample_metric
    code, out, _ = run(capsys, "verify", "appendix", "--seed", "0", "--points", "1",
                       "--draws", "2", "--format", "json", "--full")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "30321c548a2f1b15c549bd7e5a8f36065b21dafa5dfc5285cf43969d2df8fa3b"


def test_verify_appendix_fails_on_a_broken_shared_plane(capsys, monkeypatch):
    # every eps of a point reads one connection plane, so a fault in the plane must
    # show: with T negated, 145 of the 209 rows differ (the eps = 0 rows read no T)
    def broken(h, alg):
        p = connection.ConnectionPlane(h, alg)
        t, c = p.forms
        p.forms = (-t, c)
        return p

    monkeypatch.setattr(goldens, "ConnectionPlane", broken)
    code, out, _ = run(capsys, "verify", "appendix", "--seed", "0", "--points", "1",
                       "--draws", "1")
    assert code == 1
    assert out == "appendix oracle: 209 comparisons, 145 mismatches -> FAIL\n"


def test_flow_run_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "flow", "run", "--family", "Si", "--set", "A=i",
                       "--metric", "r2=2,s2=1,t2=1", "--horizon", "1",
                       "--step", "1/100", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 102
    assert lines[0].startswith("t,g_1_1,")
    assert "final deviation 0.000e+00" in out


def test_an_unwritable_out_is_a_usage_error(capsys, tmp_path):
    """classify and flow run report an --out they cannot write with exit 2, the usage
    status, and no traceback; the CSV flow run writes to stdout and to --out is the
    same text."""
    missing = tmp_path / "missing" / "x.out"
    classify = ("classify", "--family", "Si", "--set", "A=i", "--metric", "r2=1,s2=1,t2=1")
    flow_run = ("flow", "run", "--family", "Si", "--set", "A=i", "--metric", "r2=2,s2=1,t2=1",
                "--horizon", "1/10", "--step", "1/100")
    for argv in (classify, flow_run):
        for target in (missing, tmp_path):
            code, out, err = run(capsys, *argv, "--out", str(target))
            assert code == 2 and not out, argv
            assert err.startswith(f"error: cannot write --out {target}: ")
            assert "Traceback" not in err
    code, stdout_csv, _ = run(capsys, *flow_run)
    assert code == 0
    code, _, _ = run(capsys, *flow_run, "--out", str(tmp_path / "trace.csv"))
    assert code == 0 and (tmp_path / "trace.csv").read_text() == stdout_csv


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "curvlab.cfg"
    cfg.write_text("# defaults\nformat=json\nseed=7\n")
    code, out, _ = run(capsys, "--config", str(cfg), "catalog", "list")
    assert code == 0
    assert json.loads(out)  # format=json applied from the config file
    for spelling in ((f"--config={cfg}",), ("--conf", str(cfg))):
        code, out_other, _ = run(capsys, *spelling, "catalog", "list")
        assert code == 0 and out_other == out

    # a format one command writes and another does not is checked per command
    cfg.write_text("format=csv\n")
    code, out, _ = run(capsys, "--config", str(cfg), "catalog", "list")
    assert code == 0 and out.startswith("id,parameters,algebras\n")

    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate=1\n")
    code, _, err = run(capsys, "--config", str(bad), "catalog", "list")
    assert code == 2 and "frobnicate" in err


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check-kl", "--family", "Np", "--set", "rho=1",
                       "--metric", "r2=1,s2=1,t2=1", "--spec", "chern",
                       "--format", "json", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["verdict"] is True
