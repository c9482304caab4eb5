"""Command-line behavior: contract examples, exit codes, config files,
and byte determinism."""

import argparse
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ffrestrict import cli, reports, verify


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------- build-set

def test_build_set_hamming_example(tmp_path, capsys):
    out = tmp_path / "h.set"
    code, stdout, _ = run_cli(["build-set", "--family", "hamming",
                               "--p", "5", "--d", "3", "--j", "2",
                               "--out", str(out)], capsys)
    assert code == 0
    assert "cardinality: 16" in stdout
    assert "alpha: 1.72" in stdout
    with open(out) as fp:
        e = reports.read_set(fp)
    assert e.cardinality == 16


def test_build_set_sphere_example(tmp_path, capsys):
    code, stdout, _ = run_cli(["build-set", "--family", "sphere",
                               "--p", "5", "--k", "2", "--r", "1",
                               "--out", str(tmp_path / "s.set")], capsys)
    assert code == 0
    assert "cardinality: 4" in stdout


def test_build_set_sidon_example(tmp_path, capsys):
    code, stdout, _ = run_cli(["build-set", "--family", "sidon-parabola",
                               "--p", "7",
                               "--out", str(tmp_path / "p.set")], capsys)
    assert code == 0
    assert "cardinality: 7" in stdout
    assert "is_sidon: true" in stdout


def test_build_set_stdout_info_goes_to_stderr(capsys):
    code, stdout, stderr = run_cli(["build-set", "--family", "sphere",
                                    "--p", "5", "--k", "2"], capsys)
    assert code == 0
    # the set file owns stdout; the summary moves to stderr
    assert stdout.splitlines()[0].startswith("{")
    assert "cardinality: 4" in stderr


# --------------------------------------------------------- transform

def test_transform_roundtrip(tmp_path, capsys):
    import numpy as np
    from ffrestrict.field import PrimeField, VectorSpace
    from ffrestrict.spectral import random_function

    space = VectorSpace(PrimeField(7), 2)
    f = random_function(space, seed=3)
    src = tmp_path / "f.fn"
    with open(src, "w", newline="") as fp:
        reports.write_function(fp, f)
    fwd = tmp_path / "fhat.fn"
    back = tmp_path / "fback.fn"
    assert run_cli(["transform", "--in", str(src),
                    "--out", str(fwd)], capsys)[0] == 0
    assert run_cli(["transform", "--in", str(fwd), "--inverse",
                    "--out", str(back)], capsys)[0] == 0
    with open(back) as fp:
        g = reports.read_function(fp)
    assert np.max(np.abs(g.values - space.size * f.values)) < 1e-9 * space.size


# ------------------------------------------------------ salem commands

def test_salem_profile_csv(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code, _, _ = run_cli(["salem-profile", "--family", "hamming",
                          "--p", "7", "--d", "2",
                          "--p-grid", "2,4,inf", "--out", str(out)], capsys)
    assert code == 0
    with open(out) as fp:
        env, rows = reports.read_csv(fp)
    assert env["config"]["command"] == "salem-profile"
    assert [r["p_exp"] for r in rows] == ["2", "4", "inf"]
    assert all(r["family"] == "hamming" for r in rows)


def test_salem_fit_includes_prediction(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code, _, _ = run_cli(["salem-fit", "--family", "hamming", "--d", "2",
                          "--p-grid", "2,inf",
                          "--field-sizes", "5,7,11,13",
                          "--out", str(out)], capsys)
    assert code == 0
    with open(out) as fp:
        _, rows = reports.read_csv(fp)
    assert len(rows) == 2
    # CSV numeric fields are 17-digit floats; rationals stay in JSON
    assert float(rows[0]["predicted_s"]) == 0.5
    assert rows[0]["n_points"] == "4"
    assert abs(float(rows[0]["fitted_s"]) - 0.5) < 0.2


def test_salem_fit_degenerate_family_is_computation_error(tmp_path, capsys):
    code, _, err = run_cli(["salem-fit", "--family", "full-space",
                            "--d", "1", "--p-grid", "2",
                            "--field-sizes", "5,7,11,13",
                            "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2
    assert "degenerate" in err


def test_salem_fit_zero_sphere_has_blank_prediction(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    code, _, err = run_cli(["salem-fit", "--family", "sphere", "--k", "2",
                            "--r", "0", "--p-grid", "2,inf",
                            "--field-sizes", "5,7,11,13",
                            "--out", str(out)], capsys)
    assert code == 0, err
    with open(out) as fp:
        _, rows = reports.read_csv(fp)
    assert [r["p_exp"] for r in rows] == ["2", "inf"]
    assert all(r["predicted_s"] == "" for r in rows)


# ------------------------------------------------------------ exponents

def test_exponents_hamming_json(capsys):
    code, stdout, _ = run_cli(["exponents", "--family", "hamming",
                               "--d", "4"], capsys)
    assert code == 0
    doc = json.loads(stdout)
    rep = doc["report"]
    assert rep["q_main"] == "11/3"
    assert rep["q_mocktao"] == "4/1"
    assert rep["optimal_p"] == "6/1"
    assert rep["improvement"] is True


def test_exponents_sidon_alias(capsys):
    code, stdout, _ = run_cli(["exponents", "--family", "sidon",
                               "--d", "2"], capsys)
    assert code == 0
    rep = json.loads(stdout)["report"]
    assert rep["optimal_p"] == "4/1"
    assert rep["q_corollary"] == "8/1"


def test_exponents_no_improvement_case(capsys):
    code, stdout, _ = run_cli(["exponents", "--family", "sphere-product",
                               "--k", "3", "--m", "1"], capsys)
    assert code == 0
    rep = json.loads(stdout)["report"]
    assert rep["q_main"] == rep["q_mocktao"]
    assert rep["improvement"] is False


# ---------------------------------------------------- ext-norm and sweep

def test_ext_norm_json(tmp_path, capsys):
    out = tmp_path / "ext.json"
    code, _, _ = run_cli(["ext-norm", "--family", "sphere", "--p", "5",
                          "--k", "2", "--q", "4", "--starts", "2",
                          "--out", str(out)], capsys)
    assert code == 0
    with open(out) as fp:
        doc = json.load(fp)
    rep = doc["report"]
    assert float(rep["lower_bound"]) > 0
    assert rep["converged"] is True
    assert rep["witness_tag"]


def test_sweep_csv_regime_column(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--family", "hamming", "--d", "2",
                          "--q", "3", "--field-sizes", "5,7,11,13",
                          "--starts", "1", "--out", str(out)], capsys)
    assert code == 0
    with open(out) as fp:
        env, rows = reports.read_csv(fp)
    assert all(r["regime"] == "growing" for r in rows)
    assert [r["p"] for r in rows] == ["5", "7", "11", "13"]
    assert float(env["config"]["fitted_growth_exponent"]) > 0.05


def test_sweep_q6_bounded_regime(tmp_path, capsys):
    out = tmp_path / "sweep6.csv"
    code, _, _ = run_cli(["sweep", "--family", "hamming", "--d", "2",
                          "--q", "6", "--field-sizes", "5,7,11,13",
                          "--starts", "1", "--out", str(out)], capsys)
    assert code == 0
    with open(out) as fp:
        env, rows = reports.read_csv(fp)
    assert all(r["regime"] == "bounded" for r in rows)
    assert abs(float(env["config"]["fitted_growth_exponent"])) < 0.2


def test_sweep_zero_sphere_is_untested(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(["sweep", "--family", "sphere", "--k", "2",
                            "--r", "0", "--q", "4",
                            "--field-sizes", "5,7,11,13", "--starts", "1",
                            "--out", str(out)], capsys)
    assert code == 0, err
    with open(out) as fp:
        env, rows = reports.read_csv(fp)
    assert env["config"]["regime"] == "untested"
    assert [r["regime"] for r in rows] == ["untested"] * 4


def test_sweep_single_size_rejected(capsys):
    code, _, err = run_cli(["sweep", "--family", "hamming", "--d", "2",
                            "--q", "6", "--field-sizes", "5"], capsys)
    assert code == 1
    assert "4 field sizes required" in err


# ------------------------------------------------------------ exit codes

def test_exit_code_invalid_config_aggregates(capsys):
    code, _, err = run_cli(["sweep", "--family", "nosuch", "--q", "1",
                            "--field-sizes", "6,8"], capsys)
    assert code == 1
    assert err.count("- ") >= 3  # several problems reported at once


def test_exit_code_bad_flag(capsys):
    code, _, err = run_cli(["exponents", "--family", "hamming",
                            "--bogus", "1"], capsys)
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["exponents", "--family", "hamming", "--d", "4", "--k", "9"],
     "family 'hamming' takes parameters ['d', 'j'], not 'k'"),
    (["build-set", "--family", "sphere", "--p", "5", "--percent", "50"],
     "family 'sphere' takes parameters ['k', 'r'], not 'percent'"),
    (["exponents", "--family", "random"],
     "family 'random' has no closed-form exponent"),
    (["transform", "--in", "FN", "--seed", "3"],
     "unrecognized arguments: --seed 3"),
    (["build-set", "--family", "hamming", "--p", "5", "--timestamp"],
     "unrecognized arguments: --timestamp"),
    (["build-set", "--family", "hamming", "--p", "5", "--seed", "3"],
     "family 'hamming' takes parameters ['d', 'j'], not 'seed'"),
    (["salem-profile", "--family", "hamming", "--p", "5", "--seed", "3"],
     "family 'hamming' takes parameters ['d', 'j'], not 'seed'"),
    (["salem-fit", "--family", "hamming", "--field-sizes", "5,7,11,13",
      "--seed", "3"],
     "family 'hamming' takes parameters ['d', 'j'], not 'seed'"),
], ids=["family-flag-not-taken", "percent-not-taken", "random-exponents",
        "transform-seed", "build-set-timestamp", "build-set-seed",
        "salem-profile-seed", "salem-fit-seed"])
def test_flag_the_command_does_not_read_is_config_error(tmp_path, capsys,
                                                        argv, message):
    fn = tmp_path / "f.fn"
    fn.write_text('{"p":5,"d":1}\nindex,re,im\n0,1,0\n')
    argv = [str(fn) if tok == "FN" else tok for tok in argv]
    code, stdout, err = run_cli(argv + ["--out", str(tmp_path / "x")],
                                capsys)
    assert code == 1
    assert stdout == ""
    assert "invalid config" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["build-set", "--family", "random", "--p", "5", "--seed", "3"],
    ["salem-fit", "--family", "random", "--field-sizes", "5,7,11,13",
     "--seed", "3"],
], ids=["build-set", "salem-fit"])
def test_seed_reaches_a_family_that_takes_one(tmp_path, capsys, argv):
    out = tmp_path / "x"
    code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 0
    assert '"seed":3' in out.read_text().replace('""', '"')


@pytest.mark.parametrize("argv, message", [
    (["salem-fit", "--family", "sphere-product", "--r", "5",
      "--field-sizes", "5,7,11,13"],
     "sphere-product needs p not dividing r = 5, got p = 5"),
    (["salem-fit", "--family", "hamming", "--j", "5",
      "--field-sizes", "5,7,11,13"],
     "hamming needs p not dividing j = 5, got p = 5"),
    (["sweep", "--family", "hamming", "--j", "7", "--q", "4",
      "--field-sizes", "5,7,11,13"],
     "hamming needs p not dividing j = 7, got p = 7"),
    (["salem-fit", "--family", "sphere", "--field-sizes", "2,3,5,7"],
     "sphere needs an odd field size, got p = 2"),
    (["build-set", "--family", "sphere", "--r", "7", "--p", "7"],
     "sphere needs p not dividing r = 7, got p = 7"),
], ids=["sphere-product-r", "hamming-j-fit", "hamming-j-sweep",
        "sphere-p2", "sphere-r-build"])
def test_field_size_a_family_rule_excludes_is_config_error(tmp_path, capsys,
                                                           argv, message):
    code, stdout, err = run_cli(argv + ["--out", str(tmp_path / "x")],
                                capsys)
    assert code == 1
    assert stdout == ""
    assert "invalid config" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_every_excluded_field_size_is_reported(capsys):
    code, _, err = run_cli(["salem-fit", "--family", "sphere-product",
                            "--r", "15", "--field-sizes", "2,3,5,7"], capsys)
    assert code == 1
    assert "sphere-product needs an odd field size, got p = 2" in err
    assert "not dividing r = 15, got p = 3" in err
    assert "not dividing r = 15, got p = 5" in err
    assert "got p = 7" not in err


# every option each subcommand takes: adding one is a deliberate change
_FAMILY = ["--family", "--d", "--j", "--k", "--m", "--r", "--n", "--percent"]
_POWER = ["--starts", "--max-iter", "--tol"]
_CLI_SURFACE = {
    "build-set": [*_FAMILY, "--p", "--out", "--seed", "--max-points"],
    "transform": ["--in", "--inverse", "--out", "--max-points"],
    "salem-profile": [*_FAMILY, "--p", "--p-grid", "--out", "--seed",
                      "--max-points", "--timestamp"],
    "salem-fit": [*_FAMILY, "--p-grid", "--field-sizes", "--out", "--seed",
                  "--max-points", "--timestamp"],
    "exponents": [*_FAMILY, "--out", "--timestamp"],
    "ext-norm": [*_FAMILY, "--p", "--q", *_POWER, "--out", "--seed",
                 "--max-points", "--timestamp"],
    "sweep": [*_FAMILY, "--q", "--field-sizes", *_POWER, "--out", "--seed",
              "--max-points", "--timestamp"],
    "verify": ["--suite"],
}


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    surface = {name: [opt for a in sub._actions if a.dest != "help"
                      for opt in a.option_strings]
               for name, sub in subs.choices.items()}
    assert surface == _CLI_SURFACE


_F5 = {"p": 5, "d": 1}


@pytest.mark.parametrize("header, columns, rows", [
    (_F5, "index,re,im", ["-1,1,0"]),
    (_F5, "index,re,im", ["7,1,0"]),
    ({"p": 2147483647, "d": 3}, "index,re,im", ["0,1,0"]),
    ({"p": math.inf, "d": 1}, "index,re,im", ["0,1,0"]),
    ("not json", "index,re,im", ["0,1,0"]),
    ({"p": 5.9, "d": 1.7}, "index,re,im", ["0,1,0"]),
    ({"p": 5, "d": True}, "index,re,im", ["0,1,0"]),
    (_F5, "idx,re,im", ["0,1,0"]),
    (_F5, "index,re,im", ["0,x,0"]),
    (_F5, "index,re,im", ["0,1,nan"]),
    (_F5, "index,re,im", ["1.5,1,0"]),
    (_F5, "index,re,im", ["4,2,0", "4,1,0"]),
    # the 0xff byte lies past the reader's first buffer
    ({"p": 47, "d": 2}, "index,re,im",
     [f"{i},1,0" for i in range(2000)] + ["2001,\udcff,0"]),
], ids=["negative-index", "index-past-end", "header-over-cap",
        "header-p-infinite", "header-not-json", "header-float",
        "header-bool", "column-header", "value-not-numeric", "value-nan",
        "index-not-integer", "index-repeated", "row-not-utf8"])
def test_transform_rejects_bad_function_file(tmp_path, capsys, header,
                                             columns, rows):
    bad = tmp_path / "bad.fn"
    first = header if isinstance(header, str) else json.dumps(header)
    text = "".join(line + "\n" for line in [first, columns, *rows])
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    tracemalloc.start()
    try:
        code, stdout, err = run_cli(["transform", "--in", str(bad)], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert stdout == ""
    assert "invalid config" in err and "Traceback" not in err
    # rejected from the header and indices alone: no dense array is built
    assert peak < 2 ** 20


@pytest.mark.parametrize("argv", [
    ["build-set", "--family", "hamming", "--p", "17", "--d", "7"],
    ["salem-fit", "--family", "hamming", "--d", "6", "--p-grid", "2",
     "--field-sizes", "5,7,11,13,17"],
], ids=["build-set", "salem-fit"])
def test_point_cap_exceeded_by_flags_is_config_error(tmp_path, capsys, argv):
    code, stdout, err = run_cli(argv + ["--out", str(tmp_path / "x")],
                                capsys)
    assert code == 1
    assert stdout == ""
    assert "invalid config" in err and "Traceback" not in err
    assert "17^" in err and "point cap" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [
    ["salem-profile", "--family", "hamming", "--p", "5"],
    ["salem-fit", "--family", "hamming", "--field-sizes", "5,7,11,13"],
], ids=["salem-profile", "salem-fit"])
@pytest.mark.parametrize("grid", ["abc", "nan,2", "2,0.5", "1/0", ",",
                                  "2,1e400", "1e-999999999"])
def test_bad_p_grid_is_config_error(tmp_path, capsys, command, grid):
    code, stdout, err = run_cli(
        command + ["--p-grid", grid, "--out", str(tmp_path / "x")], capsys)
    assert code == 1
    assert stdout == ""
    assert "invalid config" in err and "grid" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_p_grid_below_the_family_domain_is_config_error(capsys):
    code, stdout, err = run_cli(
        ["salem-fit", "--family", "sphere-product", "--p-grid", "3/2,inf",
         "--field-sizes", "3,5,7,11"], capsys)
    assert code == 1
    assert stdout == ""
    assert "invalid config" in err and ">= 2" in err


def test_p_grid_gives_predictions_exact_exponents(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    assert run_cli(["salem-fit", "--family", "hamming", "--d", "4",
                    "--p-grid", "7.3,10/3,inf", "--field-sizes", "5,7,11,13",
                    "--out", str(out)], capsys)[0] == 0
    with open(out) as fp:
        _, rows = reports.read_csv(fp)
    # s = 1/3 + 1/p at the exact token 73/10 and at 10/3 (p = 3.33...)
    assert [r["p_exp"] for r in rows] == ["7.2999999999999998",
                                          "3.3333333333333335", "inf"]
    assert [r["predicted_s"] for r in rows] == [
        reports.f17(Fraction(1, 3) + Fraction(10, 73)), "0.5",
        reports.f17(Fraction(1, 3))]


def test_exit_code_computation_error(capsys):
    code, _, err = run_cli(["salem-fit", "--family", "full-space",
                            "--d", "1", "--field-sizes", "5,7,11,13"],
                           capsys)
    assert code == 2
    assert "computation error" in err and "degenerate input" in err


def test_verify_selected_suite(capsys):
    code, stdout, _ = run_cli(["verify", "--suite", "hamming"], capsys)
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln.startswith("PASS")]
    assert lines
    assert all(ln.startswith("PASS hamming:") for ln in lines)


def test_verify_failure_exits_three(capsys, monkeypatch):
    def broken_suite():
        return [verify.CheckResult("broken", "always fails", False, "")]

    monkeypatch.setitem(verify.SUITES, "broken", broken_suite)
    code, stdout, _ = run_cli(["verify", "--suite", "broken"], capsys)
    assert code == 3
    assert "FAIL broken: always fails" in stdout


def test_verify_records_a_raising_suite_and_runs_the_rest(capsys,
                                                         monkeypatch):
    def raising_suite():
        raise RuntimeError("certification mismatch")

    monkeypatch.setitem(verify.SUITES, "aaa-raises", raising_suite)
    results = verify.run_suites(["aaa-raises", "hamming"])
    assert results[0] == verify.CheckResult(
        "aaa-raises", "suite raised", False,
        "RuntimeError: certification mismatch")
    assert len(results) > 1
    assert all(r.suite == "hamming" and r.passed for r in results[1:])
    code, stdout, err = run_cli(["verify", "--suite", "aaa-raises",
                                 "--suite", "hamming"], capsys)
    assert code == 3
    assert "FAIL aaa-raises: suite raised" in stdout
    assert "PASS hamming:" in stdout
    assert "Traceback" not in err


# ----------------------------------------------------------- config file

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nfamily = hamming\nd = 2\nq = 6\n"
                   "field-sizes = 5,7,11,13\nstarts = 1\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["sweep", "--config", str(cfg),
                    "--out", str(out1)], capsys)[0] == 0
    # explicit flag overrides the file value
    assert run_cli(["sweep", "--config", str(cfg), "--q", "6",
                    "--out", str(out2)], capsys)[0] == 0
    assert out1.read_text() == out2.read_text()


def test_config_file_missing(capsys):
    code, _, err = run_cli(["sweep", "--config", "/nonexistent.cfg"], capsys)
    assert code == 1
    assert "cannot read config file" in err


def test_config_without_command(capsys):
    code, _, err = run_cli(["--config", "/nonexistent.cfg"], capsys)
    assert code == 1


# ---------------------------------------------------------- determinism

def test_profile_byte_identical_across_runs(tmp_path, capsys):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert run_cli(["salem-profile", "--family", "sphere", "--p", "11",
                        "--k", "2", "--out", str(out)], capsys)[0] == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_byte_identical_across_runs():
    args = [sys.executable, "-m", "ffrestrict.cli", "sweep",
            "--family", "hamming", "--d", "2", "--q", "6",
            "--field-sizes", "5,7,11,13", "--starts", "1", "--out", "-"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(args, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


def test_timestamp_opt_in(tmp_path, capsys):
    out = tmp_path / "ts.csv"
    assert run_cli(["salem-profile", "--family", "sphere", "--p", "5",
                    "--k", "2", "--timestamp", "--out", str(out)],
                   capsys)[0] == 0
    with open(out) as fp:
        env, _ = reports.read_csv(fp)
    assert env["timestamp"] is not None
