import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import cascade
from cascade import scan
from cascade.cli import main
from cascade.params import degenerate_params
from cascade.scan import (SWEEP_LENGTH, SWEEP_QUANTITIES, AxisSpec, ScanSpec,
                          degenerate_diagram_spec, sweep_gain)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_regime_ii_point(self, capsys):
        code, out, _ = run(capsys, "solve", "--kappa", "3", "--length", "2",
                           "--delta-s", "10", "--eta-s", "1", "--degenerate")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "II"
        assert doc["observables"]["n_as"] > 1

    def test_zero_couplings_vacuum(self, capsys):
        code, out, _ = run(capsys, "solve", "--length", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["observables"]["n_as"] == 0
        assert doc["observables"]["minvar_a"] == 1.0

    def test_oracle_matches_analytic(self, capsys):
        argv = ["solve", "--kappa", "3", "--eta-s", "1", "--eta-i", "2",
                "--delta-tilde", "1", "--delta-s", "2", "--delta-i", "3",
                "--length", "0.7"]
        _, out_a, _ = run(capsys, *argv, "--solver", "analytic")
        _, out_o, _ = run(capsys, *argv, "--solver", "oracle")
        a = json.loads(out_a)["matrix"]
        o = json.loads(out_o)["matrix"]
        for key, val in a.items():
            if key == "z":
                continue
            for x, y in zip(val, o[key]):
                assert x == pytest.approx(y, rel=1e-6, abs=1e-9)

    def test_invalid_input_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--length", "-1")
        assert code == 2
        assert "length" in err

    def test_fallback_solves_multiple_root_point(self, capsys):
        code, out, _ = run(capsys, "solve", "--kappa", "3", "--length", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["observables"]["n_as"] == pytest.approx(
            math.sinh(3.0) ** 2, rel=1e-9)

    def test_reproducible_bytes(self, capsys):
        argv = ["solve", "--kappa", "2.5", "--eta-s", "1.5", "--degenerate",
                "--delta-s", "4", "--length", "1.3"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({
            "kappa": [3.0, 0.0], "eta_s": [1.0, 0.0], "eta_i": [1.0, 0.0],
            "delta_tilde": 0.0, "delta_s": 10.0, "delta_i": 10.0,
            "length": 2.0}))
        code, out, _ = run(capsys, "solve", "--config", str(cfg),
                           "--delta-s", "0", "--degenerate")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["delta_s"] == 0.0
        assert doc["regime"] == "IV"


class TestClassify:
    def test_roots_and_label(self, capsys):
        code, out, _ = run(capsys, "classify", "--kappa", "3",
                           "--delta-tilde", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "II"
        assert len(doc["roots"]) == 4
        assert doc["coefficients"]["P"] == pytest.approx(-1.0)

    def test_three_mode_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--kappa", "1", "--eta-s", "3",
                           "--three-mode")
        assert code == 0
        assert json.loads(out)["regime"] == "I"

    def test_label_does_not_depend_on_the_unit_of_length(self, capsys):
        # every rate times c = 0.001 and the length over c is the same
        # crystal: it keeps the label II of c = 1, and its growth rate is
        # c times that of c = 1
        docs = []
        for argv in (["--kappa", "3", "--eta-s", "1.5", "--eta-i", "0.8",
                      "--delta-tilde", "1", "--delta-s", "4", "--delta-i", "-2",
                      "--length", "2"],
                     ["--kappa", "0.003", "--eta-s", "0.0015", "--eta-i", "0.0008",
                      "--delta-tilde", "0.001", "--delta-s", "0.004", "--delta-i",
                      "-0.002", "--length", "2000"]):
            code, out, _ = run(capsys, "classify", *argv)
            assert code == 0
            docs.append(json.loads(out))
        assert [doc["regime"] for doc in docs] == ["II", "II"]
        assert docs[1]["max_growth_rate"] == pytest.approx(
            0.001 * docs[0]["max_growth_rate"], rel=1e-12)

    def test_near_multiple_does_not_depend_on_the_unit_of_length(self, capsys):
        # at c = 1e-7 the roots are 1.1e-7 apart at a root scale of 3e-7:
        # not a multiple root, as at c = 1
        docs = []
        for argv in (["--kappa", "3", "--eta-s", "1.5", "--eta-i", "0.8",
                      "--delta-tilde", "1", "--delta-s", "4", "--delta-i=-2",
                      "--length", "2"],
                     ["--kappa", "3e-7", "--eta-s", "1.5e-7", "--eta-i", "0.8e-7",
                      "--delta-tilde", "1e-7", "--delta-s", "4e-7", "--delta-i=-2e-7",
                      "--length", "2e7"]):
            code, out, _ = run(capsys, "classify", *argv)
            assert code == 0
            docs.append(json.loads(out))
        assert [doc["near_multiple"] for doc in docs] == [False, False]

    @pytest.mark.parametrize("command", ["classify", "solve"])
    def test_degenerate_and_three_mode_exclude_each_other(self, capsys, command):
        # the two configurations contradict each other: asking for both is a
        # usage error (exit 2), not a silently built three-mode point
        with pytest.raises(SystemExit) as exc:
            main([command, "--kappa", "3", "--eta-s", "1", "--delta-s", "2",
                  "--degenerate", "--three-mode", "--length", "2"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not allowed with argument" in out.err


class TestCompare:
    def test_no_upconversion_columns_identical(self, capsys):
        code, out, _ = run(capsys, "compare", "--kappa", "2", "--length", "1",
                           "--degenerate")
        assert code == 0
        doc = json.loads(out)
        for key in ("n_a", "n_b", "minvar_a"):
            assert doc["exact"][key] == pytest.approx(doc["averaged"][key],
                                                      rel=1e-9, abs=1e-12)
            assert doc["exact"][key] == pytest.approx(doc["pdc_only"][key],
                                                      rel=1e-9, abs=1e-12)

    def test_even_sinc_multiple_kills_averaged(self, capsys):
        length = 2.0
        ds = 4 * math.pi / length
        code, out, _ = run(capsys, "compare", "--kappa", "1.5", "--eta-s",
                           "1.5", "--delta-s", str(ds), "--degenerate",
                           "--length", str(length))
        assert code == 0
        doc = json.loads(out)
        assert doc["averaged"]["n_b"] == 0.0
        assert doc["exact"]["n_b"] > 0.0

    def test_same_order_of_magnitude_at_high_gain(self, capsys):
        # strongly mismatched up-conversion barely dents the PDC output
        length = 1.0
        ds = 15 * math.pi / length
        code, out, _ = run(capsys, "compare", "--kappa", "4", "--eta-s", "4",
                           "--delta-s", str(ds), "--degenerate",
                           "--length", str(length))
        assert code == 0
        doc = json.loads(out)
        assert 0.1 < doc["exact"]["n_a"] / doc["pdc_only"]["n_a"] < 10

    def test_equals_sweep_gain_row(self, capsys):
        # one comparison behind both commands: the same point gives the
        # same numbers, bit for bit
        ratio, ds_l = 1.0, 47.12
        row = sweep_gain(ds_l, ratio, 6.0, 61).rows[40]
        gamma = row["gamma"]
        code, out, _ = run(capsys, "compare", "--kappa", repr(gamma),
                           "--eta-s", repr(ratio * gamma), "--delta-s",
                           repr(ds_l / SWEEP_LENGTH), "--degenerate",
                           "--length", repr(SWEEP_LENGTH))
        assert code == 0
        doc = json.loads(out)
        flat = [doc[model][q] for model in ("exact", "averaged", "pdc_only")
                for q in ("n_a", "n_b", "minvar_a")]
        assert flat == [row[q] for q in SWEEP_QUANTITIES]


class TestScanAndSweep:
    def test_scan_csv(self, capsys, tmp_path):
        spec = {
            "base": {"kappa": [3.0, 0.0], "eta_s": [1.0, 0.0],
                     "eta_i": [1.0, 0.0], "delta_tilde": 0.0,
                     "delta_s": 0.0, "delta_i": 0.0, "length": 2.0},
            "axis1": {"name": "delta_s", "min": 0.0, "max": 10.0, "count": 3},
            "quantities": ["regime", "n_as"],
            "solver": "analytic",
            "degenerate": True,
        }
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        out_file = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--spec", str(f), "--output",
                         str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "delta_s,regime,n_as"
        assert len(lines) == 4

    def test_cross_check_violations_reach_stderr(self, capsys, tmp_path, monkeypatch):
        # a tolerance no solver meets: the 4 sampled points of 14 disagree,
        # which the CSV cannot say, so stderr does; stdout and exit 0 stay
        spec = {
            "base": {"kappa": [3.0, 0.0], "eta_s": [1.0, 0.0],
                     "eta_i": [1.0, 0.0], "delta_tilde": 0.0,
                     "delta_s": 0.0, "delta_i": 0.0, "length": 2.0},
            "axis1": {"name": "delta_s", "min": 0.0, "max": 10.0, "count": 14},
            "quantities": ["regime", "n_as"],
            "degenerate": True,
        }
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        _, plain, _ = run(capsys, "scan", "--spec", str(f))
        monkeypatch.setattr(cascade.scan, "CROSS_CHECK_RTOL", 1e-18)
        code, out, err = run(capsys, "scan", "--spec", str(f), "--cross-check")
        assert code == 0
        assert out == plain
        assert err == "warning: cross-check: 4 point(s) disagree with the ODE oracle\n"

    def test_sweep_gain_stdout(self, capsys):
        code, out, _ = run(capsys, "sweep-gain", "--delta-s-l",
                           str(15 * math.pi), "--ratio", "1", "--gamma-max",
                           "2", "--points", "3", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("gamma,exact_n_a")

    def test_help_mentions_units(self, capsys):
        for cmd in ("solve", "classify", "scan", "sweep-gain", "compare"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            assert "--help" in text
            if cmd in ("solve", "classify", "compare"):
                assert "cm^-1" in text and "[cm]" in text


def test_solve_does_not_load_scipy():
    # scipy is needed by the ODE oracle only; a cold `cascade solve` must not
    # pay for importing it
    code = ("import sys, cascade, cascade.cli\n"
            "cascade.cli.main(['solve', '--kappa', '3', '--eta-s', '1',\n"
            "                  '--delta-s', '3', '--degenerate', '--length', '2',\n"
            "                  '--output', sys.argv[1]])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cascade.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_solve_and_analytic_scan_load_no_process_pool(tmp_path):
    # worker processes run only the ODE solves of a scan, and no command
    # runs the paper's closed form: a cold `cascade solve` and an analytic
    # `cascade scan`, two threads allowed, must not pay for importing the
    # process pool, multiprocessing or cascade.closed_form
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(degenerate_diagram_spec(count=5).to_dict()))
    code = ("import sys, cascade, cascade.cli\n"
            "cascade.cli.main(['solve', '--kappa', '3', '--eta-s', '1',\n"
            "                  '--delta-s', '3', '--degenerate', '--length', '2',\n"
            "                  '--output', sys.argv[1]])\n"
            "cascade.cli.main(['scan', '--spec', sys.argv[2], '--threads', '2',\n"
            "                  '--output', sys.argv[1]])\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing',\n"
            "                          'cascade.closed_form') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cascade.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull, str(spec)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("kappa, message", [
    ("100", "minvar_a exceeds double precision"),
    ("178", "photon number exceeds double precision"),
    ("400", "transfer matrix entries exceed double precision"),
], ids=["100", "178", "400"])
def test_solve_beyond_double_precision_exits_2(kappa, message):
    # at kappa = 100 the squeezing minimum's terms overflow, at 178 the
    # photon numbers, at 400 the transfer matrix itself: each is a
    # documented exit 2, not a traceback, with the message a scan's chunk
    # engine gives the same value
    argv = ["solve", "--kappa", kappa, "--eta-s", "1", "--delta-s", "3",
            "--degenerate", "--length", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(cascade.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cascade.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == \
        f"error: solution leaves double precision: {message}"
    assert "inf" not in proc.stdout


def test_solve_infinite_minimum_exits_2(capsys):
    # the minimum's 1 + 4 |L|^2 overflows to inf while |L|^2 is finite: it
    # is checked for finiteness, as a scan's row is, and the point exits 2
    # with one line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", "--kappa", "99.6", "--eta-s", "0.1",
                             "--delta-s", "1", "--degenerate", "--length", "2")
    assert code == 2 and out == ""
    assert err == ("error: solution leaves double precision: "
                   "minvar_a exceeds double precision\n")


def test_solve_beyond_double_precision_stderr_is_one_line():
    # the overflowing squaring of the matrix exponential prints no numpy
    # warnings ahead of the error line
    argv = ["solve", "--kappa", "400", "--eta-s", "1", "--delta-s", "3",
            "--degenerate", "--length", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(cascade.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cascade.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: solution leaves double precision: "
        "transfer matrix entries exceed double precision"]


def test_oracle_solve_failure_exits_2_with_one_line():
    # the ODE steps stall at |kappa| = 1e160: a named ArithmeticError, exit
    # 2 with one error line, and no numpy warnings from the stalled steps
    argv = ["solve", "--solver", "oracle", "--kappa", "1e160", "--length", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(cascade.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cascade.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: Required step size is less than spacing between numbers."]


@pytest.mark.parametrize("flags", [
    ["--delta-s", "1e300", "--degenerate"],
    ["--eta-i", "2", "--delta-s", "1e300"],
    ["--delta-tilde", "1e300", "--degenerate"],
], ids=["degenerate", "general", "delta_tilde"])
def test_solve_overflowing_phase_exits_2_without_warnings(capsys, flags):
    # a mismatch times the length beyond double precision overflows the
    # generator and the rotating-frame phases before the exponential; the
    # exact solver names it with no numpy warning ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", "--kappa", "3", "--eta-s", "1",
                             "--length", "1e10", *flags)
    assert code == 2 and out == ""
    assert err == ("error: solution leaves double precision: "
                   "transfer matrix entries exceed double precision\n")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_scan_threads_below_one_exits_2(capsys, tmp_path, threads):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "base": {"kappa": [3, 0], "eta_s": [1, 0], "eta_i": [1, 0],
                 "delta_tilde": 0, "delta_s": 0, "delta_i": 0, "length": 1},
        "axis1": {"name": "delta_s", "min": 0, "max": 1, "count": 2}}))
    code, out, err = run(capsys, "scan", "--spec", str(spec), "--threads", threads)
    assert code == 2 and out == ""
    assert err == "error: workers must be >= 1\n"


def test_scan_strict_disagreement_exits_4(capsys, monkeypatch, tmp_path):
    # a tolerance no solver meets: --strict turns the cross-check's
    # disagreements into exit 4 and one error line, with no table
    monkeypatch.setattr(scan, "CROSS_CHECK_RTOL", 1e-16)
    spec = ScanSpec(base=degenerate_params(3, 1, 0, 0, 2),
                    axis1=AxisSpec("delta_s", 2.0, 12.0, 40),
                    quantities=("n_as", "minvar_a"), degenerate=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    code, out, err = run(capsys, "scan", "--spec", str(path), "--strict", "--seed", "3")
    assert code == 4 and out == ""
    assert re.fullmatch(r"error: strict cross-check failed at [1-9][0-9]* point\(s\)\n", err)


def test_strict_failure_counts_points_not_quantities(capsys, monkeypatch, tmp_path):
    # a point where both quantities disagree counts once, in the error of
    # --strict as in the warning of --cross-check
    monkeypatch.setattr(scan, "CROSS_CHECK_RTOL", 1e-18)
    base = dataclasses.replace(degenerate_diagram_spec().base,
                               eta_s=1 + 0j, eta_i=1 + 0j)
    spec = ScanSpec(base=base, axis1=AxisSpec("delta_s", -20.0, 20.0, 30),
                    quantities=("n_as", "n_bs"), degenerate=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    code, out, err = run(capsys, "scan", "--spec", str(path), "--cross-check",
                         "--format", "json")
    found = json.loads(out)["cross_check_violations"]
    points = len({v["index"] for v in found})
    assert code == 0 and 0 < points < len(found)
    assert err == f"warning: cross-check: {points} point(s) disagree with the ODE oracle\n"
    code, out, err = run(capsys, "scan", "--spec", str(path), "--strict")
    assert code == 4 and out == ""
    assert err == f"error: strict cross-check failed at {points} point(s)\n"


def test_broken_worker_pool_exits_2_with_one_line(capsys, monkeypatch, tmp_path):
    # a worker process that dies is a RuntimeError of the pool, not a
    # strict verdict: exit 2 with its one error line, with no --strict
    def broken(points, workers=1):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    monkeypatch.setattr(scan, "_oracle_matrices", broken)
    spec = ScanSpec(base=degenerate_params(3, 1, 0, 0, 2),
                    axis1=AxisSpec("delta_s", 0.0, 10.0, 3),
                    quantities=("n_as",), solver="oracle", degenerate=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    code, out, err = run(capsys, "scan", "--spec", str(path), "--threads", "2")
    assert code == 2 and out == ""
    assert err == "error: A process in the process pool was terminated abruptly\n"


def test_cross_check_counts_a_failed_oracle_point_as_a_disagreement(capsys, tmp_path):
    # the sampled point at |kappa| 153.08 reads minvar_a 1.2e-266, but its
    # ODE re-solve overflows: that point disagrees, in every quantity, and
    # the scan still prints its table, or exits 4 under --strict
    spec = ScanSpec(base=degenerate_params(150, 0.1, 0, 1, 2),
                    axis1=AxisSpec("kappa_abs", 150.0, 160.0, 40),
                    quantities=("n_as", "minvar_a"), degenerate=True)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    argv = ("scan", "--spec", str(path), "--seed", "6")
    code, out, err = run(capsys, *argv, "--cross-check")
    assert code == 0 and len(out.splitlines()) == 41
    assert err == "warning: cross-check: 1 point(s) disagree with the ODE oracle\n"
    code, out, err = run(capsys, *argv, "--cross-check", "--format", "json")
    assert [(v["index"], v["quantity"], v["oracle"])
            for v in json.loads(out)["cross_check_violations"]] == [
                (12, "n_as", None), (12, "minvar_a", None)]
    code, out, err = run(capsys, *argv, "--strict")
    assert code == 4 and out == ""
    assert err == "error: strict cross-check failed at 1 point(s)\n"


def test_config_holding_an_array_exits_2(capsys, tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text("[3.0, 1.0]")
    code, out, err = run(capsys, "solve", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: --config must hold a JSON object\n"


def test_config_with_an_unknown_key_exits_2_naming_it(capsys, tmp_path):
    # a misspelt key used to be ignored: "kapa" ran at kappa = 0
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"kapa": [3, 0], "length": 2}))
    code, out, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: parameters: unknown key 'kapa'\n"


def test_bad_cascade_threads_fails_scan_only(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CASCADE_THREADS", "abc")
    code, out, _ = run(capsys, "classify", "--kappa", "3")
    assert code == 0
    assert json.loads(out)["regime"] == "V"
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--spec", str(spec)])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["analytic", "oracle"])
@pytest.mark.parametrize("z", ["nan", "inf"])
def test_solve_non_finite_z_exits_2(capsys, solver, z):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "solve", "--kappa", "3", "--eta-s", "1",
                             "--delta-s", "3", "--degenerate", "--length", "2",
                             "--solver", solver, "--z", z)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 2 and out == ""
    assert err == f"error: z must be finite, got {float(z)!r}\n"


@pytest.mark.parametrize("solver", ["analytic", "averaged", "oracle"])
@pytest.mark.parametrize("z", ["-1", "3"])
def test_solve_z_outside_crystal_exits_2(capsys, solver, z):
    # z = -1 and z = length + 1: one rule and one message for every solver
    code, out, err = run(capsys, "solve", "--kappa", "3", "--eta-s", "1",
                         "--delta-s", "3", "--degenerate", "--length", "2",
                         "--solver", solver, f"--z={z}")
    assert code == 2 and out == ""
    assert err == f"error: z must lie in [0, length] = [0, 2.0], got {float(z)!r}\n"


@pytest.mark.parametrize("kappa", ["1", "6"])
@pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-7, 1e-5])
def test_squeezing_needs_exact_degeneracy_at_any_gain(capsys, tmp_path, kappa, eps):
    # delta_i = delta_s (1 + eps): squeezing is printed at eps = 0 only, by
    # solve, scan and compare alike, at low and at high gain, with either
    # propagator.  At eta = 0 the averaged model zeroes both mismatches, so
    # it is degenerate at every eps: the squeezing gate reads the point
    delta_i = 3.0 * (1 + eps)
    degenerate = eps == 0.0
    for eta in (1.0, 0.0):
        argv = ["--kappa", kappa, "--eta-s", repr(eta), "--eta-i", repr(eta),
                "--delta-s", "3", "--delta-i", repr(delta_i), "--length", "2"]
        for solver in ("analytic", "averaged"):
            code, out, _ = run(capsys, "solve", *argv, "--solver", solver)
            assert code == 0
            assert ("minvar_a" in json.loads(out)["observables"]) == degenerate

            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({
                "base": {"kappa": [float(kappa), 0.0], "eta_s": [eta, 0.0],
                         "eta_i": [eta, 0.0], "delta_tilde": 0.0, "delta_s": 3.0,
                         "delta_i": delta_i, "length": 2.0},
                "axis1": {"name": "length", "min": 2.0, "max": 2.0, "count": 1},
                "quantities": ["n_as", "minvar_a"], "solver": solver}))
            code, out, _ = run(capsys, "scan", "--spec", str(spec))
            assert code == 0
            assert out.splitlines()[1].endswith("ValueError") != degenerate

        code, out, err = run(capsys, "compare", *argv)
        if degenerate:
            assert code == 0 and json.loads(out)["exact"]["minvar_a"] < 1
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--delta-s-l", "nan", "non-finite parameter: delta_s"),
    ("--delta-s-l", "inf", "non-finite parameter: delta_s"),
    ("--ratio", "nan", "non-finite parameter: eta_s"),
    ("--ratio", "inf", "non-finite parameter: eta_s"),
    ("--gamma-max", "nan", "non-finite parameter: kappa"),
    ("--gamma-max", "inf", "non-finite parameter: kappa"),
    # gamma = |kappa| L cannot be negative; the rows of -gamma would be the
    # rows of +gamma under another label
    ("--gamma-max", "-5", "gamma_max must be nonnegative, got -5.0"),
    ("--points", "1", "points must be >= 2"),
])
def test_sweep_gain_bad_input_exits_2_with_one_line(capsys, flag, value, message):
    # the inputs are checked before any point is built, so no numpy
    # warning precedes the error line
    argv = {"--delta-s-l": "3", "--ratio": "0.5", "--gamma-max": "4", "--points": "5",
            flag: value}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "sweep-gain", *(f"{k}={v}" for k, v in argv.items()))
    assert code == 2 and out == "" and not caught
    assert err == f"error: {message}\n"
