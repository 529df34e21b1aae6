import json
import subprocess
import sys

import pytest


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "superjacobi.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_ramanujan_pass_exit0():
    code, out, _ = run_cli("ramanujan", "--order", "30")
    assert code == 0
    payload = json.loads(out)
    assert all(c["holds"] for c in payload["checks"])


def test_char_example_encoding():
    code, out, _ = run_cli("char", "--u", "3", "--j", "1", "--k", "1",
                           "--order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["qDenom"] == 6
    assert min(t["qExp"] for t in payload["terms"]) == 2   # q^{1/3}
    # output round-trips through the series deserializer
    from fractions import Fraction
    from superjacobi.characters import ModuleLabel, character
    from superjacobi.series import QYSeries
    loaded = QYSeries.from_dict(payload)
    direct = character(ModuleLabel(3, 1, 1), Fraction(8)).series
    assert loaded == direct


def test_bad_level_exit2():
    code, out, err = run_cli("char", "--u", "1", "--j", "0", "--k", "1")
    assert code == 2
    assert "u must be >= 2" in err


def test_vanishing_factor_exit2():
    code, out, err = run_cli("char", "--u", "3", "--j", "1", "--k", "2",
                             "--generic", "--order", "3")
    assert code == 2
    assert out == ""
    assert "(1 - q^0) = 0" in err


def test_unknown_flag_exit2():
    code, *_ = run_cli("spectrum", "--u", "4", "--bogus")
    assert code == 2


def test_jacobi_test_lattice_pass_and_modular_fail():
    code, out, _ = run_cli("jacobi-test", "--u", "2", "--gen", "x10",
                           "--order", "12", "--tol", "1e-6", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["withinTolerance"] is True
    code, out, _ = run_cli("jacobi-test", "--u", "2", "--gen", "S",
                           "--order", "12", "--tol", "1e-6", "--seed", "7")
    assert code == 1   # mathematical failure, not usage failure


def test_deterministic_output():
    args = ("jacobi-test", "--u", "2", "--gen", "x01", "--order", "10",
            "--seed", "11")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_bracket_cli():
    code, out, _ = run_cli("bracket", "L", "2", "L", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["bracket"] == {"L1": "3"}


@pytest.mark.parametrize("args", [("C", "L", "2"), ("L", "2", "C"), ("C", "C")])
def test_bracket_cli_central_takes_no_index(args):
    code, out, _ = run_cli("bracket", *args)
    assert code == 0
    assert json.loads(out) == {"bracket": {}, "text": "0"}


@pytest.mark.parametrize("args", [("X", "1", "L", "2"), ("L", "2"),
                                  ("L", "2", "L", "3", "L")])
def test_bracket_cli_bad_elements_exit2(args):
    code, out, err = run_cli("bracket", *args)
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_self_test_flag():
    code, out, _ = run_cli("spectrum", "--u", "5", "--self-test")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli("xi-shift", "--order", "12", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["passed"] is True


def test_zetabar_table_csv():
    code, out, _ = run_cli("zetabar-table", "--points", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t_re,t_im")
    assert len(lines) == 4


def test_realization_check_empty_sweep_exit2():
    code, out, err = run_cli("realization-check", "--max", "-1",
                             "--window", "0")
    assert code == 2
    assert out == ""
    assert "max_index must be >= 1" in err


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("command", [
    "wp-pde", "xi-shift", "xi-zetabar", "eisenstein --k 2",
    "eisenstein --k 2 --ghat", "flow --u 3", "char --u 3 --j 1 --k 1",
    "jacobi-test --u 3 --gen x10"])
def test_exact_check_nonpositive_order_exit2(command, order):
    code, out, err = run_cli(*command.split(), "--order", order)
    assert code == 2
    assert out == ""
    assert err == "error: q_order must be >= 1\n"
