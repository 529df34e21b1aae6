import argparse
import contextlib
import io
import json
import math
import subprocess
import sys

import pytest

from superjacobi import cli, elliptic


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "superjacobi.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_ramanujan_pass_exit0():
    code, out, _ = run_cli("ramanujan", "--order", "30")
    assert code == 0
    payload = json.loads(out)
    assert all(c["holds"] for c in payload["checks"])


def test_ramanujan_checks_the_wp_pde_family_through_q_order(monkeypatch):
    from superjacobi import ramanujan
    calls = []

    def recorded(ks, z_order, q_order):
        calls.append((list(ks), z_order, q_order))
        return []

    monkeypatch.setattr(ramanujan, "extract_ode_families", recorded)
    code, _, _ = _run_in_process("ramanujan", "--order", "5", "--max-k", "1")
    assert code == 0
    # z_order = max_k + 1; the q-order is exclusive, so q^5 is checked
    assert calls == [([1], 2, 6)]


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
    from conftest import as_qyseries, series_from_dict
    loaded = series_from_dict(payload)
    direct = character(ModuleLabel(3, 1, 1), Fraction(8)).series
    assert loaded == as_qyseries(direct)


def test_bad_level_exit2():
    code, out, err = run_cli("char", "--u", "1", "--j", "0", "--k", "1")
    assert code == 2
    assert "u must be >= 2" in err


@pytest.mark.parametrize("text", ["1/0", "abc"])
@pytest.mark.parametrize("flag", ["--j", "--k"])
def test_bad_label_text_is_a_usage_error(flag, text):
    args = ["char", "--u", "3", "--j", "1", "--k", "1"]
    args[args.index(flag) + 1] = text
    code, out, err = run_cli(*args)
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err and "Traceback" not in err


@pytest.mark.parametrize("k", ["-1", "0"])
def test_ghat_nonpositive_k_exit2(k):
    code, out, err = run_cli("eisenstein", "--k", k, "--ghat")
    assert code == 2
    assert out == ""
    assert err == "error: k must be >= 1\n"


def test_vanishing_factor_exit2():
    code, out, err = run_cli("char", "--u", "3", "--j", "1", "--k", "2",
                             "--generic", "--order", "3")
    assert code == 2
    assert out == ""
    assert "(1 - q^0) = 0" in err


def test_generic_label_off_the_2u_grid_exit0():
    # j = k = 1/5 lies off the grid 1/6; the character is built on 1/30,
    # refined to 1/150 by jk/u = 1/75
    code, out, err = run_cli("char", "--u", "3", "--j", "1/5", "--k", "1/5",
                             "--generic", "--order", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["qDenom"] == 150


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


def test_jacobi_test_truncation_tail_exit2():
    # at q-order 1 an omitted factor is not small (tail inf): the probe
    # refuses to fit rather than report a truncation artifact as a failure;
    # at order 4 the worst tail is about 4e-8
    code, out, err = run_cli("jacobi-test", "--u", "2", "--gen", "x10",
                             "--order", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: tail bound inf exceeds 1.000e-06 at tau = ")
    code, out, _ = run_cli("jacobi-test", "--u", "2", "--gen", "x10",
                           "--order", "4")
    assert code == 0 and json.loads(out)["withinTolerance"] is True


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


def test_bracket_cli_reads_an_index_with_int():
    # "+1" is the index 1, so this is [L_1, L_2] = -L_3
    code, out, _ = run_cli("bracket", "L", "+1", "L", "2")
    assert code == 0
    assert json.loads(out)["bracket"] == {"L3": "-1"}


@pytest.mark.parametrize("args, message", [
    (("L", "1.5", "L", "1"), "index 1.5 of L is not an int"),
    (("L", "1", "Q", "x"), "index x of Q is not an int"),
    (("1", "L", "2", "L", "3"), "1 is not a family (L, J, H, Q, C) or an "
                                "index just after one"),
    (("L", "1", "2", "L", "3"), "2 is not a family (L, J, H, Q, C) or an "
                                "index just after one")],
    ids=["float", "word", "index first", "two indices"])
def test_bracket_cli_bad_index_exit2(args, message):
    code, out, err = run_cli("bracket", *args)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_self_test_flag():
    code, out, _ = run_cli("spectrum", "--u", "5", "--self-test")
    assert code == 0
    assert json.loads(out)["passed"] is True


# one cheap invocation per subcommand; --self-test ignores all but the name
SELF_TEST_ARGV = [
    "ramanujan", "char --u 3 --j 1 --k 1", "spectrum --u 3", "flow --u 3",
    "eisenstein --k 2", "wp-pde", "xi-shift", "xi-zetabar", "zetabar-table",
    "jacobi-test --u 2 --gen x10", "bracket L 1 L 2", "jacobi-identity",
    "realization-check"]


def test_self_tests_cover_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [a.split()[0] for a in SELF_TEST_ARGV] == list(sub.choices)


@pytest.mark.parametrize("argv", SELF_TEST_ARGV)
def test_self_test_every_subcommand(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv.split(), "--self-test"])
    assert code == 0
    assert json.loads(out.getvalue()) == {"selfTest": argv.split()[0],
                                          "passed": True}


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli("xi-shift", "--order", "12", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["passed"] is True


def test_report_streams_the_bytes_of_json_dumps(capsys, tmp_path):
    # eisenstein --order 400 encodes to more than one batch of chunks
    argv = ["eisenstein", "--k", "2", "--order", "400", "--ghat"]
    from superjacobi.numtheory import eisenstein_ghat
    payload = eisenstein_ghat(2, 400).to_dict()
    assert len(list(cli._ENCODER.iterencode(payload))) > cli._BATCH
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    path = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == want


@pytest.mark.parametrize("flags", [[], ["--self-test"]],
                         ids=["report", "self-test"])
def test_out_to_unwritable_path_exit2(tmp_path, flags):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli("bracket", "L", "2", "L", "-1", *flags,
                             "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err
    assert not path.parent.exists()


def test_closed_stdout_pipe_exit2():
    # about 190 KB of JSON, more than a pipe buffer holds: the reader closes
    # the pipe after 10 bytes, and the job writes into a closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "superjacobi.cli", "char",
                             "--u", "5", "--j", "1", "--k", "1",
                             "--order", "40"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert err == "error: cannot write stdout: Broken pipe\n"


def test_zetabar_table_csv():
    code, out, _ = run_cli("zetabar-table", "--points", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t_re,t_im")
    assert len(lines) == 4


def test_ambiguous_flow_exit2():
    # at q^1 two labels fit the visible window of the flow of (0, 2)
    code, out, err = run_cli("flow", "--u", "3", "--m", "1", "--order", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: 2 labels match the spectral flow of (0, 2)")


def test_realization_check_ignores_window():
    code, out, _ = run_cli("realization-check", "--max", "2", "--window", "3")
    assert code == 0
    assert (code, out) == run_cli("realization-check", "--max", "2",
                                  "--window", "16")[:2]


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


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "abc"])
def test_jacobi_test_bad_tolerance_exit2(tol):
    code, out, err = run_cli("jacobi-test", "--u", "2", "--gen", "x10",
                             "--tol", tol)
    assert code == 2
    assert out == ""
    assert "argument --tol" in err


@pytest.mark.parametrize("max_k", ["0", "-1"])
def test_ramanujan_nonpositive_max_k_exit2(max_k):
    code, out, err = run_cli("ramanujan", "--order", "5", "--max-k", max_k)
    assert code == 2
    assert out == ""
    assert err == "error: max_k must be >= 1\n"


@pytest.mark.parametrize("points", ["0", "-2"])
def test_zetabar_table_nonpositive_points_exit2(points):
    code, out, err = run_cli("zetabar-table", "--points", points)
    assert code == 2
    assert out == ""
    assert err == "error: points must be >= 1\n"


@pytest.mark.parametrize("flag, value", [
    ("--tau-im", "nan"), ("--t-re", "nan"), ("--step", "inf"),
    ("--tau-im", "inf"), ("--tau-re", "inf"), ("--t-im", "-inf"),
    ("--tau-re", "abc")])
def test_zetabar_table_nonfinite_float_exit2(flag, value):
    code, out, err = run_cli("zetabar-table", "--points", "1", flag, value)
    assert code == 2
    assert out == ""
    assert f"argument {flag}" in err


def test_zetabar_table_tail_guard_exit2():
    # 1e-320 is subnormal: Im t / Im tau is inf, so the guard runs first
    for tau_im, shown in (("1e-9", "1e-09"), ("1e-320", "1e-320")):
        code, out, err = run_cli("zetabar-table", "--points", "1",
                                 "--tau-im", tau_im)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tail guard: ")
        assert f"Im tau = {shown}" in err and err.count("\n") == 1


@pytest.mark.parametrize("args, cause", [
    (("--points", "1", "--t-im", "1e308", "--tau-im", "0.5"),
     "too many periods from 0 to reduce"),
    # Im t = 2^100: k 49 rounds to 2^100 (1 - 2^-53), 2^47 short of Im t
    (("--points", "1", "--t-im", "1.2676506002282294e30", "--tau-im", "49"),
     "too many periods from 0 to reduce"),
    (("--points", "2", "--t-re", "1e308", "--step", "1e308"),
     "must be finite")])
def test_zetabar_table_overflowing_point_exit2(args, cause):
    # every flag is finite, but t is too many periods out or overflows
    code, out, err = run_cli("zetabar-table", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and cause in err
    assert err.count("\n") == 1


def _run_in_process(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("what", ["zetabar", "wp"])
def test_zetabar_table_large_im_tau_is_finite_or_guarded(what):
    # every point prints finite values: no Im tau here is below the tail guard
    for tau_im in ("1", "4", "4.35", "4.36", "9.5", "10", "14.2", "15", "120"):
        for t_im in ("-0.4", "0.1", "0.4"):
            code, out, err = _run_in_process(
                "zetabar-table", "--what", what, "--points", "1",
                "--tau-im", tau_im, "--t-im", t_im)
            assert (code, err) == (0, ""), (tau_im, t_im)
            values = out.splitlines()[1].split(",")[4:]
            assert all(math.isfinite(float(v)) for v in values)


def test_zetabar_table_wp_at_im_tau_9_5_exit0():
    code, out, err = run_cli("zetabar-table", "--what", "wp", "--points", "1",
                             "--tau-im", "9.5")
    assert (code, err) == (0, "")
    re_, im_ = (float(v) for v in out.splitlines()[1].split(",")[4:])
    assert math.isfinite(re_) and math.isfinite(im_)
    v = elliptic.eval_wp(elliptic.LatticePoint(0.2 + 0.1j, 9.5j))
    assert complex(re_, im_) == v


def test_zetabar_table_large_tau_re_keeps_the_values():
    def values(tau_re):
        code, out, _ = _run_in_process("zetabar-table", "--what", "wp",
                                       "--tau-re", tau_re)
        assert code == 0
        return [line.split(",")[4:] for line in out.splitlines()[1:]]

    assert values("1e12") == values("0")
    assert values("1e16") == values("0")


def test_report_is_written_in_batches_of_chunks():
    # on an unbuffered stdout every write is a system call, and one write
    # per encoder chunk, as json.dump makes, cost a q^40 character ~30 ms
    from types import SimpleNamespace
    from superjacobi.numtheory import eisenstein_ghat
    payload = eisenstein_ghat(2, 400).to_dict()
    chunks = len(list(cli._ENCODER.iterencode(payload)))
    writes = []
    cli._write(SimpleNamespace(write=writes.append), payload, True)
    assert len(writes) == math.ceil(chunks / cli._BATCH) + 1
    assert "".join(writes) == json.dumps(payload, sort_keys=True,
                                         indent=2) + "\n"


def test_failing_wp_pde_self_test_exit1(monkeypatch):
    failed = elliptic.CheckReport("wp-pde", {}, failures=[(0, 0, 1)])
    monkeypatch.setattr(elliptic, "wp_pde_check", lambda *args: failed)
    code, out, _ = _run_in_process("wp-pde", "--self-test")
    assert code == 1
    assert '"passed": false' in out
    assert json.loads(out) == {"selfTest": "wp-pde", "passed": False}
