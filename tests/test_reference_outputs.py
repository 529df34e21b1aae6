"""Exact CLI outputs against the benchmark's stored reference table.

Every ``ramanujan``, ``wp-pde``, ``eisenstein``, ``spectrum``, ``char``,
``flow``, ``xi-shift``, ``xi-zetabar``, ``bracket``, ``jacobi-identity`` and
``realization-check`` grid point of ``perfbench/grid.py`` runs through
``cli.main`` in this process; its exit status and the SHA-256 of its stdout
must equal those in ``perfbench/reference.json``.  Both files are only read.
Every README command is a grid point, and the README's numeric table
command is pinned here by its own digest.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from superjacobi import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXACT = ("ramanujan", "wp-pde", "eisenstein", "spectrum", "char", "flow",
         "xi-shift", "xi-zetabar", "bracket", "jacobi-identity",
         "realization-check")


def _grid():
    spec = importlib.util.spec_from_file_location("_grid", PERFBENCH / "grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


POINTS = [key for key in _grid().all_points() if key.split(" ")[0] in EXACT]
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["jobs"]


def test_every_exact_command_is_covered():
    assert {key.split(" ")[0] for key in POINTS} == set(EXACT)


@pytest.mark.parametrize("key", POINTS)
def test_output_matches_reference(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(key.split(" "))
    ref = REFERENCE[key]
    assert code == ref["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ref["sha256"]


def test_readme_commands_are_grid_points():
    # the benchmark's reference table pins the stdout of every README command
    commands = re.findall(r"^superjacobi (.+)$",
                          (PERFBENCH.parent / "README.md").read_text(), re.M)
    assert len(commands) == 13
    assert set(commands) <= set(_grid().all_points())


def test_readme_numeric_table_is_byte_identical():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["zetabar-table", "--what", "wp", "--points", "5",
                         "--tau-im", "1.1"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "327b70787be6ecfc76c5521ace0309b6e0501cdcb44ba67ab998926fc527bc28")
