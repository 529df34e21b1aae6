"""Every script in demos/ runs to completion and prints something; the
characters demo, the first lines of the xi demo and the span probe's tables
print exactly their pinned lines.  A module whose name starts with _ is a helper that the
scripts import, not a demo."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p for p in (ROOT / "demos").glob("*.py")
               if not p.name.startswith("_"))


def test_readme_lists_every_demo():
    listed = re.findall(r"^python3 (demos/\S+\.py)$",
                        (ROOT / "README.md").read_text(), re.M)
    assert sorted(listed) == [str(p.relative_to(ROOT)) for p in DEMOS]


def run_demo(script: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    assert run_demo(script).strip()


def test_characters_demo_output():
    # the printed q^0 and leading coefficients are the (row, pole) pairs of
    # RowSeries.coeff and leading, in the formatter shared with the xi demo
    assert run_demo(ROOT / "demos" / "characters_and_flow.py").splitlines() == [
        "u=2: c = 0, 1 modules: [(0, 1)]",
        "u=3: c = 1, 3 modules: [(0, 1), (0, 2), (1, 1)]",
        "u=4: c = 3/2, 6 modules: [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), "
        "(2, 1)]",
        "u=2 (0,1) q^0 coefficient: (y)/(y - 1)",
        "u=4 (2,1): leading exponent 1/2 coefficient 1",
        "flow permutation at u=3, m=1:",
        "   (0,1) -> (1,1)   constant 1 * q^1/2",
        "   (0,2) -> (0,1)   constant 1 * q^1/2",
        "   (1,1) -> (0,2)   constant -1 * q^1/2",
        "flow permutation at u=4, m=1:",
        "   (0,1) -> (2,1)   constant 1 * q^1/2",
        "   (0,2) -> (1,1)   constant 1 * q^1/2",
        "   (0,3) -> (0,1)   constant 1 * q^1/2",
        "   (1,1) -> (0,2)   constant -1 * q^1/2",
        "   (1,2) -> (0,3)   constant -1 * q^1/2",
        "   (2,1) -> (1,2)   constant -1 * q^1/2",
    ]


def test_xi_demo_exact_lines():
    # the coefficients are printed from xi_series' rows and pole residue
    lines = run_demo(ROOT / "demos" / "xi_partial_fractions.py").splitlines()
    assert lines[:7] == [
        "xi q^0 coefficient: (-1/2*x - 1/2)/(x - 1)",
        "xi q^1 coefficient: x - 1*x^-1",
        "xi q^2 coefficient: x^2 + x - 1*x^-1 - 1*x^-2",
        "xi q^3 coefficient: x^3 + x - 1*x^-1 - 1*x^-3",
        "xi q^4 coefficient: x^4 + x^2 + x - 1*x^-1 - 1*x^-2 - 1*x^-4",
        "shift xi(qx) = xi + 1: True",
        "t-expansion equals zeta-bar (t^8, q^30): True",
    ]


def test_span_probe_demo_tables():
    # the residuals and discrepancies of the chi probe at tau = i and of the
    # three-sector phi span; rounding-level values print as < 1e-12
    lines = run_demo(ROOT / "demos" / "jacobi_span_probe.py").splitlines()
    assert [line for line in lines if line.startswith("   u=")] == [
        "   u=2 (1,0)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=2 (0,1)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=2 S      residual 7.188e-01   matrix discrepancy 1.469e-01",
        "   u=2 shear  residual 1.994e-01   matrix discrepancy 1.377e-02",
        "   u=3 (1,0)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=3 (0,1)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=3 S      residual 7.071e-02   matrix discrepancy 7.050e+00",
        "   u=3 shear  residual 3.133e-02   matrix discrepancy 1.051e+00",
        "   u=2 (1,0)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=2 (0,1)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=2 S      residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=2 shear  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=3 (1,0)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=3 (0,1)  residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=3 S      residual   < 1e-12   matrix discrepancy   < 1e-12",
        "   u=3 shear  residual   < 1e-12   matrix discrepancy   < 1e-12",
    ]
