"""Every script in demos/ runs to completion and prints something."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_lists_every_demo():
    listed = re.findall(r"^python3 (demos/\S+\.py)$",
                        (ROOT / "README.md").read_text(), re.M)
    assert sorted(listed) == [str(p.relative_to(ROOT)) for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
