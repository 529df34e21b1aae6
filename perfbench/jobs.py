"""Spawning CLI jobs and checking their output against the reference table."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TMP_DIR = ROOT / ".perfbench"

# Jobs whose stdout holds floats: checked by value within a tolerance, so a
# rewrite that only reorders floating-point work still passes.
NUMERIC = ("jacobi-test", "zetabar-table")


def require_program() -> None:
    """Exit with status 2 unless the package sources are in the checkout."""
    if not (ROOT / "src" / "superjacobi" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no src/superjacobi under {ROOT}\n")
        sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SUPERJACOBI_THREADS", None)    # the CLI's default: one worker
    # numpy's BLAS pool otherwise spins a thread per core at import, so a
    # short job's wall time would depend on whether another tenant holds the
    # second core, and cpu_s would count threads the program never asked for
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class JobResult:
    key: str
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int


def run(argv: list[str], key: str = "") -> JobResult:
    """Run one process to its end: wall time from spawn to exit, and the
    user + system time and peak RSS that ``os.wait4`` reports for it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return JobResult(key, proc.returncode, out, err[0], wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def run_job(key: str) -> JobResult:
    return run([sys.executable, "-m", "superjacobi.cli", *key.split(" ")], key)


# -- reference table -----------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _numeric(key: str, out: bytes) -> dict:
    if not out:
        return {}
    if key.startswith("zetabar-table"):
        rows = out.decode().splitlines()[1:]
        return {"values": [float(x) for r in rows for x in r.split(",")]}
    d = json.loads(out)
    return {"withinTolerance": d["withinTolerance"], "residual": d["residual"],
            "matrix": [x for row in d["matrix"] for z in row for x in z]}


def record(res: JobResult) -> dict:
    """The reference entry of one job; ``seconds`` is informational."""
    entry = {"exit": res.exit, "seconds": round(res.wall_s, 3)}
    if res.key.startswith(NUMERIC):
        entry["numeric"] = _numeric(res.key, res.stdout)
    else:
        entry["sha256"] = hashlib.sha256(res.stdout).hexdigest()
    return entry


def _close(a: float, b: float, tol: dict) -> bool:
    return math.isclose(a, b, rel_tol=tol["rel"], abs_tol=tol["abs"])


def mismatch(res: JobResult, ref: dict, tol: dict) -> str | None:
    """Why a job's result differs from its reference entry, or None."""
    if res.exit != ref["exit"]:
        return f"exit {res.exit}, reference {ref['exit']}"
    if "sha256" in ref:
        digest = hashlib.sha256(res.stdout).hexdigest()
        return None if digest == ref["sha256"] else "stdout digest differs"
    try:
        got = _numeric(res.key, res.stdout)
    except (ValueError, KeyError) as exc:
        return f"unparsable output: {exc}"
    want = ref["numeric"]
    if got.keys() != want.keys():
        return "output fields differ"
    if got.get("withinTolerance") != want.get("withinTolerance"):
        return "withinTolerance differs"
    for name in ("residual", "matrix", "values"):
        if name not in want:
            continue
        a = got[name] if isinstance(got[name], list) else [got[name]]
        b = want[name] if isinstance(want[name], list) else [want[name]]
        if len(a) != len(b) or not all(_close(x, y, tol) for x, y in zip(a, b)):
            return f"{name} outside tolerance"
    return None
