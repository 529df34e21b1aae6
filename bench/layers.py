"""Layer harness: time the library's layers in process and the README
commands as subprocesses, and write the medians to BENCH_<tag>.json.

    PYTHONPATH=src python3 bench/layers.py --tag 42

The package is the one on PYTHONPATH, so pointing PYTHONPATH at another
checkout's ``src`` times that checkout with the same harness.  Every entry
gives the median and quartiles of five timings; only the timed call is
inside the clock, its inputs are built before.  Three tiers:

* ``layers``: one call of each layer at a grid-like size;
* ``scaling``: character() and QSeries multiply at 1x, 4x and 16x an order;
* ``commands``: each ``superjacobi ...`` line of README.md, run
  as ``python -m superjacobi.cli ... --out /dev/null`` in a fresh process,
  and the acceptance suite of the timed checkout (``ACCEPTANCE``), run
  from that checkout's root.

``collect(tag, small=True)`` times each entry once at small sizes and skips
the commands: a smoke run that checks the harness, not the code.  The machine
context comes from ``perfbench/run.py``, which this script only imports.
``source_sha256`` names the code that was timed: ``commit`` names only its
checkout's last commit, whatever the working tree holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALES = (("1x", 1), ("4x", 4), ("16x", 16))
ACCEPTANCE = "python -m pytest -q -p no:cacheprovider tests/test_acceptance.py"


def summary(times: list[float], size: str) -> dict:
    """Median and quartiles of the timings, in seconds."""
    q1, med, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                   if len(times) > 1 else times * 3)
    return {"size": size, "n": len(times), "median_s": med, "q1_s": q1,
            "q3_s": q3}


def timed(call, runs: int, size: str) -> dict:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return summary(times, size)


def refused(call):
    """``call`` with both W(1|1) certificates refusing, so the sweep and the
    realization check enumerate their box."""
    from superjacobi import certificate

    def run():
        holds, kernel = certificate.jacobi_holds, certificate.realization_kernel
        certificate.jacobi_holds = lambda: False
        certificate.realization_kernel = lambda box: None
        try:
            call()
        finally:
            certificate.jacobi_holds, certificate.realization_kernel = \
                holds, kernel
    return run


def layers(small: bool) -> dict:
    """Layer name -> (call, size)."""
    from superjacobi import (certificate, characters, elliptic, jacobi,
                             labels, superalgebra)

    # j = 0: the q^0 factor 1 - 1/y leaves a pole for _reduced to cancel
    label = labels.ModuleLabel(5, 0, 1)
    order = Fraction(4 if small else 40)
    factors, _, _, _ = labels._quotient_factors(5, label.j, label.k, 0, order,
                                                True)
    qden = characters._grid(label)
    rows, _, (const, pole) = characters._product(factors, order, qden)
    nums = [characters._mul_rows(row, const) for row in rows.values()]
    wp_size = (2, 4) if small else (6, 40)
    wp = elliptic.wp_series(*wp_size)
    points = jacobi.sample_points(2 if small else 18, 7)
    spectrum3 = labels.spectrum(3)
    eval_order = Fraction(2 if small else 14)
    box = 1 if small else 4
    flow = (3, 1, 4) if small else (5, 1, 9)
    grid = f"u=5 j=0 k=1 normalized q^{order}"

    def reduce_all():
        for num in nums:
            characters._reduced(num, pole)

    def evaluate_all():
        for lab in spectrum3:
            for p in points:
                jacobi.eval_character_value(lab, p, eval_order)

    evaluate_all()      # fills the probe's factor cache, as a probe run does

    return {
        "characters._reduced": (reduce_all, f"{len(nums)} rows of {grid}"),
        "characters._product": (
            lambda: characters._product(factors, order, qden), grid),
        "qseries.ZPiSeries.__mul__": (
            lambda: wp * wp, "wp*wp z^%d q^%d" % wp_size),
        "characters.find_flow_matches": (
            lambda: characters.find_flow_matches(*flow),
            "u=%d m=%d q^%d" % flow),
        "jacobi.eval_character_value": (
            evaluate_all,
            f"u=3 spectrum x {len(points)} probe points q^{eval_order}"),
        "certificate.jacobi_holds": (certificate.jacobi_holds, "all indices"),
        "certificate.realization_kernel": (
            lambda: certificate.realization_kernel(range(-box, box + 1)),
            f"box {box}"),
        "superalgebra.super_jacobi_check.refused": (
            refused(lambda: superalgebra.super_jacobi_check(box)),
            f"--max {box}"),
        "superalgebra.realization_bracket_check.refused": (
            refused(lambda: superalgebra.realization_bracket_check(box)),
            f"--max {box}"),
    }


def scaling(small: bool) -> dict:
    """Name -> {scale: (call, size)} at 1x, 4x and 16x a base order."""
    from superjacobi import characters, labels, numtheory

    label = labels.ModuleLabel(5, 1, 1)
    char_base, mul_base = (1, 5) if small else (10, 100)
    eis = {f: (numtheory.eisenstein_e(1, mul_base * f),
               numtheory.eisenstein_e(2, mul_base * f)) for _, f in SCALES}
    return {
        "characters.character": {
            name: ((lambda o=char_base * f:
                    characters.character(label, Fraction(o), normalized=True)),
                   f"u=5 j=1 k=1 normalized q^{char_base * f}")
            for name, f in SCALES},
        "qseries.QSeries.__mul__": {
            name: ((lambda e=eis[f]: e[0] * e[1]),
                   f"E2*E4 q^{mul_base * f}")
            for name, f in SCALES},
    }


def readme_commands() -> list[str]:
    """The ``superjacobi ...`` lines of README.md."""
    return re.findall(r"^superjacobi .+$",
                      (ROOT / "README.md").read_text(encoding="utf-8"), re.M)


def commands(runs: int) -> dict:
    """Command line -> timings and exit codes, each run in a fresh process
    from the root of the timed checkout."""
    import superjacobi
    cwd = Path(superjacobi.__file__).resolve().parent.parent.parent
    argvs = {line: [sys.executable, "-m", "superjacobi.cli",
                    *shlex.split(line)[1:], "--out", os.devnull]
             for line in readme_commands()}
    argvs[ACCEPTANCE] = [sys.executable, *shlex.split(ACCEPTANCE)[1:]]
    out = {}
    for line, argv in argvs.items():
        codes = set()
        entry = timed(lambda: codes.add(subprocess.run(
            argv, capture_output=True, cwd=cwd).returncode), runs,
            "subprocess")
        out[line] = {**entry, "exit": sorted(codes)}
    return out


def machine() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from run import machine_context
    finally:
        sys.path.pop(0)
    return machine_context()


def commit() -> str | None:
    """The commit of the timed package's checkout, marked -dirty when its
    files differ from it; None outside git."""
    import superjacobi
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=Path(superjacobi.__file__).parent,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """SHA-256 of the timed package's ``*.py`` files in name order, each as
    its name, a NUL, its length in bytes, a NUL and its bytes."""
    import superjacobi
    digest = hashlib.sha256()
    for path in sorted(Path(superjacobi.__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def collect(tag: str, small: bool = False) -> dict:
    runs = 1 if small else 5
    return {
        "tag": tag, "commit": commit(), "source_sha256": source_sha256(),
        "runs": runs, "small": small,
        "machine": machine(),
        "layers": {name: timed(call, runs, size)
                   for name, (call, size) in layers(small).items()},
        "scaling": {name: {scale: timed(call, runs, size)
                           for scale, (call, size) in tiers.items()}
                    for name, tiers in scaling(small).items()},
        "commands": {} if small else commands(runs),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True,
                    help="names the output BENCH_<tag>.json")
    args = ap.parse_args(argv)
    (ROOT / f"BENCH_{args.tag}.json").write_text(
        json.dumps(collect(args.tag), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
