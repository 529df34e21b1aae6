"""Run every workload over several seeds and print the end-to-end metrics.

    python3 perfbench/sweep.py --out DIR [--seeds 1-10] [--workload NAME ...]
                               [--trace]

Each run is ``run.py`` in its own process, saved as DIR/<workload>-<seed>-
t<trace>.json; afterwards the set is summarised by ``compare.py`` (median,
quartiles and spread of every metric, by name and unit, per workload, and
the failed share of jobs).  Two such directories are compared with
``compare.py PARENT CHANGE``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import compare
import grid


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(compare.BENCHMARK) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append", choices=grid.WORKLOADS)
    ap.add_argument("--trace", action="store_true",
                    help="traced runs (per-layer metrics) instead")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    trace = int(args.trace)
    for wl in args.workload or grid.WORKLOADS:
        for seed in args.seeds:
            path = out / f"{wl}-{seed}-t{trace}.json"
            proc = subprocess.run(
                [sys.executable, run_py, "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                 "--save", str(path)], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            print(f"{wl} seed {seed}: {proc.stdout.splitlines()[-1]}", flush=True)
    return compare.main([str(out)])


if __name__ == "__main__":
    sys.exit(main())
