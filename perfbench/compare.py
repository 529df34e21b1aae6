"""Summarise one result set, or compare two.

    python3 perfbench/compare.py RESULTS                # one set
    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

A result set is a directory of records written by ``run.py --save`` (see
``sweep.py``).  For each workload and end-to-end metric it prints the
median and quartiles of each set and, for two sets, the verdict against the
metric's bound in ``BENCHMARK.json``: "unresolved" where either set spreads
wider than the bound, unless every run of the change beats every run of the
parent.  Per-layer counts of traced runs with the same workload and seed
must match exactly.  Exits 1 on a regression, a count mismatch or a failed
job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no records in {directory}")
    return records


def series(records: list[dict], workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and not r["trace"]
            and metric in r["metrics"]]


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    if all(sign * (b - a) < 0 for a in base for b in new):
        return "better"
    if max(stats.spread(base), stats.spread(new)) > bound:
        return "unresolved"
    change = sign * (stats.quartiles(new)[1] - stats.quartiles(base)[1])
    return "WORSE" if change > bound * stats.quartiles(base)[1] else "within bound"


def fmt(values: list[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}] spread {stats.spread(values):.3f}"


def failures(records: list[dict]) -> bool:
    bad = False
    for wl in sorted({r["workload"] for r in records}):
        rs = [r for r in records if r["workload"] == wl]
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print(f"{wl}: jobs_failed_frac = {failed / attempted:.4f} "
              f"({failed} of {attempted} jobs in {len(rs)} runs)")
        for r in rs:
            for why in r["failures"]:
                print(f"  seed {r['seed']}: {why}")
        bad = bad or failed > 0
    return bad


def count_mismatches(base: list[dict], new: list[dict], spec: dict) -> int:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    traced = {(r["workload"], r["seed"], r["seconds"]): r for r in base if r["trace"]}
    bad = matched = 0
    for r in new:
        other = traced.get((r["workload"], r["seed"], r["seconds"]))
        if not r["trace"] or other is None:
            continue
        matched += 1
        for name in counts:
            a, b = other["metrics"][name]["value"], r["metrics"][name]["value"]
            if a != b:
                bad += 1
                print(f"COUNT MISMATCH {r['workload']} seed {r['seed']} {name}: "
                      f"{a} -> {b}")
    print(f"per-layer counts: {matched} traced run pairs, {bad} mismatches")
    return bad


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    sets = [load(d) for d in argv]
    bad = any([failures(s) for s in sets])
    regressions = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        print(f"\n== {wl}")
        for m in spec["end_to_end"]:
            vals = [series(s, wl, m["name"]) for s in sets]
            if not all(vals):
                continue
            line = f"{m['name']:>15} ({m['unit']}, bound {m['bound']}): " + \
                "  ->  ".join(fmt(v) for v in vals)
            if len(vals) == 2:
                v = verdict(vals[0], vals[1], m["bound"], m["better"])
                regressions += v == "WORSE"
                line += f"  {v}"
            print(line)
    if len(sets) == 2:
        bad = count_mismatches(sets[0], sets[1], spec) > 0 or bad
    return 1 if bad or regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
