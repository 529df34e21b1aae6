"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--save FILE]

One client runs the seeded job list one job at a time; each job is a fresh
``python -m superjacobi.cli <argv>`` process whose exit status and output
are checked against ``perfbench/reference.json``.  With ``--trace 0`` the
end-to-end metrics are measured; with ``--trace 1`` the list runs once
untraced and once under ``perfbench/tracer.py``, and the per-layer metrics
and the tracing overhead are reported.  Report lines come first; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
import time
from importlib import metadata

import grid
import jobs
import stats
from tracer import MODULES as LAYER_MODULES

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 5
IMPORT_CLI = [sys.executable, "-c", "import superjacobi.cli"]

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "latency_p50_s": "s",
    "latency_tail_s": "s", "rss_peak_mb": "MB",
}

# Self time of the spans whose names match one of the prefixes.
SELF_TIMES = {
    "series.qy_mul.self_s": ("series.QYSeries.__mul__",),
    "series.zpi_mul.self_s": ("series.ZPiSeries.__mul__",),
    "series.qy_invert.self_s": ("series.QYSeries.invert",),
    "series.binomial.self_s": ("series.mul_binomial", "series.div_binomial"),
    "numtheory.self_s": ("numtheory",),
    "elliptic.wp_pde_sides.self_s": ("elliptic.wp_pde_sides",),
    "elliptic.self_s": ("elliptic",),
    "ramanujan.ramanujan_triple.self_s": ("ramanujan.ramanujan_triple",),
    "ramanujan.extract_ode_family.self_s": ("ramanujan.extract_ode_family",),
    "characters.character.self_s": ("characters.character",),
    "characters.flow.self_s": ("characters.spectral_flow_transform",
                               "characters.find_flow_matches"),
    "jacobi.eval_character_value.self_s": ("jacobi.eval_character_value",),
    "jacobi.span_invariance_test.self_s": ("jacobi.span_invariance_test",),
    "superalgebra.super_jacobi_check.self_s": ("superalgebra.super_jacobi_check",),
    "superalgebra.realization_bracket_check.self_s":
        ("superalgebra.realization_bracket_check",),
}

# Number of spans whose names match one of the prefixes.
CALLS = {
    "series.qy_mul.calls": ("series.QYSeries.__mul__",),
    "series.zpi_mul.calls": ("series.ZPiSeries.__mul__",),
    "series.qy_invert.calls": ("series.QYSeries.invert",),
    "series.binomial.calls": ("series.mul_binomial", "series.div_binomial"),
    "numtheory.eisenstein.calls": ("numtheory.eisenstein_e",
                                   "numtheory.eisenstein_ghat"),
    "elliptic.wp_pde_sides.calls": ("elliptic.wp_pde_sides",),
    "characters.character.calls": ("characters.character",),
    "jacobi.eval_character_value.calls": ("jacobi.eval_character_value",),
}


PER_LAYER = {
    "cli.import_s": "s", "cli.numpy_import_s": "s",
    "ratfunc.ops": "count", "ratfunc.self_s": "s", "ratfunc.const_frac": "ratio",
    **{name: "count" for name in CALLS},
    **{name: "s" for name in SELF_TIMES},
    "series.qy_invert.trunc_kept_frac": "ratio",
    "superalgebra.bracket.calls": "count",
    "superalgebra.bracket.nonzero_frac": "ratio",
    **{f"{m}.errors": "count" for m in LAYER_MODULES},
    "trace.overhead_s": "s",
}


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    def loop():
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(5))


def machine_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "cpu": cpu,
            "loadavg": list(os.getloadavg()), "calibration_s": calibration_s()}


def matches(name: str, prefixes) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


class Run:
    """Jobs of one run and their checks."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, key: str, argv: list[str] | None = None) -> jobs.JobResult:
        res = jobs.run(argv, key) if argv else jobs.run_job(key)
        self.attempted += 1
        why = jobs.mismatch(res, self.reference["jobs"][key],
                            self.reference["tolerance"])
        if why:
            self.failures.append(f"{key}: {why}")
        return res

    def traced_pass(self, keys: list[str]) -> tuple[list, list[dict]]:
        jobs.TMP_DIR.mkdir(exist_ok=True)
        out = jobs.TMP_DIR / f"spans-{os.getpid()}.json"
        tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "tracer.py")
        results, traces = [], []
        try:
            for k in keys:
                results.append(
                    self.job(k, [sys.executable, tracer, str(out), *k.split(" ")]))
                with open(out) as fh:
                    traces.append(json.load(fh))
        finally:
            out.unlink(missing_ok=True)
        return results, traces


def end_to_end(setup: list[float], results: list) -> tuple[dict, dict]:
    lat = [r.wall_s for r in results]
    tail_value, tail_pct = stats.tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(lat),
        "cpu_s": sum(r.cpu_s for r in results),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "rss_peak_mb": max(r.rss_kb for r in results) / 1024.0,
    }
    return values, {"percentile": tail_pct, "samples": len(lat)}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration less its child spans and its RatFunc time."""
    own = [end - start - rf for _, start, end, _, rf in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(traces: list[dict], importtimes: list[dict]) -> dict:
    values = {name: 0.0 for name in SELF_TIMES}
    values.update({name: 0 for name in CALLS})
    counters: dict[str, float] = {}
    for tr in traces:
        for key, v in tr["counters"].items():
            counters[key] = counters.get(key, 0) + v
        spans = tr["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            for metric, prefixes in SELF_TIMES.items():
                if matches(name, prefixes):
                    values[metric] += own
            for metric, prefixes in CALLS.items():
                if matches(name, prefixes):
                    values[metric] += 1

    def share(num: str, den: str) -> float:
        return counters[num] / counters[den] if counters[den] else 0.0

    values.update({
        "cli.import_s": statistics.median(t["superjacobi.cli"] for t in importtimes),
        "cli.numpy_import_s": statistics.median(t["numpy"] for t in importtimes),
        "ratfunc.ops": counters["ratfunc.ops"],
        "ratfunc.self_s": counters["ratfunc.s"],
        "ratfunc.const_frac": share("ratfunc.const", "ratfunc.ops"),
        "series.qy_invert.trunc_kept_frac": share("series.qy_invert.trunc_out",
                                                  "series.qy_invert.trunc_in"),
        "superalgebra.bracket.calls": counters["superalgebra.bracket.calls"],
        "superalgebra.bracket.nonzero_frac": share("superalgebra.bracket.nonzero",
                                                   "superalgebra.bracket.calls"),
    })
    values.update({f"{m}.errors": counters[f"{m}.errors"] for m in LAYER_MODULES})
    return values


def importtime() -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    res = jobs.run([sys.executable, "-X", "importtime", *IMPORT_CLI[1:]])
    if res.exit != 0:
        raise RuntimeError(f"importing superjacobi.cli failed: {res.stderr!r}")
    out = {}
    for line in res.stderr.decode().splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
        if m:
            out[m.group(3)] = int(m.group(2)) / 1e6
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=grid.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="also write the full record here (JSON)")
    args = ap.parse_args()
    jobs.require_program()

    reference = jobs.load_reference()
    ref_seconds = {k: v["seconds"] for k, v in reference["jobs"].items()}
    keys = grid.job_list(args.workload, args.seed, args.seconds, ref_seconds)
    context = machine_context()
    run = Run(reference)
    warm = jobs.run(IMPORT_CLI)             # compiles bytecode on a fresh checkout
    if warm.exit != 0:
        sys.stderr.write(warm.stderr.decode())
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "context": context,
              "jobs": keys}
    if args.trace:
        untraced = [run.job(k) for k in keys]
        traced, traces = run.traced_pass(keys)
        imports = [importtime() for _ in range(IMPORTTIME_SAMPLES)]
        values = per_layer(traces, imports)
        values["trace.overhead_s"] = sum(r.wall_s for r in traced) - \
            sum(r.wall_s for r in untraced)
        units = PER_LAYER
    else:
        # set-up samples spread over the run, so a slow spell of the host
        # hits a few of them rather than all
        at = {round(i * len(keys) / SETUP_SAMPLES) for i in range(SETUP_SAMPLES)}
        setup, results = [], []
        for i, k in enumerate(keys):
            if i in at:
                setup.append(jobs.run(IMPORT_CLI).wall_s)
            results.append(run.job(k))
        values, record["tail"] = end_to_end(setup, results)
        units = END_TO_END
        record["job_results"] = [[r.key, r.exit, r.wall_s, r.cpu_s, r.rss_kb]
                                 for r in results]

    failed = len(run.failures)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": run.attempted,
              "failed": failed, "metrics": metrics}
    record.update(result, failures=run.failures)

    print(f"workload {args.workload}, seed {args.seed}, {len(keys)} jobs, "
          f"closed loop with one client, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in context.items()))
    for why in run.failures:
        print(f"FAILED {why}")
    print(f"jobs_failed_frac = {failed / run.attempted:.4f} "
          f"({failed} of {run.attempted})")
    if "tail" in record:
        print(f"latency_tail_s is p{record['tail']['percentile']:.1f} "
              f"of {record['tail']['samples']} jobs")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
