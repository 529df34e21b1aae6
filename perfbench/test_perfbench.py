"""Tests of the benchmark itself; no CLI job is spawned."""

import json
from collections import Counter
from pathlib import Path

import pytest

import compare
import grid
import jobs
import run
import stats
import tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def reference():
    return jobs.load_reference()


@pytest.fixture(scope="module")
def ref_seconds(reference):
    return {k: v["seconds"] for k, v in reference["jobs"].items()}


@pytest.mark.parametrize("workload", grid.WORKLOADS)
def test_same_seed_same_job_list(workload, ref_seconds):
    a = grid.job_list(workload, 3, 20, ref_seconds)
    assert a == grid.job_list(workload, 3, 20, ref_seconds)
    assert a != grid.job_list(workload, 4, 20, ref_seconds)
    assert set(a) <= set(grid.grid(workload))


@pytest.mark.parametrize("workload", grid.WORKLOADS)
def test_every_seed_draws_the_same_strata(workload, ref_seconds):
    drawn = Counter()
    for key in grid.job_list(workload, 11, 20, ref_seconds):
        drawn.update(name for name, _, points in grid.STRATA[workload]
                     if key in points)
    rounds = max(1, round(20 / grid.round_cost(workload, ref_seconds)))
    assert drawn == {name: count * rounds
                     for name, count, _ in grid.STRATA[workload]}


def test_job_list_grows_with_seconds(ref_seconds):
    wl = "bracket-sweep"
    one = grid.round_cost(wl, ref_seconds)
    assert len(grid.job_list(wl, 1, 3 * one, ref_seconds)) == \
        3 * len(grid.job_list(wl, 1, one, ref_seconds))


def test_reference_covers_every_grid_point(reference):
    assert set(grid.all_points()) == set(reference["jobs"])


def test_readme_commands_are_grid_points():
    readme = (ROOT / "README.md").read_text().splitlines()
    commands = [line.split(" ", 1)[1] for line in readme
                if line.startswith("superjacobi ")]
    assert len(commands) == 13
    assert set(commands) <= set(grid.all_points())


def test_known_failing_points_keep_their_status(reference):
    for u in (2, 3, 4, 5):
        for gen in ("x10", "x01", "S", "T"):
            key = f"jacobi-test --u {u} --gen {gen} --order 14 --tol 1e-6 --seed 7"
            want = 2 if u == 5 else (1 if gen in ("S", "T") else 0)
            assert reference["jobs"][key]["exit"] == want, key
    others = [k for k in grid.all_points() if not k.startswith("jacobi-test")]
    assert all(reference["jobs"][k]["exit"] == 0 for k in others)


def _result(key, exit=0, stdout=b""):
    return jobs.JobResult(key, exit, stdout, b"", 0.2, 0.1, 1000)


def test_digest_mismatch_and_exit_status_count_as_failed(monkeypatch):
    ref = {"tolerance": {"rel": 1e-6, "abs": 1e-9}, "jobs": {
        "a": jobs.record(_result("a", 0, b"out-a")),
        "b": jobs.record(_result("b", 0, b"out-b")),
        "c": jobs.record(_result("c", 1, b"out-c")),
    }}
    outcomes = {"a": _result("a", 0, b"out-a"),       # matches
                "b": _result("b", 0, b"out-B"),       # digest differs
                "c": _result("c", 0, b"out-c")}       # exit status differs
    monkeypatch.setattr(jobs, "run_job", lambda key: outcomes[key])
    r = run.Run(ref)
    for key in ("a", "b", "c", "a"):
        r.job(key)
    assert r.attempted == 4
    assert len(r.failures) == 2
    assert "digest" in r.failures[0] and "exit 0, reference 1" in r.failures[1]


def _probe_output(within, residual, entry):
    return json.dumps({"withinTolerance": within, "residual": residual,
                       "matrix": [[[entry, 0.0]]]}).encode()


def test_probe_checked_within_tolerance():
    key = "jacobi-test --u 3 --gen S --order 14 --tol 1e-6 --seed 7"
    tol = {"rel": 1e-6, "abs": 1e-9}
    ref = jobs.record(_result(key, 1, _probe_output(False, 0.25, 0.5)))
    assert "sha256" not in ref
    near = _result(key, 1, _probe_output(False, 0.25 * (1 + 1e-9), 0.5 + 1e-12))
    assert jobs.mismatch(near, ref, tol) is None
    flipped = _result(key, 1, _probe_output(True, 0.25, 0.5))
    assert jobs.mismatch(flipped, ref, tol) == "withinTolerance differs"
    wrong = _result(key, 1, _probe_output(False, 0.25, 0.6))
    assert jobs.mismatch(wrong, ref, tol) == "matrix outside tolerance"


@pytest.mark.parametrize("n, index", [(1, 0), (5, 4), (10, 9), (11, 0),
                                      (12, 1), (30, 19), (1000, 989)])
def test_tail_index(n, index):
    assert stats.tail_index(n) == index


def test_tail_value_and_percentile():
    value, pct = stats.tail([float(i) for i in range(40, 0, -1)])
    assert value == 30.0 and pct == 75.0


def test_self_times_subtract_children_and_ratfunc_time():
    spans = [["cli.main", 0.0, 10.0, -1, 1.0],
             ["series.QYSeries.__mul__", 1.0, 4.0, 0, 2.0],
             ["series.QYSeries.invert", 5.0, 6.0, 0, 0.0]]
    assert run.self_times(spans) == [5.0, 1.0, 1.0]


def test_every_layer_metric_names_a_traced_span():
    spans = [f"{module}.{path}" for module, path in tracer.SPANNED]
    for prefixes in [*run.SELF_TIMES.values(), *run.CALLS.values()]:
        for prefix in prefixes:
            assert any(run.matches(name, [prefix]) for name in spans), prefix


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(grid.WORKLOADS)


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(base, [x * 1.02 for x in base], 0.1, "lower") == "within bound"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1, "lower") == "WORSE"
    assert compare.verdict(base, [x * 0.5 for x in base], 0.1, "lower") == "better"
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7]
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
