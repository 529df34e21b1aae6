"""Smoke test of the layer harness ``bench/layers.py``: one small run without
the subprocess tier.  It checks the report's shape, not its timings."""

import importlib.util
import json
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
STATS = {"size", "n", "median_s", "q1_s", "q3_s"}


def test_small_run_times_every_layer():
    spec = importlib.util.spec_from_file_location("_layers", HARNESS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    report = json.loads(json.dumps(layers.collect("smoke", small=True)))
    assert set(report) == {"tag", "commit", "runs", "small", "machine",
                           "layers", "scaling", "commands"}
    assert report["tag"] == "smoke" and report["runs"] == 1 and report["small"]
    assert {"nproc", "python", "cpu", "calibration_s"} <= set(report["machine"])
    assert set(report["layers"]) == {
        "characters._reduced", "characters._product",
        "qseries.ZPiSeries.__mul__", "characters.find_flow_matches",
        "jacobi.eval_character_value", "certificate.jacobi_holds",
        "certificate.realization_kernel",
        "superalgebra.super_jacobi_check.refused",
        "superalgebra.realization_bracket_check.refused"}
    assert set(report["scaling"]) == {"characters.character",
                                      "qseries.QSeries.__mul__"}
    entries = list(report["layers"].values())
    for tiers in report["scaling"].values():
        assert list(tiers) == ["1x", "4x", "16x"]
        entries += tiers.values()
    for entry in entries:
        assert set(entry) == STATS and entry["n"] == 1
    assert report["commands"] == {}
    # the subprocess tier reads the README commands
    assert "superjacobi jacobi-identity --max 6" in layers.readme_commands()
