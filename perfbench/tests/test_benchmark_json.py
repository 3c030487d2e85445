"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
from pathlib import Path

import run
import tracing

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_per_layer_names_and_units_match_the_traced_run():
    printed = {name: unit for name, (_, unit) in tracing.layer_metrics([], 1, False).items()}
    printed.update({name: unit for name, (_, unit) in run.parse_importtime_metrics("").items()})
    printed.update({"bloch.decompose_cold_ms": "ms", "bloch.decompose_peak_mb": "MB",
                    "trace.overhead_pct": "%"})
    assert printed == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_workloads_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2145 |     163846 |       numpy",
        "import time:      1141 |     641710 |         scipy.optimize",
        "import time:      1086 |     846814 |   cycshift",
        "import time:      5581 |     857915 | cycshift.cli",
    ])
    metrics = run.parse_importtime_metrics(stderr)
    assert metrics["import.total_ms"] == (857.915, "ms")
    assert metrics["import.scipy_optimize_ms"] == (641.71, "ms")
    assert metrics["import.numpy_ms"] == (163.846, "ms")
