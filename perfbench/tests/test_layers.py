"""BENCHMARK.json lists exactly the metrics the benchmark reports."""

import json
from pathlib import Path

import layers
import run

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_layers_module():
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    want = {name: (unit, layers.better(name)) for name, unit in layers.metric_units().items()}
    assert listed == want


def test_end_to_end_metrics_match_runner():
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert listed == run.END_TO_END_UNITS


def test_workloads_match_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_every_layer_is_mapped():
    assert set(layers.LAYERS) == set(layers.MODULES)
    for span in layers.SPANS:
        assert span.split(".", 1)[0] in layers.MODULES
