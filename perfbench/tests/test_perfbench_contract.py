"""BENCHMARK.json names exactly the metrics run.py prints."""

import json
from pathlib import Path

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
