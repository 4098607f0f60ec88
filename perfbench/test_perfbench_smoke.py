"""The benchmark's own tier-1 test: tiny sizes, digests against the oracle."""

import json
from pathlib import Path

import run
import smoke
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_answers_match_reference_and_oracle():
    assert smoke.smoke(ROOT) == []


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.per_layer_names()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.STREAMS)
