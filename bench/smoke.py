"""Smoke test of the benchmark: every workload at a tiny size, timed and traced.

    python3 -m pytest bench/smoke.py -q

Checks that each run reports every metric BENCHMARK.json names, with its
unit, that the correctness gate passes, and that the traced run records
spans in every layer the workload exercises (all seven between them).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from tracer import LAYERS

MANIFEST = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

TINY = {
    "paper": {"runs": 1, "slots": 3},
    "relay": {"n": 12, "runs": 1, "slots": 5},
    "audit": {"slots": 20, "feasible_samples": 8, "verify_calls": 1,
              "verify_args": ("--eps-samples", "4", "--direction-samples", "2")},
}


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in MANIFEST[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_reports_end_to_end_metrics(name):
    out = run.measure(name, seed=1, seconds=0, trace=False, size=TINY[name])
    res = out["result"]
    assert out["problems"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _expected("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert out["stamp"]["seed"] == 1 and out["stamp"]["threads"]["BPSIM_THREADS"] == "1"


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_per_layer_metrics_and_spans(name):
    out = run.measure(name, seed=1, seconds=0, trace=True, size=TINY[name])
    res = out["result"]
    assert out["problems"] == []
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _expected("per_layer")
    from workloads import WORKLOADS
    assert set(WORKLOADS[name].layers) <= out["tracer"].layers()


def test_workloads_cover_every_layer():
    run.import_bpsim()
    from workloads import WORKLOADS
    assert set(WORKLOADS) == {w["name"] for w in MANIFEST["workloads"]}
    assert {layer for w in WORKLOADS.values() for layer in w.layers} == set(LAYERS)
