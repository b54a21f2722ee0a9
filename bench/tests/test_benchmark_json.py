import json
from pathlib import Path

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_match_definitions():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def test_end_to_end_metrics_match_what_trace_0_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_METRICS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match_what_trace_1_prints():
    printed = {name: "s" for name in (*run.SELF_TIME_METRICS, *run.STAGE_TOTAL_METRICS)}
    printed.update((name, "count") for name in run.COUNT_METRICS)
    printed.update(run.DERIVED_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == printed
