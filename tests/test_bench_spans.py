"""A traced benchmark run still patches every function, records every span
and counts what the run made.

The benchmark reports a run that leaves a span unrecorded as `correct: false`;
this test catches a change that stops calling a traced function, or moves
one away from where the tracer looks it up, in the tier-1 suite instead.
The counters read the traced functions' results, so a change to what one
returns shows here as a count that no longer matches the run's files.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

from occsim.synth import write_input_tree

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _span_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPAN_NAMES


def test_traced_worker_records_every_span(tmp_path):
    layout = write_input_tree(tmp_path / "tree", n_per_day_type=150, base_seed=101, n_households=2, n_days=6)
    result = tmp_path / "result.json"
    argv = [str(time.monotonic_ns()), str(result), str(layout.project), str(tmp_path / "out"), "1"]
    subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv], check=True, timeout=300)
    run = json.loads(result.read_text())
    assert (run["rc"], run["error"]) == (0, None)
    assert run["missing_patches"] == []
    assert {span[0] for span in run["spans"]} == set(_span_names())
    out = tmp_path / "out"
    with (out / "occupant_days.csv").open() as fh:
        occupant_days = sum(1 for line in fh) - 1  # after the header
    schedule_bytes = sum(path.stat().st_size for path in out.glob("household_*.csv"))
    counts = run["counts"]
    assert counts["diary_ingest.parse_rows"] == 2 * 150
    assert counts["occupant_sim.occupant_days"] == occupant_days
    assert counts["schedule_io.bytes_written"] == schedule_bytes
