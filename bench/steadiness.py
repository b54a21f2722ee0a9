"""Run every workload on several seeds and report each end-to-end metric's spread.

    python3 bench/steadiness.py --seeds 101-110 --seconds 30

Workloads are interleaved within each seed so that a drift in host speed
spreads over all of them.  For each workload and metric it prints the median
of the per-seed values and the quartile spread (Q3 - Q1) / median, next to
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()), flush=True)
            for k, m in result["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, metrics in values.items():
        for k, xs in metrics.items():
            if len(xs) >= 2:
                print(f"{w:12s} {k:12s} n={len(xs)} median={statistics.median(xs):.4f} "
                      f"spread={quartile_spread(xs):.4f} bound={bounds[k]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
