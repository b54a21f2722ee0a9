"""occsim benchmark: end-to-end and per-layer metrics on synth workloads.

    python3 bench/run.py --workload year_sim --seed 1 --seconds 30 --trace 0

Builds the workload's input tree from the seed, then runs the pipeline in
fresh worker processes, one `run_pipeline` call each, for about `--seconds`
seconds.  With `--trace 0` the runs are untraced and give the end-to-end
metrics; with `--trace 1` one untraced run is followed by traced runs that
give per-layer self times and work counts.  Every run's artifacts are
checked.  Metrics are printed by name with their unit, full results go to
`.bench_run/results/`, and the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summary import describe
from tracer import SPAN_NAMES, summarize
from workloads import WORKLOADS, make_tree, tree_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

MIN_UNTRACED_RUNS = 3
MIN_TRACED_RUNS = 2
EXTRA_SETUP_SAMPLES = 1
WORKER_DEADLINE_S = 170.0

# per-layer self-time metrics and the span each one reads
SELF_TIME_METRICS = {
    "pipeline.ingest_s": "pipeline.ingest",
    "pipeline.cluster_s": "pipeline.cluster",
    "pipeline.train_s": "pipeline.train",
    "pipeline.simulate_s": "pipeline.simulate",
    "pipeline.validate_s": "pipeline.validate",
    "diary_ingest.parse_s": "diary_ingest.parse",
    "diary_ingest.resample_s": "diary_ingest.resample",
    "diary_ingest.read_sequences_s": "diary_ingest.read_sequences",
    "diary_ingest.write_sequences_s": "diary_ingest.write_sequences",
    "clustering.select_k_s": "clustering.select_k",
    "clustering.pairwise_s": "clustering.pairwise",
    "clustering.kmodes_s": "clustering.kmodes",
    "clustering.silhouette_s": "clustering.silhouette",
    "clustering.assign_s": "clustering.assign",
    "markov_train.train_s": "markov_train.train",
    "markov_train.save_model_s": "markov_train.save_model",
    "markov_train.load_model_s": "markov_train.load_model",
    "markov_train.statistics_s": "markov_train.statistics",
    "occupant_sim.simulate_year_s": "occupant_sim.simulate_year",
    "household.build_s": "household.build",
    "household.merge_s": "household.merge",
    "household.appliance_s": "household.appliance",
    "household.hygiene_s": "household.hygiene",
    "household.sink_s": "household.sink",
    "household.modulate_s": "household.modulate",
    "schedule_io.assemble_s": "schedule_io.assemble",
    "schedule_io.rasterize_s": "schedule_io.rasterize",
    "schedule_io.write_s": "schedule_io.write",
    "validate.compare_s": "validate.compare",
    "validate.chi2_s": "validate.chi2",
}
# whole-stage wall time, child spans included
STAGE_TOTAL_METRICS = tuple(f"pipeline.{stage}_total_s" for stage in ("ingest", "cluster", "train", "simulate", "validate"))
COUNT_METRICS = (
    "diary_ingest.parse_rows",
    "clustering.pairwise_calls",
    "clustering.pairwise_cells",
    "clustering.kmodes_calls",
    "occupant_sim.occupant_days",
    "occupant_sim.placement_failures",
    "household.events",
    "schedule_io.bytes_written",
)
# metric -> unit, for metrics computed from the ones above or outside the trace
DERIVED_METRICS = {
    "occupant_sim.us_per_occupant_day": "us",
    "schedule_io.write_mb_per_s": "MB/s",
    "setup.import_scipy_s": "s",
    "setup.import_occsim_s": "s",
    "trace.overhead_s": "s",
}
END_TO_END_METRICS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a host-speed diagnostic, never a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def machine_facts() -> dict:
    import importlib.metadata

    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        }
        or "unset (library default)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        facts["cpu_model"] = None
    return facts


class Runner:
    """Starts worker processes one at a time, within the run's deadline."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.n = 0

    def worker(self, *args: str) -> dict | None:
        self.n += 1
        result = self.work / f"worker_{self.n}.json"
        timeout = max(5.0, WORKER_DEADLINE_S - (time.monotonic() - self.started))
        cmd = [sys.executable, str(HERE / "worker.py"), str(time.monotonic_ns()), str(result), *args]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(proc.stderr[-2000:])
            return None
        return json.loads(result.read_text())

    def importtime(self) -> tuple[float, float]:
        """(scipy, occsim) import seconds from `python -X importtime`."""
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import occsim.cli"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code], capture_output=True, text=True, timeout=60
        )
        return import_seconds(proc.stderr, "scipy"), import_seconds(proc.stderr, "occsim")


def import_seconds(importtime_log: str, package: str) -> float:
    """Cumulative import time of the outermost imports of `package` and its submodules.

    `-X importtime` prints each module after the modules it imported, indented
    by nesting depth, so a stack of pending subtrees finds the outermost ones.
    """
    pending: list[tuple[int, float]] = []  # (depth, package seconds in that subtree)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        module = name.strip()
        inner = 0.0
        while pending and pending[-1][0] > depth:
            inner += pending.pop()[1]
        ours = module == package or module.startswith(package + ".")
        pending.append((depth, int(cumulative) / 1e6 if ours else inner))
    return sum(s for _, s in pending)


def run_checked(runner: Runner, conf: Path, workload, rep: int, trace: bool, full_check: bool) -> dict:
    """One pipeline run plus its output check; `problems` lists what went wrong."""
    # checks imports occsim, which main() has put on sys.path only after finding it
    from checks import check_outputs, occupants, placement_failures

    out = runner.work / f"out_{rep}{'_traced' if trace else ''}"
    res = runner.worker(str(conf), str(out), "1" if trace else "0")
    if res is None:
        return {"problems": ["worker crashed or timed out"]}
    problems = []
    if not res["occsim_file"].startswith(str(SRC)):
        problems.append(f"imported occsim from {res['occsim_file']}, not {SRC}")
    if res["rc"] != 0:
        problems.append(f"run_pipeline returned {res['rc']}: {res['error']}")
    elif full_check:
        problems += check_outputs(out, workload.n_households, workload.n_days, res["log"])
    elif (out / ".partial").exists():
        problems.append(".partial marker left behind")
    if out.exists():
        res["digest"] = tree_digest(out)
        shutil.rmtree(out)
    res["placement_failures_log"] = placement_failures(res.get("log", ""))
    res["occupants"] = sum(occupants(res.get("log", "")).values())
    res["problems"] = problems
    return res


def keep_going(started: float, seconds: float, durations: list[float], n: int, minimum: int) -> bool:
    """Start another run while the budget still covers a typical run's length."""
    if n < minimum:
        return True
    return time.monotonic() - started + statistics.median(durations) <= seconds


def measure_untraced(runner, conf, workload, seconds) -> tuple[list[dict], list[float]]:
    started = time.monotonic()
    probes = [runner.worker() for _ in range(EXTRA_SETUP_SAMPLES)]
    setups = [p["setup_s"] for p in probes if p is not None]
    runs, durations = [], []
    while keep_going(started, seconds, durations, len(runs), MIN_UNTRACED_RUNS):
        t0 = time.monotonic()
        res = run_checked(runner, conf, workload, len(runs), False, full_check=not runs)
        runs.append(res)
        if "setup_s" in res:
            setups.append(res["setup_s"])
        durations.append(time.monotonic() - t0)
        if res["problems"] and "rc" not in res:
            break
    return runs, setups


def measure_traced(runner, conf, workload, seconds) -> tuple[dict, list[dict], tuple[float, float]]:
    started = time.monotonic()
    untraced = run_checked(runner, conf, workload, 0, False, full_check=True)
    durations = [time.monotonic() - started]
    # after the first run, so that bytecode compilation stays out of the import times
    imports = runner.importtime()
    traced = []
    while keep_going(started, seconds, durations, len(traced), MIN_TRACED_RUNS):
        t0 = time.monotonic()
        traced.append(run_checked(runner, conf, workload, len(traced), True, full_check=False))
        durations.append(time.monotonic() - t0)
        if "rc" not in traced[-1]:
            break
    return untraced, traced, imports


def layer_metrics(untraced: dict, traced: list[dict], imports) -> tuple[dict, list[str], list[dict]]:
    """Per-layer metrics (medians over traced runs) and tracer self-check problems."""
    problems = []
    summaries = [summarize(r["spans"]) for r in traced]
    for r in traced:
        if r.get("missing_patches"):
            problems.append(f"tracer could not patch {r['missing_patches']}")
    for name in SPAN_NAMES:
        if any(s.get(name, {}).get("calls", 0) == 0 for s in summaries):
            problems.append(f"span {name} was never recorded")
    counts = [{k: r["counts"].get(k, 0) for k in COUNT_METRICS} for r in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"counts differ between traced runs: {counts}")
    for r in traced:
        if r["counts"].get("occupant_sim.placement_failures", 0) != r["placement_failures_log"]:
            problems.append("placement failures in the trace disagree with the simulate log")

    med = statistics.median
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = (med([s.get(span, {}).get("self_s", 0.0) for s in summaries]), "s")
    for metric in STAGE_TOTAL_METRICS:
        span = SELF_TIME_METRICS[metric.replace("_total_s", "_s")]
        metrics[metric] = (med([s.get(span, {}).get("total_s", 0.0) for s in summaries]), "s")
    for metric in COUNT_METRICS:
        metrics[metric] = (counts[0][metric], "count")
    sim_s = metrics["occupant_sim.simulate_year_s"][0]
    write_s = metrics["schedule_io.write_s"][0]
    derived = {
        "occupant_sim.us_per_occupant_day": sim_s * 1e6 / max(1, counts[0]["occupant_sim.occupant_days"]),
        "schedule_io.write_mb_per_s": counts[0]["schedule_io.bytes_written"] / 1e6 / write_s if write_s else 0.0,
        "setup.import_scipy_s": imports[0],
        "setup.import_occsim_s": imports[1],
        "trace.overhead_s": med([r["run_s"] for r in traced]) - untraced["run_s"],
    }
    metrics.update((k, (v, DERIVED_METRICS[k])) for k, v in derived.items())
    return metrics, problems, summaries


def placement_failure_problems(workload, runs: list[dict]) -> list[str]:
    """Approach 1 must report placement failures; the other approaches never do."""
    seen = {r["placement_failures_log"] for r in runs if "rc" in r}
    if len(seen) > 1:
        return [f"placement failures vary between runs: {sorted(seen)}"]
    if seen and (workload.approach == 1) != (seen.pop() > 0):
        return [f"placement failures {sorted(seen)} unexpected for approach {workload.approach}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "occsim" / "__init__.py").is_file():
        return fail(f"no occsim sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calib = [calibration_s()]
    t0 = time.monotonic()
    conf = make_tree(work / "input", workload, args.seed)
    generate_s = time.monotonic() - t0
    runner = Runner(work, started)

    report: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "generate_s": generate_s,
    }
    problems: list[str] = []
    if args.trace == 0:
        runs, setups = measure_untraced(runner, conf, workload, args.seconds)
        ok_runs = [r for r in runs if not r["problems"]]
        metrics = {}
        if ok_runs and setups:
            run_s = describe([r["run_s"] for r in ok_runs])
            report["run_s"] = run_s
            report["setup_s"] = describe(setups)
            values = {
                "run_s": run_s["median"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_runs),
            }
            metrics = {k: (v, END_TO_END_METRICS[k]) for k, v in values.items()}
    else:
        untraced, traced, imports = measure_traced(runner, conf, workload, args.seconds)
        runs = [untraced, *traced]
        metrics = {}
        if all("rc" in r for r in runs):
            metrics, trace_problems, summaries = layer_metrics(untraced, traced, imports)
            problems += trace_problems
            report["spans_by_run"] = [
                {"trace_id": r["trace_id"], "summary": s} for r, s in zip(traced, summaries)
            ]
            report["spans_first_run"] = traced[0]["spans"]

    digests = {r.get("digest") for r in runs}
    if len(digests) != 1 or None in digests:
        problems.append(f"artifact digests differ between runs: {sorted(map(str, digests))}")
    problems += placement_failure_problems(workload, runs)
    failed = sum(1 for r in runs if r["problems"])
    for i, r in enumerate(runs):
        problems += [f"run {i}: {p}" for p in r["problems"]]
    calib.append(calibration_s())
    correct = not problems and bool(metrics)

    report.update(
        runs=[{k: v for k, v in r.items() if k not in ("spans", "log")} for r in runs],
        digest=sorted(map(str, digests))[0],
        error_rate=failed / len(runs),
        calibration_s=calib,
        problems=problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        wall_s=time.monotonic() - started,
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1))
    shutil.rmtree(work)

    for p in problems:
        print(f"problem: {p}")
    print(f"workload {workload.name} seed {args.seed}: {len(runs)} runs, digest {report['digest'][:16]}")
    if "run_s" in report:
        tail = report["run_s"].get("tail_percentile")
        print(
            f"run_s samples: {report['run_s']['n']}; tail percentile: "
            + (f"p{tail:g} = {report['run_s']['tail']:.4f} s" if tail else "none (needs >= 20 samples)")
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {report['error_rate']:.6g} fraction")
    print(f"calibration_s = {calib[0]:.4f} .. {calib[1]:.4f} s (diagnostic)")
    print(f"results -> {result_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
