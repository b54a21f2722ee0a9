"""Span tracer that wraps occsim's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent) in memory; the
worker writes the list out once the run ends.  Names are patched where their
caller looks them up (`from .x import f` binds `f` in the caller's module), so
one function can need patching in several modules.  A name that no longer
exists is skipped here and shows up later as a missing span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path


def _rows(counts, args, kwargs, result):
    counts["diary_ingest.parse_rows"] += len(result.diaries)


def _cells(counts, args, kwargs, result):
    counts["clustering.pairwise_calls"] += 1
    counts["clustering.pairwise_cells"] += result.shape[0] * result.shape[1]


def _kmodes(counts, args, kwargs, result):
    counts["clustering.kmodes_calls"] += 1


def _occupant_year(counts, args, kwargs, result):
    days, failures = result
    counts["occupant_sim.occupant_days"] += len(days)
    counts["occupant_sim.placement_failures"] += failures


def _events(counts, args, kwargs, result):
    counts["household.events"] += len(result.appliance_events) + len(result.water_events)


def _bytes(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["schedule_io.bytes_written"] += Path(path).stat().st_size


# (module where the name is looked up, attribute, span name, counter)
PATCHES: tuple[tuple[str, str, str, object], ...] = (
    ("pipeline", "ingest_stage", "pipeline.ingest", None),
    ("pipeline", "cluster_stage", "pipeline.cluster", None),
    ("pipeline", "train_stage", "pipeline.train", None),
    ("pipeline", "simulate_stage", "pipeline.simulate", None),
    ("pipeline", "validate_stage", "pipeline.validate", None),
    ("diary_ingest", "parse_diaries", "diary_ingest.parse", _rows),
    ("diary_ingest", "resample_to_sequence", "diary_ingest.resample", None),
    ("diary_ingest", "read_sequences", "diary_ingest.read_sequences", None),
    ("pipeline", "write_sequences", "diary_ingest.write_sequences", None),
    ("pipeline", "select_k", "clustering.select_k", None),
    ("clustering", "pairwise_distances", "clustering.pairwise", _cells),
    ("clustering", "kmodes", "clustering.kmodes", _kmodes),
    ("clustering", "silhouette", "clustering.silhouette", None),
    ("pipeline", "assign_cluster", "clustering.assign", None),
    ("pipeline", "train_cluster_day_model", "markov_train.train", None),
    ("pipeline", "save_model_dir", "markov_train.save_model", None),
    ("pipeline", "load_model_dir", "markov_train.load_model", None),
    ("markov_train", "estimate_statistics", "markov_train.statistics", None),
    ("validate", "estimate_statistics", "markov_train.statistics", None),
    ("household", "simulate_year", "occupant_sim.simulate_year", _occupant_year),
    ("pipeline", "build_household", "household.build", _events),
    ("household", "merge_shared_events", "household.merge", None),
    ("household", "attach_appliance_events", "household.appliance", None),
    ("household", "attach_hygiene_water", "household.hygiene", None),
    ("household", "generate_sink_events", "household.sink", None),
    ("schedule_io", "modulate_schedule", "household.modulate", None),
    ("pipeline", "assemble_schedule", "schedule_io.assemble", None),
    ("schedule_io", "rasterize_events", "schedule_io.rasterize", None),
    ("pipeline", "write_schedule_file", "schedule_io.write", _bytes),
    ("pipeline", "compare_behavior", "validate.compare", None),
    ("validate", "occurrence_chi2_p", "validate.chi2", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in PATCHES))


class Tracer:
    """Collects spans and counts from wrapped calls on one thread."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "occsim") -> list[str]:
        """Patch every name in PATCHES; returns the `module.attr` names not found."""
        missing = []
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, count))
        return missing


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [end - start - _covered(children[i]) for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += self_ns / 1e9
    return out
