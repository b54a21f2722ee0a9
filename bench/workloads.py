"""Benchmark workloads: each one is a synth input tree plus project settings.

A workload seed feeds `occsim.synth.write_input_tree`, which plants the
diary corpus and becomes the pipeline's `base_seed`, so the same seed gives
byte-identical inputs.  Every workload uses the synth code map, bundle and
reference tree, and pins `k_range = 4:4` so that the four household cluster
shares always match the trained model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    diaries_per_day_type: int
    n_households: int
    n_days: int
    approach: int
    # None leaves the project.conf key out, so the ProjectConfig default applies
    repeats: int | None
    silhouette_sample: int | None
    vacation: tuple[int, int] | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "year_sim",
            "12 household-years with approach 3: simulate is ~85% of run_s, exercising the "
            "chain walker and schedule writer while bypassing clustering and ingest cost",
            diaries_per_day_type=400,
            n_households=12,
            n_days=365,
            approach=3,
            repeats=3,
            silhouette_sample=768,
        ),
        Workload(
            "corpus_fit",
            "1500 diaries per day type with default repeats and full silhouette: ingest, "
            "cluster and validate dominate while simulate is ~1%",
            diaries_per_day_type=1500,
            n_households=2,
            n_days=28,
            approach=3,
            repeats=None,
            silhouette_sample=None,
        ),
        Workload(
            "short_stays",
            "96 households x 28 days with approach 1 and a vacation: per-household overhead, "
            "event placement failures and the vacation path, unlike year_sim",
            diaries_per_day_type=400,
            n_households=96,
            n_days=28,
            approach=1,
            repeats=3,
            silhouette_sample=768,
            vacation=(10, 17),
        ),
    )
}


def project_lines(w: Workload, seed: int) -> list[str]:
    """The project.conf for a workload; `out` is set per run by the worker."""
    lines = [
        "diaries = diaries.csv",
        "code_map = code_map.csv",
        "bundle = bundle",
        "reference = reference",
        "household = household.conf",
        "out = out",
        f"base_seed = {seed}",
        f"n_households = {w.n_households}",
        f"n_days = {w.n_days}",
        "start_weekday = monday",
        f"approach = {w.approach}",
        "k_range = 4:4",
        "epsilon = 0.01",
    ]
    if w.repeats is not None:
        lines.append(f"repeats = {w.repeats}")
    if w.silhouette_sample is not None:
        lines.append(f"silhouette_sample = {w.silhouette_sample}")
    return lines


def make_tree(directory: Path, workload: Workload, seed: int) -> Path:
    """Write the workload's input tree under `directory`; returns project.conf."""
    from occsim.synth import write_input_tree

    layout = write_input_tree(
        directory,
        n_per_day_type=workload.diaries_per_day_type,
        base_seed=seed,
        n_households=workload.n_households,
        n_days=workload.n_days,
    )
    layout.project.write_text("\n".join(project_lines(workload, seed)) + "\n")
    if workload.vacation is not None:
        lo, hi = workload.vacation
        with layout.household.open("a") as fh:
            fh.write(f"vacation = {lo},{hi}\n")
    return layout.project


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
