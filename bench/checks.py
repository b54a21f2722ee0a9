"""Output check for one pipeline run's artifact directory."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from occsim.diary_ingest import STATE_TOKENS, N_STEPS, read_sequences
from occsim.schedule_io import read_schedule_file

_HOUSEHOLD_LINE = re.compile(r"^simulate: household (\d+) \((\d+) occupants\)", re.M)
_FAILURE_LINE = re.compile(r"^simulate: household \d+: (\d+) placement failures", re.M)


def placement_failures(log: str) -> int:
    """Approach-1 placement failures the simulate stage reported in its log."""
    return sum(int(m) for m in _FAILURE_LINE.findall(log))


def occupants(log: str) -> dict[int, int]:
    """Occupant count per household, from the simulate stage's log."""
    return {int(h): int(n) for h, n in _HOUSEHOLD_LINE.findall(log)}


def expected_artifacts(n_households: int) -> set[str]:
    names = {
        "sequences.csv",
        "model.wd.clusters",
        "model.we.clusters",
        "tpms",
        "occupant_days.csv",
        "validation_report.wd.csv",
        "validation_report.we.csv",
    }
    return names | {f"household_{h}.csv" for h in range(n_households)}


def check_outputs(out: Path, n_households: int, n_days: int, log: str) -> list[str]:
    """Every problem found with a finished run's artifacts; empty when all is well."""
    problems = []
    if (out / ".partial").exists():
        problems.append(".partial marker left behind")
    present = {p.name for p in out.iterdir()} - {".partial"}
    expected = expected_artifacts(n_households)
    if present != expected:
        problems.append(
            f"artifact set differs: missing {sorted(expected - present)}, extra {sorted(present - expected)}"
        )
        return problems
    if not any((out / "tpms").glob("*.tpm")):
        problems.append("tpms/ holds no .tpm files")

    for h in range(n_households):
        sched = read_schedule_file(out / f"household_{h}.csv")
        data = np.column_stack(list(sched.columns.values()))
        if data.shape[0] != n_days * N_STEPS:
            problems.append(f"household_{h}.csv has {data.shape[0]} rows, expected {n_days * N_STEPS}")
        if not np.all((data >= 0.0) & (data <= 1.0)):
            problems.append(f"household_{h}.csv has values outside [0, 1]")

    per_household = occupants(log)
    if sorted(per_household) != list(range(n_households)):
        problems.append(f"log reports households {sorted(per_household)}, expected 0..{n_households - 1}")
    n_occupants = sum(per_household.values())
    rows = len(read_sequences(out / "occupant_days.csv"))
    if rows != n_occupants * n_days:
        problems.append(f"occupant_days.csv has {rows} rows, expected {n_occupants} occupants x {n_days} days")

    activities = set(STATE_TOKENS.values())
    for dt in ("wd", "we"):
        lines = (out / f"validation_report.{dt}.csv").read_text().splitlines()[1:]
        listed = {line.split(",")[1] for line in lines if line}
        if listed != activities:
            problems.append(f"validation_report.{dt}.csv lists {sorted(listed)}, expected all 7 activities")
    return problems
