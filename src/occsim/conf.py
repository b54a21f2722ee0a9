"""Readers for text files: numbered lines, `key = value` configs and
`step,value` reference files."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np


def read_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number from 1, line) of each line of a text file that is not
    blank; bytes that are not UTF-8 raise ValueError naming the file."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]


def read_key_values(path: str | Path, parsers: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """Parse each `key = value` line with its key's parser; blank and '#' lines
    are skipped and a repeated key keeps its last value.  A line without a
    key and '=', a key not in `parsers` or a value its parser rejects raises
    ValueError naming the file and line."""
    values: dict[str, object] = {}
    for n, line in read_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise ValueError(f"{path}: line {n}: expected key = value")
        if key not in parsers:
            raise ValueError(f"{path}: line {n}: unknown key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {key}: {exc}") from None
    return values


def read_step_values(path: str | Path) -> np.ndarray:
    """Values of a `step,value` file: one line per step 0..95 in any order,
    blank lines skipped.  A wrong field count, a non-number, a step out of
    range, repeated or left out, or a non-finite or negative value raises
    ValueError naming the file and line; -0 reads as 0."""
    from .diary_ingest import N_STEPS  # diary_ingest imports this module

    values = np.full(N_STEPS, np.nan)  # nan: step not seen yet
    for n, line in read_lines(path):
        try:
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"expected step,value, got {len(fields)} fields")
            step, value = int(fields[0]), float(fields[1])
            if not 0 <= step < N_STEPS:
                raise ValueError(f"step {step} outside 0..{N_STEPS - 1}")
            if not np.isnan(values[step]):
                raise ValueError(f"duplicate step {step}")
            if not math.isfinite(value):
                raise ValueError(f"step {step} has non-finite value {value}")
            if value < 0:
                raise ValueError(f"step {step} has negative value {value}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        values[step] = abs(value)
    if np.isnan(values).any():
        raise ValueError(f"{path}: expected {N_STEPS} rows, got {int(np.sum(~np.isnan(values)))}")
    return values


def write_step_values(path: str | Path, values: np.ndarray) -> None:
    lines = [f"{i},{v:.12g}" for i, v in enumerate(np.asarray(values))]
    Path(path).write_text("\n".join(lines) + "\n")
