"""Reader for the `key = value` configuration files."""

from __future__ import annotations

from pathlib import Path
from typing import Callable


def read_key_values(path: str | Path, parsers: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """Parse each `key = value` line with its key's parser; blank and '#' lines
    are skipped and a repeated key keeps its last value.  A line without a
    key and '=', a key not in `parsers` or a value its parser rejects raises
    ValueError naming the file and line."""
    values: dict[str, object] = {}
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
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
