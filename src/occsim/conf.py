"""Text files: `reading` (the one place that names a bad file and line),
`number_rows` and `key = value` configs on the read side; `number_text`
(the one place that prints a model number) and `write_lines` on the write
side; `OccsimError`, what every check outside the pipeline stages raises."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

import numpy as np


class OccsimError(ValueError):
    """Bad input or a failed check anywhere in occsim."""


class Lines:
    """The stripped lines of a text file that are neither blank nor '#'
    comments, `numbered` from 1.  Iterating marks each line's number as
    `at` until the lines run out."""

    def __init__(self, path: str | Path):
        lines = map(str.strip, Path(path).read_text().splitlines())
        self.numbered = [(n, line) for n, line in enumerate(lines, start=1) if line and line[0] != "#"]
        self.at: int | None = None

    def __iter__(self):
        for self.at, line in self.numbered:
            yield line
        self.at = None


@contextmanager
def reading(path: str | Path):
    """The `Lines` of a text file, for a block that parses them: a
    ValueError raised in the block (bytes that are not UTF-8 included)
    leaves it as `OccsimError("<path>: line N: <reason>")` while a line is
    being parsed, else as `OccsimError("<path>: <reason>")`."""
    lines = None
    try:
        lines = Lines(path)
        yield lines
    except ValueError as exc:
        where = "" if lines is None or lines.at is None else f"line {lines.at}: "
        raise OccsimError(f"{path}: {where}{exc}") from None


def key_values(lines: Lines, parsers: dict[str, Callable[[str], object]]) -> dict[str, object]:
    """Each `key = value` line parsed by its key's parser, a repeated key
    keeping its last value; a bad line, key or value raises ValueError."""
    values: dict[str, object] = {}
    for line in lines:
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise ValueError("expected key = value")
        if key not in parsers:
            raise ValueError(f"unknown key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return values


def number_rows(lines: Lines, numbered: list[tuple[int, str]], width: int) -> np.ndarray:
    """The (len(numbered), width) floats of `numbered`, lines of `lines` that
    each hold `width` comma-separated numbers, parsed and counted in one pass.
    When a line fails that pass, Python's float reads them again a line at a
    time: the first line that is not `width` numbers raises ValueError with
    `lines.at` on it, else the loop's values are returned.  A number the one
    pass reads, Python's float reads alike."""
    if numbered:
        try:
            values = np.loadtxt([line for _, line in numbered], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is not None and values.shape == (len(numbered), width):
            return values
    at, rows = lines.at, []
    for lines.at, line in numbered:
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"expected {width} values, got {len(fields)}")
        rows.append(list(map(float, fields)))
    lines.at = at
    return np.array(rows).reshape(-1, width)


def number_text(values) -> list:
    """The `.12g` text of every entry of a float array, as nested lists of its
    shape.  Each distinct value is formatted once; values are told apart by
    their bits, so -0.0 prints as "-0", not as "0"."""
    values = np.ascontiguousarray(values, np.float64)
    # return_inverse: np.unique without a return_* flag imports numpy.ma
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([f"{v:.12g}" for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse.reshape(values.shape)].tolist()


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write `lines` to a text file, each ending in LF."""
    Path(path).write_text("\n".join([*lines, ""]), newline="\n")

