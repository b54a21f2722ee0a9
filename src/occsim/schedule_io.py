"""Normalized schedule assembly and serialization.

A household-year is one float64 matrix with a row per SCHEDULE_COLUMNS
entry and a column per 15-minute step.  Events are rasterized onto the grid
by proportional minute overlap (each step accumulates overlap-minutes times
event magnitude), so channel totals equal the event sums exactly up to
rounding.  Rows are then normalized by their own annual maximum; the
occupants row is a fraction already and passes through unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .conf import OccsimError, number_rows, number_text, reading, write_lines
from .diary_ingest import DAY_TYPES, N_STEPS, ActivityState
from .distributions import EmpiricalDistribution
from .household import EVENT_COLUMNS, HouseholdResult, modulate_schedule
from .occupant_sim import SimCalendar

MODULATED_END_USES = ("lighting", "plug_loads", "ceiling_fan")
SCHEDULE_COLUMNS = ("occupants",) + MODULATED_END_USES + EVENT_COLUMNS

REQUIRED_BUNDLE = (
    "shower.duration",
    "shower.flow",
    "bath.duration",
    "bath.flow",
    "sink.onset",
    "sink.count",
    "sink.duration",
    "sink.flow",
    "cooking_range.power.duration",
    "cooking_range.power.level",
    "dishwasher.power.duration",
    "dishwasher.power.level",
    "dishwasher.water.duration",
    "dishwasher.water.flow",
    "clothes_washer.power.duration",
    "clothes_washer.power.level",
    "clothes_washer.water.duration",
    "clothes_washer.water.flow",
    "clothes_dryer.power.duration",
    "clothes_dryer.power.level",
)


@dataclass
class HouseholdScheduleYear:
    """Normalized year of 15-minute schedule values: `values` has one row per
    SCHEDULE_COLUMNS entry, in that order, and one column per step; `peaks`
    maps every column but occupants to the maximum it was divided by."""

    values: np.ndarray
    peaks: dict[str, float]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        shape = self.values.shape
        if len(shape) != 2 or shape[0] != len(SCHEDULE_COLUMNS) or shape[1] % N_STEPS or not shape[1]:
            raise OccsimError(f"schedule needs {len(SCHEDULE_COLUMNS)} columns over whole days, got {shape}")

    @property
    def columns(self) -> MappingProxyType:
        """Read-only {column name: row of `values`} view."""
        return MappingProxyType(dict(zip(SCHEDULE_COLUMNS, self.values)))


def rasterize_events(
    appliance_events: np.ndarray, water_events: np.ndarray, n_days: int
) -> np.ndarray:
    """Rasterize EVENT rows to raw per-step series (magnitude-minutes): an
    (len(EVENT_COLUMNS), n_days * 96) array, one row per event column.

    A row covers [start, start + duration) clipped to the horizon, and each
    step it touches gains overlap-minutes times magnitude.  `bincount` adds
    a cell's terms in row order, appliance rows first, so every sum is the
    one a loop over the rows would give, bit for bit.
    """
    n_steps = n_days * N_STEPS
    events = np.concatenate([appliance_events, water_events])
    start = np.maximum(events["start"], 0.0)
    end = np.minimum(events["start"] + events["duration"], n_steps * 15.0)
    first = (start // 15).astype(np.int64)
    last = np.minimum(np.ceil(end / 15).astype(np.int64) - 1, n_steps - 1)
    counts = np.where(end > start, np.maximum(last - first + 1, 0), 0)
    row = np.repeat(np.arange(len(events)), counts)
    step = first[row] + np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    overlap = np.minimum(end[row], (step + 1) * 15.0) - np.maximum(start[row], step * 15.0)
    cells = events["column"][row].astype(np.int64) * n_steps + step
    raw = np.bincount(cells, overlap * events["magnitude"][row], minlength=len(EVENT_COLUMNS) * n_steps)
    return raw.reshape(len(EVENT_COLUMNS), n_steps)


def assemble_schedule(
    result: HouseholdResult,
    reference: np.ndarray,
    calendar: SimCalendar,
    *,
    modulation: str,
) -> HouseholdScheduleYear:
    """The occupancy fraction, the modulated end uses and the rasterized
    events as one schedule, every row but occupants divided by its annual
    maximum when that is positive.

    The occupants row is the fraction of occupants not Away at each step.
    The end uses are modulated by that fraction, or under `modulation`
    "active" by the fraction neither Away nor asleep.  `reference` is the
    `load_reference_dir` array; each day takes its day type's reference day.
    """
    if modulation not in ("present", "active"):
        raise OccsimError(f"unknown modulation {modulation!r}")
    states = result.states
    present = (states != int(ActivityState.AWAY)).sum(axis=0) / len(states)
    if modulation == "active":
        frac = (states >= int(ActivityState.HOME_ACTIVE)).sum(axis=0) / len(states)
    else:
        frac = present
    n_uses, n_steps = len(MODULATED_END_USES), calendar.n_days * N_STEPS
    days = [DAY_TYPES.index(day_type) for day_type in calendar.day_types]
    values = np.empty((len(SCHEDULE_COLUMNS), n_steps))
    values[0] = present
    values[1 : 1 + n_uses] = modulate_schedule(reference[:, days].reshape(n_uses, n_steps), frac)
    values[1 + n_uses :] = rasterize_events(result.appliance_events, result.water_events, calendar.n_days)
    rows = values[1:]
    peaks = rows.max(axis=1)
    rows /= np.where(peaks > 0, peaks, 1.0)[:, None]  # x / 1.0 is x, bit for bit
    return HouseholdScheduleYear(values, dict(zip(SCHEDULE_COLUMNS[1:], peaks.tolist())))


_ROW_TEMPLATE = ",".join(["%.6f"] * len(SCHEDULE_COLUMNS))
# Each block temporary is 1024 x 13 x 8 bytes, under the 128 KiB above which
# glibc malloc maps fresh pages per array; 4096-step blocks wrote at half speed.
_BLOCK_STEPS = 1024
# A `d.dddddd` cell and its separator: `text` holds the 8 characters read as one
# little-endian word, `_HEAD[q // 1000] | _TAIL[q % 1000]` for q = value * 1e6.
_CELL = np.dtype([("text", "<u8"), ("sep", "u1")])
_HEAD = np.frombuffer(b"".join([b"%d.%03d\0\0\0" % divmod(h, 1000) for h in range(1001)]), "<u8")
_TAIL = np.frombuffer(b"".join([b"\0\0\0\0\0%03d" % t for t in range(1000)]), "<u8")


def _unit_cells(block: np.ndarray) -> np.ndarray:
    """The `%.6f` cells of an all-[0, 1] (steps, columns) block, one row per step.

    `rint(v * 1e6)` is off by at most ~1e-10 before rounding, which only
    matters within that distance of a rounding tie; values within 1e-6 of
    one take their digits from `%.6f` itself.
    """
    scaled = block * 1e6
    q = np.rint(scaled).astype(np.intp)  # table lookups take intp indices unconverted
    near_tie = np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-6
    if near_tie.any():
        q[near_tie] = [int(("%.6f" % v).replace(".", "")) for v in block[near_tie].tolist()]
    head = q // 1000
    cells = np.empty(q.shape, _CELL)
    cells["text"] = _HEAD[head] | _TAIL[q - 1000 * head]
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")
    return cells


def write_schedule_file(path: str | Path, schedule: HouseholdScheduleYear) -> None:
    """Comment lines recording per-channel peaks, a header row, then
    one row of 6-decimal values per step, written `_BLOCK_STEPS` rows at a
    time."""
    lines = [f"# peak,{name},{schedule.peaks[name]:.9g}" for name in SCHEDULE_COLUMNS if name != "occupants"]
    lines.append(",".join(SCHEDULE_COLUMNS))
    values = schedule.values
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        # Negative, >1, -0.0 and non-finite values change the printed width.
        if np.all((values >= 0.0) & (values <= 1.0) & ~np.signbit(values)):
            for lo in range(0, values.shape[1], _BLOCK_STEPS):
                fh.write(_unit_cells(values[:, lo : lo + _BLOCK_STEPS].T))
        else:
            fh.write("".join([_ROW_TEMPLATE % tuple(row) + "\n" for row in values.T.tolist()]).encode())


def read_schedule_file(path: str | Path) -> HouseholdScheduleYear:
    """Read a `write_schedule_file` file; malformed input, bytes that are
    not UTF-8 included, is an OccsimError naming the file, and the line of
    a malformed row or peak line.  Every column but occupants needs
    exactly one peak line."""
    path = Path(path)
    peaks: dict[str, float] = {}
    try:
        with path.open() as fh:
            header = None
            for n, line in enumerate(fh, start=1):
                if line.startswith("#"):
                    try:
                        _, name, text = line[1:].strip().split(",")
                        value = float(text)
                    except ValueError:
                        raise OccsimError(f"{path}: line {n}: bad peak line {line.strip()!r}") from None
                    if name in peaks or name not in SCHEDULE_COLUMNS[1:]:
                        problem = "repeated" if name in peaks else "unknown"
                        raise OccsimError(f"{path}: line {n}: {problem} peak {name!r}")
                    peaks[name] = value
                elif line.strip():
                    header = line.strip().split(",")
                    break
            if header != list(SCHEDULE_COLUMNS):
                raise OccsimError(f"{path}: missing or unexpected column header")
            missing = [name for name in SCHEDULE_COLUMNS[1:] if name not in peaks]
            if missing:
                raise OccsimError(f"{path}: no peak line for {', '.join(missing)}")
            first = next((line for line in fh if line.strip()), None)
            if first is None:
                raise OccsimError(f"{path}: no schedule data")
            try:
                data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:  # numpy counts rows, not file lines; the row loop names the file line
                with reading(path) as lines:
                    fh.seek(0)
                    numbered = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
                    header = next(i for i, (_, line) in enumerate(numbered) if line[0] != "#")
                    number_rows(lines, numbered[header + 1 :], len(SCHEDULE_COLUMNS))
                raise OccsimError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:  # the peak and header loop decodes whole chunks, data rows too
        raise OccsimError(f"{path}: {exc}") from None
    try:
        return HouseholdScheduleYear(data.T, peaks)
    except OccsimError as exc:
        raise OccsimError(f"{path}: {exc}") from None


# -- reference schedules and distribution bundles ---------------------------


def read_step_values(path: str | Path) -> np.ndarray:
    """Values of a `step,value` file, one line per step 0..95 in any order;
    -0 reads as 0.  A wrong field count, a non-number, a step out of range,
    repeated or left out, or a non-finite or negative value raises OccsimError."""
    values = np.full(N_STEPS, np.nan)  # nan: step not seen yet
    with reading(path) as lines:
        for line in lines:
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
            values[step] = abs(value)
        if np.isnan(values).any():
            raise ValueError(f"expected {N_STEPS} rows, got {int(np.sum(~np.isnan(values)))}")
    return values


def write_step_values(path: str | Path, values: np.ndarray) -> None:
    write_lines(path, (f"{i},{v}" for i, v in enumerate(number_text(values))))


def load_reference_dir(directory: str | Path) -> np.ndarray:
    """Load `<end_use>.<wd|we>.ref` files for every modulated end use: a
    (len(MODULATED_END_USES), len(DAY_TYPES), 96) array."""
    directory = Path(directory)
    out = np.empty((len(MODULATED_END_USES), len(DAY_TYPES), N_STEPS))
    for u, use in enumerate(MODULATED_END_USES):
        for d, day_type in enumerate(DAY_TYPES):
            path = directory / f"{use}.{day_type.lower()}.ref"
            if not path.exists():
                raise OccsimError(f"missing reference schedule: {path}")
            values = read_step_values(path)
            if not np.any(values != 0):
                raise OccsimError(f"{path}: reference schedule is all zero")
            out[u, d] = values
    return out


def load_bundle(directory: str | Path) -> dict[str, EmpiricalDistribution]:
    """Load the event sampling bundle; every reserved name must be present,
    with its support inside its kind's `distributions.SUPPORT_DOMAIN`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise OccsimError(f"bundle directory not found: {directory}")
    bundle: dict[str, EmpiricalDistribution] = {}
    for name in REQUIRED_BUNDLE:
        path = directory / name
        if not path.exists():
            raise OccsimError(f"bundle is missing channel '{name}' ({path})")
        bundle[name] = EmpiricalDistribution.read(path)
    return bundle


def write_bundle(directory: str | Path, bundle: dict[str, EmpiricalDistribution]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, dist in bundle.items():
        dist.write(directory / name)
