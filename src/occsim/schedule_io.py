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
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .conf import read_step_values
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


class ScheduleError(ValueError):
    """Invalid schedule data or file."""


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
            raise ScheduleError(f"schedule needs {len(SCHEDULE_COLUMNS)} columns over whole days, got {shape}")

    @property
    def n_days(self) -> int:
        return self.values.shape[1] // N_STEPS

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
        raise ScheduleError(f"unknown modulation {modulation!r}")
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


def _format_unit_rows(data: np.ndarray) -> bytes:
    """The `%.6f` rows of an all-[0, 1] matrix, formatted as whole arrays.

    Each value prints as `d.dddddd`, so every row has the same width.
    `rint(v * 1e6)` is off by at most ~1e-10 before rounding, which only
    matters within that distance of a rounding tie; values within 1e-6 of
    one take their digits from `%.6f` itself.
    """
    scaled = data * 1e6
    q = np.rint(scaled).astype(np.int32)
    near_tie = np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-6
    if near_tie.any():
        q[near_tie] = [int(("%.6f" % v).replace(".", "")) for v in data[near_tie].tolist()]
    n_rows, n_cols = data.shape
    cells = np.empty((n_rows, n_cols, 9), dtype=np.uint8)
    cells[:, :, 0] = q // 1_000_000 + ord("0")
    cells[:, :, 1] = ord(".")
    fraction = q % 1_000_000
    for i, place in enumerate((100_000, 10_000, 1_000, 100, 10, 1)):
        cells[:, :, 2 + i] = fraction // place % 10 + ord("0")
    cells[:, :, 8] = ord(",")
    cells[:, -1, 8] = ord("\n")
    return cells.tobytes()


def write_schedule_file(path: str | Path, schedule: HouseholdScheduleYear) -> None:
    """Comment lines recording per-channel peaks, a header row, then
    one row of 6-decimal values per step."""
    lines = [f"# peak,{name},{schedule.peaks[name]:.9g}" for name in SCHEDULE_COLUMNS if name != "occupants"]
    lines.append(",".join(SCHEDULE_COLUMNS))
    head = ("\n".join(lines) + "\n").encode()
    data = np.ascontiguousarray(schedule.values.T)
    # Negative, >1, -0.0 and non-finite values change the printed width.
    if np.all((data >= 0.0) & (data <= 1.0) & ~np.signbit(data)):
        body = _format_unit_rows(data)
    else:
        body = "".join([_ROW_TEMPLATE % tuple(row) + "\n" for row in data.tolist()]).encode()
    Path(path).write_bytes(head + body)


def _bad_data_line(path: Path) -> str | None:
    """`line N: reason` for the first data row of a schedule file that does
    not hold len(SCHEDULE_COLUMNS) numbers, counting file lines from 1."""
    with path.open() as fh:
        rows = [(n, line.split(",")) for n, line in enumerate(fh, start=1) if line.strip()]
    header = next(i for i, (_, cells) in enumerate(rows) if not cells[0].startswith("#"))
    for n, cells in rows[header + 1 :]:
        if len(cells) != len(SCHEDULE_COLUMNS):
            return f"line {n}: number of columns is {len(cells)}, expected {len(SCHEDULE_COLUMNS)}"
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                return f"line {n}: could not convert string {cell.strip()!r} to float"
    return None


def read_schedule_file(path: str | Path) -> HouseholdScheduleYear:
    """Read a `write_schedule_file` file; malformed input is a ScheduleError
    naming the file, and the line of a malformed row."""
    path = Path(path)
    peaks: dict[str, float] = {}
    with path.open() as fh:
        header = None
        for line in fh:
            if line.startswith("#"):
                try:
                    _, name, value = line[1:].strip().split(",")
                    peaks[name] = float(value)
                except ValueError:
                    raise ScheduleError(f"{path}: bad peak line {line.strip()!r}") from None
            elif line.strip():
                header = line.strip().split(",")
                break
        if header != list(SCHEDULE_COLUMNS):
            raise ScheduleError(f"{path}: missing or unexpected column header")
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ScheduleError(f"{path}: no schedule data")
        try:
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:  # numpy counts rows, not file lines
            raise ScheduleError(f"{path}: {_bad_data_line(path) or exc}") from None
    try:
        return HouseholdScheduleYear(data.T, peaks)
    except ScheduleError as exc:
        raise ScheduleError(f"{path}: {exc}") from None


# -- reference schedules and distribution bundles ---------------------------


def load_reference_dir(directory: str | Path) -> np.ndarray:
    """Load `<end_use>.<wd|we>.ref` files for every modulated end use: a
    (len(MODULATED_END_USES), len(DAY_TYPES), 96) array."""
    directory = Path(directory)
    out = np.empty((len(MODULATED_END_USES), len(DAY_TYPES), N_STEPS))
    for u, use in enumerate(MODULATED_END_USES):
        for d, day_type in enumerate(DAY_TYPES):
            path = directory / f"{use}.{day_type.lower()}.ref"
            if not path.exists():
                raise ScheduleError(f"missing reference schedule: {path}")
            try:
                values = read_step_values(path)
            except ValueError as exc:
                raise ScheduleError(str(exc)) from None
            if not np.any(values != 0):
                raise ScheduleError(f"{path}: reference schedule is all zero")
            out[u, d] = values
    return out


def load_bundle(directory: str | Path) -> dict[str, EmpiricalDistribution]:
    """Load the event sampling bundle; every reserved name must be present."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ScheduleError(f"bundle directory not found: {directory}")
    bundle: dict[str, EmpiricalDistribution] = {}
    for name in REQUIRED_BUNDLE:
        path = directory / name
        if not path.exists():
            raise ScheduleError(f"bundle is missing channel '{name}' ({path})")
        bundle[name] = EmpiricalDistribution.read(path)
    return bundle


def write_bundle(directory: str | Path, bundle: dict[str, EmpiricalDistribution]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, dist in bundle.items():
        dist.write(directory / name)
