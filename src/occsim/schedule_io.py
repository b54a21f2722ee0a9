"""Normalized schedule assembly and serialization.

Events are rasterized onto the 15-minute grid by proportional minute
overlap (each step accumulates overlap-minutes times event magnitude), so
channel totals equal the event sums exactly up to rounding.  Channels are
then normalized by their own annual maximum; the occupants column is a
fraction already and passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conf import read_step_values
from .diary_ingest import N_STEPS
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
    """Normalized year of 15-minute schedule values, one array per column."""

    n_days: int
    columns: dict[str, np.ndarray]
    peaks: dict[str, float]

    def __post_init__(self) -> None:
        n_steps = self.n_days * N_STEPS
        missing = [c for c in SCHEDULE_COLUMNS if c not in self.columns]
        if missing:
            raise ScheduleError(f"missing columns: {missing}")
        for name, col in self.columns.items():
            if np.asarray(col).shape != (n_steps,):
                raise ScheduleError(f"column {name} must have {n_steps} steps")


def rasterize_events(
    appliance_events: np.ndarray, water_events: np.ndarray, n_days: int
) -> dict[str, np.ndarray]:
    """Rasterize EVENT rows to raw per-step series (magnitude-minutes), one
    per event column.

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
    return dict(zip(EVENT_COLUMNS, raw.reshape(len(EVENT_COLUMNS), n_steps)))


def normalize_columns(raw: dict[str, np.ndarray], n_days: int) -> HouseholdScheduleYear:
    """Scale every channel except occupants by its annual maximum.

    All-zero channels stay zero and record a zero peak.
    """
    columns: dict[str, np.ndarray] = {}
    peaks: dict[str, float] = {}
    for name in SCHEDULE_COLUMNS:
        col = np.asarray(raw[name], dtype=np.float64)
        if name == "occupants":
            columns[name] = col.copy()
            continue
        peak = float(col.max()) if col.size else 0.0
        peaks[name] = peak
        columns[name] = col / peak if peak > 0 else col.copy()
    return HouseholdScheduleYear(n_days, columns, peaks)


def assemble_schedule(
    result: HouseholdResult,
    reference: dict[tuple[str, str], np.ndarray],
    calendar: SimCalendar,
    modulation: str = "present",
) -> HouseholdScheduleYear:
    """Combine rasterized events, modulated end uses, and the occupancy trace."""
    raw = rasterize_events(result.appliance_events, result.water_events, calendar.n_days)
    raw["occupants"] = result.trace.present_fraction
    for use in MODULATED_END_USES:
        ref_year = build_reference_year(reference, use, calendar)
        raw[use] = modulate_schedule(ref_year, result.trace, modulation)
    return normalize_columns(raw, calendar.n_days)


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
    data = np.column_stack([schedule.columns[name] for name in SCHEDULE_COLUMNS])
    data = data.astype(np.float64, copy=False)
    # Negative, >1, -0.0 and non-finite values change the printed width.
    if np.all((data >= 0.0) & (data <= 1.0) & ~np.signbit(data)):
        body = _format_unit_rows(data)
    else:
        body = "".join([_ROW_TEMPLATE % tuple(row) + "\n" for row in data.tolist()]).encode()
    Path(path).write_bytes(head + body)


def read_schedule_file(path: str | Path) -> HouseholdScheduleYear:
    path = Path(path)
    peaks: dict[str, float] = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            _, name, value = line[1:].strip().split(",")
            peaks[name] = float(value)
            continue
        if header is None:
            header = line.split(",")
            if tuple(header) != SCHEDULE_COLUMNS:
                raise ScheduleError(f"{path}: unexpected column header")
            continue
        rows.append([float(x) for x in line.split(",")])
    if header is None or not rows:
        raise ScheduleError(f"{path}: no schedule data")
    data = np.array(rows)
    if data.shape[0] % N_STEPS != 0:
        raise ScheduleError(f"{path}: row count {data.shape[0]} is not a whole number of days")
    columns = {name: data[:, i] for i, name in enumerate(SCHEDULE_COLUMNS)}
    return HouseholdScheduleYear(data.shape[0] // N_STEPS, columns, peaks)


# -- reference schedules and distribution bundles ---------------------------


def load_reference_dir(directory: str | Path) -> dict[tuple[str, str], np.ndarray]:
    """Load `<end_use>.<wd|we>.ref` files for every modulated end use."""
    directory = Path(directory)
    out: dict[tuple[str, str], np.ndarray] = {}
    for use in MODULATED_END_USES:
        for day_type in ("WD", "WE"):
            path = directory / f"{use}.{day_type.lower()}.ref"
            if not path.exists():
                raise ScheduleError(f"missing reference schedule: {path}")
            try:
                values = read_step_values(path)
            except ValueError as exc:
                raise ScheduleError(str(exc)) from None
            if not np.any(values != 0):
                raise ScheduleError(f"{path}: reference schedule is all zero")
            out[(use, day_type)] = values
    return out


def build_reference_year(
    reference: dict[tuple[str, str], np.ndarray], use: str, calendar: SimCalendar
) -> np.ndarray:
    """Tile per-day-type reference days across the calendar."""
    days = [reference[(use, calendar.day_type(d))] for d in range(calendar.n_days)]
    return np.concatenate(days)


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
