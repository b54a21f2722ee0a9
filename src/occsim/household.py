"""Household assembly: occupants, shared events, water draws, modulation.

Runs of the household's (n_occupants, n_steps) state matrix become
appliance and water events, held as EVENT rows keyed by the schedule
column they feed.  A cooking, dishwashing, or laundry event is a run of
steps where any occupant is in that activity, so overlapping or abutting
occupant runs share one appliance; personal hygiene stays per-occupant and
is never merged.  Intervals are (m, 2) arrays of start and end minutes
from the start of the simulation year.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import streams
from .conf import read_key_values
from .diary_ingest import N_STEPS, STEP_MINUTES, ActivityState
from .distributions import EmpiricalDistribution, draw_index
from .clustering import DEFAULT_CLUSTER_SHARES
from .markov_train import ClusterDayModel, runs
from .occupant_sim import (
    RETRY_BUDGET,
    OccupantProfile,
    SimCalendar,
    simulate_year,
)

MINUTES_PER_DAY = 1440

# Schedule columns fed by events, in schedule order.
EVENT_COLUMNS = (
    "cooking_range",
    "dishwasher_power",
    "clothes_washer_power",
    "clothes_dryer_power",
    "dishwasher_water",
    "clothes_washer_water",
    "showers",
    "baths",
    "sinks",
)
# One event row: `column` indexes EVENT_COLUMNS, `start` and `duration` are
# minutes from year start, `magnitude` is a fraction of nameplate power or a
# volume per minute.
EVENT = np.dtype([("column", np.uint8), ("start", "f8"), ("duration", "f8"), ("magnitude", "f8")])
_column = EVENT_COLUMNS.index

# Activity whose intervals merge into one shared appliance -> (bundle key,
# power column, water column or None).
ACTIVITY_APPLIANCE = {
    ActivityState.COOKING: ("cooking_range", _column("cooking_range"), None),
    ActivityState.DISHWASHING: ("dishwasher", _column("dishwasher_power"), _column("dishwasher_water")),
    ActivityState.LAUNDRY: (
        "clothes_washer", _column("clothes_washer_power"), _column("clothes_washer_water")
    ),
}
MERGEABLE_ACTIVITIES = tuple(ACTIVITY_APPLIANCE)

DEFAULT_SHOWER_FRACTION = 0.921


class HouseholdError(ValueError):
    """Invalid household configuration or event input."""


class BundleError(KeyError):
    """A required sampling distribution is missing from the bundle."""


def _occupant_counts(value: str) -> EmpiricalDistribution:
    pairs = [item.split(":") for item in value.split(",")]
    return EmpiricalDistribution(
        np.array([float(v) for v, _ in pairs]),
        np.array([float(p) for _, p in pairs]),
        unit="count",
    )


def _shares(value: str) -> tuple[float, ...]:
    return tuple(float(x) for x in value.split(","))


def _vacation(value: str) -> tuple[int, int] | None:
    if not value:
        return None
    lo, hi = value.split(",")
    return int(lo), int(hi)


_HOUSEHOLD_KEYS = {
    "occupant_count": _occupant_counts,
    "cluster_shares_wd": _shares,
    "cluster_shares_we": _shares,
    "vacation": _vacation,
    "shower_fraction": float,
}


@dataclass
class HouseholdConfig:
    """Sampling configuration for household composition and water behavior.

    `vacation` is a half-open day window (start_day, end_day).
    """

    occupant_count_dist: EmpiricalDistribution
    cluster_shares_wd: tuple[float, ...] = DEFAULT_CLUSTER_SHARES
    cluster_shares_we: tuple[float, ...] = DEFAULT_CLUSTER_SHARES
    vacation: tuple[int, int] | None = None
    shower_fraction: float = DEFAULT_SHOWER_FRACTION

    def __post_init__(self) -> None:
        counts = self.occupant_count_dist.support
        if np.any((counts < 1) | (counts != np.round(counts))):
            raise HouseholdError(f"occupant_count support must be whole numbers >= 1, got {counts.tolist()}")
        for shares in (self.cluster_shares_wd, self.cluster_shares_we):
            if not abs(sum(shares) - 1.0) <= 1e-9:
                raise HouseholdError(f"cluster shares sum to {sum(shares)}, not 1")
            if any(s < 0 for s in shares):
                raise HouseholdError("cluster shares must be nonnegative")
        if not 0.0 <= self.shower_fraction <= 1.0:
            raise HouseholdError("shower_fraction must be in [0, 1]")
        if self.vacation is not None and not 0 <= self.vacation[0] < self.vacation[1]:
            raise HouseholdError(f"vacation window {self.vacation} must have 0 <= start < end")

    def shares_for(self, day_type: str) -> tuple[float, ...]:
        return self.cluster_shares_wd if day_type == "WD" else self.cluster_shares_we

    @classmethod
    def read(cls, path: str | Path) -> "HouseholdConfig":
        try:
            values = read_key_values(path, _HOUSEHOLD_KEYS)
        except ValueError as exc:
            raise HouseholdError(str(exc)) from None
        if "occupant_count" not in values:
            raise HouseholdError(f"{path}: missing occupant_count")
        values["occupant_count_dist"] = values.pop("occupant_count")
        try:
            return cls(**values)
        except HouseholdError as exc:
            raise HouseholdError(f"{path}: {exc}") from None

    def write(self, path: str | Path) -> None:
        dist = ",".join(
            f"{int(v) if float(v).is_integer() else v}:{p:.12g}"
            for v, p in zip(self.occupant_count_dist.support, self.occupant_count_dist.probs)
        )
        lines = [
            f"occupant_count = {dist}",
            "cluster_shares_wd = " + ",".join(f"{s:.12g}" for s in self.cluster_shares_wd),
            "cluster_shares_we = " + ",".join(f"{s:.12g}" for s in self.cluster_shares_we),
            f"shower_fraction = {self.shower_fraction:.12g}",
        ]
        if self.vacation is not None:
            lines.append(f"vacation = {self.vacation[0]},{self.vacation[1]}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class HouseholdResult:
    index: int
    n_occupants: int
    profiles: list[OccupantProfile]
    states: np.ndarray  # (n_occupants, 96 * n_days) int8
    appliance_events: np.ndarray  # EVENT rows
    water_events: np.ndarray  # EVENT rows
    placement_failures: int = 0


def _draw_index(shares, rng: np.random.Generator) -> int:
    cum = np.cumsum(np.asarray(shares, dtype=np.float64))
    return draw_index(cum, rng.random() * cum[-1])


def sample_household(
    config: HouseholdConfig, rng: np.random.Generator, index: int = 0
) -> tuple[int, list[OccupantProfile]]:
    """Draw occupant count, then weekday and weekend clusters per occupant."""
    n = config.occupant_count_dist.sample_int(rng)
    profiles = [
        OccupantProfile(
            f"h{index}o{o}",
            _draw_index(config.cluster_shares_wd, rng),
            _draw_index(config.cluster_shares_we, rng),
        )
        for o in range(n)
    ]
    return n, profiles


def _run_minutes(mask: np.ndarray) -> np.ndarray:
    """(m, 2) start and end minutes of the True runs of a (rows, n_steps)
    mask, row by row."""
    _, starts, lengths, _ = runs(mask)
    return np.stack([starts, starts + lengths], axis=1) * float(STEP_MINUTES)


def merge_shared_events(states: np.ndarray, activity: ActivityState) -> np.ndarray:
    """(m, 2) start and end minutes of the runs of steps where any occupant
    is in `activity`, so overlapping or abutting occupant runs are one event.

    Only cooking, dishwashing, and laundry runs may merge; hygiene is
    per-person and refusing it here keeps showers unmergeable by
    construction.
    """
    if activity not in MERGEABLE_ACTIVITIES:
        raise HouseholdError(f"{ActivityState(activity).name} events are never merged")
    return _run_minutes((np.asarray(states) == int(activity)).any(axis=0)[None])


def hygiene_intervals(states: np.ndarray) -> np.ndarray:
    """(m, 2) start and end minutes of every occupant's personal-hygiene runs,
    occupant by occupant."""
    return _run_minutes(np.asarray(states) == int(ActivityState.PERSONAL_HYGIENE))


def _dist(bundle: dict[str, EmpiricalDistribution], name: str) -> EmpiricalDistribution:
    try:
        return bundle[name]
    except KeyError:
        raise BundleError(f"missing distribution '{name}'")


def attach_appliance_events(
    intervals_by_activity: dict[ActivityState, np.ndarray],
    bundle: dict[str, EmpiricalDistribution],
    rng: np.random.Generator,
    *,
    year_minutes: float,
) -> np.ndarray:
    """EVENT rows sampling power (and water) for each merged activity
    interval, in the order `merge_shared_events` gives them.

    Each operation adds a power row and, for the dishwasher and washer, a
    water row.  Laundry intervals also produce a dryer row starting when
    the washer's power cycle ends; a dryer whose start would fall past the
    end of the year is dropped.  Power cycles may outlast the activity
    interval; they are never clipped to it.
    """
    dryer = _column("clothes_dryer_power")
    rows: list[tuple[int, float, float, float]] = []
    for activity, (key, power, water) in ACTIVITY_APPLIANCE.items():
        intervals = intervals_by_activity.get(activity, ())
        if not len(intervals):
            continue
        p_dur = _dist(bundle, f"{key}.power.duration")
        p_lvl = _dist(bundle, f"{key}.power.level")
        if water is not None:
            w_dur = _dist(bundle, f"{key}.water.duration")
            w_flow = _dist(bundle, f"{key}.water.flow")
        chained = activity is ActivityState.LAUNDRY
        if chained:
            d_dur = _dist(bundle, "clothes_dryer.power.duration")
            d_lvl = _dist(bundle, "clothes_dryer.power.level")
        for start, _end in intervals.tolist():
            duration = p_dur.sample(rng)
            rows.append((power, start, duration, p_lvl.sample(rng)))
            if water is not None:
                rows.append((water, start, w_dur.sample(rng), w_flow.sample(rng)))
            if chained:
                dryer_start = start + duration
                if dryer_start < year_minutes:
                    rows.append((dryer, dryer_start, d_dur.sample(rng), d_lvl.sample(rng)))
    return np.array(rows, dtype=EVENT)


def attach_hygiene_water(
    intervals: np.ndarray,
    bundle: dict[str, EmpiricalDistribution],
    config: HouseholdConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """EVENT rows: one shower-or-bath draw per `hygiene_intervals` row, in order.

    The fixture is a shower with probability `shower_fraction`, else a
    bath.  The draw starts uniformly (1-minute resolution) within the part
    of the interval that fits its duration; a duration longer than the
    interval is clipped to it.
    """
    showers, baths = _column("showers"), _column("baths")
    rows: list[tuple[int, float, float, float]] = []
    for start, end in intervals.tolist():
        is_shower = rng.random() < config.shower_fraction
        key = "shower" if is_shower else "bath"
        duration = _dist(bundle, f"{key}.duration").sample(rng)
        flow = _dist(bundle, f"{key}.flow").sample(rng)
        window = end - start
        if duration >= window:
            duration = window
            offset = 0
        else:
            offset = int(rng.integers(0, int(window - duration) + 1))
        rows.append((showers if is_shower else baths, start + offset, duration, flow))
    return np.array(rows, dtype=EVENT)


def generate_sink_events(
    active: np.ndarray,
    bundle: dict[str, EmpiricalDistribution],
    rng: np.random.Generator,
) -> np.ndarray:
    """EVENT rows of household-level sink draws across the year.

    Per day, a sampled number of events each draws an onset step; onsets
    landing on a step that `active` (one bool per step, any occupant
    active) marks False are resampled within the retry budget and
    otherwise dropped.
    """
    count_dist = _dist(bundle, "sink.count")
    onset_dist = _dist(bundle, "sink.onset")
    dur_dist = _dist(bundle, "sink.duration")
    flow_dist = _dist(bundle, "sink.flow")
    sinks = _column("sinks")
    n_days = active.shape[0] // N_STEPS
    rows: list[tuple[int, float, float, float]] = []
    for day in range(n_days):
        base = day * N_STEPS
        for _ in range(count_dist.sample_int(rng)):
            for _ in range(RETRY_BUDGET):
                step = onset_dist.sample_int(rng)
                if 0 <= step < N_STEPS and active[base + step]:
                    start = float((base + step) * STEP_MINUTES)
                    rows.append((sinks, start, dur_dist.sample(rng), flow_dist.sample(rng)))
                    break
    return np.array(rows, dtype=EVENT)


def modulate_schedule(reference: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Scale reference schedules by an occupancy fraction, pinned to each
    day's minimum.

    out = daily_min + (reference - daily_min) * frac.  Full occupancy
    returns the reference exactly and zero occupancy returns the day's
    minimum exactly (bit-for-bit).  `reference` is (..., n_steps), one
    schedule per row, every row scaled by the same (n_steps,) `frac`.
    """
    n_steps = frac.shape[0]
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape[-1:] != (n_steps,):
        raise HouseholdError(f"reference length {reference.shape} does not match occupancy {n_steps}")
    ref = reference.reshape(*reference.shape[:-1], n_steps // N_STEPS, N_STEPS)
    f = frac.reshape(n_steps // N_STEPS, N_STEPS)
    dmin = ref.min(axis=-1, keepdims=True)
    out = dmin + (ref - dmin) * f
    out = np.where(f >= 1.0, ref, out)
    out = np.where(f <= 0.0, dmin, out)
    return out.reshape(reference.shape)


def apply_vacation(
    states: np.ndarray,
    appliance_events: np.ndarray,
    water_events: np.ndarray,
    window: tuple[int, int] | None,
    n_days: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Force Away across a half-open day window and drop EVENT rows starting in it.

    Events that start before the window and extend into it are retained.
    Returns copies; a missing window returns the inputs unchanged.
    """
    if window is None:
        return states, appliance_events, water_events
    start_day, end_day = window
    if not (0 <= start_day < end_day <= n_days):
        raise HouseholdError(f"vacation window {window} is inverted or outside the calendar")
    states = np.array(states, copy=True)
    states[..., start_day * N_STEPS : end_day * N_STEPS] = int(ActivityState.AWAY)
    lo = start_day * MINUTES_PER_DAY
    hi = end_day * MINUTES_PER_DAY
    keep_a, keep_w = (
        ev[~((lo <= ev["start"]) & (ev["start"] < hi))] for ev in (appliance_events, water_events)
    )
    return states, keep_a, keep_w


def build_household(
    index: int,
    models: dict[str, dict[int, ClusterDayModel]],
    bundle: dict[str, EmpiricalDistribution],
    config: HouseholdConfig,
    calendar: SimCalendar,
    base_seed: int,
    *,
    approach: int,
) -> HouseholdResult:
    """Simulate one household for the whole calendar.

    Derives all streams from (base_seed, household index), so households
    are independent and adding one never changes another.
    """
    h_seq = streams.child(streams.root(base_seed), streams.HOUSEHOLD, index)
    n, profiles = sample_household(config, streams.generator(h_seq, 0), index)
    n_steps = calendar.n_days * N_STEPS
    states = np.empty((n, n_steps), dtype=np.int8)
    failures = 0
    for o, profile in enumerate(profiles):
        year, n_fail = simulate_year(
            profile, models, calendar, streams.child(h_seq, streams.OCCUPANT, o), approach=approach
        )
        states[o] = year.ravel()
        failures += n_fail

    merged = {activity: merge_shared_events(states, activity) for activity in MERGEABLE_ACTIVITIES}
    year_minutes = calendar.n_days * MINUTES_PER_DAY
    appliance_events = attach_appliance_events(
        merged, bundle, streams.generator(h_seq, streams.APPLIANCES), year_minutes=year_minutes
    )
    water_events = attach_hygiene_water(
        hygiene_intervals(states), bundle, config, streams.generator(h_seq, streams.HYGIENE)
    )
    active = (states >= int(ActivityState.HOME_ACTIVE)).any(axis=0)
    sinks = generate_sink_events(active, bundle, streams.generator(h_seq, streams.SINKS))
    water_events = np.concatenate([water_events, sinks])

    states, appliance_events, water_events = apply_vacation(
        states, appliance_events, water_events, config.vacation, calendar.n_days
    )
    return HouseholdResult(index, n, profiles, states, appliance_events, water_events, failures)
