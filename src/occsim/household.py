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

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import streams
from .conf import OccsimError, key_values, number_text, reading, write_lines
from .diary_ingest import N_STEPS, STEP_MINUTES, ActivityState
from .distributions import EmpiricalDistribution, draw_thresholds
from .markov_train import ClusterDayModel, runs
from .occupant_sim import (
    RETRY_BUDGET,
    OccupantProfile,
    SimCalendar,
    simulate_year,
    walk_occupants,
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
# Population shares of the default four-cluster configuration, which the
# synthetic corpus also plants.
DEFAULT_CLUSTER_SHARES = (0.36, 0.21, 0.21, 0.22)


def _occupant_counts(value: str) -> EmpiricalDistribution:
    pairs = [item.split(":") for item in value.split(",")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected count:probability,...")
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
    fields = value.split(",")
    if len(fields) != 2:
        raise ValueError("expected start,end")
    return int(fields[0]), int(fields[1])


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
            raise OccsimError(f"occupant_count support must be whole numbers >= 1, got {counts.tolist()}")
        for shares in (self.cluster_shares_wd, self.cluster_shares_we):
            if not abs(sum(shares) - 1.0) <= 1e-9:
                raise OccsimError(f"cluster shares sum to {sum(shares)}, not 1")
            if any(s < 0 for s in shares):
                raise OccsimError("cluster shares must be nonnegative")
        if not 0.0 <= self.shower_fraction <= 1.0:
            raise OccsimError("shower_fraction must be in [0, 1]")
        if self.vacation is not None and not 0 <= self.vacation[0] < self.vacation[1]:
            raise OccsimError(f"vacation window {self.vacation} must have 0 <= start < end")

    def shares_for(self, day_type: str) -> tuple[float, ...]:
        return self.cluster_shares_wd if day_type == "WD" else self.cluster_shares_we

    @classmethod
    def read(cls, path: str | Path) -> "HouseholdConfig":
        with reading(path) as lines:
            values = key_values(lines, _HOUSEHOLD_KEYS)
            if "occupant_count" not in values:
                raise ValueError("missing occupant_count")
            values["occupant_count_dist"] = values.pop("occupant_count")
            return cls(**values)

    def write(self, path: str | Path) -> None:
        dist = self.occupant_count_dist
        counts = number_text(np.stack([dist.support, dist.probs], axis=1))
        lines = [
            "occupant_count = " + ",".join(map(":".join, counts)),
            "cluster_shares_wd = " + ",".join(number_text(self.cluster_shares_wd)),
            "cluster_shares_we = " + ",".join(number_text(self.cluster_shares_we)),
            "shower_fraction = " + number_text([self.shower_fraction])[0],
        ]
        if self.vacation is not None:
            lines.append(f"vacation = {self.vacation[0]},{self.vacation[1]}")
        write_lines(path, lines)


@dataclass
class HouseholdResult:
    index: int
    states: np.ndarray  # (n_occupants, 96 * n_days) int8
    appliance_events: np.ndarray  # EVENT rows
    water_events: np.ndarray  # EVENT rows
    placement_failures: int = 0


@dataclass
class HouseholdDraw:
    """One household's occupants and their walked days (`draw_households`)."""

    index: int
    seq: np.random.SeedSequence  # streams.child(root(base_seed), HOUSEHOLD, index)
    occupants: list[tuple[OccupantProfile, np.random.SeedSequence]]  # profile, occupant stream root
    days: np.ndarray  # (n_occupants, n_days, 96) int8, from walk_occupants


@cache
def _share_table(shares: tuple[float, ...]) -> tuple[list[float], float]:
    """The `draw_thresholds` of a share vector and its total, built once."""
    return draw_thresholds(shares).tolist(), float(np.cumsum(shares)[-1])


def _draw_index(shares, rng: np.random.Generator) -> int:
    """Index of a share drawn by one uniform scaled by the shares' total."""
    thresholds, total = _share_table(tuple(shares))
    return bisect_right(thresholds, rng.random() * total)


def sample_household(config: HouseholdConfig, rng: np.random.Generator, index: int) -> list[OccupantProfile]:
    """Draw occupant count, then weekday and weekend clusters per occupant."""
    return [
        OccupantProfile(
            f"h{index}o{o}",
            _draw_index(config.cluster_shares_wd, rng),
            _draw_index(config.cluster_shares_we, rng),
        )
        for o in range(config.occupant_count_dist.sample_int(rng))
    ]


def _run_minutes(mask: np.ndarray) -> np.ndarray:
    """(m, 2) start and end minutes of the True runs of a (rows, n_steps)
    mask, row by row."""
    _, starts, lengths, values = runs(mask)
    starts, lengths = starts[values], lengths[values]
    return np.stack([starts, starts + lengths], axis=1) * float(STEP_MINUTES)


def merge_shared_events(states: np.ndarray, activity: ActivityState) -> np.ndarray:
    """(m, 2) start and end minutes of the runs of steps where any occupant
    is in `activity`, so overlapping or abutting occupant runs are one event.

    Only cooking, dishwashing, and laundry runs may merge; hygiene is
    per-person and refusing it here keeps showers unmergeable by
    construction.
    """
    if activity not in MERGEABLE_ACTIVITIES:
        raise OccsimError(f"{ActivityState(activity).name} events are never merged")
    return _run_minutes((np.asarray(states) == int(activity)).any(axis=0)[None])


def hygiene_intervals(states: np.ndarray) -> np.ndarray:
    """(m, 2) start and end minutes of every occupant's personal-hygiene runs,
    occupant by occupant."""
    return _run_minutes(np.asarray(states) == int(ActivityState.PERSONAL_HYGIENE))


def _dist(bundle: dict[str, EmpiricalDistribution], name: str) -> EmpiricalDistribution:
    try:
        return bundle[name]
    except KeyError:
        raise OccsimError(f"missing distribution '{name}'")


def _events(column, start: np.ndarray, duration: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """EVENT rows from a column index (one, or one per row) and three aligned arrays."""
    rows = np.empty(len(start), dtype=EVENT)
    rows["column"], rows["start"], rows["duration"], rows["magnitude"] = column, start, duration, magnitude
    return rows


def attach_appliance_events(
    intervals_by_activity: dict[ActivityState, np.ndarray],
    bundle: dict[str, EmpiricalDistribution],
    rng: np.random.Generator,
    *,
    year_minutes: float,
) -> np.ndarray:
    """EVENT rows sampling power (and water) for each merged activity interval.

    Per activity, in `ACTIVITY_APPLIANCE` order, each distribution draws
    one array over the intervals: power rows, then the dishwasher's or
    washer's water rows, then for laundry dryer rows starting when the
    washer's power cycle ends, dropped if that is past the year end.
    Power cycles may outlast the activity interval; they are never clipped.
    """
    dryer = _column("clothes_dryer_power")
    parts = [np.zeros(0, dtype=EVENT)]
    for activity, (key, power, water) in ACTIVITY_APPLIANCE.items():
        intervals = intervals_by_activity.get(activity, ())
        if not len(intervals):
            continue
        start, m = intervals[:, 0], len(intervals)
        duration = _dist(bundle, f"{key}.power.duration").sample(rng, m)
        parts.append(_events(power, start, duration, _dist(bundle, f"{key}.power.level").sample(rng, m)))
        if water is not None:
            w_dur = _dist(bundle, f"{key}.water.duration").sample(rng, m)
            parts.append(_events(water, start, w_dur, _dist(bundle, f"{key}.water.flow").sample(rng, m)))
        if activity is ActivityState.LAUNDRY:
            d_dur = _dist(bundle, "clothes_dryer.power.duration").sample(rng, m)
            d_lvl = _dist(bundle, "clothes_dryer.power.level").sample(rng, m)
            keep = start + duration < year_minutes
            parts.append(_events(dryer, (start + duration)[keep], d_dur[keep], d_lvl[keep]))
    return np.concatenate(parts)


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
    interval is clipped to it.  `rng` draws the fixtures, shower durations
    and flows, bath durations and flows, then offsets, as arrays.
    """
    start, end = intervals.T
    is_shower = rng.random(len(start)) < config.shower_fraction
    duration, flow = np.empty((2, len(start)))
    for key, rows in (("shower", is_shower), ("bath", ~is_shower)):
        duration[rows] = _dist(bundle, f"{key}.duration").sample(rng, rows.sum())
        flow[rows] = _dist(bundle, f"{key}.flow").sample(rng, rows.sum())
    duration = np.minimum(duration, end - start)
    offset = rng.integers(0, (end - start - duration).astype(np.int64) + 1)
    return _events(np.where(is_shower, _column("showers"), _column("baths")), start + offset, duration, flow)


def generate_sink_events(
    active: np.ndarray,
    bundle: dict[str, EmpiricalDistribution],
    rng: np.random.Generator,
) -> np.ndarray:
    """EVENT rows of household-level sink draws across the year.

    Per day, a sampled number of events each tries up to RETRY_BUDGET
    `sink.onset` draws for a step that `active` (one bool per step, any
    occupant active) marks True, in closed form: with q the day's onset
    mass on active steps, an event is dropped with probability
    (1 - q) ** RETRY_BUDGET, else its onset follows `sink.onset` restricted
    to those steps.  `rng` draws the daily counts, drop uniforms, onset
    uniforms, durations and flows, each as one array over the year.
    """
    count_dist, onset_dist, dur_dist, flow_dist = (
        _dist(bundle, f"sink.{name}") for name in ("count", "onset", "duration", "flow")
    )
    days = active.reshape(-1, N_STEPS)
    step = np.rint(onset_dist.support).astype(np.int64)
    fits = (0 <= step) & (step < N_STEPS)
    cum = np.cumsum(np.where(days[:, np.where(fits, step, 0)] & fits, onset_dist.probs, 0.0), axis=1)
    day = np.repeat(np.arange(len(days)), count_dist.sample_int(rng, len(days)))
    day = day[rng.random(day.size) >= (1.0 - cum[day, -1]) ** RETRY_BUDGET]
    idx = (cum[day] <= (rng.random(day.size) * cum[day, -1])[:, None]).sum(axis=1)
    start = (day * N_STEPS + step[idx]) * float(STEP_MINUTES)
    return _events(_column("sinks"), start, dur_dist.sample(rng, day.size), flow_dist.sample(rng, day.size))


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
        raise OccsimError(f"reference length {reference.shape} does not match occupancy {n_steps}")
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
        raise OccsimError(f"vacation window {window} is inverted or outside the calendar")
    states = np.array(states, copy=True)
    states[..., start_day * N_STEPS : end_day * N_STEPS] = int(ActivityState.AWAY)
    lo = start_day * MINUTES_PER_DAY
    hi = end_day * MINUTES_PER_DAY
    keep_a, keep_w = (
        ev[~((lo <= ev["start"]) & (ev["start"] < hi))] for ev in (appliance_events, water_events)
    )
    return states, keep_a, keep_w


def draw_households(
    indices: Sequence[int],
    models: dict[str, dict[int, ClusterDayModel]],
    config: HouseholdConfig,
    calendar: SimCalendar,
    base_seed: int,
    *,
    approach: int,
) -> list[HouseholdDraw]:
    """Sample the occupants of each household in `indices` and walk them all.

    Household h's stream is `streams.child(root(base_seed), HOUSEHOLD, h)`:
    its child 0 draws the occupants (`sample_household`), and occupant o
    walks from its child (OCCUPANT, o).  The occupants of every household
    are walked in one `walk_occupants` call, so households stay
    independent and adding one never changes another.
    """
    root = streams.root(base_seed)
    seqs = [streams.child(root, streams.HOUSEHOLD, h) for h in indices]
    occupants = []
    for h, seq in zip(indices, seqs):
        profiles = sample_household(config, streams.generator(seq, 0), h)
        occupants.append([(p, streams.child(seq, streams.OCCUPANT, o)) for o, p in enumerate(profiles)])
    days = walk_occupants([occ for occs in occupants for occ in occs], models, calendar, approach=approach)
    split = np.split(days, np.cumsum([len(occs) for occs in occupants])[:-1])
    return [HouseholdDraw(*fields) for fields in zip(indices, seqs, occupants, split)]


def build_household(
    draw: HouseholdDraw,
    models: dict[str, dict[int, ClusterDayModel]],
    bundle: dict[str, EmpiricalDistribution],
    config: HouseholdConfig,
    calendar: SimCalendar,
    *,
    approach: int,
) -> HouseholdResult:
    """Simulate one drawn household for the whole calendar: each occupant's
    year (`simulate_year`), then events, sinks and the vacation, each from
    a child of the household's stream."""
    h_seq = draw.seq
    n = len(draw.occupants)
    states = np.empty((n, calendar.n_days * N_STEPS), dtype=np.int8)
    failures = 0
    for o, (profile, root) in enumerate(draw.occupants):
        year, n_fail = simulate_year(profile, draw.days[o], models, calendar, root, approach=approach)
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
    return HouseholdResult(draw.index, states, appliance_events, water_events, failures)
