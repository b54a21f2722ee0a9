"""Occupant day and year simulation.

Three interchangeable approaches produce a day of 96 states:

* approach 1: walk the 3-state presence chain, then place sampled
  event-activity occurrences (count, onset, duration) inside HomeActive
  windows, retrying onsets within a bounded budget;
* approach 2: walk the full 7-state chain;
* approach 3 (default): walk the 7-state chain, but on entering an event
  activity sample its duration, hold the state for ceil(duration / 15)
  steps (clipped at the last step), and resume after the held block from
  the held activity's row with its own column excluded and renormalized.
  Without the exclusion, self-transition mass learned from held runs would
  compound holds and inflate durations past the sampled distribution.

All three walk through one batched kernel, `walk_days`, whose one step loop
moves every day that shares a model at once, each from its own block of
uniforms; approaches 1 and 2 take it as the walk in which nothing holds.
`walk_occupants` stacks the days of the occupants that share a model.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .conf import OccsimError
from .diary_ingest import DAY_TYPES, EVENT_ACTIVITIES, N_STEPS, ActivityState, sequence_table
from .distributions import draw_thresholds
from .markov_train import ActivityStats, ClusterDayModel, TPMSet

RETRY_BUDGET = 20

WEEKDAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")


@dataclass
class OccupantProfile:
    occupant_id: str
    weekday_cluster: int
    weekend_cluster: int


@dataclass(kw_only=True)
class SimCalendar:
    """Day-type calendar: `start_weekday` 0 is Monday; 5 and 6 are weekend."""

    start_weekday: int
    n_days: int

    def __post_init__(self) -> None:
        if not 0 <= self.start_weekday <= 6:
            raise OccsimError("start_weekday must be 0..6 (Monday..Sunday)")
        if self.n_days < 1:
            raise OccsimError("n_days must be positive")

    @property
    def day_types(self) -> list[str]:
        """The day type of each calendar day."""
        return ["WE" if (self.start_weekday + d) % 7 >= 5 else "WD" for d in range(self.n_days)]

    @classmethod
    def from_name(cls, name: str, n_days: int) -> "SimCalendar":
        try:
            start_weekday = WEEKDAY_NAMES.index(name.lower())
        except ValueError:
            raise OccsimError(f"unknown weekday name {name!r}") from None
        return cls(start_weekday=start_weekday, n_days=n_days)


def _hold_steps(duration_minutes: float) -> int:
    return max(1, math.ceil(duration_minutes / 15.0))


def uniforms_per_day(tpms: TPMSet, holds: dict | None) -> int:
    """The width of one day's block of uniforms for `walk_days`: n_steps, or
    2 * n_steps when the walk holds events."""
    return tpms.n_steps if holds is None else 2 * tpms.n_steps


def _walk_tables(tpms: TPMSet, holds: dict[ActivityState, ActivityStats] | None) -> tuple[np.ndarray, ...]:
    """Tables for `walk_days`.  Without holds, those of a walk in which
    nothing holds: every state draws from its plain row, unscaled.  With
    holds, leaving event state s after step t draws from `matrices[t, s]`
    with column s zeroed and the uniform scaled by `1 - p[s]` (no draw if
    that is <= 1e-12), through that row's `draw_thresholds`, so counting
    entries `<= r` gives the drawn column; they come as contiguous
    (T, S - 1, S) columns.
    Event states with a duration distribution get its `table(_hold_steps)`
    the same way, its hold steps capped at n_steps.
    """
    S, n_steps = tpms.n_states, tpms.n_steps
    trans = tpms.thresholds()[1].copy()
    scale = np.ones(tpms.matrices.shape[:2])
    dists = {}
    for e, activity in enumerate(tpms.alphabet):
        if holds is None or activity not in EVENT_ACTIVITIES:
            continue
        p = tpms.matrices[:, e].copy()
        p[:, e] = 0.0
        trans[:, e] = draw_thresholds(p)
        scale[:, e] = 1.0 - tpms.matrices[:, e, e]
        st = holds.get(activity)
        if st is not None and st.duration_dist is not None:
            dists[e] = st.duration_dist.table(_hold_steps)
    width = max((len(steps) for _, steps in dists.values()), default=1)
    dur_thresholds = np.full((S, width - 1), np.inf)
    dur_steps = np.ones((S, width), dtype=np.intp)
    for e, (thresholds, steps) in dists.items():
        dur_thresholds[e, : len(thresholds)] = thresholds
        dur_steps[e, : len(steps)] = np.minimum(steps, n_steps)
    has_dist = np.isin(np.arange(S), list(dists))
    return np.ascontiguousarray(trans.transpose(0, 2, 1)), scale, has_dist, dur_thresholds, dur_steps


def walk_days(
    tpms: TPMSet, u: np.ndarray, holds: dict[ActivityState, ActivityStats] | None = None
) -> np.ndarray:
    """Walk the chain once per row of `u`, all rows at once: (n, n_steps) int8.

    Row i consumes u[i] left to right, one uniform per draw, in the order of
    a one-day walk: the initial state; on entering an event state that has
    a duration distribution in `holds`, the duration, held for
    `max(1, ceil(d / 15))` steps up to the last step (an event state without
    one holds one step and draws nothing); and, when a hold ends before the
    last step, the transition.  With `holds` None (approach 2 and the
    presence chain) nothing holds: every step is one plain transition.  A
    draw of r counts the thresholds <= r of its distribution or chain row,
    a transition's one threshold column at a time.
    """
    u = np.asarray(u, dtype=np.float64)
    need = uniforms_per_day(tpms, holds)
    if u.ndim != 2 or u.shape[1] < need:
        raise OccsimError(f"expected (n, >= {need}) uniforms, got shape {u.shape}")
    n, n_steps = u.shape[0], tpms.n_steps
    columns, scale, has_dist, dur_thresholds, dur_steps = _walk_tables(tpms, holds)
    out = np.empty((n_steps, n), dtype=np.int8)
    s = (tpms.thresholds()[0] <= u[:, :1]).sum(axis=1)
    flat = u.ravel()
    pos = np.arange(n) * u.shape[1] + 1  # flat index of each row's next uniform
    end = np.zeros(n, dtype=np.intp)  # last step of each row's current hold, unclipped
    entered = np.arange(n)  # rows whose state was drawn for step t
    holding, skipping = has_dist.any(), (scale <= 1e-12).any()  # else every row enters, or draws, each step
    for t in range(n_steps):
        if holding and (held := entered[has_dist[s[entered]]]).size:
            sh = s[held]
            r = flat[pos[held]]
            pos[held] += 1
            j = (dur_thresholds[sh] <= r[:, None]).sum(axis=1)
            end[held] = t - 1 + dur_steps[sh, j]
        out[t] = s
        if t == n_steps - 1:
            break
        if holding:
            entered = np.flatnonzero(end <= t)
        drawn = entered[scale[t, s[entered]] > 1e-12] if skipping else entered
        sd = s[drawn]
        r = flat[pos[drawn]] * scale[t, sd]
        pos[drawn] += 1
        s[drawn] = sum(column[sd] <= r for column in columns[t])
    return out.T.copy()


def place_events(
    presence: np.ndarray, stats: dict[ActivityState, ActivityStats], draw: Callable[[], float]
) -> tuple[np.ndarray, list[int]]:
    """Place sampled events in the HomeActive steps of each row of an
    (n, n_steps) block of presence days: the states and each row's failures.

    Per row and event activity with stats, a count; per occurrence a
    duration, then up to RETRY_BUDGET onsets until its block fits in the
    free steps (the bits of one int), else one failure.  Each draw is one
    `draw()` through a distribution's `table`, so `rng.random` takes one per draw.
    """
    states = presence.copy()
    n_steps = states.shape[1]
    plan = []
    for activity, st in ((a, stats[a]) for a in EVENT_ACTIVITIES if stats.get(a) is not None):
        placeable = st.onset_dist is not None and st.duration_dist is not None
        tables = (st.onset_dist.table(round), st.duration_dist.table(_hold_steps)) if placeable else None
        plan.append((int(activity), st.occurrences_dist.table(round), tables))
    failures = [0] * len(states)
    for i, row in enumerate(np.packbits(states == int(ActivityState.HOME_ACTIVE), axis=1, bitorder="little")):
        free = int.from_bytes(row.tobytes(), "little")
        for activity, (count_thresholds, counts), tables in plan:
            count = counts[bisect_right(count_thresholds, draw())]
            if count <= 0:
                continue
            if tables is None:
                failures[i] += count
                continue
            (onset_thresholds, onsets), (hold_thresholds, holds) = tables
            for _ in range(count):
                h = holds[bisect_right(hold_thresholds, draw())]
                mask, last = (1 << min(h, n_steps)) - 1, n_steps - h
                for _ in range(RETRY_BUDGET):
                    onset = onsets[bisect_right(onset_thresholds, draw())]
                    if 0 <= onset <= last and (free >> onset) & mask == mask:
                        free ^= mask << onset
                        states[i, onset : onset + h] = activity
                        break
                else:
                    failures[i] += 1
    return states, failures


def days_to_sequences(days: np.ndarray, day_type: str | list[str], prefix: str) -> np.ndarray:
    """Unit-weight SEQUENCE rows `<prefix><i>` of an (n, 96) state matrix; one `day_type` or one per row."""
    return sequence_table([f"{prefix}{i}" for i in range(len(days))], day_type, 1.0, days)


def _check_approach(approach: int) -> None:
    if approach not in (1, 2, 3):
        raise OccsimError(f"approach must be 1, 2, or 3, got {approach}")


def _cluster(profile: OccupantProfile, day_type: str) -> int:
    return profile.weekday_cluster if day_type == "WD" else profile.weekend_cluster


def _model(
    models: dict[str, dict[int, ClusterDayModel]], profile: OccupantProfile, day_type: str
) -> ClusterDayModel:
    """The profile's model for `day_type`; a missing one names the occupant."""
    cluster = _cluster(profile, day_type)
    try:
        return models[day_type][cluster]
    except KeyError:
        raise OccsimError(
            f"occupant {profile.occupant_id}: no trained model for day_type={day_type} cluster={cluster}"
        ) from None


def walk_occupants(
    occupants: list[tuple[OccupantProfile, np.random.SeedSequence]],
    models: dict[str, dict[int, ClusterDayModel]],
    calendar: SimCalendar,
    *,
    approach: int,
) -> np.ndarray:
    """Walk every calendar day of each (profile, stream root) occupant:
    (n_occupants, n_days, 96) int8; approach 1 walks the presence chain.

    Occupant i draws the `uniforms_per_day` blocks of its days of type
    `DAY_TYPES[j]` from one stream, `streams.child(root_i, j)`, as one
    `(n_days_of_type, need)` matrix in calendar order.  The blocks of all
    occupants whose day type j has the same (day type, cluster) model are
    stacked and walked in one `walk_days` call.  Its rows are independent,
    so each occupant's days are those its own blocks walk to alone, and a
    shorter calendar's days are a prefix of a longer one's.
    """
    _check_approach(approach)
    day_types = calendar.day_types
    out = np.empty((len(occupants), calendar.n_days, N_STEPS), dtype=np.int8)
    for day_type in dict.fromkeys(day_types):
        j = DAY_TYPES.index(day_type)
        days = [d for d, dt in enumerate(day_types) if dt == day_type]
        groups: dict[int, list[int]] = {}
        for i, (profile, _) in enumerate(occupants):
            groups.setdefault(_cluster(profile, day_type), []).append(i)
        for cluster, members in groups.items():
            model = _model(models, occupants[members[0]][0], day_type)
            tpms = model.presence_tpms if approach == 1 else model.tpms
            holds = model.stats if approach == 3 else None
            need = uniforms_per_day(tpms, holds)
            u = np.empty((len(members), len(days), need))
            for block, i in zip(u, members):
                streams.generator(occupants[i][1], j).random(out=block)
            walked = walk_days(tpms, u.reshape(-1, need), holds)
            out[np.ix_(members, days)] = walked.reshape(len(members), len(days), -1)
    return out


def simulate_year(
    profile: OccupantProfile,
    days: np.ndarray,
    models: dict[str, dict[int, ClusterDayModel]],
    calendar: SimCalendar,
    rng_root: np.random.SeedSequence,
    *,
    approach: int,
) -> tuple[np.ndarray, int]:
    """One occupant's year from its `walk_occupants` days: the (n_days, 96)
    int8 states plus the total approach-1 placement failures.

    Approach 1 places the events of all days of type `DAY_TYPES[j]` in one
    `place_events` call, in calendar order, from the uniforms of stream
    `streams.child(rng_root, j, 1)`.  Approaches 2 and 3 return `days` and 0.
    """
    _check_approach(approach)
    if days.shape != (calendar.n_days, N_STEPS):
        raise OccsimError(f"expected ({calendar.n_days}, {N_STEPS}) walked days, got shape {days.shape}")
    if approach != 1:
        return days, 0
    day_types = calendar.day_types
    states = np.empty_like(days)
    failures = 0
    for day_type in dict.fromkeys(day_types):
        rows = [d for d, dt in enumerate(day_types) if dt == day_type]
        draw = streams.uniforms(streams.generator(rng_root, DAY_TYPES.index(day_type), 1))
        states[rows], fails = place_events(days[rows], _model(models, profile, day_type).stats, draw)
        failures += sum(fails)
    return states, failures
