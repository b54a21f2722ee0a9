"""Occupant day and year simulation.

Three interchangeable generators produce a day of 96 states:

* approach 1: simulate the 3-state presence chain, then place sampled
  event-activity occurrences (count, onset, duration) inside HomeActive
  windows, retrying onsets within a bounded budget;
* approach 2: step the full 7-state chain directly;
* approach 3 (default): step the 7-state chain, but when it enters an
  event activity, sample that activity's duration, hold the state for
  ceil(duration / 15) steps (clipped at the last step), and resume the
  chain at the step after the held block conditioned on the held activity.

On resume the held activity's own column is excluded and its row
renormalized, so a maximal run of an event activity has exactly the
quantized sampled length; without the exclusion, self-transition mass
learned from held runs in training data would compound holds and inflate
durations well past the sampled distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .diary_ingest import (
    EVENT_ACTIVITIES,
    N_STEPS,
    ActivityState,
    StateSequence,
)
from .distributions import draw_index
from .markov_train import ActivityStats, ClusterDayModel, TPMSet

RETRY_BUDGET = 20

WEEKDAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")

_EVENT_SET = frozenset(int(a) for a in EVENT_ACTIVITIES)


class SimulationError(ValueError):
    """Invalid simulation configuration."""


@dataclass
class OccupantProfile:
    occupant_id: str
    weekday_cluster: int
    weekend_cluster: int


@dataclass
class OccupantDaySchedule:
    day_index: int
    day_type: str
    states: np.ndarray  # (96,) int8

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=np.int8)
        if self.states.shape != (N_STEPS,):
            raise SimulationError(f"day schedule must have {N_STEPS} steps")


@dataclass
class SimCalendar:
    """Day-type calendar: `start_weekday` 0 is Monday; 5 and 6 are weekend."""

    start_weekday: int = 0
    n_days: int = 365

    def __post_init__(self) -> None:
        if not 0 <= self.start_weekday <= 6:
            raise SimulationError("start_weekday must be 0..6 (Monday..Sunday)")
        if self.n_days < 1:
            raise SimulationError("n_days must be positive")

    def day_type(self, day: int) -> str:
        return "WE" if (self.start_weekday + day) % 7 >= 5 else "WD"

    @classmethod
    def from_name(cls, name: str, n_days: int) -> "SimCalendar":
        try:
            return cls(WEEKDAY_NAMES.index(name.lower()), n_days)
        except ValueError:
            raise SimulationError(f"unknown weekday name {name!r}")


def _row_tuples(tpms: TPMSet) -> tuple[list[float], list[list[list[float]]], np.ndarray]:
    """Python-list cumulative rows for the scalar sampling loop."""
    cum_init, cum_rows = tpms.cumulative()
    cached = getattr(tpms, "_row_lists", None)
    if cached is None:
        cached = (
            cum_init.tolist(),
            [[row.tolist() for row in cum_rows[t]] for t in range(cum_rows.shape[0])],
            tpms.matrices,
        )
        tpms._row_lists = cached
    return cached


def _hold_steps(duration_minutes: float) -> int:
    return max(1, math.ceil(duration_minutes / 15.0))


def _resume_draw(probs: np.ndarray, exclude: int, rng: np.random.Generator) -> int:
    """Draw from a row with one column removed and the rest renormalized.

    If the row has no mass outside the excluded column the excluded state
    is returned and the caller extends the hold by one step.
    """
    mass = 1.0 - probs[exclude]
    if mass <= 1e-12:
        return exclude
    r = rng.random() * mass
    acc = 0.0
    last = exclude
    for j, p in enumerate(probs):
        if j == exclude or p == 0.0:
            continue
        acc += p
        last = j
        if r < acc:
            return j
    return last


def _chain_states(tpms: TPMSet, rng: np.random.Generator) -> np.ndarray:
    """Plain chain walk (approach 2 core)."""
    cum_init, cum_rows, _ = _row_tuples(tpms)
    n = tpms.n_steps
    states = np.empty(n, dtype=np.int8)
    s = draw_index(cum_init, rng.random())
    states[0] = s
    for t in range(n - 1):
        s = draw_index(cum_rows[t][s], rng.random())
        states[t + 1] = s
    return states


def _approach3_states(
    tpms: TPMSet, stats: dict[ActivityState, ActivityStats], rng: np.random.Generator
) -> np.ndarray:
    """Chain walk with sampled-duration holds on event activities."""
    cum_init, cum_rows, matrices = _row_tuples(tpms)
    alphabet = tpms.alphabet
    event_idx = {i for i, a in enumerate(alphabet) if int(a) in _EVENT_SET}
    n = tpms.n_steps
    states = np.empty(n, dtype=np.int8)
    s = draw_index(cum_init, rng.random())
    t = 0
    while True:
        if s in event_idx:
            st = stats.get(alphabet[s])
            dur = st.duration_dist.sample(rng) if st is not None and st.duration_dist else 15.0
            end = min(t + _hold_steps(dur) - 1, n - 1)
            states[t : end + 1] = s
            t = end
        else:
            states[t] = s
        if t == n - 1:
            return states
        if s in event_idx:
            s = _resume_draw(matrices[t, s], s, rng)
        else:
            s = draw_index(cum_rows[t][s], rng.random())
        t += 1


def _approach1_states(
    presence_tpms: TPMSet, stats: dict[ActivityState, ActivityStats], rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Presence chain plus sampled event placement inside HomeActive windows.

    Each sampled occurrence draws a duration once and retries its onset up
    to RETRY_BUDGET times; occurrences that never fit are dropped and
    counted as placement failures.
    """
    presence = _chain_states(presence_tpms, rng)
    states = presence.copy()
    n = presence.shape[0]
    home = presence == int(ActivityState.HOME_ACTIVE)
    free = home.copy()
    failures = 0
    for activity in EVENT_ACTIVITIES:
        st = stats.get(activity)
        if st is None:
            continue
        count = st.occurrences_dist.sample_int(rng)
        if count <= 0:
            continue
        if st.onset_dist is None or st.duration_dist is None:
            failures += count
            continue
        for _ in range(count):
            h = _hold_steps(st.duration_dist.sample(rng))
            placed = False
            for _ in range(RETRY_BUDGET):
                onset = int(round(st.onset_dist.sample(rng)))
                if onset < 0 or onset + h > n:
                    continue
                window = free[onset : onset + h]
                if window.all():
                    states[onset : onset + h] = int(activity)
                    free[onset : onset + h] = False
                    placed = True
                    break
            if not placed:
                failures += 1
    return states, failures


def simulate_day_approach1(
    presence_tpms: TPMSet,
    stats: dict[ActivityState, ActivityStats],
    rng: np.random.Generator,
    day_index: int = 0,
    day_type: str | None = None,
) -> tuple[OccupantDaySchedule, int]:
    states, failures = _approach1_states(presence_tpms, stats, rng)
    sched = OccupantDaySchedule(day_index, day_type or presence_tpms.day_type, states)
    return sched, failures


def simulate_day_approach2(
    tpms: TPMSet, rng: np.random.Generator, day_index: int = 0, day_type: str | None = None
) -> OccupantDaySchedule:
    return OccupantDaySchedule(day_index, day_type or tpms.day_type, _chain_states(tpms, rng))


def simulate_day_approach3(
    tpms: TPMSet,
    stats: dict[ActivityState, ActivityStats],
    rng: np.random.Generator,
    day_index: int = 0,
    day_type: str | None = None,
) -> OccupantDaySchedule:
    states = _approach3_states(tpms, stats, rng)
    return OccupantDaySchedule(day_index, day_type or tpms.day_type, states)


def simulate_days_approach2(tpms: TPMSet, n_days: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized bulk chain walk: (n_days, n_steps) state matrix."""
    cum_init, cum_rows = tpms.cumulative()
    n_steps = tpms.n_steps
    out = np.empty((n_days, n_steps), dtype=np.int8)
    r = rng.random(n_days)
    s = np.minimum(np.searchsorted(cum_init, r, side="right"), tpms.n_states - 1)
    out[:, 0] = s
    for t in range(n_steps - 1):
        rows = cum_rows[t][s]  # (n_days, S)
        r = rng.random(n_days)
        s = np.minimum((rows < r[:, None]).sum(axis=1), tpms.n_states - 1)
        out[:, t + 1] = s
    return out


def days_to_sequences(
    days: np.ndarray, day_type: str = "WD", prefix: str = "sim"
) -> list[StateSequence]:
    """Wrap a (n, 96) simulated state matrix as unit-weight sequences."""
    return [
        StateSequence(f"{prefix}{i}", day_type, 1.0, row) for i, row in enumerate(np.asarray(days))
    ]


def simulate_year(
    profile: OccupantProfile,
    models: dict[str, dict[int, ClusterDayModel]],
    calendar: SimCalendar,
    rng_root: np.random.SeedSequence,
    approach: int = 3,
) -> tuple[list[OccupantDaySchedule], int]:
    """Simulate every calendar day for one occupant.

    Each day draws from its own stream derived from `rng_root`, so days are
    independent and reproducible regardless of evaluation order.  Returns
    the day schedules plus the total approach-1 placement failures (zero
    for the other approaches).
    """
    if approach not in (1, 2, 3):
        raise SimulationError(f"approach must be 1, 2, or 3, got {approach}")
    days: list[OccupantDaySchedule] = []
    failures = 0
    for day in range(calendar.n_days):
        day_type = calendar.day_type(day)
        cluster = profile.weekday_cluster if day_type == "WD" else profile.weekend_cluster
        try:
            model = models[day_type][cluster]
        except KeyError:
            raise SimulationError(f"no trained model for day_type={day_type} cluster={cluster}")
        rng = streams.generator(streams.child(rng_root, day))
        if approach == 1:
            sched, n_fail = simulate_day_approach1(
                model.presence_tpms, model.stats, rng, day, day_type
            )
            failures += n_fail
        elif approach == 2:
            sched = simulate_day_approach2(model.tpms, rng, day, day_type)
        else:
            sched = simulate_day_approach3(model.tpms, model.stats, rng, day, day_type)
        days.append(sched)
    return days, failures
