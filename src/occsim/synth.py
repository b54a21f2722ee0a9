"""Synthetic diary corpus generation.

Builds ground-truth cluster models (hand-constructed per-step chains plus
planted event-duration distributions), draws diaries from them, and writes
a complete input tree: minute-resolution diary CSV, activity code map,
event sampling bundle, reference schedules, household and project configs.
Because the ground truth is known, training and simulation can be checked
against it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import streams
from .diary_ingest import (
    DAY_TYPES,
    EVENT_ACTIVITIES,
    FULL_ALPHABET,
    N_STEPS,
    STEP_MINUTES,
    ActivityState,
    ActivityCodeMap,
    sequence_rows,
    sequence_table,
)
from .conf import OccsimError, number_text, write_lines
from .distributions import EmpiricalDistribution
from .household import DEFAULT_CLUSTER_SHARES, HouseholdConfig, _draw_index
from .markov_train import ActivityStats, ClusterDayModel, TPMSet
from .occupant_sim import uniforms_per_day, walk_days
from .schedule_io import MODULATED_END_USES, write_bundle, write_step_values

SHORT_CODES = {
    ActivityState.SLEEP: "s",
    ActivityState.AWAY: "a",
    ActivityState.HOME_ACTIVE: "h",
    ActivityState.COOKING: "c",
    ActivityState.DISHWASHING: "d",
    ActivityState.LAUNDRY: "l",
    ActivityState.PERSONAL_HYGIENE: "p",
}

PLANTED_SHARES = DEFAULT_CLUSTER_SHARES

# steps count from 4:00 a.m.; wake/sleep mark presence-target switches and
# away is a half-open step window.
_ARCHETYPES: list[dict] = [
    dict(name="commuter, evening home", wake=10, away=(18, 54), sleep=74,
         we=dict(wake=16, away=(30, 46), sleep=78)),
    dict(name="early riser, home days", wake=4, away=None, sleep=68,
         we=dict(wake=6, away=None, sleep=70)),
    dict(name="commuter, evening out", wake=12, away=(18, 72), sleep=78,
         we=dict(wake=18, away=(40, 76), sleep=80)),
    dict(name="home days, late riser", wake=18, away=None, sleep=80,
         we=dict(wake=22, away=None, sleep=82)),
]

_DURATIONS = {
    ActivityState.COOKING: ((15, 0.35), (30, 0.35), (45, 0.20), (60, 0.10)),
    ActivityState.DISHWASHING: ((15, 0.60), (30, 0.30), (45, 0.10)),
    ActivityState.LAUNDRY: ((30, 0.25), (60, 0.40), (90, 0.25), (120, 0.10)),
    ActivityState.PERSONAL_HYGIENE: ((15, 0.45), (30, 0.35), (45, 0.15), (60, 0.05)),
}


def planted_duration_dist(activity: ActivityState) -> EmpiricalDistribution:
    return _dist(_DURATIONS[activity], "minutes")


def _bumps(spec: list[tuple[float, float, float]]) -> np.ndarray:
    t = np.arange(N_STEPS - 1, dtype=np.float64)
    out = np.zeros(N_STEPS - 1)
    for center, width, amp in spec:
        out += amp * np.exp(-0.5 * ((t - center) / width) ** 2)
    return out


def _entry_hazards(wake: int, sleep: int) -> dict[ActivityState, np.ndarray]:
    """Each event activity's per-step entry probability from HomeActive.
    Their total peaks at 0.275 over the archetypes; one above the 0.96 they
    take from HomeActive's row would leave it negative, which TPMSet rejects."""
    return {
        ActivityState.COOKING: _bumps([(wake + 3, 3, 0.10), (34, 3, 0.06), (58, 4, 0.16)]),
        ActivityState.DISHWASHING: _bumps([(wake + 7, 2, 0.05), (64, 3, 0.09)]),
        ActivityState.LAUNDRY: _bumps([(44, 14, 0.04)]),
        ActivityState.PERSONAL_HYGIENE: _bumps([(wake + 2, 3, 0.16), (min(sleep - 4, 92), 4, 0.08)]),
    }


def _skeleton(wake: int, away: tuple[int, int] | None, sleep: int) -> np.ndarray:
    sk = np.full(N_STEPS, int(ActivityState.HOME_ACTIVE), dtype=np.int8)
    sk[:wake] = int(ActivityState.SLEEP)
    sk[sleep:] = int(ActivityState.SLEEP)
    if away is not None:
        sk[away[0] : away[1]] = int(ActivityState.AWAY)
    return sk


def build_truth_model(cluster_id: int, day_type: str) -> ClusterDayModel:
    """Hand-built chain plus planted duration distributions for one cluster."""
    arche = dict(_ARCHETYPES[cluster_id % len(_ARCHETYPES)])
    if day_type == "WE":
        arche.update(arche["we"])
    wake, away, sleep = arche["wake"], arche["away"], arche["sleep"]
    sk = _skeleton(wake, away, sleep)
    hazards = _entry_hazards(wake, sleep)

    S = len(FULL_ALPHABET)
    HA, SL, AW = int(ActivityState.HOME_ACTIVE), int(ActivityState.SLEEP), int(ActivityState.AWAY)
    presence = (SL, AW, HA)
    M = np.zeros((N_STEPS - 1, S, S))
    for t in range(N_STEPS - 1):
        tgt = int(sk[t + 1])
        for s in presence:
            row = np.zeros(S)
            if s == tgt:
                if s == HA:
                    e_tot = 0.0
                    for a in EVENT_ACTIVITIES:
                        row[int(a)] = hazards[a][t]
                        e_tot += hazards[a][t]
                    row[HA] = 0.96 - e_tot
                    row[SL] = 0.02
                    row[AW] = 0.02
                else:
                    row[s] = 0.97
                    row[HA] = 0.03
            else:
                third = [p for p in presence if p not in (s, tgt)][0]
                row[tgt] = 0.72
                row[s] = 0.26
                row[third] = 0.02
            M[t, s] = row / row.sum()
        for a in EVENT_ACTIVITIES:
            row = np.zeros(S)
            if tgt == HA:
                row[HA] = 0.90
                row[SL] = 0.05
                row[AW] = 0.05
            else:
                row[HA] = 0.45
                row[tgt] = 0.55
            M[t, int(a)] = row
    initial = np.zeros(S)
    initial[SL] = 0.95
    initial[AW] = 0.03
    initial[HA] = 0.02
    tpms = TPMSet(cluster_id, day_type, FULL_ALPHABET, initial, M)

    # Presence chain: event columns fold into HomeActive.
    P = np.zeros((N_STEPS - 1, 3, 3))
    for s in presence:
        P[:, s, SL] = M[:, s, SL]
        P[:, s, AW] = M[:, s, AW]
        P[:, s, HA] = M[:, s, HA] + M[:, s, 3:].sum(axis=1)
    p_init = np.array([initial[SL], initial[AW], initial[HA] + initial[3:].sum()])
    presence_tpms = TPMSet(
        cluster_id, day_type, (ActivityState.SLEEP, ActivityState.AWAY, ActivityState.HOME_ACTIVE),
        p_init, P,
    )

    stats: dict[ActivityState, ActivityStats] = {}
    for a in EVENT_ACTIVITIES:
        hz = hazards[a]
        onset = EmpiricalDistribution(
            np.arange(N_STEPS - 1, dtype=float), hz / hz.sum(), unit="steps"
        )
        occurrences = EmpiricalDistribution(
            np.array([0.0, 1.0, 2.0]), np.array([0.35, 0.40, 0.25]), unit="count"
        )
        stats[a] = ActivityStats(a, planted_duration_dist(a), onset, occurrences)
    return ClusterDayModel(cluster_id, day_type, tpms, presence_tpms, stats)


def truth_models(k: int = 4) -> dict[str, dict[int, ClusterDayModel]]:
    return {dt: {c: build_truth_model(c, dt) for c in range(k)} for dt in DAY_TYPES}


def generate_corpus(n_per_day_type: int, base_seed: int) -> np.ndarray:
    """Draw `n_per_day_type` diaries of each day type from `truth_models`,
    each of cluster c with probability `PLANTED_SHARES[c]`.  Each diary
    draws its cluster, day and weight in 0.5..1.5 from streams of its own,
    keyed by its day type's index in `DAY_TYPES`; each (day type, cluster)
    group of days is walked in one call."""
    models = truth_models()
    root = streams.root(base_seed)
    ids, weights, blocks = [], [], []
    for di, dt in enumerate(DAY_TYPES):
        picks = [streams.generator(root, streams.SYNTH, di, i, 0) for i in range(n_per_day_type)]
        clusters = np.array([_draw_index(PLANTED_SHARES, pick) for pick in picks])
        states = np.empty((n_per_day_type, N_STEPS), dtype=np.int8)
        for cluster, model in models[dt].items():
            rows = np.flatnonzero(clusters == cluster)
            if rows.size:
                rngs = [streams.generator(root, streams.SYNTH, di, i, 1) for i in rows]
                u = np.stack([rng.random(uniforms_per_day(model.tpms, model.stats)) for rng in rngs])
                states[rows] = walk_days(model.tpms, u, model.stats)
        blocks.append(states)
        for i in range(n_per_day_type):
            ids.append(f"r{dt.lower()}{i:05d}")
            weights.append(round(float(streams.generator(root, streams.SYNTH, di, i, 2).uniform(0.5, 1.5)), 6))
    day_type_column = [dt for dt in DAY_TYPES for _ in range(n_per_day_type)]
    return sequence_table(ids, day_type_column, weights, np.concatenate(blocks))


def default_code_map() -> ActivityCodeMap:
    return ActivityCodeMap(
        {code: state for state, code in SHORT_CODES.items()}, ActivityState.HOME_ACTIVE
    )


def write_diaries(path: str | Path, table: np.ndarray) -> None:
    """Expand the 96-step rows of a SEQUENCE table to minute-resolution diary rows."""
    header = "respondent_id,day_type,weight," + ",".join(
        f"m{i:04d}" for i in range(N_STEPS * STEP_MINUTES)
    )
    lines = [header]
    for (rid, day_type, _, states), weight in zip(sequence_rows(table), number_text(table["weight"])):
        codes = ",".join([SHORT_CODES[s] for s in states for _ in range(STEP_MINUTES)])
        lines.append(f"{rid},{day_type},{weight},{codes}")
    write_lines(path, lines)


def _dist(pairs: tuple[tuple[float, float], ...], unit: str) -> EmpiricalDistribution:
    return EmpiricalDistribution(
        np.array([v for v, _ in pairs], dtype=float), np.array([p for _, p in pairs]), unit
    )


def default_bundle() -> dict[str, EmpiricalDistribution]:
    """Plausible event sampling distributions for demonstration runs."""
    onset_steps = np.arange(N_STEPS, dtype=float)
    onset_shape = 0.2 + np.exp(-0.5 * ((onset_steps - 14) / 6.0) ** 2) + 1.4 * np.exp(
        -0.5 * ((onset_steps - 60) / 10.0) ** 2
    )
    return {
        "shower.duration": _dist(((5, 0.20), (7, 0.30), (9, 0.25), (12, 0.15), (15, 0.10)), "minutes"),
        "shower.flow": _dist(((1.5, 0.30), (2.0, 0.50), (2.5, 0.20)), "volume_per_minute"),
        "bath.duration": _dist(((10, 0.40), (15, 0.40), (20, 0.20)), "minutes"),
        "bath.flow": _dist(((3.0, 0.50), (4.0, 0.50)), "volume_per_minute"),
        "sink.onset": EmpiricalDistribution(onset_steps, onset_shape / onset_shape.sum(), "steps"),
        "sink.count": _dist(((4, 0.20), (6, 0.30), (8, 0.30), (10, 0.20)), "count"),
        "sink.duration": _dist(((1, 0.50), (2, 0.30), (3, 0.20)), "minutes"),
        "sink.flow": _dist(((0.5, 0.40), (1.0, 0.40), (1.5, 0.20)), "volume_per_minute"),
        "cooking_range.power.duration": _dist(((15, 0.30), (30, 0.40), (45, 0.20), (60, 0.10)), "minutes"),
        "cooking_range.power.level": _dist(((0.5, 0.30), (0.75, 0.40), (1.0, 0.30)), "fraction"),
        "dishwasher.power.duration": _dist(((60, 0.40), (90, 0.40), (120, 0.20)), "minutes"),
        "dishwasher.power.level": _dist(((0.8, 0.50), (1.0, 0.50)), "fraction"),
        "dishwasher.water.duration": _dist(((4, 0.40), (6, 0.40), (8, 0.20)), "minutes"),
        "dishwasher.water.flow": _dist(((1.0, 0.50), (1.5, 0.50)), "volume_per_minute"),
        "clothes_washer.power.duration": _dist(((30, 0.40), (45, 0.40), (60, 0.20)), "minutes"),
        "clothes_washer.power.level": _dist(((0.7, 0.50), (1.0, 0.50)), "fraction"),
        "clothes_washer.water.duration": _dist(((8, 0.40), (12, 0.40), (16, 0.20)), "minutes"),
        "clothes_washer.water.flow": _dist(((2.0, 0.50), (3.0, 0.50)), "volume_per_minute"),
        "clothes_dryer.power.duration": _dist(((45, 0.40), (60, 0.40), (75, 0.20)), "minutes"),
        "clothes_dryer.power.level": _dist(((1.0, 1.0),), "fraction"),
    }


def default_reference(use: str, day_type: str) -> np.ndarray:
    """Smooth nonzero daily reference curves for the modulated end uses."""
    t = np.arange(N_STEPS, dtype=np.float64)
    late = 1.0 if day_type == "WE" else 0.0
    if use == "lighting":
        base = 0.08 + 0.25 * np.exp(-0.5 * ((t - 10 - 2 * late) / 6) ** 2)
        base += 0.9 * np.exp(-0.5 * ((t - 66 - 2 * late) / 9) ** 2)
    elif use == "plug_loads":
        base = 0.35 + 0.3 * np.exp(-0.5 * ((t - 50) / 20) ** 2)
        base += 0.2 * np.exp(-0.5 * ((t - 70) / 8) ** 2)
    elif use == "ceiling_fan":
        base = 0.1 + 0.6 * np.exp(-0.5 * ((t - 44 + 4 * late) / 12) ** 2)
    else:
        raise OccsimError(f"unknown end use {use!r}")
    return base / base.max()


@dataclass
class SynthLayout:
    """Paths of a generated input tree."""

    root: Path
    diaries: Path
    code_map: Path
    bundle: Path
    reference: Path
    household: Path
    project: Path


def write_input_tree(
    out_dir: str | Path,
    n_per_day_type: int = 1500,
    base_seed: int = 20006,
    n_households: int = 3,
    n_days: int = 28,
) -> SynthLayout:
    """Generate the full demonstration input tree under `out_dir`."""
    sizes = {"n_per_day_type": n_per_day_type, "n_households": n_households, "n_days": n_days}
    for name, size in sizes.items():
        if not isinstance(size, (int, np.integer)) or size < 1:
            raise OccsimError(f"{name} must be a positive whole number, got {size!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(n_per_day_type, base_seed)
    layout = SynthLayout(
        out,
        out / "diaries.csv",
        out / "code_map.csv",
        out / "bundle",
        out / "reference",
        out / "household.conf",
        out / "project.conf",
    )
    write_diaries(layout.diaries, corpus)
    default_code_map().write(layout.code_map)
    write_bundle(layout.bundle, default_bundle())
    layout.reference.mkdir(parents=True, exist_ok=True)
    for use in MODULATED_END_USES:
        for dt in DAY_TYPES:
            write_step_values(layout.reference / f"{use}.{dt.lower()}.ref", default_reference(use, dt))
    HouseholdConfig(
        occupant_count_dist=_dist(((1, 0.30), (2, 0.45), (3, 0.25)), "count"),
        cluster_shares_wd=PLANTED_SHARES,
        cluster_shares_we=PLANTED_SHARES,
    ).write(layout.household)
    write_lines(
        layout.project,
        [
            "diaries = diaries.csv",
            "code_map = code_map.csv",
            "bundle = bundle",
            "reference = reference",
            "household = household.conf",
            "out = out",
            f"base_seed = {base_seed}",
            f"n_households = {n_households}",
            f"n_days = {n_days}",
            "start_weekday = monday",
            "approach = 3",
            # the corpus plants four clusters; pin k so household cluster
            # shares always line up with the trained model
            "k_range = 4:4",
            "epsilon = 0.01",
        ],
    )
    return layout
