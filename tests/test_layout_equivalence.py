"""The simulate draws agree in distribution with the scalar draws they replaced.

Household sinks, appliances and hygiene are drawn as whole arrays, with the
sink retry loop in closed form, and occupant-days are drawn from one stream
per (occupant, day type) rather than one per day.  Each case draws the same
quantity from the scalar oracle (`tests.helpers`, or the per-day stream
layout) and from the current code on independent generators, at three
seeds, and requires a two-sample test not to reject at P_MIN.
"""

import numpy as np
import pytest

from occsim import occupant_sim, streams
from occsim.diary_ingest import N_STEPS
from occsim.household import (
    ACTIVITY_APPLIANCE,
    EVENT_COLUMNS,
    HouseholdConfig,
    attach_appliance_events,
    attach_hygiene_water,
    generate_sink_events,
)
from occsim.occupant_sim import (
    OccupantProfile,
    SimCalendar,
    place_events,
    simulate_year,
    walk_days,
    walk_occupants,
)
from occsim.synth import default_bundle, truth_models
from tests.helpers import day_uniforms, point_mass, scalar_appliance_events, scalar_hygiene_water, scalar_sink_events

stats = pytest.importorskip("scipy.stats")

SEEDS = (1, 2, 3)
P_MIN = 1e-3
C = EVENT_COLUMNS.index


def rngs(seed):
    """Independent generators for the old and the new draws."""
    return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])


def same_law(a, b):
    """Chi-square homogeneity over the values when there are few, else KS."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.size and b.size
    values = np.union1d(a, b)
    if values.size > 20:
        p = stats.ks_2samp(a, b).pvalue
    elif values.size > 1:
        p = stats.chi2_contingency([[np.sum(x == v) for v in values] for x in (a, b)]).pvalue
    else:
        p = 1.0
    assert p > P_MIN, p


def same_rate(hits_a, n_a, hits_b, n_b):
    """Chi-square test that two counts of hits out of n share one rate."""
    p = stats.chi2_contingency([[hits_a, n_a - hits_a], [hits_b, n_b - hits_b]]).pvalue
    assert p > P_MIN, p


def sparse_active(seed, n_days=400):
    """About 3 active steps a day, so each day's onset mass on active steps
    is small and many sink draws exhaust their retries."""
    return np.random.default_rng([seed, 2]).random(n_days * N_STEPS) < 0.03


@pytest.mark.parametrize("seed", SEEDS)
def test_sinks_match_rejection_sampling(seed):
    bundle = default_bundle()
    active = sparse_active(seed)
    old, new = (
        draw(active, bundle, rng) for draw, rng in zip((scalar_sink_events, generate_sink_events), rngs(seed))
    )
    per_day = [np.bincount((ev["start"] // 1440).astype(int), minlength=400) for ev in (old, new)]
    same_law(*per_day)
    same_law(*(ev["start"] % 1440 / 15 for ev in (old, new)))  # onset steps
    for field in ("duration", "magnitude"):
        same_law(old[field], new[field])


@pytest.mark.parametrize("seed", SEEDS)
def test_sink_drop_rate_matches_rejection_sampling(seed):
    bundle = default_bundle()
    bundle["sink.count"] = point_mass(6.0, "count")
    active = sparse_active(seed)
    drawn = 6 * 400
    old, new = (
        len(draw(active, bundle, rng))
        for draw, rng in zip((scalar_sink_events, generate_sink_events), rngs(seed))
    )
    assert 0.2 * drawn < new < 0.8 * drawn  # drops happen, and not all the time
    same_rate(old, drawn, new, drawn)


@pytest.mark.parametrize("seed", SEEDS)
def test_appliance_draws_match_scalar(seed):
    bundle = default_bundle()
    m, year_minutes = 3000, 3000.0
    starts = 15.0 * np.sort(np.random.default_rng([seed, 2]).integers(180, 200, m))
    intervals = {activity: np.stack([starts, starts + 30.0], axis=1) for activity in ACTIVITY_APPLIANCE}
    old_rng, new_rng = rngs(seed)
    old = scalar_appliance_events(intervals, bundle, old_rng, year_minutes=year_minutes)
    new = attach_appliance_events(intervals, bundle, new_rng, year_minutes=year_minutes)
    for column in range(C("clothes_dryer_power")):
        for ev in (old, new):
            assert np.sum(ev["column"] == column) == m
    dryers = [ev[ev["column"] == C("clothes_dryer_power")] for ev in (old, new)]
    assert len(dryers[1]) < m  # some dryers fall past the year end
    same_rate(len(dryers[0]), m, len(dryers[1]), m)
    same_law(dryers[0]["start"], dryers[1]["start"])
    for column in range(C("clothes_dryer_power") + 1):
        a, b = (ev[ev["column"] == column] for ev in (old, new))
        for field in ("duration", "magnitude"):
            same_law(a[field], b[field])


@pytest.mark.parametrize("seed", SEEDS)
def test_hygiene_draws_match_scalar(seed):
    bundle = default_bundle()
    config = HouseholdConfig(point_mass(1.0, "count"), shower_fraction=0.7)
    starts = 60.0 * np.arange(3000)
    widths = 15.0 * np.random.default_rng([seed, 2]).integers(1, 4, starts.size)
    intervals = np.stack([starts, starts + widths], axis=1)
    old_rng, new_rng = rngs(seed)
    old = scalar_hygiene_water(intervals, bundle, config.shower_fraction, old_rng)
    new = attach_hygiene_water(intervals, bundle, config, new_rng)
    showers = [int(np.sum(ev["column"] == C("showers"))) for ev in (old, new)]
    same_rate(showers[0], len(intervals), showers[1], len(intervals))
    for column in (C("showers"), C("baths")):
        a, b = (ev[ev["column"] == column] for ev in (old, new))
        for field in ("duration", "magnitude"):
            same_law(a[field], b[field])
        same_law(a["start"] % 60, b["start"] % 60)  # offsets into the interval


@pytest.mark.parametrize("seed", SEEDS)
def test_approach1_failures_per_day_match_per_day_streams(seed, monkeypatch):
    models = truth_models()
    profile = OccupantProfile("o", 0, 2)
    calendar = SimCalendar(start_weekday=0, n_days=70)
    old = []
    for o in range(6):
        root = streams.child(streams.root(seed), streams.OCCUPANT, o)
        for d, day_type in enumerate(calendar.day_types):
            model = models[day_type][0 if day_type == "WD" else 2]
            rng = streams.generator(streams.child(root, d))
            presence = walk_days(model.presence_tpms, day_uniforms(model.presence_tpms, rng)[None])
            old.extend(place_events(presence, model.stats, rng.random)[1])
    new = []

    def recording(*args):
        states, fails = place_events(*args)
        new.extend(fails)
        return states, fails

    monkeypatch.setattr(occupant_sim, "place_events", recording)
    occupants = [(profile, streams.child(streams.root(seed + 100), streams.OCCUPANT, o)) for o in range(6)]
    walked = walk_occupants(occupants, models, calendar, approach=1)
    total = sum(
        simulate_year(profile, days, models, calendar, root, approach=1)[1]
        for (profile, root), days in zip(occupants, walked)
    )
    assert len(new) == len(old) and sum(new) == total > 0
    same_law(np.minimum(old, 3), np.minimum(new, 3))
