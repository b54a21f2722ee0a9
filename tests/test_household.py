import hashlib

import numpy as np
import pytest

from occsim import streams
from occsim.conf import OccsimError
from occsim.diary_ingest import DAY_TYPES, N_STEPS, ActivityState
from occsim.distributions import EmpiricalDistribution
from occsim.household import (
    EVENT,
    EVENT_COLUMNS,
    HouseholdConfig,
    HouseholdResult,
    apply_vacation,
    attach_appliance_events,
    attach_hygiene_water,
    draw_households,
    generate_sink_events,
    hygiene_intervals,
    merge_shared_events,
    modulate_schedule,
    sample_household,
)
from occsim.markov_train import ClusterDayModel, TPMSet
from occsim.occupant_sim import SimCalendar
from occsim.schedule_io import MODULATED_END_USES, assemble_schedule
from occsim.synth import PLANTED_SHARES, default_bundle, default_reference, truth_models
from tests.helpers import one_household, point_mass

SL = int(ActivityState.SLEEP)
AW = int(ActivityState.AWAY)
HA = int(ActivityState.HOME_ACTIVE)
CO = int(ActivityState.COOKING)

COOKING = ActivityState.COOKING
HYGIENE = ActivityState.PERSONAL_HYGIENE

C = EVENT_COLUMNS.index
NO_EVENTS = np.zeros(0, dtype=EVENT)


def one_count_config(n=1, **kw):
    return HouseholdConfig(point_mass(float(n), "count"), (1.0,), (1.0,), **kw)


def paint(per_occ, activity, n_steps=N_STEPS):
    """A HomeActive state matrix with `activity` over each occupant's
    step-aligned (start, end) minute intervals."""
    states = np.full((len(per_occ), n_steps), HA, dtype=np.int8)
    for o, ivs in enumerate(per_occ):
        for s, e in ivs:
            states[o, int(s) // 15 : int(e) // 15] = int(activity)
    return states


def test_merge_frozen_oracle():
    per_occ = [[(0.0, 30.0), (60.0, 90.0)], [(15.0, 45.0), (90.0, 120.0)], [(300.0, 315.0)]]
    merged = merge_shared_events(paint(per_occ, COOKING), COOKING)
    assert merged.tolist() == [[0.0, 45.0], [60.0, 120.0], [300.0, 315.0]]


def test_merge_abutting_intervals():
    merged = merge_shared_events(paint([[(0.0, 15.0)], [(15.0, 30.0)]], COOKING), COOKING)
    assert merged.tolist() == [[0.0, 30.0]]


def test_merge_rejects_hygiene():
    with pytest.raises(OccsimError, match="never merged"):
        merge_shared_events(paint([[(0.0, 15.0)]], HYGIENE), HYGIENE)


def test_merge_matches_minute_mask_union():
    rng = np.random.default_rng(21)
    for _ in range(20):
        per_occ = []
        for _o in range(3):
            ivs = []
            for _i in range(rng.integers(0, 5)):
                s = int(rng.integers(0, 90)) * 15
                e = s + int(rng.integers(1, 6)) * 15
                ivs.append((float(s), float(e)))
            per_occ.append(ivs)
        merged = merge_shared_events(paint(per_occ, COOKING, 2 * N_STEPS), COOKING)
        mask = np.zeros(1440 * 2, dtype=bool)
        for ivs in per_occ:
            for s, e in ivs:
                mask[int(s) : int(e)] = True
        edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
        expect = list(
            zip(np.nonzero(edges == 1)[0].astype(float), np.nonzero(edges == -1)[0].astype(float))
        )
        assert [tuple(iv) for iv in merged.tolist()] == expect


def test_activity_intervals_minutes():
    states = np.full((1, N_STEPS), HA, dtype=np.int8)
    states[0, 4:6] = CO
    states[0, 95] = CO
    assert merge_shared_events(states, COOKING).tolist() == [[60.0, 90.0], [1425.0, 1440.0]]
    assert merge_shared_events(states, ActivityState.LAUNDRY).shape == (0, 2)


def test_hygiene_intervals_are_per_occupant_in_occupant_order():
    per_occ = [[(600.0, 630.0)], [(0.0, 15.0), (600.0, 630.0)], []]
    assert hygiene_intervals(paint(per_occ, HYGIENE)).tolist() == [
        [600.0, 630.0],
        [0.0, 15.0],
        [600.0, 630.0],
    ]
    assert hygiene_intervals(paint([[]], HYGIENE)).shape == (0, 2)


def _pm_bundle():
    b = default_bundle()
    vals = {
        "cooking_range.power.duration": 40.0,
        "cooking_range.power.level": 0.8,
        "dishwasher.power.duration": 60.0,
        "dishwasher.power.level": 0.6,
        "dishwasher.water.duration": 10.0,
        "dishwasher.water.flow": 5.0,
        "clothes_washer.power.duration": 45.0,
        "clothes_washer.power.level": 0.5,
        "clothes_washer.water.duration": 20.0,
        "clothes_washer.water.flow": 7.0,
        "clothes_dryer.power.duration": 50.0,
        "clothes_dryer.power.level": 0.9,
        "shower.duration": 10.0,
        "shower.flow": 8.0,
        "bath.duration": 12.0,
        "bath.flow": 9.0,
        "sink.count": 3.0,
        "sink.onset": 40.0,
        "sink.duration": 2.0,
        "sink.flow": 3.0,
    }
    for name, v in vals.items():
        b[name] = point_mass(v, b[name].unit)
    return b


def test_attach_appliance_events_frozen():
    bundle = _pm_bundle()
    intervals = {
        COOKING: np.array([[100.0, 130.0]]),
        ActivityState.DISHWASHING: np.array([[1000.0, 1015.0]]),
        ActivityState.LAUNDRY: np.array([[200.0, 230.0]]),
    }
    events = attach_appliance_events(intervals, bundle, np.random.default_rng(0), year_minutes=1440.0)
    assert events.dtype == EVENT
    assert events.tolist() == [
        (C("cooking_range"), 100.0, 40.0, 0.8),
        (C("dishwasher_power"), 1000.0, 60.0, 0.6),
        (C("dishwasher_water"), 1000.0, 10.0, 5.0),
        (C("clothes_washer_power"), 200.0, 45.0, 0.5),
        (C("clothes_washer_water"), 200.0, 20.0, 7.0),
        (C("clothes_dryer_power"), 245.0, 50.0, 0.9),  # starts when the washer's power cycle ends
    ]


def test_dryer_dropped_past_year_end():
    bundle = _pm_bundle()
    year_minutes = 4 * 1440.0
    intervals = {ActivityState.LAUNDRY: np.array([[year_minutes - 30.0, year_minutes - 15.0]])}
    events = attach_appliance_events(intervals, bundle, np.random.default_rng(0), year_minutes=year_minutes)
    assert events["column"].tolist() == [C("clothes_washer_power"), C("clothes_washer_water")]
    # a dryer that starts before the year ends is kept
    longer = year_minutes + 1440.0
    events = attach_appliance_events(intervals, bundle, np.random.default_rng(0), year_minutes=longer)
    assert events["column"].tolist() == [
        C("clothes_washer_power"),
        C("clothes_washer_water"),
        C("clothes_dryer_power"),
    ]


def test_attach_appliance_events_missing_bundle_entry():
    bundle = _pm_bundle()
    del bundle["dishwasher.water.flow"]
    with pytest.raises(OccsimError, match="dishwasher.water.flow") as exc:
        attach_appliance_events(
            {ActivityState.DISHWASHING: np.array([[0.0, 15.0]])}, bundle, np.random.default_rng(0), year_minutes=1440.0
        )
    # an OccsimError, so simulate catches it, and printed without KeyError's quotes
    assert isinstance(exc.value, OccsimError)
    assert str(exc.value) == "missing distribution 'dishwasher.water.flow'"


def test_hygiene_water_within_interval():
    bundle = _pm_bundle()
    config = one_count_config(shower_fraction=1.0)
    rng = np.random.default_rng(7)
    starts = set()
    for _ in range(200):
        (ev,) = attach_hygiene_water(np.array([[600.0, 630.0]]), bundle, config, rng)
        column, start, duration, flow = ev.tolist()
        assert column == C("showers")
        assert duration == 10.0 and flow == 8.0
        assert 600.0 <= start and start + duration <= 630.0
        assert start == int(start)
        starts.add(start)
    assert starts == {600.0 + k for k in range(21)}  # uniform over the fitting offsets


def test_hygiene_water_clips_long_draw():
    bundle = _pm_bundle()
    bundle["shower.duration"] = point_mass(45.0, "minutes")
    config = one_count_config(shower_fraction=1.0)
    (ev,) = attach_hygiene_water(np.array([[600.0, 630.0]]), bundle, config, np.random.default_rng(0))
    assert ev["start"] == 600.0 and ev["duration"] == 30.0


def test_hygiene_water_bath_branch():
    bundle = _pm_bundle()
    config = one_count_config(shower_fraction=0.0)
    (ev,) = attach_hygiene_water(np.array([[0.0, 30.0]]), bundle, config, np.random.default_rng(0))
    assert ev["column"] == C("baths")
    assert ev["duration"] == 12.0 and ev["magnitude"] == 9.0


def test_hygiene_water_shower_share():
    bundle = _pm_bundle()
    config = one_count_config()  # default shower fraction
    rng = np.random.default_rng(11)
    events = attach_hygiene_water(np.tile([0.0, 30.0], (4000, 1)), bundle, config, rng)
    share = np.mean(events["column"] == C("showers"))
    assert abs(share - 0.921) < 0.02


def _active_window():
    active = np.zeros(N_STEPS, dtype=bool)
    active[40:48] = True
    return active


def test_sink_events_land_on_active_steps():
    bundle = _pm_bundle()
    events = generate_sink_events(_active_window(), bundle, np.random.default_rng(0))
    assert events.tolist() == [(C("sinks"), 600.0, 2.0, 3.0)] * 3  # step 40


def test_sink_events_dropped_when_never_active():
    bundle = _pm_bundle()
    bundle["sink.onset"] = point_mass(10.0, "steps")
    events = generate_sink_events(_active_window(), bundle, np.random.default_rng(0))
    assert events.dtype == EVENT and len(events) == 0


def _one_day_schedule(states, ref, modulation):
    """assemble_schedule of an event-free one-day household whose every end
    use has the (96,) reference `ref` on both day types."""
    result = HouseholdResult(0, np.asarray(states, dtype=np.int8), NO_EVENTS, NO_EVENTS)
    reference = np.broadcast_to(ref, (len(MODULATED_END_USES), len(DAY_TYPES), N_STEPS))
    return assemble_schedule(result, reference, SimCalendar(start_weekday=0, n_days=1), modulation=modulation)


def test_occupancy_fraction_frozen():
    states = np.tile([[SL, AW, HA, CO], [AW, AW, SL, HA]], N_STEPS // 4)
    ref = np.full(N_STEPS, 2.0)
    ref[-1] = 1.0  # the daily minimum, so a modulated step is 1 + fraction
    present = _one_day_schedule(states, ref, "present")
    active = _one_day_schedule(states, ref, "active")
    present_frac = np.tile([0.5, 0.0, 1.0, 1.0], N_STEPS // 4)
    active_frac = np.tile([0.0, 0.0, 0.5, 1.0], N_STEPS // 4)
    assert np.array_equal(present.columns["occupants"], present_frac)
    assert np.array_equal(active.columns["occupants"], present_frac)
    assert np.array_equal(present.columns["lighting"][:-1] * 2.0, 1.0 + present_frac[:-1])
    assert np.array_equal(active.columns["lighting"][:-1] * 2.0, 1.0 + active_frac[:-1])


def test_modulate_full_occupancy_is_reference_bitwise():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0.1, 2.0, N_STEPS)
    out = modulate_schedule(ref, np.ones(N_STEPS))
    assert np.array_equal(out, ref)


def test_modulate_zero_occupancy_is_daily_min_bitwise():
    rng = np.random.default_rng(4)
    ref = rng.uniform(0.1, 2.0, N_STEPS)
    out = modulate_schedule(ref, np.zeros(N_STEPS))
    assert np.all(out == ref.min())


def test_modulate_midpoint_formula():
    ref = np.linspace(1.0, 3.0, N_STEPS)
    out = modulate_schedule(ref, np.full(N_STEPS, 0.5))
    assert np.allclose(out, 1.0 + (ref - 1.0) * 0.5)


def test_modulate_scales_every_row_by_one_trace():
    rng = np.random.default_rng(6)
    ref = rng.uniform(0.1, 2.0, (3, 2 * N_STEPS))
    frac = np.concatenate([np.ones(N_STEPS // 2), rng.uniform(0, 1, N_STEPS), np.zeros(N_STEPS // 2)])
    out = modulate_schedule(ref, frac)
    assert out.shape == ref.shape
    for row, ref_row in zip(out, ref):
        assert row.tobytes() == modulate_schedule(ref_row, frac).tobytes()
    # a one-day reference is not tiled across a longer fraction
    with pytest.raises(OccsimError, match="does not match"):
        modulate_schedule(ref[0, :N_STEPS], frac)


def test_modulate_daily_minimum_is_per_day():
    ref = np.concatenate([np.full(N_STEPS, 2.0), np.full(N_STEPS, 5.0)])
    ref[3] = 1.0
    ref[N_STEPS + 7] = 4.0
    out = modulate_schedule(ref, np.zeros(2 * N_STEPS))
    assert np.all(out[:N_STEPS] == 1.0)
    assert np.all(out[N_STEPS:] == 4.0)


def test_modulate_active_mode_and_errors():
    ref = np.full(N_STEPS, 2.0)
    ref[0] = 1.0
    assert np.array_equal(modulate_schedule(ref, np.ones(N_STEPS)), ref)
    assert np.all(modulate_schedule(ref, np.zeros(N_STEPS)) == 1.0)
    # a household asleep all day is present but never active
    asleep = np.full((1, N_STEPS), SL)
    present = _one_day_schedule(asleep, ref, "present")
    active = _one_day_schedule(asleep, ref, "active")
    assert present.peaks["lighting"] == 2.0 and np.array_equal(present.columns["lighting"], ref / 2.0)
    assert active.peaks["lighting"] == 1.0 and np.all(active.columns["lighting"] == 1.0)
    with pytest.raises(OccsimError, match="modulation"):
        _one_day_schedule(asleep, ref, "sometimes")
    with pytest.raises(OccsimError, match="does not match"):
        modulate_schedule(np.ones(50), np.ones(N_STEPS))


def test_apply_vacation_window():
    n_days = 4
    states = np.full((2, n_days * N_STEPS), HA, dtype=np.int8)
    cook, sink = C("cooking_range"), C("sinks")
    appl = np.array(
        [
            (cook, 1400.0, 30.0, 1.0),  # day 0, runs into day 1
            (cook, 1500.0, 30.0, 1.0),  # day 1: dropped
            (cook, 4330.0, 30.0, 1.0),  # day 3: kept
        ],
        dtype=EVENT,
    )
    water = np.array(
        [
            (sink, 2900.0, 2.0, 3.0),  # day 2: dropped
            (sink, 100.0, 2.0, 3.0),
        ],
        dtype=EVENT,
    )
    out_states, out_a, out_w = apply_vacation(states, appl, water, (1, 3), n_days)
    assert np.all(out_states[:, N_STEPS : 3 * N_STEPS] == AW)
    assert np.all(out_states[:, : N_STEPS] == HA)
    assert np.all(out_states[:, 3 * N_STEPS :] == HA)
    assert np.all(states == HA)  # input untouched
    assert out_a["start"].tolist() == [1400.0, 4330.0]
    assert out_w.tolist() == [(sink, 100.0, 2.0, 3.0)]


def test_apply_vacation_none_and_bad_windows():
    states = np.zeros((1, 2 * N_STEPS), dtype=np.int8)
    same = apply_vacation(states, NO_EVENTS, NO_EVENTS, None, 2)
    assert same[0] is states
    for window in [(1, 1), (-1, 2), (1, 5)]:
        with pytest.raises(OccsimError, match="vacation"):
            apply_vacation(states, NO_EVENTS, NO_EVENTS, window, 2)


def test_household_config_round_trip(tmp_path):
    config = HouseholdConfig(
        point_mass(2.0, "count"),
        (0.25, 0.75),
        (0.5, 0.5),
        vacation=(10, 17),
        shower_fraction=0.8,
    )
    path = tmp_path / "household.conf"
    config.write(path)
    back = HouseholdConfig.read(path)
    assert back.cluster_shares_wd == (0.25, 0.75)
    assert back.cluster_shares_we == (0.5, 0.5)
    assert back.vacation == (10, 17)
    assert back.shower_fraction == 0.8
    assert back.occupant_count_dist.support.tolist() == [2.0]


def test_household_config_validation(tmp_path):
    with pytest.raises(OccsimError, match="sum"):
        HouseholdConfig(point_mass(1.0, "count"), (0.5, 0.2), (1.0,))
    with pytest.raises(OccsimError, match="shower_fraction"):
        HouseholdConfig(point_mass(1.0, "count"), (1.0,), (1.0,), shower_fraction=1.5)
    for window in [(-1, 3), (5, 2), (4, 4)]:
        with pytest.raises(OccsimError, match="vacation"):
            HouseholdConfig(point_mass(1.0, "count"), (1.0,), (1.0,), vacation=window)
    bad = tmp_path / "bad.conf"
    bad.write_text("# nothing here\n")
    with pytest.raises(OccsimError, match="occupant_count"):
        HouseholdConfig.read(bad)


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("occupant_count = 1:1\nshower_fraction 0.5\n", r"bad\.conf: line 2: expected key = value"),
        ("occupant_count = 1:1\nshower_fration = 0.5\n", r"bad\.conf: line 2: unknown key 'shower_fration'"),
        ("# people\noccupant_count = 1:0.5,2\n", r"bad\.conf: line 2: occupant_count"),
        ("occupant_count = 1:1\nvacation = 3\n", r"bad\.conf: line 2: vacation"),
        ("occupant_count = 3\n", r"bad\.conf: line 1: occupant_count: expected count:probability,\.\.\.$"),
        ("occupant_count = 1:0.5:2\n", r"bad\.conf: line 1: occupant_count: expected count:probability,\.\.\.$"),
        ("occupant_count = 1:1\nvacation = 3\n", r"bad\.conf: line 2: vacation: expected start,end$"),
        ("occupant_count = 1:1\nvacation = 1,2,3\n", r"bad\.conf: line 2: vacation: expected start,end$"),
        ("occupant_count = 1:1\ncluster_shares_wd = 0.5,nan\n", r"bad\.conf: cluster shares"),
        ("occupant_count = 1:nan\n", r"bad\.conf: line 1: occupant_count: .*finite"),
        ("occupant_count = 0:0.5,1:0.5\n", r"bad\.conf: occupant_count support must be whole numbers >= 1"),
    ],
)
def test_household_config_read_names_file_and_line(tmp_path, body, pattern):
    bad = tmp_path / "bad.conf"
    bad.write_text(body)
    with pytest.raises(OccsimError, match=pattern):
        HouseholdConfig.read(bad)


def test_shares_for():
    config = HouseholdConfig(point_mass(1.0, "count"), (1.0,), (0.5, 0.5))
    assert config.shares_for("WD") == (1.0,)
    assert config.shares_for("WE") == (0.5, 0.5)


def test_sample_household():
    config = one_count_config(n=2)
    profiles = sample_household(config, np.random.default_rng(0), index=5)
    assert [p.occupant_id for p in profiles] == ["h5o0", "h5o1"]
    assert all(p.weekday_cluster == 0 and p.weekend_cluster == 0 for p in profiles)
    # a count that could sample as zero is rejected when the config is built
    for counts in ([0.0], [0.0, 1.0], [1.0, 1.5], [-2.0]):
        dist = EmpiricalDistribution(np.array(counts), np.full(len(counts), 1 / len(counts)), "count")
        with pytest.raises(OccsimError, match="whole numbers >= 1"):
            HouseholdConfig(dist, (1.0,), (1.0,))


def _single_cluster_models():
    S = 7
    m = np.tile(np.eye(S), (95, 1, 1))
    m[:, SL] = 0.0
    m[:, SL, SL] = 0.85
    m[:, SL, HA] = 0.15
    m[:, HA] = 0.0
    m[:, HA, HA] = 0.9
    m[:, HA, CO] = 0.05
    m[:, HA, SL] = 0.05
    m[:, CO] = 0.0
    m[:, CO, HA] = 1.0
    init = np.zeros(S)
    init[SL] = 1.0
    models = {}
    for dt in ("WD", "WE"):
        tpms = TPMSet(0, dt, tuple(ActivityState), init, m)
        models[dt] = {0: ClusterDayModel(0, dt, tpms, tpms, {})}
    return models


def test_build_household_smoke_and_determinism():
    models = _single_cluster_models()
    bundle = default_bundle()
    config = one_count_config(n=2)
    cal = SimCalendar(start_weekday=0, n_days=4)
    res = one_household(3, models, bundle, config, cal, base_seed=11, approach=3)
    assert res.index == 3
    assert res.states.shape == (2, 4 * N_STEPS)
    again = one_household(3, models, bundle, config, cal, base_seed=11, approach=3)
    assert np.array_equal(res.states, again.states)
    assert res.appliance_events.tobytes() == again.appliance_events.tobytes()
    assert res.water_events.tobytes() == again.water_events.tobytes()
    other = one_household(3, models, bundle, config, cal, base_seed=12, approach=3)
    assert not np.array_equal(res.states, other.states)


def test_build_household_stream_count_does_not_grow_with_days(monkeypatch):
    """Streams are derived per household, occupant and day type, never per day."""
    calls = []
    child = streams.child
    monkeypatch.setattr(streams, "child", lambda *a: calls.append(a) or child(*a))
    models, bundle, config = _single_cluster_models(), default_bundle(), one_count_config(n=2)
    for approach in (1, 3):
        counts = []
        for n_days in (14, 365):
            calls.clear()
            cal = SimCalendar(start_weekday=0, n_days=n_days)
            one_household(0, models, bundle, config, cal, base_seed=3, approach=approach)
            counts.append(len(calls))
        assert counts[0] == counts[1], (approach, counts)


def test_draw_households_names_the_household_without_a_model():
    """A weekday cluster with no trained model fails the chunk naming the
    first occupant, by household index, that drew it."""
    models = truth_models()
    del models["WD"][1]
    config = HouseholdConfig(point_mass(2.0, "count"), (0.9, 0.1, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    indices = range(3, 40)
    drawn = []
    for h in indices:
        rng = streams.generator(streams.child(streams.root(5), streams.HOUSEHOLD, h), 0)
        drawn += [p.occupant_id for p in sample_household(config, rng, h) if p.weekday_cluster == 1]
    assert len(drawn) > 1 and not drawn[0].startswith("h3o")
    cal = SimCalendar(start_weekday=0, n_days=7)
    with pytest.raises(OccsimError, match=rf"^occupant {drawn[0]}: no trained model for day_type=WD cluster=1$"):
        draw_households(indices, models, config, cal, 5, approach=3)


def test_build_household_applies_vacation():
    models = _single_cluster_models()
    bundle = default_bundle()
    config = HouseholdConfig(point_mass(1.0, "count"), (1.0,), (1.0,), vacation=(1, 2))
    cal = SimCalendar(start_weekday=0, n_days=3)
    res = one_household(0, models, bundle, config, cal, base_seed=5, approach=3)
    day1 = res.states[:, N_STEPS : 2 * N_STEPS]
    assert np.all(day1 == AW)
    lo, hi = 1440.0, 2880.0
    for events in (res.appliance_events, res.water_events):
        assert len(events) and not np.any((lo <= events["start"]) & (events["start"] < hi))


# SHA-256 of build_household's event rows (appliance then water) and of the
# assembled schedule matrix for one truth-model household.  Any reordering
# of the household layer's draws, or any change to its arithmetic, changes
# these digests.
PINNED_HOUSEHOLDS = {
    (1, None, "present"): (
        "3ef96837b068a199ec87836df98c34a99399222543068b6fe43dba14cf2a5149",
        "114ea0cc75a6c0f0d0ffd1b3230b67a2d18ae002124509f8b4b957bac185cb5f",
    ),
    (3, None, "active"): (
        "aa6a8e074838304f56fcb451a265d997fcc26a2f5053b153e3d1e9637a656e7c",
        "63dddcd1560823a8c936596350af56216aee24d6e22b3a3d7cd4c25a115c870e",
    ),
    (3, (3, 6), "present"): (
        "4a59abb1d8c14c2ef340dd58e65647f9fb86e282daef67b4137361012575f121",
        "7e4631b1abd19dcf61977ac84d6fb3930ad4d2790f4a59c656bac1f2a9848dcf",
    ),
    (1, (3, 6), "active"): (
        "22465b4e6eb0a319a869ec7a377f91e4ada63538f60886519cb44c6bcb0b7675",
        "66c3177bae7d2bfdcaff78d892a8f5350632576acda45c18fb64addef7b07aa9",
    ),
}


@pytest.mark.parametrize("approach, vacation, modulation", sorted(PINNED_HOUSEHOLDS, key=str))
def test_build_household_output_is_pinned(approach, vacation, modulation):
    config = HouseholdConfig(
        EmpiricalDistribution(np.array([2.0, 3.0]), np.array([0.5, 0.5]), "count"),
        PLANTED_SHARES,
        PLANTED_SHARES,
        vacation=vacation,
    )
    cal = SimCalendar(start_weekday=2, n_days=10)
    res = one_household(4, truth_models(), default_bundle(), config, cal, base_seed=77, approach=approach)
    reference = np.array([[default_reference(use, dt) for dt in DAY_TYPES] for use in MODULATED_END_USES])
    values = assemble_schedule(res, reference, cal, modulation=modulation).values
    events = hashlib.sha256(res.appliance_events.tobytes() + res.water_events.tobytes()).hexdigest()
    schedule = hashlib.sha256(values.tobytes()).hexdigest()
    assert (events, schedule) == PINNED_HOUSEHOLDS[approach, vacation, modulation]
