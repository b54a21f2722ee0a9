import itertools

import numpy as np
import pytest

from occsim import streams
from occsim.diary_ingest import (
    EVENT_ACTIVITIES,
    FULL_ALPHABET,
    N_STEPS,
    PRESENCE_ALPHABET,
    ActivityState,
)
from occsim.distributions import EmpiricalDistribution, draw_index
from occsim.markov_train import ActivityStats, ClusterDayModel, TPMSet, runs
from occsim.occupant_sim import (
    OccupantProfile,
    SimCalendar,
    SimulationError,
    _hold_steps,
    day_uniforms,
    place_events,
    simulate_year,
    walk_days,
)
from occsim.synth import truth_models
from tests.helpers import point_mass

SL = int(ActivityState.SLEEP)
AW = int(ActivityState.AWAY)
HA = int(ActivityState.HOME_ACTIVE)
CO = int(ActivityState.COOKING)
PH = int(ActivityState.PERSONAL_HYGIENE)

S_FULL = len(FULL_ALPHABET)


def const_tpms(row_map=None, initial_state=0, alphabet=FULL_ALPHABET, T=95, day_type="WD"):
    """Identity (absorbing) matrices with whole-horizon row overrides."""
    S = len(alphabet)
    m = np.tile(np.eye(S), (T, 1, 1))
    for s, row in (row_map or {}).items():
        m[:, s, :] = row
    return TPMSet(0, day_type, alphabet, np.eye(S)[initial_state], m)


def row(**mass):
    out = np.zeros(S_FULL)
    for name, p in mass.items():
        out[int(ActivityState[name])] = p
    return out


def stats_for(activity, duration_min=None, onset_step=None, occurrences=None):
    occ = occurrences if occurrences is not None else point_mass(1.0, "count")
    return ActivityStats(
        activity,
        point_mass(duration_min, "minutes") if duration_min is not None else None,
        point_mass(onset_step, "steps") if onset_step is not None else None,
        occ,
    )


# -- scalar reference walkers ------------------------------------------------
# One day at a time, one rng.random() per draw: the walkers the batched
# `walk_days` replaced, kept to check it row for row.

_EVENT_SET = frozenset(int(a) for a in EVENT_ACTIVITIES)


def _resume_draw(probs, exclude, rng):
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


def _chain_states(tpms, rng):
    """Plain chain walk (approach 2 core)."""
    cum_init, cum_rows = tpms.cumulative()
    n = tpms.n_steps
    states = np.empty(n, dtype=np.int8)
    s = draw_index(cum_init.tolist(), rng.random())
    states[0] = s
    for t in range(n - 1):
        s = draw_index(cum_rows[t][s].tolist(), rng.random())
        states[t + 1] = s
    return states


def _approach3_states(tpms, stats, rng):
    """Chain walk with sampled-duration holds on event activities."""
    cum_init, cum_rows = tpms.cumulative()
    alphabet = tpms.alphabet
    event_idx = {i for i, a in enumerate(alphabet) if int(a) in _EVENT_SET}
    n = tpms.n_steps
    states = np.empty(n, dtype=np.int8)
    s = draw_index(cum_init.tolist(), rng.random())
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
            s = _resume_draw(tpms.matrices[t, s], s, rng)
        else:
            s = draw_index(cum_rows[t][s].tolist(), rng.random())
        t += 1


def walk_one(tpms, rng, holds=None):
    """One day drawn from `rng` as `simulate_year` draws it: the day's
    uniform block, then the walk."""
    return walk_days(tpms, day_uniforms(tpms, rng, holds)[None], holds)[0]


def approach1_day(presence_tpms, stats, rng):
    """One approach-1 day: the presence walk, then event placement on the same rng."""
    return place_events(walk_one(presence_tpms, rng), stats, rng)


def assert_matches_scalar(tpms, holds, seeds):
    """walk_days on rows drawn from fresh generators equals the scalar walk
    on the same generators, row for row."""
    width = tpms.n_steps if holds is None else 2 * tpms.n_steps
    u = np.stack([np.random.default_rng(seed).random(width) for seed in seeds])
    got = walk_days(tpms, u, holds)
    assert got.shape == (len(seeds), tpms.n_steps) and got.dtype == np.int8
    for seed, row in zip(seeds, got):
        rng = np.random.default_rng(seed)
        want = _chain_states(tpms, rng) if holds is None else _approach3_states(tpms, holds, rng)
        assert np.array_equal(row, want), seed


def test_worked_example_hold_and_resume():
    tpms = const_tpms({PH: row(PERSONAL_HYGIENE=0.9, HOME_ACTIVE=0.1)})
    tpms.matrices[10, SL] = row(PERSONAL_HYGIENE=1.0)
    stats = {ActivityState.PERSONAL_HYGIENE: stats_for(ActivityState.PERSONAL_HYGIENE, 60.0)}
    u = np.stack([day_uniforms(tpms, np.random.default_rng(seed), stats) for seed in (0, 1, 99)])
    expected = np.full(N_STEPS, HA, dtype=np.int8)
    expected[:11] = SL
    expected[11:15] = PH  # 60 min hold = 4 steps
    for states in walk_days(tpms, u, stats):
        assert np.array_equal(states, expected)


def test_resume_exclusion_caps_event_runs():
    # self-heavy cooking row: without the resume exclusion, runs would
    # stretch far past the sampled two-step duration
    tpms = const_tpms(
        {
            CO: row(COOKING=0.99, HOME_ACTIVE=0.01),
            HA: row(HOME_ACTIVE=0.5, COOKING=0.5),
        },
        initial_state=CO,
    )
    stats = {ActivityState.COOKING: stats_for(ActivityState.COOKING, 30.0)}
    days = walk_days(tpms, np.random.default_rng(42).random((200, 2 * N_STEPS)), stats)
    rows, starts, lengths, _ = runs(days == CO)
    interior = starts + lengths <= N_STEPS - 1
    assert lengths[interior].size > 100
    assert np.all(lengths[interior] == 2)
    assert np.all(lengths <= 2)


def test_degenerate_self_row_extends_hold():
    tpms = const_tpms({CO: row(COOKING=1.0)}, initial_state=CO)
    stats = {ActivityState.COOKING: stats_for(ActivityState.COOKING, 15.0)}
    states = walk_one(tpms, np.random.default_rng(0), stats)
    assert np.all(states == CO)


def test_hold_clipped_at_day_end():
    tpms = const_tpms({CO: row(COOKING=0.5, HOME_ACTIVE=0.5)})
    tpms.matrices[93, SL] = row(COOKING=1.0)
    stats = {ActivityState.COOKING: stats_for(ActivityState.COOKING, 600.0)}
    states = walk_one(tpms, np.random.default_rng(3), stats)
    assert np.all(states[:94] == SL)
    assert np.all(states[94:] == CO)


def test_missing_duration_dist_defaults_to_one_step():
    tpms = const_tpms({CO: row(COOKING=0.7, HOME_ACTIVE=0.3)})
    tpms.matrices[5, SL] = row(COOKING=1.0)
    tpms.matrices[:, HA, :] = row(HOME_ACTIVE=1.0)
    stats = {}  # no stats at all: hold defaults to 15 minutes
    states = walk_one(tpms, np.random.default_rng(1), stats)
    assert states[6] == CO
    assert np.all(states[7:] == HA)


def exact_path_distribution(tpms):
    probs = {}
    S = tpms.n_states
    for path in itertools.product(range(S), repeat=tpms.n_steps):
        p = tpms.initial[path[0]]
        for t in range(tpms.n_steps - 1):
            p *= tpms.matrices[t, path[t], path[t + 1]]
        if p > 0:
            probs[path] = p
    return probs


def _random_reduced_tpms(seed, T=3):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 1.0, size=(T, 3, 3))
    m /= m.sum(axis=2, keepdims=True)
    init = rng.uniform(0.1, 1.0, size=3)
    init /= init.sum()
    return TPMSet(0, "WD", PRESENCE_ALPHABET, init, m)


def test_chain_matches_exact_path_enumeration():
    tpms = _random_reduced_tpms(17)
    exact = exact_path_distribution(tpms)
    n = 40_000
    days = walk_days(tpms, np.random.default_rng(5).random((n, tpms.n_steps)))
    counts = {}
    for d in days:
        key = tuple(int(x) for x in d)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(exact)
    for path, p in exact.items():
        assert abs(counts.get(path, 0) / n - p) <= 0.02


def test_bulk_and_scalar_agree_on_deterministic_chain():
    tpms = const_tpms({SL: row(AWAY=1.0), AW: row(HOME_ACTIVE=1.0)})
    scalar = _chain_states(tpms, np.random.default_rng(0))
    bulk = walk_days(tpms, np.random.default_rng(0).random((3, N_STEPS)))
    assert np.array_equal(bulk[0], scalar)
    assert np.array_equal(bulk[1], scalar)


def test_bulk_and_scalar_same_marginals():
    tpms = _random_reduced_tpms(23, T=6)
    n = 8000
    bulk = walk_days(tpms, np.random.default_rng(1).random((n, tpms.n_steps)))
    scalar = np.stack([_chain_states(tpms, np.random.default_rng(1000 + i)) for i in range(n)])
    for t in range(tpms.n_steps):
        fb = np.bincount(bulk[:, t], minlength=3) / n
        fs = np.bincount(scalar[:, t], minlength=3) / n
        assert np.abs(fb - fs).max() <= 0.03


@pytest.mark.parametrize("chain", ["plain", "holds", "presence"])
def test_walk_days_matches_scalar_on_truth_models(chain):
    for by_cluster in truth_models().values():
        for model in by_cluster.values():
            tpms = model.presence_tpms if chain == "presence" else model.tpms
            holds = model.stats if chain == "holds" else None
            assert_matches_scalar(tpms, holds, range(200))


def _multi_duration(activity, minutes, probs):
    dist = EmpiricalDistribution(np.array(minutes, dtype=float), np.array(probs), "minutes")
    return {activity: ActivityStats(activity, dist, None, point_mass(1.0, "count"))}


def _edge_cases():
    """(name, tpms, holds): the hold edge cases of the one-day tests, with
    random durations so that many rows take different paths."""
    cooking = _multi_duration(ActivityState.COOKING, [15, 30, 45, 600], [0.4, 0.3, 0.2, 0.1])
    degenerate = const_tpms({CO: row(COOKING=1.0), HA: row(HOME_ACTIVE=0.6, COOKING=0.4)}, initial_state=HA)
    degenerate.matrices[50:, CO] = row(COOKING=0.5, SLEEP=0.5)
    clipped = const_tpms({CO: row(COOKING=0.5, HOME_ACTIVE=0.5), HA: row(HOME_ACTIVE=0.9, COOKING=0.1)})
    clipped.matrices[80:, SL] = row(SLEEP=0.5, COOKING=0.5)
    missing = const_tpms({CO: row(COOKING=0.7, HOME_ACTIVE=0.3), HA: row(HOME_ACTIVE=0.5, COOKING=0.5)})
    missing.matrices[5, SL] = row(COOKING=1.0)
    resume = const_tpms(
        {CO: row(COOKING=0.99, HOME_ACTIVE=0.01), HA: row(HOME_ACTIVE=0.5, COOKING=0.5)}, initial_state=CO
    )
    return [
        ("degenerate_self_row", degenerate, cooking),
        ("hold_clipped_at_day_end", clipped, cooking),
        ("missing_duration_dist", missing, {}),
        ("resume_exclusion", resume, cooking),
    ]


@pytest.mark.parametrize("name, tpms, holds", _edge_cases(), ids=[c[0] for c in _edge_cases()])
def test_walk_days_matches_scalar_on_edge_tpms(name, tpms, holds):
    assert_matches_scalar(tpms, holds, range(300))
    assert_matches_scalar(tpms, None, range(50))


def _random_full_tpms(seed, T):
    """A full-alphabet chain over T steps with about a third of its cells zero."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, size=(T, S_FULL, S_FULL)) * (rng.random((T, S_FULL, S_FULL)) > 0.35)
    m[:, :, HA] += 0.05
    m /= m.sum(axis=2, keepdims=True)
    init = rng.uniform(0.0, 1.0, size=S_FULL)
    return TPMSet(0, "WD", FULL_ALPHABET, init / init.sum(), m)


@pytest.mark.parametrize("T", [1, 2, 5, 20])
def test_walk_days_matches_scalar_on_reduced_horizons(T):
    tpms = _random_full_tpms(T, T)
    holds = _multi_duration(ActivityState.COOKING, [15, 30, 60], [0.5, 0.3, 0.2])
    holds.update(_multi_duration(ActivityState.LAUNDRY, [45, 90, 240], [0.2, 0.5, 0.3]))
    assert_matches_scalar(tpms, holds, range(300))
    assert_matches_scalar(tpms, None, range(300))
    assert_matches_scalar(_random_reduced_tpms(T, T), None, range(300))


class _Uniforms:
    """Stands in for a generator: hands out fixed uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_walk_days_matches_scalar_past_the_row_mass():
    # rows short of 1 by less than the tolerance: a uniform above a row's
    # mass clamps to the last state, or, out of a hold, takes the last
    # nonzero column of the row with the held column excluded
    m = np.tile(row(SLEEP=0.5, HOME_ACTIVE=0.5 - 4e-10), (95, 1, 1)).repeat(S_FULL, axis=1)
    m[:, CO] = row(COOKING=0.5, SLEEP=0.2, HOME_ACTIVE=0.3 - 4e-10)
    tpms = TPMSet(0, "WD", FULL_ALPHABET, row(COOKING=1.0), m)
    holds = _multi_duration(ActivityState.COOKING, [15], [1.0])
    u = np.full(2 * N_STEPS, 1.0 - 1e-12)
    for walk_holds in (holds, None):
        got = walk_days(tpms, u[None], walk_holds)[0]
        rng = _Uniforms(u)
        want = _approach3_states(tpms, holds, rng) if walk_holds else _chain_states(tpms, rng)
        assert np.array_equal(got, want)
    assert got[1] == S_FULL - 1  # plain draw clamped to the last state
    assert walk_days(tpms, u[None], holds)[0][1] == HA  # last nonzero column


def test_zero_uniform_never_selects_zero_probability_state():
    models = [m for by_cluster in truth_models().values() for m in by_cluster.values()]
    cases = [(m.tpms, m.stats) for m in models] + [(m.presence_tpms, None) for m in models]
    cases += [(tpms, holds) for _, tpms, holds in _edge_cases()]
    for tpms, holds in cases:
        for walk_holds in (None, holds):
            width = tpms.n_steps if walk_holds is None else 2 * tpms.n_steps
            states = walk_days(tpms, np.zeros((1, width)), walk_holds)[0]
            assert tpms.initial[states[0]] > 0
            t = np.flatnonzero(states[1:] != states[:-1])
            assert np.all(tpms.matrices[t, states[t], states[t + 1]] > 0)
            if walk_holds is None:
                steps = np.arange(tpms.n_steps - 1)
                assert np.all(tpms.matrices[steps, states[:-1], states[1:]] > 0)


def test_walk_days_rejects_short_uniform_rows():
    tpms = const_tpms()
    with pytest.raises(SimulationError, match="uniforms"):
        walk_days(tpms, np.zeros((2, N_STEPS)), {})
    for u in (np.zeros(N_STEPS), np.float64(0.5)):
        with pytest.raises(SimulationError, match="uniforms"):
            walk_days(tpms, u)


def test_approach1_places_events_in_home_windows():
    presence = const_tpms(
        {HA: np.array([0, 0, 1.0])[None].repeat(3, 0)[0]},
        initial_state=2,
        alphabet=PRESENCE_ALPHABET,
    )
    stats = {ActivityState.COOKING: stats_for(ActivityState.COOKING, 30.0, onset_step=10.0)}
    states, failures = approach1_day(presence, stats, np.random.default_rng(0))
    assert failures == 0
    assert np.all(states[10:12] == CO)
    mask = np.ones(N_STEPS, dtype=bool)
    mask[10:12] = False
    assert np.all(states[mask] == HA)


def test_approach1_counts_unplaceable_events():
    presence = const_tpms(initial_state=2, alphabet=PRESENCE_ALPHABET)
    # onset forces the block past the end of the day
    stats = {ActivityState.COOKING: stats_for(ActivityState.COOKING, 30.0, onset_step=95.0)}
    states, failures = approach1_day(presence, stats, np.random.default_rng(0))
    assert failures == 1
    assert np.all(states == HA)


def test_approach1_no_overlap_same_onset():
    presence = const_tpms(initial_state=2, alphabet=PRESENCE_ALPHABET)
    stats = {
        ActivityState.COOKING: stats_for(
            ActivityState.COOKING,
            30.0,
            onset_step=10.0,
            occurrences=point_mass(2.0, "count"),
        )
    }
    states, failures = approach1_day(presence, stats, np.random.default_rng(0))
    assert failures == 1  # second occurrence keeps hitting the taken window
    assert (states == CO).sum() == 2


def test_approach1_requires_home_window():
    presence = const_tpms(initial_state=1, alphabet=PRESENCE_ALPHABET)  # away all day
    stats = {ActivityState.COOKING: stats_for(ActivityState.COOKING, 30.0, onset_step=10.0)}
    states, failures = approach1_day(presence, stats, np.random.default_rng(0))
    assert failures == 1
    assert np.all(states == AW)


def test_calendar_day_types():
    cal = SimCalendar(start_weekday=0, n_days=14)
    assert cal.day_types == (["WD"] * 5 + ["WE"] * 2) * 2
    assert SimCalendar.from_name("Saturday", 3).day_types == ["WE", "WE", "WD"]
    assert SimCalendar.from_name("friday", 3).start_weekday == 4
    with pytest.raises(SimulationError, match="unknown weekday"):
        SimCalendar.from_name("someday", 3)
    with pytest.raises(SimulationError, match="0..6"):
        SimCalendar(start_weekday=7, n_days=3)
    with pytest.raises(SimulationError, match="n_days must be positive"):
        SimCalendar(start_weekday=0, n_days=0)
    with pytest.raises(SimulationError, match="n_days must be positive"):
        SimCalendar.from_name("monday", 0)


def _tiny_models():
    tpms_wd = const_tpms({SL: row(SLEEP=0.6, HOME_ACTIVE=0.4)}, day_type="WD")
    tpms_we = const_tpms({SL: row(SLEEP=0.3, AWAY=0.7)}, day_type="WE")
    stats = {}
    return {
        "WD": {0: ClusterDayModel(0, "WD", tpms_wd, tpms_wd, stats)},
        "WE": {0: ClusterDayModel(0, "WE", tpms_we, tpms_we, stats)},
    }


def test_simulate_year_day_streams_are_stable():
    models = _tiny_models()
    profile = OccupantProfile("o1", 0, 0)
    root = streams.child(streams.root(99), streams.OCCUPANT, 0)
    cal5 = SimCalendar(start_weekday=4, n_days=5)  # friday start: WD WE WE WD WD
    days5, _ = simulate_year(profile, models, cal5, root, approach=3)
    days3, _ = simulate_year(profile, models, SimCalendar(start_weekday=4, n_days=3), root, approach=3)
    assert np.array_equal(days3, days5[:3])
    assert cal5.day_types == ["WD", "WE", "WE", "WD", "WD"]
    repeat, _ = simulate_year(profile, models, cal5, root, approach=3)
    assert np.array_equal(days5, repeat)


@pytest.mark.parametrize("approach", [1, 2, 3])
def test_simulate_year_day_is_a_one_row_call(approach):
    models = truth_models()
    profile = OccupantProfile("o1", 1, 2)
    root = streams.child(streams.root(7), streams.OCCUPANT, 0)
    calendar = SimCalendar(start_weekday=3, n_days=10)
    days, failures = simulate_year(profile, models, calendar, root, approach=approach)
    total = 0
    for d, day in enumerate(days):
        day_type = calendar.day_types[d]
        model = models[day_type][1 if day_type == "WD" else 2]
        rng = streams.generator(streams.child(root, d))
        if approach == 1:
            one, n_fail = approach1_day(model.presence_tpms, model.stats, rng)
            total += n_fail
        else:
            one = walk_one(model.tpms, rng, model.stats if approach == 3 else None)
        assert np.array_equal(day, one)
    assert failures == total


def test_simulate_year_missing_cluster():
    models = _tiny_models()
    profile = OccupantProfile("o1", 0, 3)
    root = streams.root(1)
    with pytest.raises(SimulationError, match="day_type=WE cluster=3"):
        simulate_year(profile, models, SimCalendar(start_weekday=5, n_days=2), root, approach=3)


def test_simulate_year_rejects_bad_approach():
    with pytest.raises(SimulationError, match="approach"):
        cal = SimCalendar(start_weekday=0, n_days=1)
        simulate_year(OccupantProfile("o", 0, 0), _tiny_models(), cal, streams.root(0), approach=4)


def test_simulate_year_approaches_run():
    models = _tiny_models()
    profile = OccupantProfile("o1", 0, 0)
    for approach in (1, 2, 3):
        days, failures = simulate_year(
            profile, models, SimCalendar(start_weekday=0, n_days=4), streams.root(3), approach=approach
        )
        assert days.shape == (4, N_STEPS) and days.dtype == np.int8
        if approach != 1:
            assert failures == 0
