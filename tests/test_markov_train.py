import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from occsim import conf, markov_train, streams
from occsim.conf import OccsimError, number_text, reading, write_lines
from occsim.diary_ingest import (
    EVENT_ACTIVITIES,
    FULL_ALPHABET,
    N_STEPS,
    PRESENCE_ALPHABET,
    STATE_TOKENS,
    SEQUENCE,
    ActivityState,
    project_to_presence,
    sequence_table,
)
from occsim.markov_train import (
    TPMSet,
    estimate_statistics,
    estimate_tpm,
    load_model_dir,
    read_model_file,
    runs,
    save_model_dir,
    state_counts,
    train_cluster_day_model,
)
from occsim.distributions import EmpiricalDistribution
from occsim.occupant_sim import OccupantProfile, SimCalendar, simulate_year, walk_occupants
from occsim.schedule_io import REQUIRED_BUNDLE, load_bundle, write_bundle, write_step_values
from occsim.synth import default_bundle, generate_corpus, truth_models
from tests.helpers import (
    activity_statistics,
    edit_section,
    estimate_tpm_reference,
    forward_marginals,
    make_seq,
    model_section,
    state_counts_reference,
    whole_table_runs,
)

S = len(FULL_ALPHABET)


def random_corpus(rng, n=12, day_type="WD"):
    rows = [
        make_seq(rng.integers(0, S, size=N_STEPS), day_type, float(rng.uniform(0.5, 2.0)), f"r{i}") for i in range(n)
    ]
    return np.concatenate(rows)


def empirical_marginals(seqs):
    X, w = seqs["states"], seqs["weight"]
    out = np.zeros((N_STEPS, S))
    for t in range(N_STEPS):
        out[t] = np.bincount(X[:, t], weights=w, minlength=S)
    return out / w.sum()


def test_estimate_tpm_weighted_frozen():
    a = make_seq([0, 1], weight=2.0, rid="a")
    b = make_seq([0, 2], weight=1.0, rid="b")
    tpms = estimate_tpm(np.concatenate([a, b]), alphabet=FULL_ALPHABET, cluster_id=0)
    assert np.allclose(tpms.initial, np.eye(S)[0])
    row = np.zeros(S)
    row[1] = 2 / 3
    row[2] = 1 / 3
    assert np.allclose(tpms.matrices[0, 0], row)
    # unvisited rows at step 0 take the absorbing fallback
    for s in range(1, S):
        assert np.allclose(tpms.matrices[0, s], np.eye(S)[s])
    assert np.allclose(tpms.matrices[1, 1], np.eye(S)[2])
    assert np.allclose(tpms.matrices[1, 2], np.eye(S)[2])


def test_estimate_tpm_input_validation():
    with pytest.raises(OccsimError, match="no sequences"):
        estimate_tpm(np.empty(0, dtype=SEQUENCE), alphabet=FULL_ALPHABET, cluster_id=0)
    with pytest.raises(OccsimError, match="day types"):
        mixed = np.concatenate([make_seq([0], rid="a"), make_seq([0], day_type="WE", rid="b")])
        estimate_tpm(mixed, alphabet=FULL_ALPHABET, cluster_id=0)
    with pytest.raises(OccsimError, match="total weight must be positive"):
        zero = np.concatenate([make_seq([0], weight=0.0, rid="a"), make_seq([0], weight=0.0, rid="b")])
        estimate_tpm(zero, alphabet=FULL_ALPHABET, cluster_id=0)
    cooking = make_seq([int(ActivityState.COOKING)])
    with pytest.raises(OccsimError, match="not in alphabet"):
        estimate_tpm(cooking, alphabet=PRESENCE_ALPHABET, cluster_id=0)


def test_forward_marginals_reproduce_frequencies():
    rng = np.random.default_rng(13)
    seqs = random_corpus(rng, n=20)
    tpms = estimate_tpm(seqs, alphabet=FULL_ALPHABET, cluster_id=0)
    assert np.abs(forward_marginals(tpms) - empirical_marginals(seqs)).max() <= 1e-9


@given(st.integers(0, 10_000))
def test_forward_marginal_identity_property(seed):
    rng = np.random.default_rng(seed)
    seqs = random_corpus(rng, n=4)
    tpms = estimate_tpm(seqs, alphabet=FULL_ALPHABET, cluster_id=0)
    marg = forward_marginals(tpms)
    assert np.abs(marg - empirical_marginals(seqs)).max() <= 1e-9
    assert np.allclose(tpms.matrices.sum(axis=2), 1.0, atol=1e-12)


def cooking_statistics(table):
    (stats,) = estimate_statistics(table, (ActivityState.COOKING,)).values()
    return stats


def test_estimate_statistics_frozen():
    c = int(ActivityState.COOKING)
    day1 = [2] * N_STEPS
    day1[3] = day1[4] = c
    day1[10] = c
    day2 = [2] * N_STEPS
    stats = cooking_statistics(np.concatenate([make_seq(day1, rid="a"), make_seq(day2, rid="b")]))
    assert stats.duration_dist.support.tolist() == [15.0, 30.0]
    assert np.allclose(stats.duration_dist.probs, [0.5, 0.5])
    assert stats.onset_dist.support.tolist() == [3.0, 10.0]
    assert stats.occurrences_dist.support.tolist() == [0.0, 2.0]
    assert np.allclose(stats.occurrences_dist.probs, [0.5, 0.5])
    profile = np.zeros(N_STEPS)
    profile[[3, 4, 10]] = 0.5
    assert np.allclose(stats.daily_profile, profile)
    assert stats.n_days == 2 and stats.n_events == 2


def test_estimate_statistics_weighted_profile():
    c = int(ActivityState.COOKING)
    on = [c] * N_STEPS
    off = [2] * N_STEPS
    stats = cooking_statistics(
        np.concatenate([make_seq(on, weight=3.0, rid="a"), make_seq(off, weight=1.0, rid="b")])
    )
    assert np.allclose(stats.daily_profile, 0.75)
    # single 96-step run on the weighted day
    assert stats.duration_dist.support.tolist() == [N_STEPS * 15.0]
    assert np.allclose(stats.occurrences_dist.probs, [0.25, 0.75])


def test_estimate_statistics_truncated_run_counted():
    c = int(ActivityState.COOKING)
    day = [2] * N_STEPS
    day[94] = day[95] = c
    stats = cooking_statistics(make_seq(day))
    assert stats.duration_dist.support.tolist() == [30.0]
    assert stats.onset_dist.support.tolist() == [94.0]


def test_estimate_statistics_no_events():
    (stats,) = estimate_statistics(make_seq([2] * N_STEPS), (ActivityState.LAUNDRY,)).values()
    assert stats.duration_dist is None
    assert stats.onset_dist is None
    assert stats.occurrences_dist.support.tolist() == [0.0]
    assert stats.n_events == 0


def _day_from_runs(pairs):
    """96 states from (state, length) runs, cut at the day's end or padded with the last state."""
    day = [s for s, length in pairs for _ in range(length)][:N_STEPS]
    return day + day[-1:] * (N_STEPS - len(day))


_days = st.one_of(
    st.lists(st.integers(0, S - 1), min_size=N_STEPS, max_size=N_STEPS),
    st.integers(0, S - 1).map(lambda s: [s] * N_STEPS),
    st.lists(st.tuples(st.integers(0, S - 1), st.integers(1, 40)), min_size=1, max_size=12).map(_day_from_runs),
)
_weights = st.one_of(st.just(0.0), st.floats(0.01, 100.0))
_weighted_tables = st.lists(st.tuples(_days, _weights), min_size=1, max_size=12).filter(
    lambda rows: sum(w for _, w in rows) > 0
)


def _table(rows):
    days, weights = zip(*rows)
    return sequence_table([f"r{i}" for i in range(len(rows))], "WD", weights, np.array(days))


def _same_dist(a, b):
    if a is None or b is None:
        return a is b
    return (a.support.tobytes(), a.probs.tobytes(), a.unit) == (b.support.tobytes(), b.probs.tobytes(), b.unit)


@given(_weighted_tables)
def test_one_pass_statistics_match_per_activity_oracle(rows):
    table = _table(rows)
    stats = estimate_statistics(table)
    assert tuple(stats) == FULL_ALPHABET
    for activity, got in stats.items():
        want = activity_statistics(table, activity)
        assert got.activity == activity
        assert _same_dist(got.duration_dist, want.duration_dist)
        assert _same_dist(got.onset_dist, want.onset_dist)
        assert _same_dist(got.occurrences_dist, want.occurrences_dist)
        assert got.daily_profile.tobytes() == want.daily_profile.tobytes()
        assert (got.n_days, got.n_events) == (want.n_days, want.n_events)


@settings(derandomize=True, database=None)
@given(
    _weighted_tables,
    st.integers(1, 5),
    st.lists(st.integers(0, 4), min_size=12, max_size=12),
    st.sampled_from([markov_train.COUNT_BLOCK_CELLS, 500, 96, 7, 1]),
)
# 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit, so the cells must add in row order
@example(
    [([3] * N_STEPS, 0.1), ([2] * N_STEPS, 0.0), ([3] * N_STEPS, 0.2), ([3] * N_STEPS, 0.3)], 2, [0, 1] + [0] * 10, 96
)
def test_state_counts_match_the_step_loop(rows, k, label_draws, block_cells):
    """Blocks of steps of any size, one step or every step, count with the
    bits of the per-step loop."""
    X, w = _table(rows)["states"], np.array([weight for _, weight in rows])
    labels = np.array(label_draws[: len(w)], dtype=np.intp) % k
    with patch.object(markov_train, "COUNT_BLOCK_CELLS", block_cells):
        got = state_counts(X, w, labels, k, S)
    assert got.shape == (k, N_STEPS, S)
    assert got.tobytes() == state_counts_reference(X, w, labels, k, S).tobytes()


_seven_decimals = st.one_of(st.just(0.0), st.integers(1, 10**9).map(lambda i: i / 10**7))


@settings(derandomize=True, database=None, max_examples=150)
@given(
    st.lists(st.tuples(_days, _seven_decimals), min_size=1, max_size=30).filter(lambda rows: sum(w for _, w in rows) > 0),
    st.booleans(),
)
@example([([3] * N_STEPS, 0.1234567)], False)  # one row: every other (step, state) row unvisited
@example([([3] * N_STEPS, 0.1), ([2] * N_STEPS, 0.0), ([3] * N_STEPS, 0.2), ([3] * N_STEPS, 0.3)], True)
@example([([0] * 40 + [1] * 56, 1.0000001), ([1] * N_STEPS, 2.5)], False)
def test_estimate_tpm_counts_match_the_step_loop(rows, presence):
    """`estimate_tpm` counts through `state_counts` with the bits of the
    per-step loop it replaced, on either alphabet, unvisited rows included."""
    table = _table(rows)
    alphabet = FULL_ALPHABET
    if presence:
        table["states"] = project_to_presence(table["states"])
        alphabet = PRESENCE_ALPHABET
    got = estimate_tpm(table, alphabet=alphabet, cluster_id=0)
    initial, matrices = estimate_tpm_reference(table, alphabet)
    assert np.array_equal(got.initial.view(np.uint64), initial.view(np.uint64))
    assert np.array_equal(got.matrices.view(np.uint64), matrices.view(np.uint64))


def test_estimate_tpm_traced_peak_per_row():
    """20,000 weighted rows: the int64 state indices of the step loop took
    about 870 B a row at peak, the int8 indices and int16 pair codes about
    320."""
    X = _run_table(31, 20_000, N_STEPS)
    weights = np.random.default_rng(31).uniform(0.5, 2.0, len(X))
    table = sequence_table([f"r{i}" for i in range(len(X))], "WD", weights, X)
    tracemalloc.start()
    try:
        estimate_tpm(table, alphabet=FULL_ALPHABET, cluster_id=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * len(X)


@given(_weighted_tables)
def test_runs_are_maximal_and_rebuild_the_rows(rows):
    X = _table(rows)["states"]
    row, start, length, value = runs(X)
    assert np.array_equal(np.repeat(value, length), X.ravel())
    assert np.array_equal(np.repeat(row, length), np.repeat(np.arange(len(X)), N_STEPS))
    assert np.array_equal(start, np.cumsum(length) - length - row * N_STEPS)
    same_row = row[1:] == row[:-1]
    assert np.all(value[1:][same_row] != value[:-1][same_row])


def _run_table(seed, n, m, runs_per_row=16.3):
    """An (n, m) int8 table whose rows change state about `runs_per_row` times."""
    rng = np.random.default_rng(seed)
    return (np.cumsum(rng.random((n, m)) < runs_per_row / max(m, 1), axis=1) % S).astype(np.int8)


@pytest.mark.parametrize("block_cells", [markov_train.RUN_BLOCK_CELLS, 500, 96, 40, 1])
@pytest.mark.parametrize("n, m", [(0, 96), (1, 96), (37, 96), (300, 96), (5, 0), (9, 1), (4, 200)])
def test_runs_in_blocks_equal_the_whole_table_scan(monkeypatch, block_cells, n, m):
    """Blocks of any size, rows wider than a block included, give the values
    of the whole-table scan, in its order."""
    monkeypatch.setattr(markov_train, "RUN_BLOCK_CELLS", block_cells)
    for seed in range(3):
        X = _run_table(seed, n, m, runs_per_row=m / 6)
        got, want = runs(X), whole_table_runs(X)
        assert [a.dtype for a in got] == [np.int32, np.int32, np.int32, X.dtype]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    mask = _run_table(7, 3, 500) == 2  # a bool table, as `household._run_minutes` scans
    assert all(np.array_equal(a, b) for a, b in zip(runs(mask), whole_table_runs(mask)))


def test_runs_traced_peak_stays_below_the_whole_table_scan():
    """A 21,900 x 96 occupant-day table at about 16.3 runs a row: the
    whole-table scan's traced peak is about 780 B a row (its int64 indices
    and a bool table as large as the input), the block scan's about 450."""
    X = _run_table(31, 21_900, N_STEPS)
    tracemalloc.start()
    try:
        runs(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * len(X)


def test_estimate_statistics_events_only_on_zero_weight_days():
    c = int(ActivityState.COOKING)
    table = np.concatenate([make_seq([c, c], weight=0.0, rid="a"), make_seq([2] * N_STEPS, rid="b")])
    stats = cooking_statistics(table)
    assert stats.duration_dist is None and stats.onset_dist is None
    assert stats.occurrences_dist.support.tolist() == [0.0, 1.0]
    assert stats.occurrences_dist.probs.tolist() == [1.0, 0.0]
    assert stats.n_events == 1


def test_tpmset_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    tpms = estimate_tpm(random_corpus(rng), alphabet=FULL_ALPHABET, cluster_id=3)
    head, rows = tpms.section()
    path = tmp_path / "chain"
    write_lines(path, [head, *map(",".join, number_text(rows))])
    with reading(path) as lines:
        back = TPMSet.parse(lines, lines.numbered)
    assert back.cluster_id == 3 and back.day_type == "WD"
    assert back.alphabet == tpms.alphabet
    assert np.abs(back.initial - tpms.initial).max() <= 1e-9
    assert np.abs(back.matrices - tpms.matrices).max() <= 1e-9


def test_tpmset_validation():
    m = np.tile(np.eye(S), (95, 1, 1))
    init = np.eye(S)[0]
    bad = m.copy()
    bad[4, 2, 2] = 0.5
    with pytest.raises(OccsimError, match=r"step 4"):
        TPMSet(0, "WD", FULL_ALPHABET, init, bad)
    neg = m.copy()
    neg[0, 0, 0] = -0.1
    neg[0, 0, 1] = 1.1
    with pytest.raises(OccsimError, match="negative"):
        TPMSet(0, "WD", FULL_ALPHABET, init, neg)
    # sums to 1 within ROW_TOL, but its cumulative sum decreases, so
    # r = 0.4999999997 would draw the state of negative probability
    tiny = np.array([0.5, -5e-10, 0.5 + 5e-10])
    with pytest.raises(OccsimError, match="negative probabilities"):
        TPMSet(0, "WD", PRESENCE_ALPHABET, np.eye(3)[0], np.tile(tiny, (4, 3, 1)))
    with pytest.raises(OccsimError, match="negative probabilities"):
        TPMSet(0, "WD", PRESENCE_ALPHABET, tiny, np.tile(np.eye(3), (4, 1, 1)))
    with pytest.raises(OccsimError, match="initial"):
        TPMSet(0, "WD", FULL_ALPHABET, init * 0.5, m)


def test_tpmset_rejects_non_finite():
    m = np.tile(np.eye(S), (95, 1, 1))
    init = np.eye(S)[0]
    nan_init = init.copy()
    nan_init[1] = np.nan
    with pytest.raises(OccsimError, match="non-finite"):
        TPMSet(0, "WD", FULL_ALPHABET, nan_init, m)
    inf_rows = m.copy()
    inf_rows[3, 2, 4] = np.inf
    with pytest.raises(OccsimError, match="non-finite"):
        TPMSet(0, "WD", FULL_ALPHABET, init, inf_rows)


def _with_cell(lines, row, value):
    cells = lines[row].split(",")
    cells[1] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1 :]


# Each corruption edits the lines under `[tpm]`, the section's first line
# being file line 2; the pattern follows "<path>: ".
@pytest.mark.parametrize(
    "corrupt, pattern",
    [
        (lambda lines: [], "line 1: expected cluster_id,day_type,state tokens"),
        (lambda lines: lines[:1], "line 2: missing initial distribution row"),
        (lambda lines: ["0"] + lines[1:], "line 2: expected cluster_id,day_type"),
        (lambda lines: ["x" + lines[0]] + lines[1:], "line 2: expected cluster_id,day_type"),
        (lambda lines: lines[:5] + [lines[5] + ",0"] + lines[6:], "line 7: expected 7 values, got 8"),
        (lambda lines: _with_cell(lines, 5, "abc"), "line 7: could not convert"),
        (lambda lines: _with_cell(lines, 5, "nan"), "line 2: non-finite"),
        (lambda lines: lines[:-1], "line 2: matrix block size not a multiple of 7"),
        (lambda lines: lines[:2], r"line 2: matrices must be \(T, 7, 7\)"),
    ],
    ids=[
        "empty", "header_only", "short_header", "bad_cluster_id", "wide_row",
        "not_a_number", "nan", "truncated", "no_matrices",
    ],
)
def test_tpmset_read_errors_name_the_file(tmp_path, corrupt, pattern):
    model = train_cluster_day_model(random_corpus(np.random.default_rng(5)), cluster_id=0, day_type="WD")
    save_model_dir(tmp_path, {"WD": {0: model}})
    path = tmp_path / "c0.wd.tpm"
    edit_section(path, "[tpm]", corrupt)
    with pytest.raises(OccsimError) as exc:
        read_model_file(path)
    assert re.match(f"{re.escape(str(path))}: {pattern}", str(exc.value)), str(exc.value)


def test_tpmset_reduced_horizon_allowed():
    m = np.tile(np.eye(3), (4, 1, 1))
    tpms = TPMSet(0, "WD", PRESENCE_ALPHABET, np.array([1.0, 0, 0]), m)
    assert tpms.n_steps == 5
    assert tpms.n_states == 3


def test_train_cluster_day_model_folds_presence():
    rng = np.random.default_rng(4)
    model = train_cluster_day_model(random_corpus(rng), cluster_id=1, day_type="WD")
    assert model.tpms.n_states == S
    assert model.presence_tpms.alphabet == PRESENCE_ALPHABET
    assert model.presence_tpms.matrices.shape == (95, 3, 3)
    assert set(model.stats) == set(EVENT_ACTIVITIES)
    # event states project onto HomeActive mass
    full_home = forward_marginals(model.tpms)[:, 2:].sum(axis=1)
    pres_home = forward_marginals(model.presence_tpms)[:, 2]
    assert np.abs(full_home - pres_home).max() <= 1e-9


EVENT_FILES = ("cooking", "dishwashing", "laundry", "personalhygiene")


def test_save_load_model_dir(tmp_path):
    rng = np.random.default_rng(6)
    wd = train_cluster_day_model(random_corpus(rng, n=8, day_type="WD"), cluster_id=0, day_type="WD")
    we = train_cluster_day_model(random_corpus(rng, n=8, day_type="WE"), cluster_id=0, day_type="WE")
    save_model_dir(tmp_path, {"WD": {0: wd}, "WE": {0: we}})
    assert {p.name for p in tmp_path.iterdir()} == {"c0.wd.tpm", "c0.we.tpm"}
    headers = [line for line in (tmp_path / "c0.wd.tpm").read_text().splitlines() if line.startswith("[")]
    assert headers == ["[tpm]", "[presence]"] + [
        f"[{act}.{kind}]" for act in EVENT_FILES for kind in ("count", "duration", "onset")
    ]
    loaded = load_model_dir(tmp_path)
    assert set(loaded) == {"WD", "WE"}
    back = loaded["WD"][0]
    assert np.abs(back.tpms.matrices - wd.tpms.matrices).max() <= 1e-9
    assert np.abs(back.presence_tpms.initial - wd.presence_tpms.initial).max() <= 1e-9
    assert set(back.stats) == set(EVENT_ACTIVITIES)
    cook = back.stats[ActivityState.COOKING]
    ref = wd.stats[ActivityState.COOKING]
    assert cook.daily_profile is None
    assert np.allclose(cook.duration_dist.support, ref.duration_dist.support)
    assert np.allclose(cook.onset_dist.probs, ref.onset_dist.probs)
    assert np.allclose(cook.occurrences_dist.probs, ref.occurrences_dist.probs)


def _printed(values):
    """`values` as a model file holds them: each number read back from its `.12g` text."""
    return np.array([float(f"{v:.12g}") for v in np.ravel(values)]).reshape(np.shape(values))


@pytest.mark.parametrize("seed", [9, 31, 57])
def test_model_dir_round_trips_to_equal_arrays(tmp_path, seed):
    """Every chain and distribution loads to the arrays its printed numbers
    give, bit for bit, the distributions renormalized as on construction."""
    corpus = generate_corpus(40, seed)
    models = {}
    for day_type in ("WD", "WE"):
        table = corpus[corpus["day_type"] == day_type]
        models[day_type] = {c: train_cluster_day_model(table[c::2], cluster_id=c, day_type=day_type) for c in range(2)}
    save_model_dir(tmp_path, models)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c0.wd.tpm", "c0.we.tpm", "c1.wd.tpm", "c1.we.tpm"]
    loaded = load_model_dir(tmp_path)
    for day_type, by_cluster in models.items():
        assert sorted(loaded[day_type]) == [0, 1]
        for c, model in by_cluster.items():
            back = loaded[day_type][c]
            assert (back.cluster_id, back.day_type) == (c, day_type)
            for got, want in ((back.tpms, model.tpms), (back.presence_tpms, model.presence_tpms)):
                assert (got.cluster_id, got.day_type, got.alphabet) == (want.cluster_id, want.day_type, want.alphabet)
                assert got.initial.tobytes() == _printed(want.initial).tobytes()
                assert got.matrices.tobytes() == _printed(want.matrices).tobytes()
            for activity in EVENT_ACTIVITIES:
                got, want = back.stats[activity], model.stats[activity]
                for a, b in (
                    (got.occurrences_dist, want.occurrences_dist),
                    (got.duration_dist, want.duration_dist),
                    (got.onset_dist, want.onset_dist),
                ):
                    assert (a is None) == (b is None)
                    if b is not None:
                        assert _same_dist(a, EmpiricalDistribution(_printed(b.support), _printed(b.probs), b.unit))


def test_clean_model_and_bundle_load_without_the_row_loop(tmp_path, monkeypatch):
    """A clean model file or bundle is parsed in one pass per section: the
    row loop of `conf.number_rows`, which only names a bad line, never
    calls the float it reads with."""

    def row_loop_float(text):
        raise AssertionError(f"row loop read {text!r} of a clean file")

    monkeypatch.setattr(conf, "float", row_loop_float, raising=False)
    save_model_dir(tmp_path / "tpms", truth_models())
    write_bundle(tmp_path / "bundle", default_bundle())
    loaded = load_model_dir(tmp_path / "tpms")
    assert {dt: sorted(by_cluster) for dt, by_cluster in loaded.items()} == {"WD": [0, 1, 2, 3], "WE": [0, 1, 2, 3]}
    assert sorted(load_bundle(tmp_path / "bundle")) == sorted(REQUIRED_BUNDLE)
    write_lines(tmp_path / "bundle" / "sink.flow", ["unit,x", "1_0,1"])  # numpy rejects 1_0, float does not
    with pytest.raises(AssertionError, match="row loop read '1_0'"):
        load_bundle(tmp_path / "bundle")


def test_save_model_dir_deletes_only_files_of_a_model_name(tmp_path):
    """A model directory holds what the last save wrote: older model files,
    and files of the layout with a file per chain and distribution, go;
    files of any other name stay."""
    model = train_cluster_day_model(random_corpus(np.random.default_rng(3), n=6), cluster_id=0, day_type="WD")
    stale = ["c0.we.tpm", "c7.wd.tpm", "c0.wd.presence.tpm", "c1.we.cooking.count.dist", "c0.wd.sleep.onset.dist"]
    foreign = ["notes.txt", "c0.wd.tpm.bak", "c0.wd.cooking.profile", "c0.wd.cooking.level.dist", "x0.wd.tpm"]
    for name in stale + foreign:
        (tmp_path / name).write_text("kept?\n")
    save_model_dir(tmp_path, {"WD": {0: model}})
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["c0.wd.tpm", *foreign])


def test_save_model_dir_skips_onset_and_duration_without_events(tmp_path):
    seqs = np.concatenate([make_seq([0] * N_STEPS, rid=f"r{i}") for i in range(3)])
    save_model_dir(tmp_path, {"WD": {0: train_cluster_day_model(seqs, cluster_id=0, day_type="WD")}})
    lines = (tmp_path / "c0.wd.tpm").read_text().splitlines()
    assert "[laundry.count]" in lines and "[laundry.onset]" not in lines and "[laundry.duration]" not in lines
    back = load_model_dir(tmp_path)["WD"][0].stats[ActivityState.LAUNDRY]
    assert back.onset_dist is None and back.duration_dist is None


def _write_old_extras(directory, model, sequences):
    """The files older model directories also held: a `.profile` per activity
    and the `.dist` files of the non-event activities."""
    stem = f"c{model.cluster_id}.{model.day_type.lower()}"
    for activity, st in estimate_statistics(sequences).items():
        act = STATE_TOKENS[activity].lower()
        write_step_values(directory / f"{stem}.{act}.profile", st.daily_profile)
        if activity not in EVENT_ACTIVITIES:
            st.occurrences_dist.write(directory / f"{stem}.{act}.count.dist")
            st.duration_dist.write(directory / f"{stem}.{act}.duration.dist")
            st.onset_dist.write(directory / f"{stem}.{act}.onset.dist")


def test_old_model_dir_loads_to_the_same_simulation(tmp_path):
    rng = np.random.default_rng(11)
    corpora = {dt: random_corpus(rng, n=10, day_type=dt) for dt in ("WD", "WE")}
    models = [train_cluster_day_model(seqs, cluster_id=0, day_type=dt) for dt, seqs in corpora.items()]
    new, old = tmp_path / "new", tmp_path / "old"
    save_model_dir(new, {m.day_type: {0: m} for m in models})
    save_model_dir(old, {m.day_type: {0: m} for m in models})
    for m in models:
        _write_old_extras(old, m, corpora[m.day_type])
    assert len(list(old.iterdir())) == len(list(new.iterdir())) + 2 * (7 + 3 * 3)
    profile, calendar = OccupantProfile("o", 0, 0), SimCalendar(start_weekday=0, n_days=9)
    root = streams.root(5)
    for approach in (1, 2, 3):
        years = []
        for models in (load_model_dir(new), load_model_dir(old)):
            days = walk_occupants([(profile, root)], models, calendar, approach=approach)[0]
            years.append(simulate_year(profile, days, models, calendar, root, approach=approach))
        (want, want_fail), (got, got_fail) = years
        assert np.array_equal(got, want) and got_fail == want_fail


@pytest.mark.parametrize(
    "name", ["c0.wd.cooking.count.dist", "c0.wd.laundry.duration.dist", "c0.wd.dishwashing.onset.dist"]
)
def test_load_model_dir_rejects_missing_event_file(tmp_path, name):
    """A missing section is named with the line where it belongs, the next
    section's header."""
    rng = np.random.default_rng(6)
    save_model_dir(tmp_path, {"WD": {0: train_cluster_day_model(random_corpus(rng, n=8), cluster_id=0, day_type="WD")}})
    path, section = model_section(tmp_path, name)
    line = edit_section(path, section, lambda lines: None)
    with pytest.raises(OccsimError) as exc:
        load_model_dir(tmp_path)
    assert str(exc.value) == f"{path}: line {line}: missing section {section}"


def _repeat_tpm(lines):
    return lines + lines[:1], f"line {len(lines) + 1}: section [tpm] repeated or out of order"


def _unknown_section(lines):
    at = lines.index("[presence]")
    return lines[:at] + ["[sleep.count]"] + lines[at:], f"line {at + 1}: unknown section [sleep.count]"


def _swap_presence_and_tpm(lines):
    at = lines.index("[presence]")
    end = lines.index("[cooking.count]")
    return lines[at:end] + lines[:at] + lines[end:], f"line {end - at + 1}: section [tpm] repeated or out of order"


def _drop_last_section(lines):
    return lines[: lines.index("[personalhygiene.onset]")], "missing section [personalhygiene.onset]"


@pytest.mark.parametrize(
    "edit",
    [
        _repeat_tpm,
        _unknown_section,
        _swap_presence_and_tpm,
        lambda lines: (["0,WD"] + lines, "line 1: expected a [section] header line"),
        _drop_last_section,
    ],
    ids=["repeated", "unknown", "out_of_order", "before_first", "last_missing"],
)
def test_load_model_dir_names_the_line_of_a_bad_section(tmp_path, edit):
    """A repeated, unknown or misplaced section header, or a line before the
    first, is named by its line; a missing last section by the file alone."""
    rng = np.random.default_rng(6)
    save_model_dir(tmp_path, {"WD": {0: train_cluster_day_model(random_corpus(rng, n=8), cluster_id=0, day_type="WD")}})
    path = tmp_path / "c0.wd.tpm"
    lines, message = edit(path.read_text().splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(OccsimError) as exc:
        load_model_dir(tmp_path)
    assert str(exc.value) == f"{path}: {message}"


def test_load_model_dir_names_a_bad_dist_file(tmp_path):
    rng = np.random.default_rng(6)
    save_model_dir(tmp_path, {"WD": {0: train_cluster_day_model(random_corpus(rng, n=8), cluster_id=0, day_type="WD")}})
    path = tmp_path / "c0.wd.tpm"
    line = edit_section(path, "[cooking.onset]", lambda lines: ["unit,steps", "3,abc"])
    with pytest.raises(OccsimError) as exc:
        load_model_dir(tmp_path)
    assert str(exc.value) == f"{path}: line {line + 2}: could not convert string to float: 'abc'"


def test_save_model_dir_accepts_nested_dict(tmp_path):
    rng = np.random.default_rng(8)
    wd = train_cluster_day_model(random_corpus(rng, n=6), cluster_id=0, day_type="WD")
    save_model_dir(tmp_path, {"WD": {0: wd}})
    loaded = load_model_dir(tmp_path)
    assert np.abs(loaded["WD"][0].tpms.matrices - wd.tpms.matrices).max() <= 1e-9
