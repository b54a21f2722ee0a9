import numpy as np
import pytest
from hypothesis import given, strategies as st

from occsim import streams
from occsim.conf import write_step_values
from occsim.diary_ingest import (
    EVENT_ACTIVITIES,
    FULL_ALPHABET,
    N_STEPS,
    PRESENCE_ALPHABET,
    STATE_TOKENS,
    SEQUENCE,
    ActivityState,
)
from occsim.markov_train import (
    TPMSet,
    TrainError,
    estimate_all_statistics,
    estimate_statistics,
    estimate_tpm,
    forward_marginals,
    load_model_dir,
    save_model_dir,
    train_cluster_day_model,
)
from occsim.occupant_sim import OccupantProfile, SimCalendar, simulate_year
from tests.helpers import make_seq

S = len(FULL_ALPHABET)
ABSORBING = {"fallback": "absorbing", "alpha": 0.0}


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
    tpms = estimate_tpm(np.concatenate([a, b]), **ABSORBING)
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


def test_estimate_tpm_uniform_fallback():
    a = make_seq([0], rid="a")
    tpms = estimate_tpm(a, fallback="uniform", alpha=0.0)
    assert np.allclose(tpms.matrices[0, 1], np.full(S, 1 / S))
    # visited rows are untouched by the fallback
    assert np.allclose(tpms.matrices[0, 0], np.eye(S)[2])


def test_estimate_tpm_laplace_smoothing():
    a = make_seq([0, 1], weight=2.0, rid="a")
    b = make_seq([0, 2], weight=1.0, rid="b")
    tpms = estimate_tpm(np.concatenate([a, b]), fallback="laplace", alpha=1.0)
    expected = (np.array([0.0, 2.0, 1.0, 0, 0, 0, 0]) + 1.0) / (3.0 + S)
    assert np.allclose(tpms.matrices[0, 0], expected)
    # rows with no visits become uniform under positive alpha
    assert np.allclose(tpms.matrices[0, 3], np.full(S, 1 / S))


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5])
def test_estimate_tpm_rejects_bad_alpha(alpha):
    with pytest.raises(TrainError, match="alpha must be finite and nonnegative"):
        estimate_tpm(make_seq([0, 1]), fallback="laplace", alpha=alpha)


def test_estimate_tpm_laplace_zero_alpha_is_absorbing():
    a = make_seq([0], rid="a")
    tpms = estimate_tpm(a, fallback="laplace", alpha=0.0)
    assert np.allclose(tpms.matrices[0, 4], np.eye(S)[4])


def test_estimate_tpm_input_validation():
    with pytest.raises(TrainError, match="no sequences"):
        estimate_tpm(np.empty(0, dtype=SEQUENCE), **ABSORBING)
    with pytest.raises(TrainError, match="day types"):
        mixed = np.concatenate([make_seq([0], rid="a"), make_seq([0], day_type="WE", rid="b")])
        estimate_tpm(mixed, **ABSORBING)
    with pytest.raises(TrainError, match="total weight must be positive"):
        zero = np.concatenate([make_seq([0], weight=0.0, rid="a"), make_seq([0], weight=0.0, rid="b")])
        estimate_tpm(zero, **ABSORBING)
    with pytest.raises(TrainError, match="fallback"):
        estimate_tpm(make_seq([0]), fallback="magic", alpha=0.0)
    cooking = make_seq([int(ActivityState.COOKING)])
    with pytest.raises(TrainError, match="not in alphabet"):
        estimate_tpm(cooking, alphabet=PRESENCE_ALPHABET, **ABSORBING)


def test_forward_marginals_reproduce_frequencies():
    rng = np.random.default_rng(13)
    seqs = random_corpus(rng, n=20)
    tpms = estimate_tpm(seqs, **ABSORBING)
    assert np.abs(forward_marginals(tpms) - empirical_marginals(seqs)).max() <= 1e-9


@given(st.integers(0, 10_000))
def test_forward_marginal_identity_property(seed):
    rng = np.random.default_rng(seed)
    seqs = random_corpus(rng, n=4)
    tpms = estimate_tpm(seqs, **ABSORBING)
    marg = forward_marginals(tpms)
    assert np.abs(marg - empirical_marginals(seqs)).max() <= 1e-9
    assert np.allclose(tpms.matrices.sum(axis=2), 1.0, atol=1e-12)


def test_estimate_statistics_frozen():
    c = int(ActivityState.COOKING)
    day1 = [2] * N_STEPS
    day1[3] = day1[4] = c
    day1[10] = c
    day2 = [2] * N_STEPS
    stats = estimate_statistics(
        np.concatenate([make_seq(day1, rid="a"), make_seq(day2, rid="b")]), ActivityState.COOKING
    )
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
    stats = estimate_statistics(
        np.concatenate([make_seq(on, weight=3.0, rid="a"), make_seq(off, weight=1.0, rid="b")]),
        ActivityState.COOKING,
    )
    assert np.allclose(stats.daily_profile, 0.75)
    # single 96-step run on the weighted day
    assert stats.duration_dist.support.tolist() == [N_STEPS * 15.0]
    assert np.allclose(stats.occurrences_dist.probs, [0.25, 0.75])


def test_estimate_statistics_truncated_run_counted():
    c = int(ActivityState.COOKING)
    day = [2] * N_STEPS
    day[94] = day[95] = c
    stats = estimate_statistics(make_seq(day), ActivityState.COOKING)
    assert stats.duration_dist.support.tolist() == [30.0]
    assert stats.onset_dist.support.tolist() == [94.0]


def test_estimate_statistics_no_events():
    stats = estimate_statistics(make_seq([2] * N_STEPS), ActivityState.LAUNDRY)
    assert stats.duration_dist is None
    assert stats.onset_dist is None
    assert stats.occurrences_dist.support.tolist() == [0.0]
    assert stats.n_events == 0


def test_tpmset_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    tpms = estimate_tpm(random_corpus(rng), cluster_id=3, **ABSORBING)
    path = tmp_path / "c3.wd.tpm"
    tpms.write(path)
    back = TPMSet.read(path)
    assert back.cluster_id == 3 and back.day_type == "WD"
    assert back.alphabet == tpms.alphabet
    assert np.abs(back.initial - tpms.initial).max() <= 1e-9
    assert np.abs(back.matrices - tpms.matrices).max() <= 1e-9


def test_tpmset_validation():
    m = np.tile(np.eye(S), (95, 1, 1))
    init = np.eye(S)[0]
    bad = m.copy()
    bad[4, 2, 2] = 0.5
    with pytest.raises(TrainError, match=r"step 4"):
        TPMSet(0, "WD", FULL_ALPHABET, init, bad)
    neg = m.copy()
    neg[0, 0, 0] = -0.1
    neg[0, 0, 1] = 1.1
    with pytest.raises(TrainError, match="negative"):
        TPMSet(0, "WD", FULL_ALPHABET, init, neg)
    with pytest.raises(TrainError, match="initial"):
        TPMSet(0, "WD", FULL_ALPHABET, init * 0.5, m)


def test_tpmset_rejects_non_finite():
    m = np.tile(np.eye(S), (95, 1, 1))
    init = np.eye(S)[0]
    nan_init = init.copy()
    nan_init[1] = np.nan
    with pytest.raises(TrainError, match="non-finite"):
        TPMSet(0, "WD", FULL_ALPHABET, nan_init, m)
    inf_rows = m.copy()
    inf_rows[3, 2, 4] = np.inf
    with pytest.raises(TrainError, match="non-finite"):
        TPMSet(0, "WD", FULL_ALPHABET, init, inf_rows)


def _with_cell(lines, row, value):
    cells = lines[row].split(",")
    cells[1] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1 :]


@pytest.mark.parametrize(
    "corrupt, pattern",
    [
        (lambda lines: [], "empty model file"),
        (lambda lines: lines[:1], "missing initial distribution row"),
        (lambda lines: ["0"] + lines[1:], "line 1: expected cluster_id,day_type"),
        (lambda lines: ["x" + lines[0]] + lines[1:], "line 1: expected cluster_id,day_type"),
        (lambda lines: lines[:5] + [lines[5] + ",0"] + lines[6:], "line 6: expected 7 values, got 8"),
        (lambda lines: _with_cell(lines, 5, "abc"), "line 6: could not convert"),
        (lambda lines: _with_cell(lines, 5, "nan"), "non-finite"),
        (lambda lines: lines[:-1], "not a multiple of 7"),
        (lambda lines: lines[:2], r"matrices must be \(T, 7, 7\)"),
    ],
    ids=[
        "empty", "header_only", "short_header", "bad_cluster_id", "wide_row",
        "not_a_number", "nan", "truncated", "no_matrices",
    ],
)
def test_tpmset_read_errors_name_the_file(tmp_path, corrupt, pattern):
    tpms = estimate_tpm(random_corpus(np.random.default_rng(5)), **ABSORBING)
    path = tmp_path / "c0.wd.tpm"
    tpms.write(path)
    path.write_text("".join(ln + "\n" for ln in corrupt(path.read_text().splitlines())))
    with pytest.raises(TrainError, match=pattern) as exc:
        TPMSet.read(path)
    assert str(path) in str(exc.value)


def test_tpmset_reduced_horizon_allowed():
    m = np.tile(np.eye(3), (4, 1, 1))
    tpms = TPMSet(0, "WD", PRESENCE_ALPHABET, np.array([1.0, 0, 0]), m)
    assert tpms.n_steps == 5
    assert tpms.n_states == 3


def test_train_cluster_day_model_folds_presence():
    rng = np.random.default_rng(4)
    model = train_cluster_day_model(random_corpus(rng), cluster_id=1, day_type="WD", **ABSORBING)
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
    wd = train_cluster_day_model(random_corpus(rng, n=8, day_type="WD"), 0, "WD", **ABSORBING)
    we = train_cluster_day_model(random_corpus(rng, n=8, day_type="WE"), 0, "WE", **ABSORBING)
    save_model_dir(tmp_path, [wd, we])
    expected = set()
    for stem in ("c0.wd", "c0.we"):
        expected |= {f"{stem}.tpm", f"{stem}.presence.tpm"}
        expected |= {
            f"{stem}.{act}.{kind}.dist" for act in EVENT_FILES for kind in ("count", "onset", "duration")
        }
    assert {p.name for p in tmp_path.iterdir()} == expected
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


def test_save_model_dir_skips_onset_and_duration_without_events(tmp_path):
    seqs = np.concatenate([make_seq([0] * N_STEPS, rid=f"r{i}") for i in range(3)])
    save_model_dir(tmp_path, [train_cluster_day_model(seqs, 0, "WD", **ABSORBING)])
    names = {p.name for p in tmp_path.iterdir()}
    assert "c0.wd.laundry.count.dist" in names and "c0.wd.laundry.onset.dist" not in names
    back = load_model_dir(tmp_path)["WD"][0].stats[ActivityState.LAUNDRY]
    assert back.onset_dist is None and back.duration_dist is None


def _write_old_extras(directory, model, sequences):
    """The files older model directories also held: a `.profile` per activity
    and the `.dist` files of the non-event activities."""
    stem = f"c{model.cluster_id}.{model.day_type.lower()}"
    for activity, st in estimate_all_statistics(sequences).items():
        act = STATE_TOKENS[activity].lower()
        write_step_values(directory / f"{stem}.{act}.profile", st.daily_profile)
        if activity not in EVENT_ACTIVITIES:
            st.occurrences_dist.write(directory / f"{stem}.{act}.count.dist")
            st.duration_dist.write(directory / f"{stem}.{act}.duration.dist")
            st.onset_dist.write(directory / f"{stem}.{act}.onset.dist")


def test_old_model_dir_loads_to_the_same_simulation(tmp_path):
    rng = np.random.default_rng(11)
    corpora = {dt: random_corpus(rng, n=10, day_type=dt) for dt in ("WD", "WE")}
    models = [train_cluster_day_model(seqs, 0, dt, **ABSORBING) for dt, seqs in corpora.items()]
    new, old = tmp_path / "new", tmp_path / "old"
    save_model_dir(new, models)
    save_model_dir(old, models)
    for m in models:
        _write_old_extras(old, m, corpora[m.day_type])
    assert len(list(old.iterdir())) == len(list(new.iterdir())) + 2 * (7 + 3 * 3)
    profile, calendar = OccupantProfile("o", 0, 0), SimCalendar(start_weekday=0, n_days=9)
    root = streams.root(5)
    for approach in (1, 2, 3):
        want, want_fail = simulate_year(profile, load_model_dir(new), calendar, root, approach=approach)
        got, got_fail = simulate_year(profile, load_model_dir(old), calendar, root, approach=approach)
        assert np.array_equal(got, want) and got_fail == want_fail


@pytest.mark.parametrize(
    "name", ["c0.wd.cooking.count.dist", "c0.wd.laundry.duration.dist", "c0.wd.dishwashing.onset.dist"]
)
def test_load_model_dir_rejects_missing_event_file(tmp_path, name):
    rng = np.random.default_rng(6)
    save_model_dir(tmp_path, [train_cluster_day_model(random_corpus(rng, n=8), 0, "WD", **ABSORBING)])
    (tmp_path / name).unlink()
    with pytest.raises(TrainError, match=f"missing expected file: .*{name}"):
        load_model_dir(tmp_path)


def test_load_model_dir_names_a_bad_dist_file(tmp_path):
    rng = np.random.default_rng(6)
    save_model_dir(tmp_path, [train_cluster_day_model(random_corpus(rng, n=8), 0, "WD", **ABSORBING)])
    path = tmp_path / "c0.wd.cooking.onset.dist"
    path.write_text("unit,steps\n3,abc\n")
    with pytest.raises(TrainError, match="line 2: expected value,probability") as exc:
        load_model_dir(tmp_path)
    assert str(exc.value).startswith(str(path))


def test_save_model_dir_accepts_nested_dict(tmp_path):
    rng = np.random.default_rng(8)
    wd = train_cluster_day_model(random_corpus(rng, n=6), 0, "WD", **ABSORBING)
    save_model_dir(tmp_path, {"WD": {0: wd}})
    loaded = load_model_dir(tmp_path)
    assert np.abs(loaded["WD"][0].tpms.matrices - wd.tpms.matrices).max() <= 1e-9
