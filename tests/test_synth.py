import numpy as np
import pytest

from occsim.diary_ingest import (
    EVENT_ACTIVITIES,
    N_STEPS,
    PRESENCE_ALPHABET,
    SEQUENCE,
    ActivityState,
    parse_diaries,
    project_to_presence,
    resample_to_sequence,
)
from occsim.occupant_sim import walk_days
from occsim.schedule_io import MODULATED_END_USES, REQUIRED_BUNDLE
from occsim.synth import (
    build_truth_model,
    default_bundle,
    default_code_map,
    default_reference,
    generate_corpus,
    planted_duration_dist,
    truth_models,
    write_diaries,
    write_input_tree,
)
from tests.helpers import day_uniforms, forward_marginals


def test_truth_model_is_valid_chain():
    model = build_truth_model(0, "WD")
    tpms = model.tpms
    assert tpms.matrices.shape == (95, 7, 7)
    assert np.allclose(tpms.matrices.sum(axis=2), 1.0, atol=1e-12)
    assert np.allclose(tpms.initial.sum(), 1.0)
    assert model.presence_tpms.alphabet == PRESENCE_ALPHABET
    assert model.presence_tpms.matrices.shape == (95, 3, 3)
    assert np.allclose(model.presence_tpms.matrices.sum(axis=2), 1.0, atol=1e-12)
    # home-side mass agrees between the chains at the first step
    pres_init = model.presence_tpms.initial
    assert pres_init[2] == pytest.approx(tpms.initial[2:].sum())
    marg = forward_marginals(tpms)
    assert marg[-1].sum() == pytest.approx(1.0)


def test_truth_models_cover_clusters_and_day_types():
    models = truth_models()
    assert set(models) == {"WD", "WE"}
    for dt in ("WD", "WE"):
        assert sorted(models[dt]) == [0, 1, 2, 3]
    # weekend and weekday chains differ
    a = models["WD"][0].tpms.matrices
    b = models["WE"][0].tpms.matrices
    assert np.abs(a - b).max() > 0


def test_planted_duration_dists():
    d = planted_duration_dist(ActivityState.COOKING)
    assert d.support.tolist() == [15.0, 30.0, 45.0, 60.0]
    assert np.allclose(d.probs, [0.35, 0.35, 0.20, 0.10])
    assert d.unit == "minutes"
    for a in EVENT_ACTIVITIES:
        pd = planted_duration_dist(a)
        assert np.all(pd.support % 15 == 0)
        assert pytest.approx(pd.probs.sum()) == 1.0


def test_truth_stats_use_planted_durations():
    model = build_truth_model(1, "WD")
    st = model.stats[ActivityState.COOKING]
    planted = planted_duration_dist(ActivityState.COOKING)
    assert np.allclose(st.duration_dist.support, planted.support)
    assert np.allclose(st.duration_dist.probs, planted.probs)
    assert st.occurrences_dist.support.tolist() == [0.0, 1.0, 2.0]


def test_generate_day_shape_and_values():
    model = build_truth_model(2, "WE")
    rng = np.random.default_rng(0)
    day = walk_days(model.tpms, day_uniforms(model.tpms, rng, model.stats)[None], model.stats)[0]
    assert day.shape == (N_STEPS,)
    assert set(np.unique(day)) <= set(range(7))


def test_generate_corpus_deterministic_and_planted_shares():
    c1 = generate_corpus(400, base_seed=5)
    c2 = generate_corpus(400, base_seed=5)
    assert c1.dtype == SEQUENCE and len(c1) == 800  # both day types
    assert c1["id"].tolist() == c2["id"].tolist()
    assert np.array_equal(c1["weight"], c2["weight"])
    assert np.array_equal(c1["states"], c2["states"])
    wd = c1[c1["day_type"] == "WD"]
    assert len(wd) == 400
    assert wd["id"][0] == "rwd00000"
    assert np.all((0.5 <= c1["weight"]) & (c1["weight"] <= 1.5))
    assert np.any(c1["states"] != c2["states"][0])  # corpus is not a constant


def test_write_diaries_round_trip(tmp_path):
    corpus = generate_corpus(25, base_seed=9)
    path = tmp_path / "diaries.csv"
    write_diaries(path, corpus)
    result = parse_diaries(path, default_code_map())
    assert result.unknown_codes == 0
    assert len(result.diaries) == len(corpus)
    for diary, (rid, day_type, weight, _) in zip(result.diaries, corpus.tolist()):
        assert diary["id"] == rid
        assert diary["day_type"] == day_type
        assert diary["weight"] == pytest.approx(weight)
    # 15x minute expansion resamples back to the exact states
    assert np.array_equal(resample_to_sequence(result.diaries["minutes"]), corpus["states"])


def test_default_bundle_complete():
    bundle = default_bundle()
    assert set(bundle) == set(REQUIRED_BUNDLE)
    for dist in bundle.values():
        assert pytest.approx(dist.probs.sum()) == 1.0


def test_default_reference_positive_and_distinct():
    for use in MODULATED_END_USES:
        wd = default_reference(use, "WD")
        we = default_reference(use, "WE")
        assert wd.shape == (N_STEPS,) and we.shape == (N_STEPS,)
        assert wd.min() > 0 and we.min() > 0
        assert wd.max() == 1.0
    # day-type shift applies to the time-of-day driven uses
    for use in ("lighting", "ceiling_fan"):
        assert np.abs(default_reference(use, "WD") - default_reference(use, "WE")).max() > 0
    with pytest.raises(ValueError, match="unknown end use"):
        default_reference("sauna", "WD")


def test_presence_projection_of_generated_days():
    model = build_truth_model(0, "WD")
    rng = np.random.default_rng(4)
    day = walk_days(model.tpms, day_uniforms(model.tpms, rng, model.stats)[None], model.stats)[0]
    proj = project_to_presence(day)
    assert set(np.unique(proj)) <= {0, 1, 2}
    # event steps fold into HomeActive, presence steps pass through
    assert np.all(proj[day >= 3] == 2)
    assert np.array_equal(proj[day < 3], day[day < 3])


@pytest.mark.parametrize("size", ["n_per_day_type", "n_households", "n_days"])
@pytest.mark.parametrize("value", [0, -1, 2.0])
def test_write_input_tree_rejects_sizes_that_are_not_positive_whole_numbers(tmp_path, size, value):
    with pytest.raises(ValueError, match=f"{size} must be a positive whole number"):
        write_input_tree(tmp_path / "tree", **{size: value})
    assert not (tmp_path / "tree").exists()
