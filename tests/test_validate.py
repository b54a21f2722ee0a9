import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import occsim

from occsim.conf import OccsimError
from occsim.diary_ingest import (
    FULL_ALPHABET,
    N_STEPS,
    STATE_TOKENS,
    ActivityState,
    sequence_table,
)
from occsim.distributions import EmpiricalDistribution
from occsim.markov_train import estimate_statistics
from occsim.validate import (
    ActivityComparison,
    ComparisonReport,
    chi2_sf,
    compare_behavior,
    ks_statistic,
    occurrence_chi2_p,
)
from tests.helpers import point_mass


def dist(support, probs, unit="x"):
    return EmpiricalDistribution(np.array(support, float), np.array(probs, float), unit)


def test_ks_hand_computed():
    a = dist([10, 20], [0.5, 0.5])
    b = dist([10, 30], [0.25, 0.75])
    # union cdf differences: |0.5-0.25|, |1-0.25|, |1-1|
    assert ks_statistic(a, b) == pytest.approx(0.75)
    assert ks_statistic(b, a) == pytest.approx(0.75)


def test_ks_degenerate_sides():
    assert ks_statistic(None, None) is None
    d = point_mass(5.0)
    assert ks_statistic(d, None) == 1.0
    assert ks_statistic(None, d) == 1.0
    assert ks_statistic(d, d) == 0.0


def test_ks_disjoint_supports():
    assert ks_statistic(point_mass(1.0), point_mass(2.0)) == 1.0


def test_chi2_identical_distributions():
    d = dist([0, 1, 2], [0.2, 0.5, 0.3], "count")
    assert occurrence_chi2_p(d, d, 1000) == 1.0


def test_chi2_frozen_value():
    sim = dist([0, 1], [0.45, 0.55], "count")
    ref = dist([0, 1], [0.5, 0.5], "count")
    # obs [90, 110] vs exp [100, 100]: stat 2.0 on 1 dof
    p = occurrence_chi2_p(sim, ref, 200)
    assert p == pytest.approx(0.15729920705028513, rel=1e-12)


def test_chi2_sf_closed_form_values():
    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(0.0, 7) == 1.0
    assert chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-15)
    assert chi2_sf(3.0, 1) == pytest.approx(math.erfc(math.sqrt(1.5)), rel=1e-15)
    # dof 3: erfc(sqrt(h)) + 2 sqrt(h / pi) exp(-h)
    h = 2.5
    want = math.erfc(math.sqrt(h)) + 2 * math.sqrt(h / math.pi) * math.exp(-h)
    assert chi2_sf(2 * h, 3) == pytest.approx(want, rel=1e-14)
    # deep tail: log-space terms stay normal where exp(-h) * h**i would not
    assert 0 < chi2_sf(1500.0, 60) < 1e-250


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    xs = np.concatenate([np.geomspace(1e-8, 2.0, 60), 2.2 * np.arange(1, 1001)])
    for dof in range(1, 61):
        want = stats.chi2.sf(xs, dof)
        got = np.array([chi2_sf(float(x), dof) for x in xs])
        keep = want >= 1e-290
        assert np.all(np.abs(got[keep] - want[keep]) <= 1e-12 * want[keep]), dof
        assert [f"{v:.9g}" for v in got[keep]] == [f"{v:.9g}" for v in want[keep]], dof


def test_cli_import_does_not_load_scipy():
    env_path = str(Path(occsim.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {env_path!r}); import occsim.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_compare_behavior_does_not_load_numpy_ma():
    # np.union1d and np.unique import numpy.ma on first use, a cost every run
    # would pay in its validate stage
    env_path = str(Path(occsim.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {env_path!r})\n"
        "import numpy as np\n"
        "from occsim.diary_ingest import sequence_table\n"
        "from occsim.markov_train import estimate_statistics\n"
        "from occsim.validate import compare_behavior\n"
        "rng = np.random.default_rng(5)\n"
        "sim, ref = (sequence_table([f'r{i}' for i in range(20)], 'WD', 1.0, rng.integers(0, 7, (20, 96)))\n"
        "            for _ in range(2))\n"
        "report = compare_behavior(sim, estimate_statistics(ref))\n"
        "assert any(row.ks_duration not in (None, 0.0) for row in report.rows)\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_save_model_dir_does_not_load_numpy_ma(tmp_path):
    # conf.number_text finds distinct values with np.unique, which imports
    # numpy.ma unless a return_* flag is set, a cost every train stage would pay
    env_path = str(Path(occsim.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {env_path!r})\n"
        "from occsim.markov_train import save_model_dir\n"
        "from occsim.synth import truth_models\n"
        f"save_model_dir({str(tmp_path)!r}, truth_models())\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    assert (tmp_path / "c0.wd.tpm").is_file()


@pytest.mark.parametrize("a, b", [([1.0], [1.0]), ([0.0, 2.0], [1.0, 2.0, 3.0]), ([5.0], [-1.0, 0.5])])
def test_support_union_matches_union1d(a, b):
    from occsim.validate import _union

    got = _union(np.array(a), np.array(b))
    assert got.dtype == np.float64 and np.array_equal(got, np.union1d(a, b))


def test_chi2_pools_small_expected_bins():
    ref = dist([0, 1, 2], [0.5, 0.48, 0.02], "count")
    sim = dist([0, 1], [0.5, 0.5], "count")
    # the 2-count bin has expected 2 < 5 and folds into the previous bin,
    # making observed equal expected exactly
    assert occurrence_chi2_p(sim, ref, 100) == 1.0


def test_chi2_single_pooled_bin_has_no_test():
    d = point_mass(0.0, "count")
    assert occurrence_chi2_p(d, d, 3) == 1.0


def test_chi2_detects_gross_mismatch():
    sim = point_mass(0.0, "count")
    ref = dist([0, 1], [0.5, 0.5], "count")
    assert occurrence_chi2_p(sim, ref, 200) < 1e-20


def _random_corpus(rng, n=30):
    states = rng.integers(0, len(FULL_ALPHABET), size=(n, N_STEPS))
    return sequence_table([f"r{i}" for i in range(n)], "WD", 1.0, states)


def test_compare_behavior_self_comparison_is_exact():
    rng = np.random.default_rng(31)
    corpus = _random_corpus(rng)
    ref = estimate_statistics(corpus)
    report = compare_behavior(corpus, ref)
    assert len(report.rows) == len(FULL_ALPHABET)
    for row in report.rows:
        assert row.ks_duration in (0.0, None)
        assert row.ks_onset in (0.0, None)
        assert row.occurrence_chi2_p == 1.0
        assert row.profile_mad == 0.0
        assert row.n_sim_days == row.n_ref_days == 30
        assert row.n_sim_events == row.n_ref_events


def test_compare_behavior_selected_activities():
    rng = np.random.default_rng(32)
    corpus = _random_corpus(rng, n=10)
    ref = estimate_statistics(corpus)
    report = compare_behavior(corpus, {ActivityState.COOKING: ref[ActivityState.COOKING]})
    assert [r.activity for r in report.rows] == [ActivityState.COOKING]
    with pytest.raises(OccsimError, match="no simulated days"):
        compare_behavior(corpus[:0], ref)


def test_report_records_and_file(tmp_path):
    row = ActivityComparison(
        ActivityState.LAUNDRY,
        None,
        0.25,
        0.5,
        0.01,
        100,
        50,
        0,
        7,
    )
    report = ComparisonReport([row])
    token = STATE_TOKENS[ActivityState.LAUNDRY]
    records = report.to_records()
    assert ("ks_duration", token, "na") in records
    assert ("ks_onset", token, "0.25") in records
    assert ("n_ref_events", token, "7") in records
    path = tmp_path / "report.csv"
    report.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,activity,value"
    assert f"ks_duration,{token},na" in lines
    table = report.format_table()
    assert token in table and "na" in table
