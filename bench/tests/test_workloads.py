import dataclasses

import pytest

from checks import check_outputs
from workloads import WORKLOADS, make_tree, tree_digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_input_tree(tmp_path, name):
    workload = WORKLOADS[name]
    make_tree(tmp_path / "a", workload, 11)
    make_tree(tmp_path / "b", workload, 11)
    make_tree(tmp_path / "c", workload, 12)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")
    conf = (tmp_path / "a" / "project.conf").read_text()
    assert f"approach = {workload.approach}\n" in conf
    assert "k_range = 4:4\n" in conf
    household = (tmp_path / "a" / "household.conf").read_text()
    assert ("vacation" in household) == (workload.vacation is not None)


def test_output_check_passes_a_good_run_and_flags_a_bad_one(tmp_path):
    from occsim.pipeline import ProjectConfig, run_pipeline

    tiny = dataclasses.replace(
        WORKLOADS["short_stays"], diaries_per_day_type=40, n_households=2, n_days=21
    )
    cfg = ProjectConfig.read(make_tree(tmp_path / "in", tiny, 5))
    cfg.out = tmp_path / "out"
    with open(tmp_path / "log", "w+") as log:
        assert run_pipeline(cfg, log=log) == 0
        log.seek(0)
        text = log.read()
    assert check_outputs(cfg.out, tiny.n_households, tiny.n_days, text) == []
    assert check_outputs(cfg.out, tiny.n_households, tiny.n_days + 1, text) != []
    (cfg.out / "household_1.csv").unlink()
    assert check_outputs(cfg.out, tiny.n_households, tiny.n_days, text) != []
