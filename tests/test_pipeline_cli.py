import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from occsim import occupant_sim, pipeline
from occsim.cli import FLAGS, _build_parser, _settings, main
from occsim.clustering import ClusterModel, select_k
from occsim.conf import OccsimError
from occsim.diary_ingest import (
    SEQUENCE,
    STATE_TOKENS,
    ActivityCodeMap,
    load_sequences_any,
    read_sequences,
    write_sequences,
)
from occsim.distributions import EmpiricalDistribution
from occsim.household import HouseholdConfig, attach_appliance_events, build_household, draw_households
from occsim.markov_train import estimate_tpm, read_model_file, train_cluster_day_model
from occsim.occupant_sim import SimCalendar, simulate_year, walk_occupants
from occsim.pipeline import (
    CHOICES,
    PARSERS,
    ProjectConfig,
    Settings,
    StageError,
    cluster_stage,
    load_simulation_inputs,
    run_pipeline,
    simulate_stage,
    train_stage,
)
from occsim.schedule_io import assemble_schedule, read_schedule_file, read_step_values
from occsim.synth import write_input_tree
from occsim.validate import ComparisonReport
from tests.helpers import edit_section, model_section, section_lines


@pytest.fixture(scope="module")
def synth_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    write_input_tree(root, n_per_day_type=150, base_seed=101, n_households=2, n_days=6)
    return root


@pytest.fixture(scope="module")
def pipeline_run(synth_tree):
    code = main(["run", "--config", str(synth_tree / "project.conf")])
    assert code == 0
    return synth_tree / "out"


def test_stage_error_exit_codes():
    for stage, expected in [
        ("config", 2),
        ("synth", 2),
        ("ingest", 3),
        ("cluster", 4),
        ("train", 5),
        ("simulate", 6),
        ("validate", 7),
    ]:
        err = StageError(stage, "boom")
        assert err.exit_code == expected
        assert str(err) == f"{stage}: boom"


def test_config_read_resolves_relative_paths(tmp_path):
    conf = tmp_path / "project.conf"
    conf.write_text(
        "\n".join(
            [
                "# comment",
                "diaries = data/diaries.csv",
                "bundle = bundle",
                "reference = ref",
                "household = household.conf",
                "out = out",
                "base_seed = 7",
                "k_range = 2:5",
                "repeats = 4",
                "silhouette_sample = 1",
                "approach = 2",
            ]
        )
        + "\n"
    )
    cfg = ProjectConfig.read(conf)
    assert cfg.diaries == tmp_path / "data/diaries.csv"
    assert cfg.out == tmp_path / "out"
    assert cfg.base_seed == 7
    assert cfg.k_range == (2, 5)
    assert not hasattr(cfg, "repeats")  # retired keys: read and ignored,
    assert not hasattr(cfg, "silhouette_sample")  # whatever their value
    assert cfg.approach == 2
    # untouched defaults
    assert cfg.n_days == 365
    assert cfg.modulation == "present"
    assert cfg.epsilon == 0.01


def _write_conf(tmp_path, **overrides):
    fields = {
        "diaries": "d.csv",
        "bundle": "b",
        "reference": "r",
        "household": "h.conf",
        "out": "out",
    }
    fields.update(overrides)
    conf = tmp_path / "p.conf"
    conf.write_text("\n".join(f"{k} = {v}" for k, v in fields.items()) + "\n")
    return conf


def test_config_read_errors(tmp_path):
    for missing in (tmp_path / "missing.conf", tmp_path):  # a directory is no config file either
        with pytest.raises(StageError, match="not found") as exc:
            ProjectConfig.read(missing)
        assert exc.value.exit_code == 2

    conf = tmp_path / "p.conf"
    conf.write_text("diaries = d.csv\n")
    with pytest.raises(StageError, match="missing keys: bundle, reference, household, out"):
        ProjectConfig.read(conf)

    conf.write_text("not a key value line\n")
    with pytest.raises(StageError, match="line 1"):
        ProjectConfig.read(conf)

    for key, value, pattern in [
        ("approach", "5", r"p\.conf: line 6: approach: expected one of \(1, 2, 3\), got 5"),
        ("modulation", "sometimes", r"line 6: modulation: expected one of \('present', 'active'\), got 'sometimes'"),
        ("k_range", "7:3", "k_range"),
        ("k_range", "0:3", "k_range"),
        ("k_range", "1:3", "k_range"),
        ("n_days", "0", "n_days: expected a whole number >= 1, got 0"),
        ("n_days", "36501", "n_days: expected a whole number <= 36500, got 36501"),
        ("n_households", "-2", "n_households: expected a whole number >= 1, got -2"),
        ("start_weekday", "funday", r"line 6: start_weekday: expected one of \('monday', .*, got 'funday'"),
    ]:
        with pytest.raises(StageError, match=pattern) as exc:
            ProjectConfig.read(_write_conf(tmp_path, **{key: value}))
        assert exc.value.exit_code == 2


def test_config_rejects_unknown_key(tmp_path):
    conf = _write_conf(tmp_path, n_houshold="3")
    with pytest.raises(StageError, match=r"p\.conf: line 6: unknown key 'n_houshold'") as exc:
        ProjectConfig.read(conf)
    assert exc.value.exit_code == 2
    assert main(["run", "--config", str(conf)]) == 2


def test_synth_tree_layout(synth_tree):
    assert (synth_tree / "diaries.csv").exists()
    assert (synth_tree / "code_map.csv").exists()
    assert (synth_tree / "project.conf").exists()
    assert (synth_tree / "household.conf").exists()
    bundle_files = {p.name for p in (synth_tree / "bundle").iterdir()}
    assert len(bundle_files) == 20
    assert "shower.duration" in bundle_files and "clothes_dryer.power.level" in bundle_files
    ref_files = {p.name for p in (synth_tree / "reference").iterdir()}
    assert ref_files == {
        f"{use}.{dt}.ref"
        for use in ("lighting", "plug_loads", "ceiling_fan")
        for dt in ("wd", "we")
    }


def test_run_pipeline_artifacts(pipeline_run):
    out = pipeline_run
    assert not (out / ".partial").exists()
    assert (out / "sequences.csv").exists()
    assert (out / "model.wd.clusters").exists()
    assert (out / "model.we.clusters").exists()
    tpm_files = {p.name for p in (out / "tpms").iterdir()}
    assert tpm_files == {f"c{c}.{dt}.tpm" for c in range(4) for dt in ("wd", "we")}
    assert "[cooking.count]" in (out / "tpms" / "c3.we.tpm").read_text().splitlines()
    for h in range(2):
        sched = read_schedule_file(out / f"household_{h}.csv")
        assert sched.values.shape[1] == 6 * 96
        occ = sched.columns["occupants"]
        assert occ.min() >= 0.0 and occ.max() <= 1.0
    days, _ = load_sequences_any(out / "occupant_days.csv")
    assert len(days) % 6 == 0
    assert (out / "validation_report.wd.csv").exists()
    assert (out / "validation_report.we.csv").exists()
    report = (out / "validation_report.wd.csv").read_text().splitlines()
    assert report[0] == "metric,activity,value"


def test_run_recovers_planted_k(pipeline_run):
    text = (pipeline_run / "model.wd.clusters").read_text()
    assert text.splitlines()[0] == "k,4"


def test_run_pipeline_logs_to_redirected_stderr(synth_tree, pipeline_run, tmp_path):
    cfg = ProjectConfig.read(synth_tree / "project.conf")
    cfg.out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert run_pipeline(cfg, log=sys.stderr) == 0
    lines = err.getvalue().splitlines()
    assert lines[0].startswith("ingest: ") and lines[-1] == "run: done"
    for stage in ("cluster[WD]: ", "cluster[WE]: ", "train: ", "simulate: ", "validate[WD]:"):
        assert any(line.startswith(stage) for line in lines), stage
    assert (cfg.out / "sequences.csv").read_bytes() == (pipeline_run / "sequences.csv").read_bytes()


def test_run_pipeline_writes_validate_tables_to_its_log(synth_tree, tmp_path, capsys):
    cfg = ProjectConfig.read(synth_tree / "project.conf")
    cfg.out = tmp_path / "out"
    log = io.StringIO()
    assert run_pipeline(cfg, log=log) == 0
    assert capsys.readouterr().out == ""
    header = ComparisonReport([]).format_table()
    for day_type in ("WD", "WE"):
        assert f"validate[{day_type}]:\n{header}\n" in log.getvalue()


def test_partial_marker_left_on_failure(synth_tree, tmp_path):
    conf = tmp_path / "broken.conf"
    conf.write_text(
        "\n".join(
            [
                f"diaries = {tmp_path / 'no_such.csv'}",
                f"bundle = {synth_tree / 'bundle'}",
                f"reference = {synth_tree / 'reference'}",
                f"household = {synth_tree / 'household.conf'}",
                f"out = {tmp_path / 'out'}",
                "base_seed = 1",
            ]
        )
        + "\n"
    )
    assert main(["run", "--config", str(conf)]) == 3
    assert (tmp_path / "out" / ".partial").exists()


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.conf")]) == 2
    assert main(
        ["ingest", "--diaries", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "s.csv")]
    ) == 3
    assert main(
        [
            "validate",
            "--sim",
            str(tmp_path / "nope.csv"),
            "--reference",
            str(tmp_path / "nope2.csv"),
            "--out",
            str(tmp_path),
        ]
    ) == 7


# An output path that cannot be made, in a directory that holds the file
# `afile` and the directory `adir`, which holds a directory named as each
# file that cluster, train, simulate and validate write first: (command,
# --out, exit code).
BAD_OUTPUTS = [
    ("ingest", "afile/x.csv", 3),
    ("ingest", "adir", 3),
    ("synth", "afile", 2),
    ("cluster", "afile", 4),
    ("cluster", "adir", 4),
    ("train", "afile", 5),
    ("train", "adir", 5),
    ("simulate", "afile", 6),
    ("simulate", "adir", 6),
    ("simulate-occupant", "afile/x.csv", 6),
    ("simulate-occupant", "adir", 6),
    ("validate", "afile", 7),
    ("validate", "adir", 7),
]


def _inputs(command, synth_tree, pipeline_run) -> list:
    """The flags but --out of `command`, reading the synth tree and the run's outputs."""
    clusters = [pipeline_run / "model.wd.clusters", pipeline_run / "model.we.clusters"]
    return {
        "ingest": ["--diaries", synth_tree / "diaries.csv", "--code-map", synth_tree / "code_map.csv"],
        "synth": ["--diaries-per-day-type", "2", "--households", "1", "--days", "1"],
        "cluster": ["--input", pipeline_run / "sequences.csv", "--k-range", "3:3"],
        "train": ["--diaries", pipeline_run / "sequences.csv", "--clusters", *clusters],
        "simulate": [
            *["--tpms", pipeline_run / "tpms", "--bundle", synth_tree / "bundle"],
            *["--reference", synth_tree / "reference", "--household-config", synth_tree / "household.conf"],
            *["--days", "2", "--seed", "1"],
        ],
        "simulate-occupant": ["--tpms", pipeline_run / "tpms", "--wd-cluster", "0", "--we-cluster", "0"],
        "validate": ["--sim", pipeline_run, "--reference", pipeline_run / "sequences.csv"],
    }[command]


@pytest.mark.parametrize("command, out, code", BAD_OUTPUTS)
def test_output_path_that_cannot_be_made_is_a_stage_error(
    synth_tree, pipeline_run, tmp_path, capsys, command, out, code
):
    (tmp_path / "afile").write_text("kept\n")
    for name in ("model.wd.clusters", "c0.wd.tpm", "household_0.csv", "validation_report.wd.csv"):
        (tmp_path / "adir" / name).mkdir(parents=True)
    argv = [*_inputs(command, synth_tree, pipeline_run), "--out", tmp_path / out]
    assert main([command, *map(str, argv)]) == code
    err = capsys.readouterr().err
    assert re.search(r"^occsim: \w+: \[Errno \d+\] (File exists|Is a directory): ", err, re.M)
    assert "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_run_out_that_is_a_file_is_a_config_error(synth_tree, tmp_path, capsys):
    shutil.copytree(synth_tree, tmp_path, ignore=shutil.ignore_patterns("out"), dirs_exist_ok=True)
    conf = tmp_path / "project.conf"
    conf.write_text(conf.read_text().replace("out = out\n", "out = diaries.csv\n"))
    diaries = (tmp_path / "diaries.csv").read_bytes()
    assert main(["run", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert f"occsim: config: [Errno 17] File exists: '{tmp_path / 'diaries.csv'}'" in err
    assert "Traceback" not in err
    assert (tmp_path / "diaries.csv").read_bytes() == diaries


def _run_stages(synth_tree, out, household, flags):
    """Run ingest, cluster, train, simulate and validate as subcommands into
    `out`; `flags` holds each stage's setting flags."""

    def stage(command, *argv):
        assert main([command, *argv, *flags.get(command, [])]) == 0, command

    diaries, code_map = str(synth_tree / "diaries.csv"), str(synth_tree / "code_map.csv")
    sequences = str(out / "sequences.csv")
    stage("ingest", "--diaries", diaries, "--code-map", code_map, "--out", sequences)
    stage("cluster", "--input", sequences, "--out", str(out), "--day-type", "both")
    clusters = [str(out / "model.wd.clusters"), str(out / "model.we.clusters")]
    stage("train", "--diaries", sequences, "--clusters", *clusters, "--out", str(out / "tpms"))
    stage("simulate", "--tpms", str(out / "tpms"), "--bundle", str(synth_tree / "bundle"),
          "--reference", str(synth_tree / "reference"), "--household-config", str(household), "--out", str(out))
    # The composed run validates against its sequences.csv; stage-wise
    # validation of the raw diaries must give the same reports.
    stage("validate", "--sim", str(out), "--reference", diaries, "--code-map", code_map)


def _run_stagewise(synth_tree, out, household, seed, flags):
    """`_run_stages` with the synth project's settings; `flags` holds each
    stage's extra flags."""
    base = {
        "cluster": ["--k-range", "4:4"],
        "simulate": ["--households", "2", "--days", "6", "--seed", seed],
    }
    _run_stages(synth_tree, out, household, {c: base.get(c, []) + flags.get(c, []) for c in base | flags})


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# SHA-256 of each file of the `occsim run` tree of the default run and of each
# STAGEWISE_CASES case, with `tpms/` as one digest over its files' names and
# digests.  The table is re-recorded only together with an announced
# RNG-layout or artifact-format change, which names the files that moved; a
# digest that moves for any other reason is a defect.
RUN_DIGESTS = json.loads(Path(__file__).with_name("run_digests.json").read_text())


def _digests(root):
    digests, tpms = {}, hashlib.sha256()
    for name, data in _tree_bytes(root).items():
        if name.startswith("tpms/"):
            tpms.update(f"{name} {hashlib.sha256(data).hexdigest()}\n".encode())
        else:
            digests[name] = hashlib.sha256(data).hexdigest()
    digests["tpms/"] = tpms.hexdigest()
    return digests


def _assert_pinned(root, case):
    got, want = _digests(root), RUN_DIGESTS[case]
    moved = {name: got.get(name) for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)}
    assert not moved, f"{case}: run digests moved: {json.dumps(moved, indent=1)}"


def test_cli_stagewise_matches_run(synth_tree, pipeline_run, tmp_path):
    """Individual subcommands compose to the same artifacts as `run`, whose
    files match the recorded digests."""
    out = tmp_path / "stagewise"
    seed = str(ProjectConfig.read(synth_tree / "project.conf").base_seed)
    _run_stagewise(synth_tree, out, synth_tree / "household.conf", seed, {})
    assert _tree_bytes(out) == _tree_bytes(pipeline_run)
    _assert_pinned(pipeline_run, "default")


# Per case: the project.conf keys, each stage's flags for the same settings,
# and whether household.conf gains a vacation window.
STAGEWISE_CASES = {
    "approach_1": ({"approach": "1"}, {"simulate": ["--approach", "1"]}, False),
    "approach_2": ({"approach": "2"}, {"simulate": ["--approach", "2"]}, False),
    "modulation_active": ({"modulation": "active"}, {"simulate": ["--modulation", "active"]}, False),
    "vacation": ({}, {}, True),
}


@pytest.mark.parametrize("case", STAGEWISE_CASES)
def test_cli_stagewise_matches_run_across_settings(synth_tree, pipeline_run, tmp_path, case):
    """Each project.conf key and its stage flag give the same artifacts, and
    they differ from the default run's and match the recorded digests."""
    keys, flags, vacation = STAGEWISE_CASES[case]
    household = tmp_path / "household.conf"
    household.write_text((synth_tree / "household.conf").read_text() + ("vacation = 2,4\n" if vacation else ""))
    settings = {
        "diaries": synth_tree / "diaries.csv",
        "code_map": synth_tree / "code_map.csv",
        "bundle": synth_tree / "bundle",
        "reference": synth_tree / "reference",
        "household": household,
        "base_seed": 101,
        "n_households": 2,
        "n_days": 6,
        "k_range": "4:4",
    }
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings, **keys))]) == 0
    _run_stagewise(synth_tree, tmp_path / "stagewise", household, "101", flags)
    run = _tree_bytes(tmp_path / "out")
    assert _tree_bytes(tmp_path / "stagewise") == run
    assert run != _tree_bytes(pipeline_run)
    _assert_pinned(tmp_path / "out", case)


def _rerun_settings(synth_tree, **keys):
    return {
        "diaries": synth_tree / "diaries.csv",
        "code_map": synth_tree / "code_map.csv",
        "bundle": synth_tree / "bundle",
        "reference": synth_tree / "reference",
        "household": synth_tree / "household.conf",
        "base_seed": 101,
        "n_days": 6,
        "k_range": "4:4",
        **keys,
    }


def test_rerun_with_fewer_clusters_fails_as_a_fresh_run(synth_tree, tmp_path, capsys):
    """A k = 3 run into the `out/` of a k = 4 run exits 6 as a fresh k = 3
    run does: train deleted the stale `c3` model files, and only those."""
    assert main(["run", "--config", str(_write_conf(tmp_path, **_rerun_settings(synth_tree)))]) == 0
    foreign = ["notes.txt", "c3.wd.tpm.bak", "c3.wd.cooking.profile"]
    for name in foreign:
        (tmp_path / "out" / "tpms" / name).write_text("kept\n")
    capsys.readouterr()
    conf = _write_conf(tmp_path, **_rerun_settings(synth_tree, k_range="3:3"))
    assert main(["run", "--config", str(conf)]) == 6
    message = "simulate: WD cluster shares have 4 entries but model has 3 clusters"
    assert message in capsys.readouterr().err
    fresh = _write_conf(tmp_path, **_rerun_settings(synth_tree, k_range="3:3", out="fresh"))
    assert main(["run", "--config", str(fresh)]) == 6
    assert message in capsys.readouterr().err
    names = {p.name for p in (tmp_path / "out" / "tpms").iterdir()}
    assert names == {f"c{c}.{dt}.tpm" for c in range(3) for dt in ("wd", "we")} | set(foreign)
    assert _tree_bytes(tmp_path / "out" / "tpms") == {
        **_tree_bytes(tmp_path / "fresh" / "tpms"), **{name: b"kept\n" for name in foreign}
    }


def test_rerun_with_fewer_households_matches_a_fresh_run(synth_tree, tmp_path):
    """An n_households = 2 run into the `out/` of a 3-household run leaves
    the tree of a fresh run: simulate deleted `household_2.csv`, and no file
    of another name."""
    assert main(["run", "--config", str(_write_conf(tmp_path, **_rerun_settings(synth_tree, n_households=3)))]) == 0
    foreign = ["notes.txt", "household_02.csv", "household_x.csv", "household_2.csv.bak", "household_٣.csv"]
    for name in foreign:
        (tmp_path / "out" / name).write_text("kept\n")
    assert main(["run", "--config", str(_write_conf(tmp_path, **_rerun_settings(synth_tree, n_households=2)))]) == 0
    fresh = _write_conf(tmp_path, **_rerun_settings(synth_tree, n_households=2, out="fresh"))
    assert main(["run", "--config", str(fresh)]) == 0
    for name in foreign:
        assert (tmp_path / "out" / name).read_text() == "kept\n"
        (tmp_path / "out" / name).unlink()
    assert _tree_bytes(tmp_path / "out") == _tree_bytes(tmp_path / "fresh")


def test_rerun_without_weekend_days_deletes_the_weekend_report(synth_tree, tmp_path):
    """A one-day run into the `out/` of a six-day run, and a stage-wise
    validate of it into a copy of that `out/`, skip WE and delete its
    earlier report, and no file of another name."""
    assert main(["run", "--config", str(_write_conf(tmp_path, **_rerun_settings(synth_tree, n_households=1)))]) == 0
    out, stagewise = tmp_path / "out", tmp_path / "v"
    shutil.copytree(out, stagewise)
    foreign = ["notes.txt", "validation_report.csv", "validation_report.we.csv.bak"]
    for name in foreign:
        (out / name).write_text("kept\n")
        (stagewise / name).write_text("kept\n")
    one_day = _rerun_settings(synth_tree, n_households=1, n_days=1)
    assert main(["run", "--config", str(_write_conf(tmp_path, **one_day))]) == 0
    argv = ["--sim", str(out / "occupant_days.csv"), "--reference", str(out / "sequences.csv"), "--out", str(stagewise)]
    assert main(["validate", *argv]) == 0
    wd_report = (out / "validation_report.wd.csv").read_bytes()
    for directory in (out, stagewise):
        assert not (directory / "validation_report.we.csv").exists()
        assert (directory / "validation_report.wd.csv").read_bytes() == wd_report
        assert [(directory / name).read_text() for name in foreign] == ["kept\n"] * len(foreign)


def test_model_dir_of_the_layout_before_sections_is_rejected(synth_tree, pipeline_run, tmp_path, capsys):
    """A model directory written with a file per chain and distribution
    stops simulate (exit 6) at its first model file, whose chain has no
    section header."""
    tpms = tmp_path / "tpms"
    tpms.mkdir()
    for path in (pipeline_run / "tpms").iterdir():
        lines = path.read_text().splitlines()
        (tpms / path.name).write_text("\n".join(lines[1 : lines.index("[presence]")]) + "\n")
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert f"{tpms / 'c0.wd.tpm'}: line 1: expected a [section] header line" in capsys.readouterr().err


@st.composite
def run_settings(draw):
    """One valid combination of run settings, as project.conf values, plus a
    vacation window or None.  k_range stays 4:4, the synth household
    config's four cluster shares."""
    keys = {
        "base_seed": draw(st.integers(0, 2**32 - 1)),
        "n_households": draw(st.integers(1, 3)),
        "n_days": draw(st.integers(1, 9)),
        "k_range": "4:4",
    }
    keys |= {name: draw(st.sampled_from(CHOICES[name])) for name in sorted(CHOICES)}
    start = draw(st.none() | st.integers(0, keys["n_days"] - 1))
    vacation = None if start is None else (start, draw(st.integers(start + 1, keys["n_days"])))
    return {name: str(value).lower() for name, value in keys.items() if value is not None}, vacation


@settings(max_examples=6, derandomize=True, database=None)
@given(case=run_settings())
@example(case=(  # approach 1 with a vacation and every other setting off its default
    {"base_seed": "9", "n_households": "2", "n_days": "9", "start_weekday": "thursday", "approach": "1",
     "k_range": "4:4", "modulation": "active"},
    (2, 5),
))
def test_run_matches_stages_over_combined_settings(synth_tree, tmp_path_factory, case):
    """Any valid combination of settings: `occsim run` gives the bytes of the
    stage-wise CLI, and of a run in a process with one BLAS thread."""
    keys, vacation = case
    tmp = tmp_path_factory.mktemp("combined")
    household = tmp / "household.conf"
    window = "" if vacation is None else f"vacation = {vacation[0]},{vacation[1]}\n"
    household.write_text((synth_tree / "household.conf").read_text() + window)
    paths = {"diaries": synth_tree / "diaries.csv", "code_map": synth_tree / "code_map.csv",
             "bundle": synth_tree / "bundle", "reference": synth_tree / "reference", "household": household}
    assert main(["run", "--config", str(_write_conf(tmp, **paths, **keys))]) == 0
    run = _tree_bytes(tmp / "out")
    flags = {
        command: [arg for name in STAGE_SETTINGS[command] if name in keys for arg in (FLAGS[name], keys[name])]
        for command in ("cluster", "simulate")
    }
    _run_stages(synth_tree, tmp / "stagewise", household, flags)
    assert _tree_bytes(tmp / "stagewise") == run
    conf = _write_conf(tmp, **paths, **keys, out="one_thread")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "occsim", "run", "--config", str(conf)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _tree_bytes(tmp / "one_thread") == run


@pytest.mark.parametrize("approach", ["1", "3"])
def test_simulate_walks_each_model_once_per_chunk(synth_tree, pipeline_run, tmp_path, monkeypatch, approach):
    """A chunk of households calls `walk_days` at most once per (day type,
    cluster) model, and the household files do not depend on the chunk size."""
    calls = []
    walk_days = occupant_sim.walk_days
    monkeypatch.setattr(occupant_sim, "walk_days", lambda *a, **kw: calls.append(a) or walk_days(*a, **kw))
    flags = ["--tpms", str(pipeline_run / "tpms"), "--bundle", str(synth_tree / "bundle"),
             "--reference", str(synth_tree / "reference"), "--household-config", str(synth_tree / "household.conf"),
             "--households", "7", "--days", "9", "--seed", "5", "--approach", approach]
    trees = {}
    for chunk in (1, 7):
        monkeypatch.setattr(pipeline, "CHUNK_OCCUPANT_DAYS", chunk * 9 * 3)  # the synth draws at most 3 occupants
        calls.clear()
        assert main(["simulate", *flags, "--out", str(tmp_path / str(chunk))]) == 0
        trees[chunk] = _tree_bytes(tmp_path / str(chunk))
    k = 4  # the synth project's k_range is 4:4
    assert 0 < len(calls) <= 2 * k  # calls of the one-chunk run
    assert trees[1] == trees[7]


def test_simulate_chunks_stay_within_the_occupant_day_bound(synth_tree, pipeline_run, tmp_path, monkeypatch):
    """Chunks are sized by the largest occupant count that can be drawn, so
    a large household count cannot put more than `CHUNK_OCCUPANT_DAYS`
    occupant-days into one walk, and a count of probability 0 does not
    shrink the chunks."""
    chunks = []
    draw = pipeline.draw_households

    def recording(*args, **kwargs):
        draws = draw(*args, **kwargs)
        chunks.append((len(draws), sum(len(d.occupants) for d in draws)))
        return draws

    monkeypatch.setattr(pipeline, "draw_households", recording)
    household = tmp_path / "household.conf"
    lines = (synth_tree / "household.conf").read_text().splitlines()
    household.write_text("\n".join(["occupant_count = 150:1,5000:0", *lines[1:]]) + "\n")
    n_days = 7
    assert main(["simulate", "--tpms", str(pipeline_run / "tpms"), "--bundle", str(synth_tree / "bundle"),
                 "--reference", str(synth_tree / "reference"), "--household-config", str(household),
                 "--households", "14", "--days", str(n_days), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
    assert [n for n, _ in chunks] == [pipeline.CHUNK_OCCUPANT_DAYS // (n_days * 150), 2]
    for n_households, occupants in chunks:
        assert n_households == 1 or occupants * n_days <= pipeline.CHUNK_OCCUPANT_DAYS


def test_simulate_bounds_one_household_by_occupant_days(synth_tree, tmp_path, monkeypatch):
    """One household is never split across chunks, so its largest occupant
    count of positive probability times n_days may not pass
    MAX_HOUSEHOLD_OCCUPANT_DAYS; a count of probability 0 does not count."""
    monkeypatch.setattr(pipeline, "MAX_HOUSEHOLD_OCCUPANT_DAYS", 3 * 4)
    bundle, reference = synth_tree / "bundle", synth_tree / "reference"
    household = tmp_path / "household.conf"
    lines = (synth_tree / "household.conf").read_text().splitlines()
    household.write_text("\n".join(["occupant_count = 1:0.5,3:0.5,5000:0", *lines[1:]]) + "\n")
    load_simulation_inputs(bundle, reference, household, Settings(base_seed=1, n_days=4))
    with pytest.raises(StageError) as exc:
        load_simulation_inputs(bundle, reference, household, Settings(base_seed=1, n_days=5))
    assert exc.value.exit_code == 6
    message = "a household of 3 occupants over n_days = 5 is more than 12 occupant-days"
    assert str(exc.value) == f"simulate: {household}: {message}"


def test_simulate_rejects_non_finite_reference(synth_tree, pipeline_run, tmp_path):
    reference = tmp_path / "reference"
    shutil.copytree(synth_tree / "reference", reference)
    path = reference / "lighting.wd.ref"
    lines = path.read_text().splitlines()
    lines[40] = "40,nan"
    path.write_text("\n".join(lines) + "\n")
    assert main(
        [
            "simulate",
            "--tpms",
            str(pipeline_run / "tpms"),
            "--bundle",
            str(synth_tree / "bundle"),
            "--reference",
            str(reference),
            "--household-config",
            str(synth_tree / "household.conf"),
            "--out",
            str(tmp_path / "out"),
            "--days",
            "2",
            "--seed",
            "3",
        ]
    ) == 6
    assert not list((tmp_path / "out").glob("household_*.csv"))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: [],
        lambda lines: lines[:1],
        lambda lines: lines[:-3],
        lambda lines: lines[:9] + [lines[9] + ",0"] + lines[10:],
        lambda lines: lines[:9] + ["nan," + lines[9].split(",", 1)[1]] + lines[10:],
    ],
    ids=["empty", "header_only", "truncated", "wide_row", "nan"],
)
def test_simulate_rejects_bad_model_file(synth_tree, pipeline_run, tmp_path, capsys, corrupt):
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    path = tpms / "c0.wd.tpm"
    path.write_text("".join(ln + "\n" for ln in corrupt(path.read_text().splitlines())))
    assert main(
        [
            "simulate",
            "--tpms",
            str(tpms),
            "--bundle",
            str(synth_tree / "bundle"),
            "--reference",
            str(synth_tree / "reference"),
            "--household-config",
            str(synth_tree / "household.conf"),
            "--out",
            str(tmp_path / "out"),
            "--days",
            "2",
            "--seed",
            "3",
        ]
    ) == 6
    assert "c0.wd.tpm" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("household_*.csv"))


def _simulate(synth_tree, tpms, reference, out, *options, bundle=None):
    return main(
        [
            "simulate",
            "--tpms",
            str(tpms),
            "--bundle",
            str(bundle or synth_tree / "bundle"),
            "--reference",
            str(reference),
            "--household-config",
            str(synth_tree / "household.conf"),
            "--out",
            str(out),
            "--days",
            "2",
            "--seed",
            "3",
            *options,
        ]
    )


@pytest.mark.parametrize("command", ["simulate", "run"])
def test_negative_reference_value_stops_simulate(synth_tree, pipeline_run, tmp_path, capsys, command):
    reference = tmp_path / "reference"
    shutil.copytree(synth_tree / "reference", reference)
    path = reference / "lighting.wd.ref"
    lines = path.read_text().splitlines()
    lines[1] = "1,-5"
    path.write_text("\n".join(lines) + "\n")
    if command == "simulate":
        code = _simulate(synth_tree, pipeline_run / "tpms", reference, tmp_path / "out")
    else:
        settings = {
            "diaries": synth_tree / "diaries.csv",
            "code_map": synth_tree / "code_map.csv",
            "bundle": synth_tree / "bundle",
            "reference": reference,
            "household": synth_tree / "household.conf",
            "base_seed": 1,
            "n_days": 2,
        }
        code = main(["run", "--config", str(_write_conf(tmp_path, **settings))])
    assert code == 6
    assert f"{path}: line 2: step 1 has negative value -5.0" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("household_*.csv"))


@pytest.mark.parametrize(
    "option, message", [("--days", "n_days must be positive"), ("--households", "n_households must be positive")]
)
def test_simulate_rejects_zero_days_or_households(synth_tree, pipeline_run, tmp_path, option, message):
    """Settings built in code, which no flag parser checked, still fail
    simulate (exit 6) before it writes anything."""
    cfg = Settings(base_seed=1, **{name: 0 for name, flag in FLAGS.items() if flag == option})
    out = tmp_path / "out"
    bundle, reference, household = (synth_tree / name for name in ("bundle", "reference", "household.conf"))
    with pytest.raises(StageError, match=message) as exc:
        inputs = load_simulation_inputs(bundle, reference, household, cfg)
        simulate_stage(pipeline_run / "tpms", inputs, out, cfg, log=sys.stderr)
    assert exc.value.exit_code == 6
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("simulate", "--days", "-3"), ("simulate", "--households", "0"), ("simulate-occupant", "--days", "0")],
)
def test_simulate_size_below_one_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED_FLAGS[command], flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a whole number >= 1, got {value}" in err
    assert "drawn from entropy" not in err


@pytest.mark.parametrize("command", ["simulate", "simulate-occupant", "synth"])
def test_calendar_past_max_days_is_a_usage_error(tmp_path, capsys, command):
    """Checked by parsing alone: a calendar of MAX_DAYS is accepted, one day
    more is a usage error before anything is allocated or written."""
    assert pipeline.PARSERS["n_days"](str(pipeline.MAX_DAYS)) == pipeline.MAX_DAYS == 36500
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED_FLAGS.get(command, ["--out", str(tmp_path / "tree")]), "--days", "36501"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --days: expected a whole number <= 36500, got 36501" in err
    assert "drawn from entropy" not in err
    assert not (tmp_path / "tree").exists()


@pytest.mark.parametrize("command", ["simulate", "simulate-occupant"])
def test_unknown_start_weekday_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED_FLAGS[command], "--start-weekday", "funday"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --start-weekday: expected one of ('monday', " in err and "got 'funday'" in err
    assert "drawn from entropy" not in err


# Per kind of text input: the corrupted file, under a copy of the synth tree
# that also holds the run's models, cluster files and sequence table; the
# 0-based index of the line replaced, or a section header and the index
# counted from it; the command that reads the file and its exit code; and
# (id, bad line, message) cases, where "{prev}" repeats the line before,
# "{codes}" its fields after the third and "{rest}" its fields after the
# fourth, and "{line}" in a message is the replaced line's number.
BAD_LINES = {
    "dist": (
        "tpms/c0.wd.tpm",
        ("[cooking.onset]", 3),
        "simulate",
        6,
        [
            ("past_end", "0,1.5", "line {line}: probability 1.5 outside 0..1"),
            ("negative", "0,-0.5", "line {line}: probability -0.5 outside 0..1"),
            ("duplicate", "{prev}", "line {line}: values must be finite and increasing"),
            ("fields", "0,0.5,1", "line {line}: expected 2 values, got 3"),
            ("nan_text", "0,abc", "line {line}: could not convert string to float: 'abc'"),
        ],
    ),
    "ref": (
        "reference/lighting.wd.ref",
        40,
        "simulate",
        6,
        [
            ("past_end", "96,0.5", "line 41: step 96 outside 0..95"),
            ("negative", "-1,0.9", "line 41: step -1 outside 0..95"),
            ("duplicate", "3,0.5", "line 41: duplicate step 3"),
            ("fields", "40,0.5,1", "line 41: expected step,value, got 3 fields"),
            ("nan_text", "40,abc", "line 41: could not convert string to float"),
        ],
    ),
    "bundle": (
        "bundle/sink.flow",
        2,
        "simulate",
        6,
        [
            ("past_end", "1,1.5", "line 3: probability 1.5 outside 0..1"),
            ("duplicate", "{prev}", "line 3: values must be finite and increasing"),
            ("nan_text", "1,abc", "line 3: could not convert string to float: 'abc'"),
        ],
    ),
    "tpm": (
        "tpms/c0.wd.tpm",
        9,
        "simulate",
        6,
        [
            ("fields", "{prev},0", "line 10: expected 7 values, got 8"),
            ("nan_text", "abc,0,0,0,0,0,1", "line 10: could not convert string to float: 'abc'"),
        ],
    ),
    "household": (
        "household.conf",
        3,
        "simulate",
        6,
        [
            ("fields", "shower_fraction 0.5", "line 4: expected key = value"),
            ("nan_text", "shower_fraction = abc", "line 4: shower_fraction: could not convert string to float: 'abc'"),
            ("unknown_key", "shower_fration = 0.5", "line 4: unknown key 'shower_fration'"),
        ],
    ),
    "code_map": (
        "code_map.csv",
        2,
        "ingest",
        3,
        [
            ("fields", "h", "line 3: expected raw_code,canonical_state"),
            ("unknown_token", "h,Napping", "line 3: unknown state token 'Napping'"),
            ("duplicate", "{prev}", "line 3: duplicate code 'a'"),
        ],
    ),
    "diaries": (
        "diaries.csv",
        2,
        "ingest",
        3,
        [
            ("fields", "r9,WD,1,{codes},h", "row 2: expected 1443 fields, got 1444"),
            ("day_type", "r9,XX,1,{codes}", "row 2: bad day_type 'XX'"),
            ("nan", "r9,WD,nan,{codes}", "row 2: bad weight 'nan'"),
            ("negative", "r9,WD,-1,{codes}", "row 2: bad weight '-1'"),
        ],
    ),
    "sequences": (
        "sequences.csv",
        2,
        "train",
        5,
        [
            ("unknown_token", "r9,WD,1,Napping,{rest}", "row 2: unknown state token 'Napping'"),
        ],
    ),
    "clusters": (
        "model.wd.clusters",
        2,
        "train",
        5,
        [
            ("negative", "shares,-1,1,0,1", "line 3: shares must be finite and nonnegative, got '-1,1,0,1'"),
            ("nan_text", "shares,0.5,x", "line 3: shares must be numbers, got '0.5,x'"),
            ("unknown_key", "names,a|b", "line 3: unknown line key 'names'"),
        ],
    ),
    "project": (
        "project.conf",
        12,
        "run",
        2,
        [
            # a removed setting's key is unknown, whatever its value
            ("bool_typo", "unweighted_clustering = ture", "line 13: unknown key 'unweighted_clustering'"),
            ("retired_fallback", "tpm_fallback = laplace", "line 13: unknown key 'tpm_fallback'"),
            ("retired_alpha", "tpm_alpha = 0.5", "line 13: unknown key 'tpm_alpha'"),
            ("retired_unweighted", "unweighted_clustering = true", "line 13: unknown key 'unweighted_clustering'"),
            ("nan_text", "epsilon = abc", "line 13: epsilon: could not convert string to float: 'abc'"),
            ("negative", "epsilon = -1", "line 13: epsilon: expected a finite number >= 0, got -1.0"),
            ("nan", "epsilon = nan", "line 13: epsilon: expected a finite number >= 0, got nan"),
            ("negative_alpha", "tpm_alpha = -1", "line 13: unknown key 'tpm_alpha'"),
            ("infinite_alpha", "tpm_alpha = inf", "line 13: unknown key 'tpm_alpha'"),
            (
                "past_max_days",
                "n_days = 100000000000",
                "line 13: n_days: expected a whole number <= 36500, got 100000000000",
            ),
        ],
    ),
}


def _read_by(command, tree, out):
    """Run the stage `command` on the inputs of `tree`; its exit code."""
    if command == "simulate":
        return _simulate(tree, tree / "tpms", tree / "reference", out)
    if command == "ingest":
        argv = ["--diaries", tree / "diaries.csv", "--code-map", tree / "code_map.csv", "--out", out / "seqs.csv"]
    elif command == "train":
        clusters = [tree / "model.wd.clusters", tree / "model.we.clusters"]
        argv = ["--diaries", tree / "sequences.csv", "--clusters", *clusters, "--out", out / "tpms"]
    else:
        argv = ["--config", tree / "project.conf"]
    return main([command, *map(str, argv)])


@pytest.mark.parametrize(
    "kind, case",
    [
        pytest.param(kind, case, id=f"{cases[case][0]}-{kind}")
        for kind, (_, _, _, _, cases) in BAD_LINES.items()
        for case in range(len(cases))
    ],
)
def test_simulate_rejects_bad_step_value_line(synth_tree, pipeline_run, tmp_path, capsys, kind, case):
    """One corrupted line of each text input kind stops the stage that reads
    it with that stage's exit code, naming the file and line, before it
    writes anything."""
    shutil.copytree(synth_tree, tmp_path, ignore=shutil.ignore_patterns("out"), dirs_exist_ok=True)
    shutil.copytree(pipeline_run / "tpms", tmp_path / "tpms")
    for name in ("model.wd.clusters", "model.we.clusters", "sequences.csv"):
        shutil.copy(pipeline_run / name, tmp_path)
    name, index, command, code, cases = BAD_LINES[kind]
    _, line, message = cases[case]
    path = tmp_path / name
    lines = path.read_text().splitlines()
    if isinstance(index, tuple):
        index = lines.index(index[0]) + index[1]
    prev = lines[index - 1].split(",")
    lines[index] = line.format(prev=",".join(prev), codes=",".join(prev[3:]), rest=",".join(prev[4:]))
    path.write_text("\n".join(lines) + "\n")
    assert _read_by(command, tmp_path, tmp_path / "out") == code
    err = capsys.readouterr().err
    assert f"{path}: {message.format(line=index + 1)}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Each line-based kind a library reader parses: (its file in a synth tree
# after `occsim run`, the reader, the separator of a line's fields).  The
# model file kinds differ in the section whose header line 0 is (SECTIONS).
READERS = {
    "project": ("project.conf", ProjectConfig.read, "="),
    "household": ("household.conf", HouseholdConfig.read, "="),
    "code_map": ("code_map.csv", ActivityCodeMap.read, ","),
    "clusters": ("out/model.wd.clusters", ClusterModel.read, ","),
    "tpm": ("out/tpms/c0.wd.tpm", read_model_file, ","),
    "presence_tpm": ("out/tpms/c1.we.tpm", read_model_file, ","),
    "count_dist": ("out/tpms/c0.wd.tpm", read_model_file, ","),
    "onset_dist": ("out/tpms/c1.we.tpm", read_model_file, ","),
    "bundle": ("bundle/sink.flow", EmpiricalDistribution.read, ","),
    "ref": ("reference/lighting.wd.ref", read_step_values, ","),
    "schedule": ("out/household_0.csv", read_schedule_file, ","),
}
# The lines of a valid input that the reader cannot do without, and the
# lines it may not read twice; for a kind not named, every line.  A
# `key = value` config needs only its keys without a default, and a repeated
# key keeps its last value; a code map needs only its DEFAULT line.
REQUIRED_LINES = {
    "project": lambda line: line.partition("=")[0].strip() in {"diaries", "bundle", "reference", "household", "out"},
    "household": lambda line: line.partition("=")[0].strip() == "occupant_count",
    "code_map": lambda line: line.startswith("DEFAULT,"),
}
UNIQUE_LINES = {"project": lambda line: False, "household": lambda line: False}
SECTIONS = {
    "tpm": "[tpm]", "presence_tpm": "[presence]", "count_dist": "[cooking.count]", "onset_dist": "[laundry.onset]"
}
# What a corrupted field or line holds: empty, signed zero, non-finite and
# overflowing numbers, separators, a non-ASCII digit, NUL, a state token and
# key names.
ATOMS = ["", "0", "-0", "nan", "inf", "1e309", "9" * 30, "abc", ",", "=", ":", "٣", "\x00", "Sleep", "occupant_count",
         "n_days", "shares"]


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


@settings(derandomize=True, max_examples=800)
@given(
    kind=st.sampled_from(sorted(READERS)),
    edit=st.sampled_from(["field", "line", "delete", "duplicate"]),
    line=st.integers(0, 3) | st.integers(0, 400),
    field=st.integers(0, 7),
    atom=st.sampled_from(ATOMS),
)
@example(kind="ref", edit="field", line=0, field=0, atom="٣")  # int("٣") is 3: a repeated step
@example(kind="tpm", edit="field", line=0, field=0, atom="\x00")
@example(kind="clusters", edit="field", line=0, field=1, atom="9" * 30)
@example(kind="household", edit="field", line=0, field=1, atom="٣")
@example(kind="project", edit="field", line=8, field=1, atom="1e309")
@example(kind="household", edit="duplicate", line=3, field=0, atom="")  # a repeated key keeps its last value
@example(kind="schedule", edit="duplicate", line=0, field=0, atom="")  # a repeated peak line names its line
@example(kind="schedule", edit="delete", line=0, field=0, atom="")  # so does a missing peak line
@example(kind="clusters", edit="duplicate", line=0, field=0, atom="")  # a model header line is read once
@example(kind="tpm", edit="delete", line=0, field=0, atom="")  # a section header is required
@example(kind="count_dist", edit="delete", line=0, field=0, atom="")
@example(kind="presence_tpm", edit="duplicate", line=0, field=0, atom="")  # and read once
@example(kind="onset_dist", edit="line", line=0, field=0, atom="Sleep")
def test_reader_names_the_file_of_any_corrupted_line(
    synth_tree, pipeline_run, corrupt_dir, kind, edit, line, field, atom
):
    """One field or line of a valid input replaced by an atom, deleted or
    repeated: its reader returns, or raises OccsimError (a config StageError
    for project.conf) whose message starts with the file.  It must raise
    for a deleted line that `REQUIRED_LINES` names and a repeated line that
    `UNIQUE_LINES` names, so a reader that drops or repeats such a line
    without a word fails here."""
    name, read, sep = READERS[kind]
    lines = (synth_tree / name).read_text().splitlines()
    start = lines.index(SECTIONS[kind]) if kind in SECTIONS else 0
    line = start + line % (len(lines) - start)
    table = {"delete": REQUIRED_LINES, "duplicate": UNIQUE_LINES}.get(edit)
    must_raise = table is not None and table.get(kind, lambda _: True)(lines[line])
    if edit == "field":
        fields = lines[line].split(sep)
        fields[field % len(fields)] = atom
        lines[line] = sep.join(fields)
    elif edit == "line":
        lines[line] = atom
    elif edit == "delete":
        del lines[line]
    else:
        lines.insert(line, lines[line])
    path = corrupt_dir / Path(name).name
    path.write_text("\n".join(lines) + "\n")
    try:
        read(path)
    except StageError as exc:
        assert kind == "project" and exc.stage == "config"
        assert str(exc).startswith(f"config: {path}: ")
    except OccsimError as exc:
        assert kind != "project"
        assert str(exc).startswith(f"{path}: ")
    else:
        assert not must_raise, f"{name}: {edit} of line {line + 1} read without an error"


# (kind, index of the line that starts with a byte that is not UTF-8): a
# schedule's line 41, which the first chunk its header loop decodes holds,
# and its last line, which only np.loadtxt reaches; in each other kind a line
# of its section.
BAD_BYTE_LINES = [("schedule", 40), ("schedule", -1)] + [(kind, 1) for kind in sorted(READERS) if kind != "schedule"]


@pytest.mark.parametrize("kind, index", BAD_BYTE_LINES)
def test_reader_names_the_file_of_a_byte_that_is_not_utf8(synth_tree, pipeline_run, tmp_path, kind, index):
    name, read, _ = READERS[kind]
    lines = (synth_tree / name).read_bytes().splitlines()
    if kind in SECTIONS:
        index += lines.index(SECTIONS[kind].encode())
    lines[index] = b"\xff" + lines[index]
    path = tmp_path / Path(name).name
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises((OccsimError, StageError)) as exc:
        read(path)
    assert type(exc.value) is (StageError if kind == "project" else OccsimError)
    assert str(exc.value).startswith(f"config: {path}: " if kind == "project" else f"{path}: ")


@pytest.mark.parametrize("name", ["cx.wd.tpm", "c0.wd.x.tpm", "c0.xx.tpm"])
def test_simulate_rejects_bad_model_file_name(synth_tree, pipeline_run, tmp_path, capsys, name):
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    shutil.copy(tpms / "c0.wd.tpm", tpms / name)
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert f"{name}: model file name does not match c<int>.<wd|we>.tpm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, header", [("c0.wd.tpm", "1,WD"), ("c1.we.tpm", "1,WD"), ("c0.wd.presence.tpm", "0,WE")]
)
def test_simulate_rejects_tpm_header_that_disagrees_with_file_name(
    synth_tree, pipeline_run, tmp_path, capsys, name, header
):
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    path, section = model_section(tpms, name)
    line = edit_section(path, section, lambda lines: [header + "," + lines[0].split(",", 2)[2], *lines[1:]])
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert f"{path}: line {line + 1}: header {header} does not match the file name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A bundle channel's or model section's support outside its domain: (channel,
# or the model file that held the section (`model_section`), support line,
# message).
BAD_CHANNELS = [
    ("sink.flow", "-1.0,1", "flows must be >= 0, got -1"),
    ("sink.count", "-2,1", "counts must be whole and >= 0, got -2"),
    ("sink.count", "2.5,1", "counts must be whole and >= 0, got 2.5"),
    ("sink.onset", "200,1", "onsets must round into steps 0..95, got 200"),
    ("sink.onset", "95.5,1", "onsets must round into steps 0..95, got 95.5"),
    ("shower.duration", "-5,1", "durations must be > 0, got -5"),
    ("bath.duration", "0,1", "durations must be > 0, got 0"),
    ("cooking_range.power.duration", "-5,1", "durations must be > 0, got -5"),
    ("clothes_washer.power.level", "-0.5,1", "levels must be >= 0, got -0.5"),
    ("c0.wd.cooking.count.dist", "-1,1", "counts must be whole and >= 0, got -1"),
    ("c0.wd.cooking.count.dist", "2.5,1", "counts must be whole and >= 0, got 2.5"),
    ("c0.wd.cooking.onset.dist", "500,1", "onsets must round into steps 0..95, got 500"),
    ("c0.wd.cooking.duration.dist", "0,1", "durations must be > 0, got 0"),
    ("c0.wd.cooking.duration.dist", "-15,1", "durations must be > 0, got -15"),
]


@pytest.mark.parametrize("channel, line, message", BAD_CHANNELS)
def test_simulate_rejects_bundle_channel_outside_its_domain(
    synth_tree, pipeline_run, tmp_path, capsys, channel, line, message
):
    bundle, tpms = tmp_path / "bundle", tmp_path / "tpms"
    shutil.copytree(synth_tree / "bundle", bundle)
    shutil.copytree(pipeline_run / "tpms", tpms)
    if channel.endswith(".dist"):  # named by the section's header line
        path, section = model_section(tpms, channel)
        where = f"{path}: line {edit_section(path, section, lambda lines: ['unit,x', line])}"
    else:
        (bundle / channel).write_text(f"unit,x\n{line}\n")
        where = bundle / channel
    out = tmp_path / "out"
    assert _simulate(synth_tree, tpms, synth_tree / "reference", out, bundle=bundle) == 6
    assert f"{where}: {message}" in capsys.readouterr().err
    assert not list(out.glob("household_*.csv"))


@pytest.mark.parametrize(
    "name", ["c0.wd.cooking.count.dist", "c1.wd.laundry.duration.dist", "c0.we.dishwashing.onset.dist"]
)
def test_simulate_rejects_half_deleted_model(synth_tree, pipeline_run, tmp_path, capsys, name):
    """A deleted section is named with the header line where it belongs."""
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    path, section = model_section(tpms, name)
    line = edit_section(path, section, lambda lines: None)
    message = f"{path}: line {line}: missing section {section}"
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert message in capsys.readouterr().err
    occupant = ["simulate-occupant", "--tpms", str(tpms), "--wd-cluster", "0", "--we-cluster", "1"]
    assert main(occupant + ["--out", str(tmp_path / "occ.csv"), "--days", "2", "--seed", "1"]) == 6
    assert message in capsys.readouterr().err


FULL_TOKENS = ",".join(STATE_TOKENS.values())


def _swap_first_two_states(lines):
    head = lines[0].split(",")
    head[2], head[3] = head[3], head[2]
    return [",".join(head)] + lines[1:]


def _keep_50_matrices(lines):
    n_states = len(lines[0].split(",")) - 2
    return lines[: 2 + 50 * n_states]


def _tiny_negative_first_row(lines):
    # -5e-10 keeps the row's sum within ROW_TOL of 1, but could be drawn
    return lines[:2] + ["0.5,-5e-10,0.5000000005"] + lines[3:]


# (model part to break, named as in `model_section`, the other chain of its
# file whose lines it takes or how its lines change, message after the file
# and its chain's head line)
BAD_MODELS = {
    "permuted": ("c0.wd.tpm", _swap_first_two_states, "states Away,Sleep," + FULL_TOKENS[len("Sleep,Away,") :]),
    "presence_as_full": ("c0.wd.tpm", "[presence]", f"states Sleep,Away,HomeActive, expected {FULL_TOKENS}"),
    "full_as_presence": ("c1.we.presence.tpm", "[tpm]", f"states {FULL_TOKENS}, expected Sleep,Away,HomeActive"),
    "short": ("c0.wd.tpm", _keep_50_matrices, "50 matrices, expected 95"),
    "short_presence": ("c1.wd.presence.tpm", _keep_50_matrices, "50 matrices, expected 95"),
    "tiny_negative": ("c0.wd.presence.tpm", _tiny_negative_first_row, "negative probabilities"),
}


@pytest.mark.parametrize("case", list(BAD_MODELS))
def test_simulate_rejects_model_of_wrong_alphabet_or_length(synth_tree, pipeline_run, tmp_path, capsys, case):
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    name, corrupt, message = BAD_MODELS[case]
    path, section = model_section(tpms, name)
    if isinstance(corrupt, str):
        other = section_lines(path, corrupt)
        corrupt = lambda lines: other
    line = edit_section(path, section, corrupt)
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert f"{path}: line {line + 1}: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("household_*.csv"))


@pytest.mark.parametrize(
    "option, message",
    [
        ("--epsilon=nan", "epsilon must be finite and nonnegative, got nan"),
        ("--epsilon=-0.1", "epsilon must be finite and nonnegative, got -0.1"),
    ],
)
def test_cluster_rejects_out_of_range_parameter(pipeline_run, tmp_path, capsys, option, message):
    """The flag is a usage error; the same value in Settings built in code,
    which no flag parser checked, still fails cluster (exit 4) through
    select_k's own check, before a cluster file is written."""
    args = ["cluster", "--input", str(pipeline_run / "sequences.csv"), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--k-range", "2:3", option])
    assert exc.value.code == 2
    flag, value = option.split("=")
    assert f"argument {flag}: expected a " in capsys.readouterr().err
    cfg = Settings(k_range=(2, 3), epsilon=float(value))
    sequences = read_sequences(pipeline_run / "sequences.csv")
    with pytest.raises(StageError, match=re.escape(message)) as exc:
        cluster_stage(sequences, "WD", tmp_path / "model.wd.clusters", cfg, log=io.StringIO())
    assert exc.value.exit_code == 4
    assert not list(tmp_path.glob("*.clusters"))


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5"])
def test_train_rejects_out_of_range_alpha(pipeline_run, tmp_path, capsys, alpha):
    """train has no --alpha: an alpha that was out of range is a usage error
    as an unrecognized argument, whatever its value, and no model directory
    is written."""
    clusters = [pipeline_run / f"model.{dt}.clusters" for dt in ("wd", "we")]
    args = ["train", "--diaries", str(pipeline_run / "sequences.csv"), "--clusters", *map(str, clusters)]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path / "tpms"), f"--alpha={alpha}"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --alpha={alpha}" in capsys.readouterr().err
    assert not (tmp_path / "tpms").exists()


@pytest.mark.parametrize(
    "key, value, code",
    [("k_range", "1:4", 2), ("epsilon", "nan", 2), ("tpm_alpha", "nan", 2)],
)
def test_run_rejects_out_of_range_parameter(synth_tree, tmp_path, key, value, code):
    settings = {
        "diaries": synth_tree / "diaries.csv",
        "code_map": synth_tree / "code_map.csv",
        "bundle": synth_tree / "bundle",
        "reference": synth_tree / "reference",
        "household": synth_tree / "household.conf",
        "base_seed": 1,
        "n_days": 2,
        "k_range": "4:4",
    }
    settings[key] = value
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings))]) == code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fault, message",
    [
        ("vacation = 30,40", "ends after day 28"),
        ("vacation = 5,2", "0 <= start < end"),
        ("occupant_count = 5000:1", "a household of 5000 occupants over n_days = 28 is more than 109500 occupant-days"),
        ("no sink.count", "sink.count"),
        ("sink.flow -1.0,1", "sink.flow: flows must be >= 0"),
        ("sink.onset 200,1", "sink.onset: onsets must round into steps 0..95"),
    ],
)
def test_run_rejects_bad_simulate_input_before_ingest(synth_tree, tmp_path, capsys, fault, message):
    shutil.copytree(synth_tree / "bundle", tmp_path / "bundle")
    household = (synth_tree / "household.conf").read_text()
    if fault.startswith("vacation"):
        household += fault + "\n"
    elif fault.startswith("occupant_count"):
        household = "\n".join([fault, *household.splitlines()[1:]]) + "\n"
    elif fault.startswith("no "):
        (tmp_path / "bundle" / "sink.count").unlink()
    else:
        channel, line = fault.split()
        (tmp_path / "bundle" / channel).write_text(f"unit,x\n{line}\n")
    (tmp_path / "household.conf").write_text(household)
    settings = {
        "diaries": synth_tree / "diaries.csv",
        "code_map": synth_tree / "code_map.csv",
        "bundle": tmp_path / "bundle",
        "reference": synth_tree / "reference",
        "household": tmp_path / "household.conf",
        "base_seed": 1,
        "n_days": 28,
        "k_range": "4:4",
    }
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings))]) == 6
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "sequences.csv").exists()


def _simulate_occupant(pipeline_run, out, days):
    argv = ["simulate-occupant", "--tpms", str(pipeline_run / "tpms"), "--wd-cluster", "0", "--we-cluster", "1"]
    return main(argv + ["--out", str(out), "--days", str(days), "--seed", "9"])


def test_simulate_occupant_output(pipeline_run, tmp_path, capsys):
    out = tmp_path / "occ.csv"
    assert _simulate_occupant(pipeline_run, out, 3) == 0
    lines = out.read_text().splitlines()
    # the sequence file format: one unit-weight row per day, id d<day>
    assert lines[0] == "respondent_id,day_type,weight," + ",".join(f"s{i:02d}" for i in range(96))
    assert len(lines) == 4
    tokens = set(STATE_TOKENS.values())
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[:3] == [f"d{i}", "WD", "1.0"]  # Monday start
        assert set(cells[3:]) <= tokens
    table = read_sequences(out)
    assert table.dtype == SEQUENCE and len(table) == 3
    # unknown cluster id surfaces as the simulate exit code
    assert main(
        [
            "simulate-occupant",
            "--tpms",
            str(pipeline_run / "tpms"),
            "--wd-cluster",
            "9",
            "--we-cluster",
            "0",
            "--out",
            str(tmp_path / "x.csv"),
            "--days",
            "3",
            "--seed",
            "9",
        ]
    ) == 6
    assert "simulate: occupant o0: no trained model for day_type=WD cluster=9" in capsys.readouterr().err


def test_validate_accepts_simulate_occupant_output(pipeline_run, tmp_path, capsys):
    week = tmp_path / "week.csv"
    assert _simulate_occupant(pipeline_run, week, 7) == 0
    reference = str(pipeline_run / "sequences.csv")
    assert main(["validate", "--sim", str(week), "--reference", reference, "--out", str(tmp_path / "v")]) == 0
    assert {p.name for p in (tmp_path / "v").iterdir()} == {"validation_report.wd.csv", "validation_report.we.csv"}


def _corrupt_first_row(src, dst, field, value):
    lines = src.read_text().splitlines()
    cells = lines[1].split(",")
    cells[field] = value
    lines[1] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.mark.parametrize("weight", ["abc", "nan", "-5"])
def test_validate_rejects_bad_weight(pipeline_run, tmp_path, capsys, weight):
    sim = _corrupt_first_row(pipeline_run / "occupant_days.csv", tmp_path / "sim.csv", 2, weight)
    argv = ["validate", "--sim", str(sim), "--reference", str(pipeline_run / "sequences.csv"), "--out", str(tmp_path)]
    assert main(argv) == 7
    assert f"{sim}: row 1: bad weight '{weight}'" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["--sim", "--reference"])
def test_validate_zero_weight_day_type_is_a_stage_error(pipeline_run, tmp_path, side):
    # Every row of one day type weighs 0: the reader accepts each weight, and
    # the statistics of that side then fail as a stage error, not a traceback,
    # before any report is written, WD's included when only WE fails.
    env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).resolve().parents[1]))
    for day_type in ("WD", "WE"):
        files = {"--sim": pipeline_run / "occupant_days.csv", "--reference": pipeline_run / "sequences.csv"}
        lines = files[side].read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[1] == day_type:
                lines[i] = ",".join(cells[:2] + ["0"] + cells[3:])
        files[side] = tmp_path / f"zero.{day_type}.csv"
        files[side].write_text("\n".join(lines) + "\n")
        argv = ["validate", "--sim", str(files["--sim"]), "--reference", str(files["--reference"])]
        out = tmp_path / f"v.{day_type}"
        proc = subprocess.run([sys.executable, "-m", "occsim", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 7, proc.stderr
        assert f"occsim: validate: {day_type}: total weight must be positive" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "validation_report.wd.csv").exists()
        assert not out.exists()


@pytest.mark.parametrize("side", ["--sim", "--reference"])
def test_validate_rejects_non_utf8_input(pipeline_run, tmp_path, capsys, side):
    files = {"--sim": pipeline_run / "occupant_days.csv", "--reference": pipeline_run / "sequences.csv"}
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(files[side].read_bytes().replace(b"WD", b"W\xc9", 1))
    files[side] = bad
    argv = ["validate", "--sim", str(files["--sim"]), "--reference", str(files["--reference"])]
    assert main(argv + ["--out", str(tmp_path / "v")]) == 7
    err = capsys.readouterr().err
    assert str(bad) in err and "utf-8" in err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("name", ["diaries.csv", "code_map.csv"])
def test_ingest_names_non_utf8_file(synth_tree, tmp_path, capsys, name):
    files = {name: synth_tree / name for name in ("diaries.csv", "code_map.csv")}
    files[name] = tmp_path / name
    files[name].write_bytes((synth_tree / name).read_bytes() + b"\xc9\n")
    argv = ["ingest", "--diaries", str(files["diaries.csv"]), "--code-map", str(files["code_map.csv"])]
    assert main(argv + ["--out", str(tmp_path / "seqs.csv")]) == 3
    assert f"ingest: {files[name]}: 'utf-8' codec can't decode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, code",
    [
        ("bundle/bath.duration", 6),
        ("reference/lighting.wd.ref", 6),
        ("household.conf", 6),
        ("project.conf", 2),
        ("model.wd.clusters", 5),
    ],
)
def test_line_read_input_names_non_utf8_file(synth_tree, pipeline_run, tmp_path, capsys, name, code):
    tree = tmp_path / "tree"
    shutil.copytree(synth_tree, tree, ignore=shutil.ignore_patterns("out"))
    shutil.copy(pipeline_run / "model.wd.clusters", tree)
    bad = tree / name
    bad.write_bytes(bad.read_bytes() + b"\xc9\n")
    if name.endswith(".clusters"):
        clusters = [str(bad), str(pipeline_run / "model.we.clusters")]
        argv = ["train", "--diaries", str(pipeline_run / "sequences.csv"), "--clusters", *clusters]
        argv += ["--out", str(tmp_path / "tpms")]
    else:
        argv = ["run", "--config", str(tree / "project.conf")]
    assert main(argv) == code
    assert f"{bad}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_train_rejects_cluster_mode_outside_presence_states(pipeline_run, tmp_path, capsys):
    clusters = tmp_path / "model.wd.clusters"
    lines = (pipeline_run / "model.wd.clusters").read_text().splitlines()
    mode = next(i for i, line in enumerate(lines) if line.startswith("mode,"))
    lines[mode] = lines[mode].replace(",HomeActive", ",Cooking", 1)
    clusters.write_text("\n".join(lines) + "\n")
    argv = ["train", "--diaries", str(pipeline_run / "sequences.csv"), "--out", str(tmp_path / "tpms")]
    assert main(argv + ["--clusters", str(clusters), str(pipeline_run / "model.we.clusters")]) == 5
    assert f"{clusters}: modes hold Cooking; a mode state is one of Sleep, Away, HomeActive" in capsys.readouterr().err
    assert not (tmp_path / "tpms").exists()


@pytest.mark.parametrize("field, value, message", [(2, "-5", "bad weight '-5'"), (1, "XX", "bad day_type 'XX'")])
def test_train_rejects_bad_sequence_row(pipeline_run, tmp_path, capsys, field, value, message):
    sequences = _corrupt_first_row(pipeline_run / "sequences.csv", tmp_path / "seqs.csv", field, value)
    clusters = [str(pipeline_run / f"model.{dt}.clusters") for dt in ("wd", "we")]
    argv = ["train", "--diaries", str(sequences), "--clusters", *clusters, "--out", str(tmp_path / "tpms")]
    assert main(argv) == 5
    assert f"{sequences}: row 1: {message}" in capsys.readouterr().err
    assert not (tmp_path / "tpms").exists()


def test_run_rejects_zero_occupant_count_before_ingest(synth_tree, tmp_path, capsys):
    household = (synth_tree / "household.conf").read_text().splitlines()
    household = [line for line in household if not line.startswith("occupant_count")]
    (tmp_path / "household.conf").write_text("\n".join(["occupant_count = 0:0.5,1:0.5", *household]) + "\n")
    settings = {
        "diaries": synth_tree / "diaries.csv",
        "code_map": synth_tree / "code_map.csv",
        "bundle": synth_tree / "bundle",
        "reference": synth_tree / "reference",
        "household": tmp_path / "household.conf",
        "base_seed": 1,
        "n_days": 2,
        "k_range": "4:4",
    }
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings))]) == 6
    assert "occupant_count support must be whole numbers >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sequences.csv").exists()


def test_run_is_deterministic(synth_tree, pipeline_run, tmp_path):
    tree2 = tmp_path / "tree2"
    write_input_tree(tree2, n_per_day_type=150, base_seed=101, n_households=2, n_days=6)
    assert (tree2 / "diaries.csv").read_bytes() == (synth_tree / "diaries.csv").read_bytes()
    assert main(["run", "--config", str(tree2 / "project.conf")]) == 0
    for rel in ["sequences.csv", "model.wd.clusters", "household_0.csv", "household_1.csv",
                "occupant_days.csv", "validation_report.wd.csv", "validation_report.we.csv"]:
        assert (tree2 / "out" / rel).read_bytes() == (pipeline_run / rel).read_bytes(), rel


def test_synth_leaves_unset_options_to_write_input_tree(tmp_path, monkeypatch):
    calls = []

    def record(out_dir, **options):
        calls.append(options)
        return write_input_tree(out_dir, n_per_day_type=20, n_households=1, n_days=1)

    monkeypatch.setattr("occsim.synth.write_input_tree", record)
    assert main(["synth", "--out", str(tmp_path / "a")]) == 0
    argv = ["synth", "--out", str(tmp_path / "b"), "--diaries-per-day-type", "7", "--seed", "8"]
    assert main(argv + ["--households", "2", "--days", "3"]) == 0
    assert calls == [{}, {"n_per_day_type": 7, "base_seed": 8, "n_households": 2, "n_days": 3}]


@pytest.mark.parametrize(
    "command, options, outputs",
    [
        ("simulate", ["--households", "2", "--days", "2"], ["household_0.csv", "household_1.csv", "occupant_days.csv"]),
        ("simulate-occupant", ["--wd-cluster", "0", "--we-cluster", "1", "--days", "3"], ["occ.csv"]),
    ],
)
def test_seed_drawn_from_entropy_is_logged_and_reproduces(
    synth_tree, pipeline_run, tmp_path, capsys, command, options, outputs
):
    argv = [command, "--tpms", str(pipeline_run / "tpms"), *options]
    if command == "simulate":
        argv += ["--bundle", str(synth_tree / "bundle"), "--reference", str(synth_tree / "reference"),
                 "--household-config", str(synth_tree / "household.conf")]
        drawn, given = tmp_path / "drawn", tmp_path / "given"
    else:
        drawn, given = tmp_path / "drawn" / "occ.csv", tmp_path / "given" / "occ.csv"
    assert main([*argv, "--out", str(drawn)]) == 0
    logged = re.search(rf"^{command}: base_seed = (\d+) \(drawn from entropy\)$", capsys.readouterr().err, re.M)
    assert logged
    assert main([*argv, "--out", str(given), "--seed", logged[1]]) == 0
    for name in outputs:
        assert (tmp_path / "given" / name).read_bytes() == (tmp_path / "drawn" / name).read_bytes(), name


def test_cluster_takes_no_seed(pipeline_run, tmp_path, capsys):
    """Clustering draws no random number: two runs without a seed write the
    same cluster files and log no seed."""
    argv = ["cluster", "--input", str(pipeline_run / "sequences.csv"), "--k-range", "3:4"]
    for out in ("a", "b"):
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
    assert "base_seed" not in capsys.readouterr().err
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


@pytest.mark.parametrize(
    "argv",
    [
        "cluster --silhouette-sample 768",
        "cluster --seed 5",
        "cluster --unweighted",
        "train --alpha 0.5",
        "train --fallback laplace",
    ],
)
def test_removed_flag_is_a_usage_error(synth_tree, pipeline_run, tmp_path, capsys, argv):
    """A flag of a removed setting exits 2 before the stage writes anything."""
    command, *removed = argv.split()
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, _inputs(command, synth_tree, pipeline_run)), "--out", str(tmp_path), *removed])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "simulate-occupant", "synth"])
def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    required = REQUIRED_FLAGS.get(command, ["--out", str(tmp_path / "tree")])
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--seed", "-5"])
    assert exc.value.code == 2
    assert "argument --seed: expected a whole number >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "tree").exists()


@pytest.mark.parametrize("flag, value", [("--diaries-per-day-type", "-3"), ("--households", "-1"), ("--days", "0")])
def test_synth_size_below_one_is_a_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "tree"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a whole number >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "tree").exists()


def test_run_rejects_negative_base_seed_before_ingest(synth_tree, tmp_path, capsys):
    settings = {
        "diaries": synth_tree / "diaries.csv",
        "bundle": synth_tree / "bundle",
        "reference": synth_tree / "reference",
        "household": synth_tree / "household.conf",
        "base_seed": -5,
    }
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings))]) == 2
    assert "base_seed: expected a whole number >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["3", "a:b", "3:4:5", "", "1:3", "5:3"])
def test_malformed_k_range_is_a_usage_error(pipeline_run, synth_tree, tmp_path, capsys, value):
    argv = ["cluster", "--input", str(pipeline_run / "sequences.csv"), "--out", str(tmp_path)]
    argv.append(f"--k-range={value}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag_error = capsys.readouterr().err
    assert not list(tmp_path.glob("*.clusters"))
    assert main(["run", "--config", str(_write_conf(tmp_path, k_range=value))]) == 2
    # the flag gives the reason the project.conf key gives
    reason = capsys.readouterr().err.strip().rpartition("k_range: ")[2]
    assert f"argument --k-range: {reason}\n" in flag_error


# The required flags of each subcommand that takes settings, and of train,
# which takes none.
REQUIRED_FLAGS = {
    "cluster": ["--input", "s.csv", "--out", "o"],
    "train": ["--diaries", "s.csv", "--clusters", "m.clusters", "--out", "o"],
    "simulate": ["--tpms", "t", "--bundle", "b", "--reference", "r", "--household-config", "h", "--out", "o"],
    "simulate-occupant": ["--tpms", "t", "--wd-cluster", "0", "--we-cluster", "0", "--out", "o.csv"],
}
SETTING_NAMES = {f.name for f in fields(Settings)}
STAGE_SETTINGS = {
    "cluster": ["k_range", "epsilon"],
    "simulate": ["n_households", "n_days", "start_weekday", "base_seed", "approach", "modulation"],
    "simulate-occupant": ["n_days", "start_weekday", "base_seed", "approach"],
}


@pytest.mark.parametrize("command", REQUIRED_FLAGS)
def test_stage_flags_restate_no_setting_default(command):
    args = _build_parser().parse_args([command, *REQUIRED_FLAGS[command]])
    assert not SETTING_NAMES & set(vars(args))
    assert _settings(args) == Settings()


def test_each_setting_is_one_project_conf_key_and_one_stage_flag(tmp_path):
    values = {
        "base_seed": "7",
        "n_households": "2",
        "n_days": "9",
        "start_weekday": "friday",
        "approach": "1",
        "k_range": "2:5",
        "epsilon": "0.5",
        "modulation": "active",
    }
    assert set(values) == SETTING_NAMES == set(FLAGS)
    cfg = ProjectConfig.read(_write_conf(tmp_path, **values))
    for f in fields(Settings):
        assert getattr(cfg, f.name) != f.default, f.name
    # each stage flag parses to the value of its project.conf key
    assert set().union(*STAGE_SETTINGS.values()) == SETTING_NAMES
    for command, names in STAGE_SETTINGS.items():
        argv = [command, *REQUIRED_FLAGS[command]]
        for name in names:
            argv += [FLAGS[name], values[name]]
        settings = _settings(_build_parser().parse_args(argv))
        assert {name: getattr(settings, name) for name in names} == {name: getattr(cfg, name) for name in names}


@pytest.mark.parametrize(
    "kernel, names",
    [
        (select_k, ["k_range", "epsilon"]),
        (estimate_tpm, ["alphabet", "cluster_id"]),
        (train_cluster_day_model, ["cluster_id", "day_type"]),
        (assemble_schedule, ["modulation"]),
        (attach_appliance_events, ["year_minutes"]),
        (build_household, ["approach"]),
        (simulate_year, ["approach"]),
        (SimCalendar, ["start_weekday", "n_days"]),
        (draw_households, ["approach"]),
        (walk_occupants, ["approach"]),
    ],
)
def test_kernels_take_settings_without_defaults(kernel, names):
    """A setting of a library kernel, or a choice of what it fits, is a
    keyword without a default."""
    parameters = inspect.signature(kernel).parameters
    for name in names:
        assert parameters[name].kind is inspect.Parameter.KEYWORD_ONLY, name
        assert parameters[name].default is inspect.Parameter.empty, name


@pytest.mark.parametrize("stage", [cluster_stage, simulate_stage, load_simulation_inputs])
def test_stages_take_one_settings_object(stage):
    parameters = inspect.signature(stage).parameters
    assert not SETTING_NAMES & set(parameters)
    assert parameters["cfg"].annotation == "Settings"


def test_python_m_occsim_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "occsim", "--help"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: occsim")
