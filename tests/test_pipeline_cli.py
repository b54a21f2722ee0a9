import contextlib
import inspect
import io
import re
import shutil
from dataclasses import fields

import pytest

from occsim.cli import FLAGS, _build_parser, _settings, main
from occsim.clustering import select_k
from occsim.diary_ingest import SEQUENCE, STATE_TOKENS, load_sequences_any, read_sequences, write_sequences
from occsim.household import attach_appliance_events, build_household
from occsim.markov_train import estimate_tpm, train_cluster_day_model
from occsim.occupant_sim import SimCalendar, simulate_year
from occsim.pipeline import (
    ProjectConfig,
    Settings,
    StageError,
    cluster_stage,
    load_simulation_inputs,
    run_pipeline,
    simulate_stage,
    train_stage,
)
from occsim.schedule_io import assemble_schedule, read_schedule_file
from occsim.synth import write_input_tree


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
                "approach = 2",
                "unweighted_clustering = true",
            ]
        )
        + "\n"
    )
    cfg = ProjectConfig.read(conf)
    assert cfg.diaries == tmp_path / "data/diaries.csv"
    assert cfg.out == tmp_path / "out"
    assert cfg.base_seed == 7
    assert cfg.k_range == (2, 5)
    assert cfg.repeats == 4
    assert cfg.approach == 2
    assert cfg.unweighted_clustering is True
    # untouched defaults
    assert cfg.n_days == 365
    assert cfg.modulation == "present"
    assert cfg.tpm_fallback == "absorbing"


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
    with pytest.raises(StageError, match="not found") as exc:
        ProjectConfig.read(tmp_path / "missing.conf")
    assert exc.value.exit_code == 2

    conf = tmp_path / "p.conf"
    conf.write_text("diaries = d.csv\n")
    with pytest.raises(StageError, match="missing keys: bundle, reference, household, out"):
        ProjectConfig.read(conf)

    conf.write_text("not a key value line\n")
    with pytest.raises(StageError, match="line 1"):
        ProjectConfig.read(conf)

    for key, value, pattern in [
        ("approach", "5", "approach"),
        ("modulation", "sometimes", "modulation"),
        ("k_range", "7:3", "k_range"),
        ("k_range", "0:3", "k_range"),
        ("k_range", "1:3", "k_range"),
        ("n_days", "0", "positive"),
        ("tpm_fallback", "magic", "tpm_fallback"),
        ("repeats", "many", "invalid literal"),
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
    for c in range(4):
        for dt in ("wd", "we"):
            assert f"c{c}.{dt}.tpm" in tpm_files
            assert f"c{c}.{dt}.presence.tpm" in tpm_files
            assert f"c{c}.{dt}.cooking.count.dist" in tpm_files
    assert not [name for name in tpm_files if name.endswith(".profile") or ".sleep." in name]
    for h in range(2):
        sched = read_schedule_file(out / f"household_{h}.csv")
        assert sched.n_days == 6
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
        assert run_pipeline(cfg) == 0
    lines = err.getvalue().splitlines()
    assert lines[0].startswith("ingest: ") and lines[-1] == "run: done"
    for stage in ("cluster[WD]: ", "cluster[WE]: ", "train: ", "simulate: ", "validate[WD]:"):
        assert any(line.startswith(stage) for line in lines), stage
    assert (cfg.out / "sequences.csv").read_bytes() == (pipeline_run / "sequences.csv").read_bytes()


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


def _run_stagewise(synth_tree, out, household, seed, flags):
    """Run ingest, cluster, train, simulate and validate as subcommands into
    `out` with the synth project's settings; `flags` holds each stage's extra
    flags."""

    def stage(command, *argv):
        assert main([command, *argv, *flags.get(command, [])]) == 0, command

    diaries, code_map = str(synth_tree / "diaries.csv"), str(synth_tree / "code_map.csv")
    sequences = str(out / "sequences.csv")
    stage("ingest", "--diaries", diaries, "--code-map", code_map, "--out", sequences)
    stage("cluster", "--input", sequences, "--out", str(out), "--day-type", "both", "--k-range", "4:4",
          "--repeats", "3", "--seed", seed, "--silhouette-sample", "768")
    clusters = [str(out / "model.wd.clusters"), str(out / "model.we.clusters")]
    stage("train", "--diaries", sequences, "--clusters", *clusters, "--out", str(out / "tpms"))
    stage("simulate", "--tpms", str(out / "tpms"), "--bundle", str(synth_tree / "bundle"),
          "--reference", str(synth_tree / "reference"), "--household-config", str(household),
          "--out", str(out), "--households", "2", "--days", "6", "--seed", seed)
    # The composed run validates against its sequences.csv; stage-wise
    # validation of the raw diaries must give the same reports.
    stage("validate", "--sim", str(out), "--reference", diaries, "--code-map", code_map)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_stagewise_matches_run(synth_tree, pipeline_run, tmp_path):
    """Individual subcommands compose to the same artifacts as `run`."""
    out = tmp_path / "stagewise"
    seed = str(ProjectConfig.read(synth_tree / "project.conf").base_seed)
    _run_stagewise(synth_tree, out, synth_tree / "household.conf", seed, {})
    assert _tree_bytes(out) == _tree_bytes(pipeline_run)


# Per case: the project.conf keys, each stage's flags for the same settings,
# and whether household.conf gains a vacation window.
STAGEWISE_CASES = {
    "approach_1": ({"approach": "1"}, {"simulate": ["--approach", "1"]}, False),
    "approach_2": ({"approach": "2"}, {"simulate": ["--approach", "2"]}, False),
    "modulation_active": ({"modulation": "active"}, {"simulate": ["--modulation", "active"]}, False),
    "unweighted": ({"unweighted_clustering": "true"}, {"cluster": ["--unweighted"]}, False),
    "vacation": ({}, {}, True),
    "laplace": (
        {"tpm_fallback": "laplace", "tpm_alpha": "0.5"},
        {"train": ["--fallback", "laplace", "--alpha", "0.5"]},
        False,
    ),
}


@pytest.mark.parametrize("case", STAGEWISE_CASES)
def test_cli_stagewise_matches_run_across_settings(synth_tree, pipeline_run, tmp_path, case):
    """Each project.conf key and its stage flag give the same artifacts, and
    they differ from the default run's."""
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
        "repeats": 3,
        "silhouette_sample": 768,
    }
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings, **keys))]) == 0
    _run_stagewise(synth_tree, tmp_path / "stagewise", household, "101", flags)
    run = _tree_bytes(tmp_path / "out")
    assert _tree_bytes(tmp_path / "stagewise") == run
    assert run != _tree_bytes(pipeline_run)


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


def _simulate(synth_tree, tpms, reference, out, *options):
    return main(
        [
            "simulate",
            "--tpms",
            str(tpms),
            "--bundle",
            str(synth_tree / "bundle"),
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


@pytest.mark.parametrize(
    "option, message", [("--days", "n_days must be positive"), ("--households", "n_households must be positive")]
)
def test_simulate_rejects_zero_days_or_households(synth_tree, pipeline_run, tmp_path, capsys, option, message):
    out = tmp_path / "out"
    assert _simulate(synth_tree, pipeline_run / "tpms", synth_tree / "reference", out, option, "0") == 6
    assert message in capsys.readouterr().err
    assert not out.exists()


# Per kind: the corrupted file, the 0-based index of the line replaced and
# (bad line, message) in the order of the ids below; "{prev}" repeats the
# line before.
BAD_LINES = {
    "dist": (
        "tpms/c0.wd.cooking.onset.dist",
        2,
        [
            ("0,1.5", "line 3: probability 1.5 outside 0..1"),
            ("0,-0.5", "line 3: probability -0.5 outside 0..1"),
            ("{prev}", "line 3: values must be finite and increasing"),
            ("0,0.5,1", "line 3: expected value,probability, got '0,0.5,1'"),
            ("0,abc", "line 3: expected value,probability, got '0,abc'"),
        ],
    ),
    "ref": (
        "reference/lighting.wd.ref",
        40,
        [
            ("96,0.5", "line 41: step 96 outside 0..95"),
            ("-1,0.9", "line 41: step -1 outside 0..95"),
            ("3,0.5", "line 41: duplicate step 3"),
            ("40,0.5,1", "line 41: expected step,value, got 3 fields"),
            ("40,abc", "line 41: could not convert string to float"),
        ],
    ),
}


@pytest.mark.parametrize("kind", ["dist", "ref"])
@pytest.mark.parametrize("case", range(5), ids=["past_end", "negative", "duplicate", "fields", "nan_text"])
def test_simulate_rejects_bad_step_value_line(synth_tree, pipeline_run, tmp_path, capsys, kind, case):
    tpms, reference = tmp_path / "tpms", tmp_path / "reference"
    shutil.copytree(pipeline_run / "tpms", tpms)
    shutil.copytree(synth_tree / "reference", reference)
    name, index, cases = BAD_LINES[kind]
    line, message = cases[case]
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[index] = line.format(prev=lines[index - 1])
    path.write_text("\n".join(lines) + "\n")
    assert _simulate(synth_tree, tpms, reference, tmp_path / "out") == 6
    assert f"{path.name}: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("household_*.csv"))


@pytest.mark.parametrize("name", ["cx.wd.tpm", "c0.wd.x.tpm", "c0.xx.tpm"])
def test_simulate_rejects_bad_model_file_name(synth_tree, pipeline_run, tmp_path, capsys, name):
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    shutil.copy(tpms / "c0.wd.tpm", tpms / name)
    shutil.copy(tpms / "c0.wd.presence.tpm", tpms / name.replace(".tpm", ".presence.tpm"))
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert f"{name}: model file name does not match c<int>.<wd|we>.tpm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["c0.wd.cooking.count.dist", "c1.wd.laundry.duration.dist", "c0.we.dishwashing.onset.dist"]
)
def test_simulate_rejects_half_deleted_model(synth_tree, pipeline_run, tmp_path, capsys, name):
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    (tpms / name).unlink()
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert f"missing expected file: {tpms / name}" in capsys.readouterr().err
    occupant = ["simulate-occupant", "--tpms", str(tpms), "--wd-cluster", "0", "--we-cluster", "1"]
    assert main(occupant + ["--out", str(tmp_path / "occ.csv"), "--days", "2", "--seed", "1"]) == 6
    assert f"missing expected file: {tpms / name}" in capsys.readouterr().err


FULL_TOKENS = ",".join(STATE_TOKENS.values())


def _swap_first_two_states(path):
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    head[2], head[3] = head[3], head[2]
    path.write_text("\n".join([",".join(head)] + lines[1:]) + "\n")


def _keep_50_matrices(path):
    lines = path.read_text().splitlines()
    n_states = len(lines[0].split(",")) - 2
    path.write_text("\n".join(lines[: 2 + 50 * n_states]) + "\n")


# (file to break, how, message after the file name)
BAD_MODELS = {
    "permuted": ("c0.wd.tpm", _swap_first_two_states, "states Away,Sleep," + FULL_TOKENS[len("Sleep,Away,") :]),
    "presence_as_full": (
        "c0.wd.tpm",
        lambda path: shutil.copy(path.parent / "c0.wd.presence.tpm", path),
        f"states Sleep,Away,HomeActive, expected {FULL_TOKENS}",
    ),
    "full_as_presence": (
        "c1.we.presence.tpm",
        lambda path: shutil.copy(path.parent / "c1.we.tpm", path),
        f"states {FULL_TOKENS}, expected Sleep,Away,HomeActive",
    ),
    "short": ("c0.wd.tpm", _keep_50_matrices, "50 matrices, expected 95"),
    "short_presence": ("c1.wd.presence.tpm", _keep_50_matrices, "50 matrices, expected 95"),
}


@pytest.mark.parametrize("case", list(BAD_MODELS))
def test_simulate_rejects_model_of_wrong_alphabet_or_length(synth_tree, pipeline_run, tmp_path, capsys, case):
    tpms = tmp_path / "tpms"
    shutil.copytree(pipeline_run / "tpms", tpms)
    name, corrupt, message = BAD_MODELS[case]
    corrupt(tpms / name)
    assert _simulate(synth_tree, tpms, synth_tree / "reference", tmp_path / "out") == 6
    assert f"{tpms / name}: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("household_*.csv"))


@pytest.mark.parametrize(
    "option, message",
    [
        ("--repeats=0", "repeats must be at least 1, got 0"),
        ("--epsilon=nan", "epsilon must be finite and nonnegative, got nan"),
        ("--epsilon=-0.1", "epsilon must be finite and nonnegative, got -0.1"),
        ("--silhouette-sample=1", "silhouette_sample must be at least 2, got 1"),
        ("--k-range=1:3", "k range must be nonempty with every k >= 2"),
    ],
)
def test_cluster_rejects_out_of_range_parameter(pipeline_run, tmp_path, capsys, option, message):
    args = ["cluster", "--input", str(pipeline_run / "sequences.csv"), "--out", str(tmp_path)]
    assert main(args + ["--k-range", "2:3", "--repeats", "1", option]) == 4
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.clusters"))


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5"])
def test_train_rejects_out_of_range_alpha(pipeline_run, tmp_path, capsys, alpha):
    clusters = [str(pipeline_run / f"model.{dt}.clusters") for dt in ("wd", "we")]
    args = ["train", "--diaries", str(pipeline_run / "sequences.csv"), "--clusters", *clusters]
    assert main(args + ["--out", str(tmp_path / "tpms"), "--fallback", "laplace", f"--alpha={alpha}"]) == 5
    assert "alpha must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "tpms").exists()


@pytest.mark.parametrize(
    "key, value, code",
    [("k_range", "1:4", 2), ("repeats", "0", 4), ("epsilon", "nan", 4), ("silhouette_sample", "1", 4),
     ("tpm_alpha", "nan", 5)],
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
        "repeats": 1,
        "tpm_fallback": "laplace",
    }
    settings[key] = value
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings))]) == code


@pytest.mark.parametrize(
    "fault, message",
    [
        ("vacation = 30,40", "ends after day 28"),
        ("vacation = 5,2", "0 <= start < end"),
        ("no sink.count", "sink.count"),
    ],
)
def test_run_rejects_bad_simulate_input_before_ingest(synth_tree, tmp_path, capsys, fault, message):
    shutil.copytree(synth_tree / "bundle", tmp_path / "bundle")
    household = (synth_tree / "household.conf").read_text()
    if fault.startswith("vacation"):
        household += fault + "\n"
    else:
        (tmp_path / "bundle" / "sink.count").unlink()
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
        "repeats": 1,
    }
    assert main(["run", "--config", str(_write_conf(tmp_path, **settings))]) == 6
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "sequences.csv").exists()


def _simulate_occupant(pipeline_run, out, days):
    argv = ["simulate-occupant", "--tpms", str(pipeline_run / "tpms"), "--wd-cluster", "0", "--we-cluster", "1"]
    return main(argv + ["--out", str(out), "--days", str(days), "--seed", "9"])


def test_simulate_occupant_output(pipeline_run, tmp_path):
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
        "repeats": 1,
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


def test_cluster_unweighted_clusters_unit_weights(pipeline_run, tmp_path):
    unit = read_sequences(pipeline_run / "sequences.csv")
    unit["weight"] = 1.0
    write_sequences(tmp_path / "unit.csv", unit)
    options = ["--k-range", "4:4", "--repeats", "2", "--seed", "5"]
    for name, source, extra in [
        ("weighted", pipeline_run / "sequences.csv", []),
        ("unweighted", pipeline_run / "sequences.csv", ["--unweighted"]),
        ("unit", tmp_path / "unit.csv", []),
    ]:
        assert main(["cluster", "--input", str(source), "--out", str(tmp_path / name), *options, *extra]) == 0
    for day_type in ("wd", "we"):
        model = f"model.{day_type}.clusters"
        unweighted = (tmp_path / "unweighted" / model).read_bytes()
        assert unweighted == (tmp_path / "unit" / model).read_bytes()
        assert unweighted != (tmp_path / "weighted" / model).read_bytes()


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
        ("cluster", ["--k-range", "4:4", "--repeats", "2"], ["model.wd.clusters", "model.we.clusters"]),
        ("simulate-occupant", ["--wd-cluster", "0", "--we-cluster", "1", "--days", "3"], ["occ.csv"]),
    ],
)
def test_seed_drawn_from_entropy_is_logged_and_reproduces(
    pipeline_run, tmp_path, capsys, command, options, outputs
):
    if command == "cluster":
        argv = [command, "--input", str(pipeline_run / "sequences.csv"), *options]
        drawn, given = tmp_path / "drawn", tmp_path / "given"
    else:
        argv = [command, "--tpms", str(pipeline_run / "tpms"), *options]
        drawn, given = tmp_path / "drawn" / "occ.csv", tmp_path / "given" / "occ.csv"
    assert main([*argv, "--out", str(drawn)]) == 0
    logged = re.search(rf"^{command}: base_seed = (\d+) \(drawn from entropy\)$", capsys.readouterr().err, re.M)
    assert logged
    assert main([*argv, "--out", str(given), "--seed", logged[1]]) == 0
    for name in outputs:
        assert (tmp_path / "given" / name).read_bytes() == (tmp_path / "drawn" / name).read_bytes(), name


@pytest.mark.parametrize("value", ["3", "a:b", "3:4:5", ""])
def test_malformed_k_range_is_a_usage_error(pipeline_run, synth_tree, tmp_path, capsys, value):
    argv = ["cluster", "--input", str(pipeline_run / "sequences.csv"), "--out", str(tmp_path)]
    argv.append(f"--k-range={value}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--k-range" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.clusters"))
    assert main(["run", "--config", str(_write_conf(tmp_path, k_range=value))]) == 2


# The required flags of each subcommand that takes settings.
REQUIRED_FLAGS = {
    "cluster": ["--input", "s.csv", "--out", "o"],
    "train": ["--diaries", "s.csv", "--clusters", "m.clusters", "--out", "o"],
    "simulate": ["--tpms", "t", "--bundle", "b", "--reference", "r", "--household-config", "h", "--out", "o"],
    "simulate-occupant": ["--tpms", "t", "--wd-cluster", "0", "--we-cluster", "0", "--out", "o.csv"],
}
SETTING_NAMES = {f.name for f in fields(Settings)}
STAGE_SETTINGS = {
    "cluster": ["k_range", "repeats", "base_seed", "epsilon", "silhouette_sample", "unweighted_clustering"],
    "train": ["tpm_fallback", "tpm_alpha"],
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
        "repeats": "4",
        "epsilon": "0.5",
        "silhouette_sample": "40",
        "tpm_fallback": "laplace",
        "tpm_alpha": "0.5",
        "modulation": "active",
        "unweighted_clustering": "true",
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
            argv += [FLAGS[name]] if name == "unweighted_clustering" else [FLAGS[name], values[name]]
        settings = _settings(_build_parser().parse_args(argv))
        assert {name: getattr(settings, name) for name in names} == {name: getattr(cfg, name) for name in names}


@pytest.mark.parametrize(
    "kernel, names",
    [
        (select_k, ["k_range", "repeats", "base_seed", "epsilon", "silhouette_sample"]),
        (estimate_tpm, ["fallback", "alpha"]),
        (train_cluster_day_model, ["fallback", "alpha"]),
        (assemble_schedule, ["modulation"]),
        (attach_appliance_events, ["year_minutes"]),
        (build_household, ["approach"]),
        (simulate_year, ["approach"]),
        (SimCalendar, ["start_weekday", "n_days"]),
    ],
)
def test_kernels_take_settings_without_defaults(kernel, names):
    parameters = inspect.signature(kernel).parameters
    for name in names:
        assert parameters[name].kind is inspect.Parameter.KEYWORD_ONLY, name
        assert parameters[name].default is inspect.Parameter.empty, name


@pytest.mark.parametrize("stage", [cluster_stage, train_stage, simulate_stage, load_simulation_inputs])
def test_stages_take_one_settings_object(stage):
    parameters = inspect.signature(stage).parameters
    assert not SETTING_NAMES & set(parameters)
    assert parameters["cfg"].annotation == "Settings"
