"""Command line interface.

Subcommands mirror the pipeline stages so a composed `run` and a sequence
of individual stage invocations produce identical artifacts.  Exit codes:
0 success, 2 configuration/usage, 3 ingest, 4 cluster, 5 train,
6 simulate, 7 validate.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import streams
from .clustering import ClusterModel
from .diary_ingest import DAY_TYPES, write_sequences
from .markov_train import load_model_dir
from .occupant_sim import (
    OccupantProfile,
    SimCalendar,
    days_to_sequences,
    simulate_year,
    walk_occupants,
)
from .pipeline import (
    CHOICES,
    PARSERS,
    ProjectConfig,
    Settings,
    StageError,
    cluster_stage,
    failing,
    ingest_stage,
    load_sequences,
    load_simulation_inputs,
    positive_number,
    resolve_seed,
    run_pipeline,
    simulate_stage,
    train_stage,
    validate_stage,
)

# The stage flag of each Settings field: `--` and its name with dashes, or
# one of these shorter flags.
_SHORT_FLAGS = {
    "base_seed": "--seed",
    "n_households": "--households",
    "n_days": "--days",
}
FLAGS = {f.name: _SHORT_FLAGS.get(f.name, "--" + f.name.replace("_", "-")) for f in fields(Settings)}


def _add_code_map(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code-map", type=Path, default=None, help="activity code map file")


def _flag_type(parse):
    """`parse` as an argparse type: its ValueError message becomes the flag's
    error, which argparse would replace with the parser's name."""

    def parse_flag(value: str):
        try:
            return parse(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_flag


def _add_settings(p: argparse.ArgumentParser, *names: str) -> None:
    """The flags of these Settings fields, parsed as their project.conf keys.
    A flag left out stays out of the namespace, so its field keeps the
    Settings default."""
    for name in names:
        choices = CHOICES.get(name)
        metavar = None if choices is None else "{" + ",".join(map(str, choices)) + "}"
        p.add_argument(FLAGS[name], dest=name, type=_flag_type(PARSERS[name]), metavar=metavar,
                       default=argparse.SUPPRESS, help=f"project.conf key {name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="occsim", description="stochastic occupant behavior simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse diaries into the step-sequence table")
    p.add_argument("--diaries", type=Path, required=True)
    _add_code_map(p)
    p.add_argument("--out", type=Path, required=True, help="output sequences file")

    p = sub.add_parser("cluster", help="select k and write cluster models")
    p.add_argument("--input", type=Path, required=True, help="diaries or sequences file")
    _add_code_map(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--day-type", choices=["wd", "we", "both"], default="both")
    _add_settings(p, "k_range", "epsilon")

    p = sub.add_parser("train", help="fit per-cluster day-type models")
    p.add_argument("--diaries", type=Path, required=True, help="diaries or sequences file")
    _add_code_map(p)
    p.add_argument("--clusters", type=Path, nargs="+", required=True, help="cluster model files")
    p.add_argument("--out", type=Path, required=True, help="output model directory")

    p = sub.add_parser("simulate", help="generate household schedules")
    p.add_argument("--tpms", type=Path, required=True, help="trained model directory")
    p.add_argument("--bundle", type=Path, required=True, help="event distribution bundle directory")
    p.add_argument("--reference", type=Path, required=True, help="reference schedule directory")
    p.add_argument("--household-config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_settings(p, "n_households", "n_days", "start_weekday", "base_seed", "approach", "modulation")

    p = sub.add_parser("simulate-occupant", help="simulate one occupant's state sequence")
    p.add_argument("--tpms", type=Path, required=True)
    p.add_argument("--wd-cluster", type=int, required=True)
    p.add_argument("--we-cluster", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_settings(p, "n_days", "start_weekday", "base_seed", "approach")

    p = sub.add_parser("validate", help="compare simulated days with a reference corpus")
    p.add_argument("--sim", type=Path, required=True, help="simulation output directory or occupant-day file")
    p.add_argument("--reference", type=Path, required=True, help="reference diaries or sequences")
    _add_code_map(p)
    p.add_argument("--out", type=Path, default=None, help="report directory (default: sim directory)")

    # Unset flags stay out of the namespace, so write_input_tree's defaults apply.
    p = sub.add_parser(
        "synth", help="generate a synthetic demonstration input tree", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--out", dest="out_dir", type=Path, required=True)
    p.add_argument("--diaries-per-day-type", dest="n_per_day_type", type=_flag_type(positive_number))
    for name in ("base_seed", "n_households", "n_days"):
        p.add_argument(FLAGS[name], dest=name, type=_flag_type(PARSERS[name]))

    p = sub.add_parser("run", help="run the full pipeline from a project config")
    p.add_argument("--config", type=Path, required=True)

    return parser


def _settings(args) -> Settings:
    """The Settings of the stage flags given."""
    return Settings(**{name: getattr(args, name) for name in FLAGS if hasattr(args, name)})


def _cmd_ingest(args, log) -> int:
    ingest_stage(args.diaries, args.code_map, args.out, log=log)
    return 0


def _cmd_cluster(args, log) -> int:
    cfg = _settings(args)
    sequences, _ = load_sequences(args.input, args.code_map, "cluster")
    with failing("cluster"):
        args.out.mkdir(parents=True, exist_ok=True)
    for day_type in DAY_TYPES if args.day_type == "both" else [args.day_type.upper()]:
        cluster_stage(sequences, day_type, args.out / f"model.{day_type.lower()}.clusters", cfg, log=log)
    return 0


def _cmd_train(args, log) -> int:
    sequences, _ = load_sequences(args.diaries, args.code_map, "train")
    cluster_models = {}
    for path in args.clusters:
        with failing("train"):
            model = ClusterModel.read(path)
        if model.day_type in cluster_models:
            raise StageError("train", f"duplicate cluster model for day type {model.day_type}")
        cluster_models[model.day_type] = model
    train_stage(sequences, cluster_models, args.out, log=log)
    return 0


def _cmd_simulate(args, log) -> int:
    cfg = resolve_seed(_settings(args), log, "simulate")
    inputs = load_simulation_inputs(args.bundle, args.reference, args.household_config, cfg)
    simulate_stage(args.tpms, inputs, args.out, cfg, log=log)
    return 0


def _cmd_simulate_occupant(args, log) -> int:
    cfg = resolve_seed(_settings(args), log, "simulate-occupant")
    with failing("simulate"):
        models = load_model_dir(args.tpms)
        calendar = SimCalendar.from_name(cfg.start_weekday, cfg.n_days)
        profile = OccupantProfile("o0", args.wd_cluster, args.we_cluster)
        rng_root = streams.child(streams.root(cfg.base_seed), streams.OCCUPANT, 0)
        days = walk_occupants([(profile, rng_root)], models, calendar, approach=cfg.approach)[0]
        states, failures = simulate_year(profile, days, models, calendar, rng_root, approach=cfg.approach)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        write_sequences(args.out, days_to_sequences(states, calendar.day_types, "d"))
    if failures:
        print(f"simulate-occupant: {failures} placement failures", file=log)
    print(f"simulate-occupant: {len(states)} days -> {args.out}", file=log)
    return 0


def _cmd_validate(args, log) -> int:
    sim = args.sim / "occupant_days.csv" if args.sim.is_dir() else args.sim
    sim_days, ref_days = (load_sequences(path, args.code_map, "validate")[0] for path in (sim, args.reference))
    validate_stage(sim_days, ref_days, args.out or sim.parent, log=log)
    return 0


def _cmd_synth(args, log) -> int:
    from .synth import write_input_tree

    with failing("synth"):
        layout = write_input_tree(**{key: value for key, value in vars(args).items() if key != "command"})
    print(f"synth: input tree -> {layout.root}", file=log)
    print(f"synth: project config -> {layout.project}", file=log)
    return 0


def _cmd_run(args, log) -> int:
    return run_pipeline(ProjectConfig.read(args.config), log=log)


_HANDLERS = {
    "ingest": _cmd_ingest,
    "cluster": _cmd_cluster,
    "train": _cmd_train,
    "simulate": _cmd_simulate,
    "simulate-occupant": _cmd_simulate_occupant,
    "validate": _cmd_validate,
    "synth": _cmd_synth,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    log = sys.stderr
    try:
        return _HANDLERS[args.command](args, log)
    except StageError as exc:
        print(f"occsim: {exc}", file=log)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
