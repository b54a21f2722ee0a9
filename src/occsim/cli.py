"""Command line interface.

Subcommands mirror the pipeline stages so a composed `run` and a sequence
of individual stage invocations produce identical artifacts.  Exit codes:
0 success, 2 configuration/usage, 3 ingest, 4 cluster, 5 train,
6 simulate, 7 validate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import streams
from .diary_ingest import write_sequences
from .markov_train import TrainError, load_model_dir
from .occupant_sim import OccupantProfile, SimCalendar, SimulationError, days_to_sequences, simulate_year
from .pipeline import (
    CHOICES,
    ProjectConfig,
    StageError,
    cluster_stage,
    entropy_seed,
    ingest_stage,
    load_sequences,
    parse_k_range,
    run_pipeline,
    simulate_stage,
    train_stage,
    validate_stage,
)


def _add_code_map(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code-map", type=Path, default=None, help="activity code map file")


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
    p.add_argument("--k-range", default="%d:%d" % ProjectConfig.k_range, help="inclusive k range, A:B")
    p.add_argument("--repeats", type=int, default=ProjectConfig.repeats)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=ProjectConfig.epsilon)
    p.add_argument("--silhouette-sample", type=int, default=ProjectConfig.silhouette_sample)
    p.add_argument("--unweighted", action="store_true", help="ignore respondent weights")

    p = sub.add_parser("train", help="fit per-cluster day-type models")
    p.add_argument("--diaries", type=Path, required=True, help="diaries or sequences file")
    _add_code_map(p)
    p.add_argument("--clusters", type=Path, nargs="+", required=True, help="cluster model files")
    p.add_argument("--out", type=Path, required=True, help="output model directory")
    p.add_argument("--fallback", choices=CHOICES["tpm_fallback"], default=ProjectConfig.tpm_fallback)
    p.add_argument("--alpha", type=float, default=ProjectConfig.tpm_alpha)

    p = sub.add_parser("simulate", help="generate household schedules")
    p.add_argument("--tpms", type=Path, required=True, help="trained model directory")
    p.add_argument("--bundle", type=Path, required=True, help="event distribution bundle directory")
    p.add_argument("--reference", type=Path, required=True, help="reference schedule directory")
    p.add_argument("--household-config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--households", type=int, default=ProjectConfig.n_households)
    p.add_argument("--days", type=int, default=ProjectConfig.n_days)
    p.add_argument("--start-weekday", default=ProjectConfig.start_weekday)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--approach", type=int, choices=CHOICES["approach"], default=ProjectConfig.approach)
    p.add_argument("--modulation", choices=CHOICES["modulation"], default=ProjectConfig.modulation)

    p = sub.add_parser("simulate-occupant", help="simulate one occupant's state sequence")
    p.add_argument("--tpms", type=Path, required=True)
    p.add_argument("--wd-cluster", type=int, required=True)
    p.add_argument("--we-cluster", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--days", type=int, default=ProjectConfig.n_days)
    p.add_argument("--start-weekday", default=ProjectConfig.start_weekday)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--approach", type=int, choices=CHOICES["approach"], default=ProjectConfig.approach)

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
    p.add_argument("--diaries-per-day-type", dest="n_per_day_type", type=int)
    p.add_argument("--seed", dest="base_seed", type=int)
    p.add_argument("--households", dest="n_households", type=int)
    p.add_argument("--days", dest="n_days", type=int)

    p = sub.add_parser("run", help="run the full pipeline from a project config")
    p.add_argument("--config", type=Path, required=True)

    return parser


def _seed_or_entropy(seed: int | None, log) -> int:
    if seed is not None:
        return seed
    drawn = entropy_seed()
    print(f"seed = {drawn} (drawn from entropy)", file=log)
    return drawn


def _cmd_ingest(args, log) -> int:
    ingest_stage(args.diaries, args.code_map, args.out, log=log)
    return 0


def _cmd_cluster(args, log) -> int:
    sequences, _ = load_sequences(args.input, args.code_map, "cluster")
    if args.unweighted:
        sequences["weight"] = 1.0
    try:
        k_range = parse_k_range(args.k_range)
    except ValueError as exc:
        raise StageError("cluster", f"bad --k-range {args.k_range!r}") from exc
    args.out.mkdir(parents=True, exist_ok=True)
    day_types = ["WD", "WE"] if args.day_type == "both" else [args.day_type.upper()]
    for day_type in day_types:
        cluster_stage(
            sequences,
            day_type,
            args.out / f"model.{day_type.lower()}.clusters",
            k_range=k_range,
            repeats=args.repeats,
            base_seed=args.seed,
            epsilon=args.epsilon,
            silhouette_sample=args.silhouette_sample,
            log=log,
        )
    return 0


def _cmd_train(args, log) -> int:
    from .clustering import ClusterModel

    sequences, _ = load_sequences(args.diaries, args.code_map, "train")
    cluster_models = {}
    for path in args.clusters:
        try:
            model = ClusterModel.read(path)
        except (OSError, ValueError) as exc:
            raise StageError("train", str(exc)) from exc
        if model.day_type in cluster_models:
            raise StageError("train", f"duplicate cluster model for day type {model.day_type}")
        cluster_models[model.day_type] = model
    train_stage(sequences, cluster_models, args.out, fallback=args.fallback, alpha=args.alpha, log=log)
    return 0


def _cmd_simulate(args, log) -> int:
    seed = _seed_or_entropy(args.seed, log)
    simulate_stage(
        args.tpms,
        args.bundle,
        args.reference,
        args.household_config,
        args.out,
        n_households=args.households,
        n_days=args.days,
        start_weekday=args.start_weekday,
        base_seed=seed,
        approach=args.approach,
        modulation=args.modulation,
        log=log,
    )
    return 0


def _cmd_simulate_occupant(args, log) -> int:
    seed = _seed_or_entropy(args.seed, log)
    try:
        models = load_model_dir(args.tpms)
        calendar = SimCalendar.from_name(args.start_weekday, args.days)
        profile = OccupantProfile("o0", args.wd_cluster, args.we_cluster)
        rng_root = streams.child(streams.root(seed), streams.OCCUPANT, 0)
        states, failures = simulate_year(profile, models, calendar, rng_root, approach=args.approach)
    except (TrainError, SimulationError, OSError) as exc:
        raise StageError("simulate", str(exc)) from exc
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_sequences(args.out, days_to_sequences(states, calendar.day_types, "d"))
    if failures:
        print(f"simulate-occupant: {failures} placement failures", file=log)
    print(f"simulate-occupant: {len(states)} days -> {args.out}", file=log)
    return 0


def _cmd_validate(args, log) -> int:
    out_dir = args.out
    if out_dir is None:
        out_dir = args.sim if args.sim.is_dir() else args.sim.parent
    validate_stage(args.sim, args.reference, out_dir, code_map=args.code_map, log=log)
    return 0


def _cmd_synth(args, log) -> int:
    from .synth import write_input_tree

    layout = write_input_tree(**{key: value for key, value in vars(args).items() if key != "command"})
    print(f"synth: input tree -> {layout.root}", file=log)
    print(f"synth: project config -> {layout.project}", file=log)
    return 0


def _cmd_run(args, log) -> int:
    cfg = ProjectConfig.read(args.config)
    return run_pipeline(cfg, log=log)


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    log = sys.stderr
    try:
        return _HANDLERS[args.command](args, log)
    except StageError as exc:
        print(f"occsim: {exc}", file=log)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
