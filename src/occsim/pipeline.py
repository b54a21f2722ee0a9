"""Pipeline stages and project configuration.

Each stage reads files and writes files, so any stage can be rerun in
isolation and a composed run produces byte-identical artifacts to running
the stages one at a time. `run_pipeline` chains them and maintains a
`.partial` marker in the output directory: present while work is underway
or after a failure, removed on success.
"""

from __future__ import annotations

import secrets
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .clustering import ClusterModel, SelectKResult, assign_cluster, select_k
from .conf import read_key_values
from .diary_ingest import (
    DAY_TYPES,
    N_STEPS,
    ActivityCodeMap,
    load_sequences_any,
    project_to_presence,
    sequence_table,
    write_sequences,
)
from .household import HouseholdConfig, HouseholdError, build_household
from .markov_train import (
    FALLBACKS,
    ClusterDayModel,
    TrainError,
    estimate_all_statistics,
    load_model_dir,
    save_model_dir,
    train_cluster_day_model,
)
from .occupant_sim import SimCalendar, SimulationError
from .schedule_io import ScheduleError, assemble_schedule, load_bundle, load_reference_dir, write_schedule_file
from .validate import ComparisonReport, compare_behavior

# process exit code of each stage's StageError
_STAGE_CODES = {"config": 2, "ingest": 3, "cluster": 4, "train": 5, "simulate": 6, "validate": 7}


class StageError(Exception):
    """A pipeline stage failed; carries the stage's exit code."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.exit_code = _STAGE_CODES[stage]


def parse_k_range(value: str) -> tuple[int, int]:
    lo, _, hi = value.partition(":")
    return int(lo), int(hi)


# ProjectConfig field annotation -> parser of its project.conf value (and of
# its stage flag's argument).  Path fields join the config file's directory,
# which an absolute value replaces.
PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "bool": lambda value: value.lower() in ("1", "true", "yes"),
    "tuple[int, int]": parse_k_range,
}


CHOICES = {"approach": (1, 2, 3), "modulation": ("present", "active"), "tpm_fallback": FALLBACKS}


@dataclass
class Settings:
    """Run parameters, each with its only default.  A field is the
    `project.conf` key of the same name and one stage flag (`cli.FLAGS`);
    `base_seed` None means draw one from entropy (`resolve_seed`)."""

    base_seed: int | None = None
    n_households: int = 1
    n_days: int = 365
    start_weekday: str = "monday"
    approach: int = 3
    k_range: tuple[int, int] = (3, 10)
    repeats: int = 10
    epsilon: float = 0.01
    silhouette_sample: int | None = None
    tpm_fallback: str = "absorbing"
    tpm_alpha: float = 0.0
    modulation: str = "present"
    unweighted_clustering: bool = False


@dataclass(kw_only=True)
class ProjectConfig(Settings):
    """A `project.conf`: the run settings plus the paths, each the key of the
    same name; the fields without a default are required."""

    diaries: Path
    bundle: Path
    reference: Path
    household: Path
    out: Path
    code_map: Path | None = None

    @classmethod
    def read(cls, path: str | Path) -> "ProjectConfig":
        path = Path(path)
        if not path.exists():
            raise StageError("config", f"config file not found: {path}")
        parsers = {
            f.name: path.parent.joinpath if f.type.startswith("Path") else PARSERS[f.type] for f in fields(cls)
        }
        try:
            values = read_key_values(path, parsers)
        except ValueError as exc:
            raise StageError("config", str(exc)) from None
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
        if missing:
            raise StageError("config", f"{path}: missing keys: {', '.join(missing)}")
        cfg = cls(**values)
        for key, allowed in CHOICES.items():
            if getattr(cfg, key) not in allowed:
                raise StageError("config", f"{key} must be one of {allowed}, got {getattr(cfg, key)!r}")
        if cfg.k_range[0] < 2 or cfg.k_range[1] < cfg.k_range[0]:
            raise StageError("config", f"bad k_range {cfg.k_range}")
        if cfg.n_days < 1 or cfg.n_households < 1:
            raise StageError("config", "n_days and n_households must be positive")
        return cfg


def resolve_seed(cfg: Settings, log, command: str) -> Settings:
    """`cfg` when it has a base_seed, else a copy with one drawn from entropy
    and logged, so the run can be repeated with it."""
    if cfg.base_seed is not None:
        return cfg
    seed = secrets.randbits(32)
    print(f"{command}: base_seed = {seed} (drawn from entropy)", file=log)
    return replace(cfg, base_seed=seed)


def load_sequences(path: Path, code_map: Path | None, stage: str) -> tuple[np.ndarray, int]:
    """Diaries or a sequence file as a SEQUENCE table, plus the unmapped-code
    tally; bad or empty input is a StageError of `stage`."""
    source = code_map
    try:
        cmap = ActivityCodeMap.read(code_map) if code_map is not None else None
        source = path
        sequences, unknown = load_sequences_any(path, cmap)
    except UnicodeDecodeError as exc:  # its message names no file
        raise StageError(stage, f"{source}: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise StageError(stage, str(exc)) from exc
    if not len(sequences):
        raise StageError(stage, f"{path}: no diary records")
    return sequences, unknown


def ingest_stage(diaries: Path, code_map: Path | None, out_file: Path, log=None) -> np.ndarray:
    """Parse diaries (minute- or step-resolution) and write the sequence table."""
    log = sys.stderr if log is None else log
    sequences, unknown = load_sequences(diaries, code_map, "ingest")
    out_file.parent.mkdir(parents=True, exist_ok=True)
    write_sequences(out_file, sequences)
    if unknown:
        print(f"ingest: {unknown} minutes with unmapped codes sent to the default state", file=log)
    print(f"ingest: {len(sequences)} sequences -> {out_file}", file=log)
    return sequences


def cluster_stage(
    sequences: np.ndarray, day_type: str, out_file: Path, cfg: Settings, log=None
) -> SelectKResult:
    """Select k on one day type's sequences, by their weights unless
    `cfg.unweighted_clustering`, and write the cluster model."""
    log = sys.stderr if log is None else log
    subset = sequences[sequences["day_type"] == day_type]
    if not len(subset):
        raise StageError("cluster", f"no {day_type} sequences")
    try:
        result = select_k(
            project_to_presence(subset["states"]),
            None if cfg.unweighted_clustering else subset["weight"],
            k_range=range(cfg.k_range[0], cfg.k_range[1] + 1),
            repeats=cfg.repeats,
            base_seed=cfg.base_seed,
            epsilon=cfg.epsilon,
            day_type=day_type,
            silhouette_sample=cfg.silhouette_sample,
        )
    except ValueError as exc:  # ClusterError included
        raise StageError("cluster", f"{day_type}: {exc}") from exc
    out_file.parent.mkdir(parents=True, exist_ok=True)
    result.model.write(out_file)
    for row in result.table:
        marker = " *" if row.k == result.k_star else ""
        print(f"cluster[{day_type}]: k={row.k} mean silhouette {row.mean:.4f}{marker}", file=log)
    print(f"cluster[{day_type}]: chose k={result.k_star} -> {out_file}", file=log)
    return result


def train_stage(
    sequences: np.ndarray, cluster_models: dict[str, ClusterModel], out_dir: Path, cfg: Settings, log=None
) -> dict[str, dict[int, ClusterDayModel]]:
    """Assign sequences to clusters and fit per-(cluster, day-type) models."""
    log = sys.stderr if log is None else log
    models: dict[str, dict[int, ClusterDayModel]] = {}
    for day_type, cmodel in sorted(cluster_models.items()):
        subset = sequences[sequences["day_type"] == day_type]
        if not len(subset):
            raise StageError("train", f"no {day_type} sequences")
        labels = assign_cluster(subset["states"], cmodel)
        models[day_type] = {}
        for c in range(cmodel.k):
            members = subset[labels == c]
            if not len(members):
                raise StageError("train", f"cluster {c} has no {day_type} sequences")
            try:
                models[day_type][c] = train_cluster_day_model(
                    members, cluster_id=c, day_type=day_type, fallback=cfg.tpm_fallback, alpha=cfg.tpm_alpha
                )
            except TrainError as exc:
                raise StageError("train", f"cluster {c} {day_type}: {exc}") from exc
            print(f"train: cluster {c} {day_type}: {len(members)} sequences", file=log)
    save_model_dir(out_dir, models)
    print(f"train: model files -> {out_dir}", file=log)
    return models


def _occupant_day_rows(results, calendar: SimCalendar) -> np.ndarray:
    """One SEQUENCE row per occupant-day, by household, occupant, then day."""
    day_types = calendar.day_types
    ids = [f"h{res.index}o{o}" for res in results for o in range(res.n_occupants) for _ in day_types]
    states = [np.empty((0, N_STEPS), np.int8)] + [res.states.reshape(-1, N_STEPS) for res in results]
    return sequence_table(ids, day_types * (len(ids) // calendar.n_days), 1.0, np.concatenate(states))


SimulationInputs = tuple[dict, np.ndarray, HouseholdConfig, SimCalendar]


def load_simulation_inputs(
    bundle_dir: Path, reference_dir: Path, household_conf: Path, cfg: Settings
) -> SimulationInputs:
    """The bundle, reference schedules, household config and calendar that
    simulate reads; bad input, a vacation past the calendar included, is a
    StageError of simulate."""
    try:
        bundle = load_bundle(bundle_dir)
        reference = load_reference_dir(reference_dir)
        config = HouseholdConfig.read(household_conf)
        calendar = SimCalendar.from_name(cfg.start_weekday, cfg.n_days)
    except (OSError, ValueError, KeyError) as exc:
        raise StageError("simulate", str(exc)) from exc
    if config.vacation is not None and config.vacation[1] > cfg.n_days:
        raise StageError(
            "simulate", f"{household_conf}: vacation window {config.vacation} ends after day {cfg.n_days}"
        )
    return bundle, reference, config, calendar


def simulate_stage(tpms_dir: Path, inputs: SimulationInputs, out_dir: Path, cfg: Settings, log=None) -> None:
    """Generate household schedules and the occupant-day table from the
    `load_simulation_inputs` tuple."""
    log = sys.stderr if log is None else log
    if cfg.n_households < 1:
        raise StageError("simulate", f"n_households must be positive, got {cfg.n_households}")
    try:
        models = load_model_dir(tpms_dir)
    except (OSError, ValueError) as exc:
        raise StageError("simulate", str(exc)) from exc
    bundle, reference, config, calendar = inputs
    for day_type in DAY_TYPES:
        if day_type not in models or not models[day_type]:
            raise StageError("simulate", f"model directory has no {day_type} models")
        k = len(models[day_type])
        shares = config.shares_for(day_type)
        if len(shares) != k:
            raise StageError(
                "simulate",
                f"{day_type} cluster shares have {len(shares)} entries but model has {k} clusters",
            )
        if sorted(models[day_type]) != list(range(k)):
            raise StageError("simulate", f"{day_type} cluster ids are not 0..{k - 1}")
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for h in range(cfg.n_households):
        try:
            result = build_household(h, models, bundle, config, calendar, cfg.base_seed, approach=cfg.approach)
            schedule = assemble_schedule(result, reference, calendar, modulation=cfg.modulation)
        except (SimulationError, HouseholdError, ScheduleError, KeyError) as exc:
            raise StageError("simulate", f"household {h}: {exc}") from exc
        path = out_dir / f"household_{h}.csv"
        write_schedule_file(path, schedule)
        if result.placement_failures:
            print(f"simulate: household {h}: {result.placement_failures} placement failures", file=log)
        print(f"simulate: household {h} ({result.n_occupants} occupants) -> {path}", file=log)
        results.append(result)
    write_sequences(out_dir / "occupant_days.csv", _occupant_day_rows(results, calendar))
    print(f"simulate: occupant-day table -> {out_dir / 'occupant_days.csv'}", file=log)


def validate_stage(
    sim: Path, reference_diaries: Path, out_dir: Path, code_map: Path | None = None, log=None
) -> dict[str, ComparisonReport]:
    """Compare simulated occupant days against the reference corpus."""
    log = sys.stderr if log is None else log
    sim_days, _ = load_sequences(sim / "occupant_days.csv" if sim.is_dir() else sim, code_map, "validate")
    ref_days, _ = load_sequences(reference_diaries, code_map, "validate")
    out_dir.mkdir(parents=True, exist_ok=True)
    reports: dict[str, ComparisonReport] = {}
    for day_type in DAY_TYPES:
        sim_dt = sim_days[sim_days["day_type"] == day_type]
        ref_dt = ref_days[ref_days["day_type"] == day_type]
        if not len(sim_dt) or not len(ref_dt):
            print(f"validate: skipping {day_type} (no data on one side)", file=log)
            continue
        ref_stats = estimate_all_statistics(ref_dt)
        report = compare_behavior(sim_dt, ref_stats)
        path = out_dir / f"validation_report.{day_type.lower()}.csv"
        report.write(path)
        reports[day_type] = report
        print(f"validate[{day_type}]:", file=log)
        print(report.format_table(), file=sys.stdout)
    return reports


def run_pipeline(cfg: ProjectConfig, log=None) -> int:
    """Run ingest, cluster, train, simulate, and validate end to end."""
    log = sys.stderr if log is None else log
    cfg = resolve_seed(cfg, log, "run")
    cfg.out.mkdir(parents=True, exist_ok=True)
    marker = cfg.out / ".partial"
    marker.touch()
    inputs = load_simulation_inputs(cfg.bundle, cfg.reference, cfg.household, cfg)
    sequences = ingest_stage(cfg.diaries, cfg.code_map, cfg.out / "sequences.csv", log=log)
    cluster_models = {
        dt: cluster_stage(sequences, dt, cfg.out / f"model.{dt.lower()}.clusters", cfg, log=log).model
        for dt in DAY_TYPES
    }
    train_stage(sequences, cluster_models, cfg.out / "tpms", cfg, log=log)
    simulate_stage(cfg.out / "tpms", inputs, cfg.out, cfg, log=log)
    # sequences.csv holds the ingested diaries, so they are not parsed twice.
    validate_stage(cfg.out, cfg.out / "sequences.csv", cfg.out, log=log)
    marker.unlink()
    print("run: done", file=log)
    return 0
