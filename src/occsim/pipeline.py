"""Pipeline stages and project configuration.

Each stage reads files and writes files, so any stage can be rerun in
isolation and a composed run produces byte-identical artifacts to running
the stages one at a time. `run_pipeline` chains them and maintains a
`.partial` marker in the output directory: present while work is underway
or after a failure, removed on success.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .clustering import ClusterModel, SelectKResult, assign_cluster, select_k
from .conf import key_values, reading
from .diary_ingest import (
    DAY_TYPES,
    N_STEPS,
    ActivityCodeMap,
    load_sequences_any,
    project_to_presence,
    sequence_table,
    write_sequences,
)
from .household import HouseholdConfig, build_household, draw_households
from .markov_train import (
    ClusterDayModel,
    estimate_statistics,
    load_model_dir,
    save_model_dir,
    train_cluster_day_model,
)
from .occupant_sim import WEEKDAY_NAMES, SimCalendar
from .schedule_io import assemble_schedule, load_bundle, load_reference_dir, write_schedule_file
from .validate import ComparisonReport, compare_behavior

# Occupant-days that simulate walks together: each (day type, cluster) model
# is walked once per chunk of max(1, this // (n_days * m)) households, with m
# the largest occupant count that can be drawn.  The walk's block of uniforms
# grows with the chunk; 12 household-years of the synth's at most 3 occupants
# is the largest chunk measured in a whole run (ROADMAP item 8).
CHUNK_OCCUPANT_DAYS = 3 * 12 * 365

# process exit code of each stage's StageError
_STAGE_CODES = {"config": 2, "synth": 2, "ingest": 3, "cluster": 4, "train": 5, "simulate": 6, "validate": 7}


class StageError(Exception):
    """A pipeline stage failed; carries the stage's exit code."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.exit_code = _STAGE_CODES[stage]


@contextmanager
def failing(stage: str, where: str = ""):
    """The one boundary of a stage: an OSError or ValueError in the block,
    such as a bad input file, an output path that cannot be made or a model
    check on user data, is a StageError of `stage`, its message after `where`.
    OccsimError, what every check outside the stages raises, is a ValueError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise StageError(stage, where + str(exc)) from exc


# The longest calendar, a century.
MAX_DAYS = 100 * 365

# The most occupant-days of one household, a century of three occupants: a
# chunk holds at least one household, and a household-day of three occupants
# peaks at about 20 KiB under approach 3 (114 MiB at 2920 days, 285 MiB at
# 11680), so one household stays under 1 GiB.
MAX_HOUSEHOLD_OCCUPANT_DAYS = 3 * MAX_DAYS


def parse_k_range(value: str) -> tuple[int, int]:
    lo, _, hi = value.partition(":")
    lo, hi = int(lo), int(hi)
    if lo < 2 or hi < lo:
        raise ValueError(f"expected lo:hi with 2 <= lo <= hi, got {value}")
    return lo, hi


def whole_number(value: str, least: int = 0, most: float = math.inf) -> int:
    number = int(value)
    if number < least:
        raise ValueError(f"expected a whole number >= {least}, got {number}")
    if number > most:
        raise ValueError(f"expected a whole number <= {most}, got {number}")
    return number


def positive_number(value: str) -> int:
    return whole_number(value, 1)


def finite_nonnegative(value: str) -> float:
    number = float(value)
    if not 0 <= number < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {number}")
    return number


def _one_of(parse, allowed: tuple):
    """`parse`, then a check that the value is one of `allowed`."""

    def parse_choice(value: str):
        choice = parse(value)
        if choice not in allowed:
            raise ValueError(f"expected one of {allowed}, got {choice!r}")
        return choice

    return parse_choice


# The Settings fields whose value is one of a few.
CHOICES = {"approach": (1, 2, 3), "modulation": ("present", "active"), "start_weekday": WEEKDAY_NAMES}

# Keys of settings that are gone: a project.conf may still hold them, and
# ProjectConfig.read accepts and ignores them.
RETIRED_KEYS = ("repeats", "silhouette_sample")


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
    epsilon: float = 0.01
    modulation: str = "present"


# Settings field -> parser of its project.conf value and of its stage flag's
# argument, which checks the value's range: numpy's SeedSequence takes only
# a seed >= 0.
PARSERS = {
    "base_seed": whole_number,
    "n_households": positive_number,
    "n_days": partial(whole_number, least=1, most=MAX_DAYS),
    "start_weekday": _one_of(str.lower, CHOICES["start_weekday"]),
    "approach": _one_of(int, CHOICES["approach"]),
    "k_range": parse_k_range,
    "epsilon": finite_nonnegative,
    "modulation": _one_of(str, CHOICES["modulation"]),
}


@dataclass(kw_only=True)
class ProjectConfig(Settings):
    """A `project.conf`: the run settings plus the paths, each the key of the
    same name; the fields without a default are required.  A path joins the
    config file's directory, which an absolute value replaces."""

    diaries: Path
    bundle: Path
    reference: Path
    household: Path
    out: Path
    code_map: Path | None = None

    @classmethod
    def read(cls, path: str | Path) -> "ProjectConfig":
        path = Path(path)
        if not path.is_file():
            raise StageError("config", f"config file not found: {path}")
        parsers = {f.name: PARSERS.get(f.name, path.parent.joinpath) for f in fields(cls)}
        with failing("config"), reading(path) as lines:
            values = key_values(lines, parsers | dict.fromkeys(RETIRED_KEYS, str))
            missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in values]
            if missing:
                raise ValueError(f"missing keys: {', '.join(missing)}")
        return cls(**{key: value for key, value in values.items() if key not in RETIRED_KEYS})


def resolve_seed(cfg: Settings, log, command: str) -> Settings:
    """`cfg` when it has a base_seed, else a copy with one drawn from entropy
    and logged, so the run can be repeated with it."""
    if cfg.base_seed is not None:
        return cfg
    seed = int.from_bytes(os.urandom(4), "little")
    print(f"{command}: base_seed = {seed} (drawn from entropy)", file=log)
    return replace(cfg, base_seed=seed)


def load_sequences(path: Path, code_map: Path | None, stage: str) -> tuple[np.ndarray, int]:
    """Diaries or a sequence file as a SEQUENCE table, plus the unmapped-code
    tally; bad or empty input is a StageError of `stage`."""
    with failing(stage):
        cmap = ActivityCodeMap.read(code_map) if code_map is not None else None
        sequences, unknown = load_sequences_any(path, cmap)
    if not len(sequences):
        raise StageError(stage, f"{path}: no diary records")
    return sequences, unknown


def ingest_stage(diaries: Path, code_map: Path | None, out_file: Path, log) -> np.ndarray:
    """Parse diaries (minute- or step-resolution) and write the sequence table."""
    sequences, unknown = load_sequences(diaries, code_map, "ingest")
    with failing("ingest"):
        out_file.parent.mkdir(parents=True, exist_ok=True)
        write_sequences(out_file, sequences)
    if unknown:
        print(f"ingest: {unknown} minutes with unmapped codes sent to the default state", file=log)
    print(f"ingest: {len(sequences)} sequences -> {out_file}", file=log)
    return sequences


def cluster_stage(
    sequences: np.ndarray, day_type: str, out_file: Path, cfg: Settings, log
) -> SelectKResult:
    """Select k on one day type's sequences, by their weights, and write the
    cluster model."""
    subset = sequences[sequences["day_type"] == day_type]
    if not len(subset):
        raise StageError("cluster", f"no {day_type} sequences")
    with failing("cluster", f"{day_type}: "):
        result = select_k(
            project_to_presence(subset["states"]),
            subset["weight"],
            k_range=range(cfg.k_range[0], cfg.k_range[1] + 1),
            epsilon=cfg.epsilon,
            day_type=day_type,
        )
    with failing("cluster"):
        out_file.parent.mkdir(parents=True, exist_ok=True)
        result.model.write(out_file)
    for k, score in result.table.items():
        marker = " *" if k == result.k_star else ""
        print(f"cluster[{day_type}]: k={k} silhouette {score:.4f}{marker}", file=log)
    print(f"cluster[{day_type}]: chose k={result.k_star} -> {out_file}", file=log)
    return result


def train_stage(
    sequences: np.ndarray, cluster_models: dict[str, ClusterModel], out_dir: Path, log
) -> dict[str, dict[int, ClusterDayModel]]:
    """Assign sequences to clusters and fit per-(cluster, day-type) models."""
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
            with failing("train", f"cluster {c} {day_type}: "):
                models[day_type][c] = train_cluster_day_model(members, cluster_id=c, day_type=day_type)
            print(f"train: cluster {c} {day_type}: {len(members)} sequences", file=log)
    with failing("train"):
        save_model_dir(out_dir, models)
    print(f"train: model files -> {out_dir}", file=log)
    return models


SimulationInputs = tuple[dict, np.ndarray, HouseholdConfig, SimCalendar]


def _most_occupants(config: HouseholdConfig) -> int:
    """The largest occupant count of positive probability: the most a drawn
    household can hold."""
    counts = config.occupant_count_dist
    return int(counts.support[counts.probs > 0].max())


def load_simulation_inputs(
    bundle_dir: Path, reference_dir: Path, household_conf: Path, cfg: Settings
) -> SimulationInputs:
    """The bundle, reference schedules, household config and calendar that
    simulate reads; bad input, a vacation past the calendar or a household
    of more than MAX_HOUSEHOLD_OCCUPANT_DAYS included, is a StageError of
    simulate."""
    with failing("simulate"):
        bundle = load_bundle(bundle_dir)
        reference = load_reference_dir(reference_dir)
        config = HouseholdConfig.read(household_conf)
        calendar = SimCalendar.from_name(cfg.start_weekday, cfg.n_days)
    if config.vacation is not None and config.vacation[1] > cfg.n_days:
        raise StageError(
            "simulate", f"{household_conf}: vacation window {config.vacation} ends after day {cfg.n_days}"
        )
    m = _most_occupants(config)
    if m * cfg.n_days > MAX_HOUSEHOLD_OCCUPANT_DAYS:
        raise StageError(
            "simulate",
            f"{household_conf}: a household of {m} occupants over n_days = {cfg.n_days} is more than"
            f" {MAX_HOUSEHOLD_OCCUPANT_DAYS} occupant-days",
        )
    return bundle, reference, config, calendar


def simulate_stage(
    tpms_dir: Path, inputs: SimulationInputs, out_dir: Path, cfg: Settings, log
) -> np.ndarray:
    """Generate household schedules and the occupant-day table from the
    `load_simulation_inputs` tuple, deleting every `household_<h>.csv` of h
    >= n_households in `out_dir`; returns the table written."""
    if cfg.n_households < 1:
        raise StageError("simulate", f"n_households must be positive, got {cfg.n_households}")
    with failing("simulate"):
        models = load_model_dir(tpms_dir)
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
    with failing("simulate"):
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in out_dir.glob("household_*.csv"):  # an earlier run's, of more households
            h = path.name[len("household_") : -len(".csv")]
            if h.isdecimal() and h == str(int(h)) and int(h) >= cfg.n_households:
                path.unlink()

    # Only the states outlive a household, one row per occupant in a block per
    # chunk; one id string serves all of an occupant's days.
    ids: list[str] = []
    blocks = []
    size = max(1, CHUNK_OCCUPANT_DAYS // (calendar.n_days * _most_occupants(config)))
    for lo in range(0, cfg.n_households, size):
        chunk = range(lo, min(lo + size, cfg.n_households))
        with failing("simulate"):  # a missing model names its occupant, h<index>o<o>
            draws = draw_households(chunk, models, config, calendar, cfg.base_seed, approach=cfg.approach)
        block = np.empty((sum(len(d.occupants) for d in draws), calendar.n_days * N_STEPS), np.int8)
        blocks.append(block)
        row = 0
        for draw in draws:
            h = draw.index
            with failing("simulate", f"household {h}: "):
                result = build_household(draw, models, bundle, config, calendar, approach=cfg.approach)
                schedule = assemble_schedule(result, reference, calendar, modulation=cfg.modulation)
            path = out_dir / f"household_{h}.csv"
            with failing("simulate"):
                write_schedule_file(path, schedule)
            if result.placement_failures:
                print(f"simulate: household {h}: {result.placement_failures} placement failures", file=log)
            print(f"simulate: household {h} ({len(result.states)} occupants) -> {path}", file=log)
            block[row : row + len(result.states)] = result.states
            row += len(result.states)
            ids += [name for o in range(len(result.states)) for name in [f"h{h}o{o}"] * calendar.n_days]
    states = np.concatenate(blocks).reshape(-1, N_STEPS)
    occupant_days = sequence_table(ids, calendar.day_types * (len(ids) // calendar.n_days), 1.0, states)
    with failing("simulate"):
        write_sequences(out_dir / "occupant_days.csv", occupant_days)
    print(f"simulate: occupant-day table -> {out_dir / 'occupant_days.csv'}", file=log)
    return occupant_days


def validate_stage(
    sim_days: np.ndarray, ref_days: np.ndarray, out_dir: Path, log
) -> dict[str, ComparisonReport]:
    """Compare simulated occupant days against the reference corpus (SEQUENCE tables)."""
    # Every report is computed before any is written, so a failure leaves no report.
    reports: dict[str, ComparisonReport] = {}
    for day_type in DAY_TYPES:
        sim_dt = sim_days[sim_days["day_type"] == day_type]
        ref_dt = ref_days[ref_days["day_type"] == day_type]
        if len(sim_dt) and len(ref_dt):
            with failing("validate", f"{day_type}: "):
                reports[day_type] = compare_behavior(sim_dt, estimate_statistics(ref_dt))
    with failing("validate"):
        out_dir.mkdir(parents=True, exist_ok=True)
    for day_type in DAY_TYPES:
        path = out_dir / f"validation_report.{day_type.lower()}.csv"
        if day_type not in reports:
            print(f"validate: skipping {day_type} (no data on one side)", file=log)
            with failing("validate"):
                path.unlink(missing_ok=True)  # an earlier run's
            continue
        with failing("validate"):
            reports[day_type].write(path)
        print(f"validate[{day_type}]:", file=log)
        print(reports[day_type].format_table(), file=log)
    return reports


def run_pipeline(cfg: ProjectConfig, log) -> int:
    """Run ingest, cluster, train, simulate, and validate end to end."""
    cfg = resolve_seed(cfg, log, "run")
    marker = cfg.out / ".partial"
    with failing("config"):  # `out` is a project.conf key
        cfg.out.mkdir(parents=True, exist_ok=True)
        marker.touch()
    inputs = load_simulation_inputs(cfg.bundle, cfg.reference, cfg.household, cfg)
    sequences = ingest_stage(cfg.diaries, cfg.code_map, cfg.out / "sequences.csv", log=log)
    cluster_models = {
        dt: cluster_stage(sequences, dt, cfg.out / f"model.{dt.lower()}.clusters", cfg, log=log).model
        for dt in DAY_TYPES
    }
    train_stage(sequences, cluster_models, cfg.out / "tpms", log=log)
    sim_days = simulate_stage(cfg.out / "tpms", inputs, cfg.out, cfg, log=log)
    # sequences.csv holds the ingested diaries, so they are not parsed twice.
    validate_stage(sim_days, load_sequences(cfg.out / "sequences.csv", None, "validate")[0], cfg.out, log=log)
    marker.unlink()
    print("run: done", file=log)
    return 0
