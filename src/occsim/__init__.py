"""Trainable stochastic occupant behavior simulator.

Clusters categorical time-use diaries, fits time-inhomogeneous Markov
chains per cluster and day type, and generates year-long household
schedules of occupancy, appliance power, and hot water draws at 15-minute
resolution.
"""

from .diary_ingest import (
    ActivityCodeMap,
    ActivityState,
    SEQUENCE,
    ingest,
    parse_diaries,
    project_to_presence,
    resample_to_sequence,
    sequence_table,
)
from .distributions import EmpiricalDistribution
from .clustering import ClusterModel, assign_cluster, kmodes, select_k, silhouette
from .markov_train import (
    ActivityStats,
    ClusterDayModel,
    TPMSet,
    estimate_statistics,
    estimate_tpm,
    train_cluster_day_model,
)
from .occupant_sim import OccupantProfile, SimCalendar, simulate_year, walk_occupants
from .household import (
    HouseholdConfig,
    HouseholdDraw,
    HouseholdResult,
    build_household,
    draw_households,
    merge_shared_events,
    modulate_schedule,
)
from .schedule_io import (
    HouseholdScheduleYear,
    assemble_schedule,
    read_schedule_file,
    write_schedule_file,
)
from .validate import compare_behavior, ks_statistic, occurrence_chi2_p
from .pipeline import ProjectConfig, Settings, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ActivityCodeMap",
    "ActivityState",
    "ActivityStats",
    "ClusterDayModel",
    "ClusterModel",
    "EmpiricalDistribution",
    "HouseholdConfig",
    "HouseholdDraw",
    "HouseholdResult",
    "HouseholdScheduleYear",
    "OccupantProfile",
    "ProjectConfig",
    "SEQUENCE",
    "Settings",
    "SimCalendar",
    "TPMSet",
    "assemble_schedule",
    "assign_cluster",
    "build_household",
    "compare_behavior",
    "draw_households",
    "estimate_statistics",
    "estimate_tpm",
    "ingest",
    "kmodes",
    "ks_statistic",
    "merge_shared_events",
    "modulate_schedule",
    "occurrence_chi2_p",
    "parse_diaries",
    "project_to_presence",
    "read_schedule_file",
    "resample_to_sequence",
    "run_pipeline",
    "select_k",
    "sequence_table",
    "silhouette",
    "simulate_year",
    "train_cluster_day_model",
    "walk_occupants",
    "write_schedule_file",
]
