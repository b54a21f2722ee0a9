"""Small constructors and reference measures shared by the tests."""

import numpy as np

from occsim.clustering import ClusterError
from occsim.diary_ingest import N_STEPS, ActivityState, sequence_table
from occsim.distributions import EmpiricalDistribution


def point_mass(value: float, unit: str = "") -> EmpiricalDistribution:
    return EmpiricalDistribution(np.array([value]), np.array([1.0]), unit)


def make_seq(states, day_type="WD", weight=1.0, rid="r0"):
    """Build a one-row SEQUENCE table, padding a short prefix with HomeActive."""
    arr = np.full(N_STEPS, int(ActivityState.HOME_ACTIVE), dtype=np.int8)
    states = np.asarray(states, dtype=np.int8)
    arr[: states.shape[0]] = states
    return sequence_table([rid], day_type, weight, arr[None])


def sequence_distance(a, b) -> int:
    """Matching dissimilarity: number of steps whose states differ."""
    a, b = (np.asarray(x, dtype=np.int8) for x in (a, b))
    if a.shape != b.shape:
        raise ClusterError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))
