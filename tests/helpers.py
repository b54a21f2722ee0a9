"""Small constructors and reference measures shared by the tests."""

import numpy as np

from occsim.clustering import ClusterError
from occsim.distributions import EmpiricalDistribution


def point_mass(value: float, unit: str = "") -> EmpiricalDistribution:
    return EmpiricalDistribution(np.array([value]), np.array([1.0]), unit)


def sequence_distance(a, b) -> int:
    """Matching dissimilarity: number of steps whose states differ."""
    a, b = (np.asarray(x, dtype=np.int8) for x in (a, b))
    if a.shape != b.shape:
        raise ClusterError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))
