import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from occsim.diary_ingest import N_STEPS, ActivityState, sequence_table

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_seq(states, day_type="WD", weight=1.0, rid="r0"):
    """Build a one-row SEQUENCE table, padding a short prefix with HomeActive."""
    arr = np.full(N_STEPS, int(ActivityState.HOME_ACTIVE), dtype=np.int8)
    states = np.asarray(states, dtype=np.int8)
    arr[: states.shape[0]] = states
    return sequence_table([rid], day_type, weight, arr[None])


@pytest.fixture
def rng():
    return np.random.default_rng(7)
