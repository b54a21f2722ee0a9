"""Time-inhomogeneous transition-matrix and activity-statistics estimation.

A day of 96 steps is governed by 95 row-stochastic matrices (matrix t maps
the state at step t to the state at step t+1) plus an initial distribution
for step 0.  Estimation uses weighted transition counts; rows that were
never visited fall back to a configurable row (absorbing self-transition by
default) so every matrix stays stochastic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diary_ingest import (
    EVENT_ACTIVITIES,
    FULL_ALPHABET,
    N_STEPS,
    PRESENCE_ALPHABET,
    STATE_BY_TOKEN,
    STATE_TOKENS,
    ActivityState,
    project_to_presence,
)
from .distributions import EmpiricalDistribution

ROW_TOL = 1e-9
FALLBACKS = ("absorbing", "uniform", "laplace")


class TrainError(ValueError):
    """Invalid training input or model file."""


@dataclass
class TPMSet:
    """Initial distribution plus per-step transition matrices.

    The standard day shape is 95 matrices (96 steps); shorter sets are
    accepted so reduced instances can be checked against exact oracles.
    """

    cluster_id: int
    day_type: str
    alphabet: tuple[ActivityState, ...]
    initial: np.ndarray  # (S,)
    matrices: np.ndarray  # (T, S, S)
    _cum_init: np.ndarray | None = field(default=None, repr=False, compare=False)
    _cum_rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.alphabet = tuple(ActivityState(a) for a in self.alphabet)
        S = len(self.alphabet)
        self.initial = np.asarray(self.initial, dtype=np.float64)
        self.matrices = np.asarray(self.matrices, dtype=np.float64)
        if self.initial.shape != (S,):
            raise TrainError("initial distribution does not match alphabet")
        if self.matrices.ndim != 3 or self.matrices.shape[1:] != (S, S) or self.matrices.shape[0] < 1:
            raise TrainError(f"matrices must be (T, {S}, {S})")
        if not (np.isfinite(self.initial).all() and np.isfinite(self.matrices).all()):
            raise TrainError("non-finite probabilities")
        if np.any(self.initial < -ROW_TOL) or np.any(self.matrices < -ROW_TOL):
            raise TrainError("negative probabilities")
        if abs(self.initial.sum() - 1.0) > ROW_TOL:
            raise TrainError("initial distribution does not sum to 1")
        rows = self.matrices.sum(axis=2)
        if np.max(np.abs(rows - 1.0)) > ROW_TOL:
            t, i = np.unravel_index(np.argmax(np.abs(rows - 1.0)), rows.shape)
            raise TrainError(f"row (step {t}, state {self.alphabet[i].name}) sums to {rows[t, i]}")

    @property
    def n_steps(self) -> int:
        return self.matrices.shape[0] + 1

    @property
    def n_states(self) -> int:
        return len(self.alphabet)

    def cumulative(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached per-row cumulative sums for inverse-CDF draws."""
        if self._cum_init is None:
            self._cum_init = np.cumsum(self.initial)
            self._cum_rows = np.cumsum(self.matrices, axis=2)
        return self._cum_init, self._cum_rows

    def write(self, path: str | Path) -> None:
        tokens = ",".join(STATE_TOKENS[a] for a in self.alphabet)
        lines = [f"{self.cluster_id},{self.day_type},{tokens}"]
        lines.append(",".join(f"{p:.12g}" for p in self.initial))
        for t in range(self.matrices.shape[0]):
            for i in range(self.n_states):
                lines.append(",".join(f"{p:.12g}" for p in self.matrices[t, i]))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path: str | Path) -> "TPMSet":
        path = Path(path)
        rows = [(n, ln.split(",")) for n, ln in enumerate(path.read_text().splitlines(), 1) if ln.strip()]
        if not rows:
            raise TrainError(f"{path}: empty model file")
        n, head = rows[0]
        try:
            cluster_id, day_type = int(head[0]), head[1]
            alphabet = tuple(STATE_BY_TOKEN[t] for t in head[2:])
        except (ValueError, IndexError):
            raise TrainError(f"{path}: line {n}: expected cluster_id,day_type,state tokens") from None
        except KeyError as exc:
            raise TrainError(f"{path}: line {n}: unknown state token {exc.args[0]!r}") from None
        if len(rows) < 2:
            raise TrainError(f"{path}: missing initial distribution row")
        S = len(alphabet)
        values = np.empty((len(rows) - 1, S))
        for r, (n, fields) in enumerate(rows[1:]):
            if len(fields) != S:
                raise TrainError(f"{path}: line {n}: expected {S} values, got {len(fields)}")
            try:
                values[r] = [float(x) for x in fields]
            except ValueError as exc:
                raise TrainError(f"{path}: line {n}: {exc}") from None
        if (len(values) - 1) % S != 0:
            raise TrainError(f"{path}: matrix block size not a multiple of {S}")
        try:
            return cls(cluster_id, day_type, alphabet, values[0], values[1:].reshape(-1, S, S))
        except TrainError as exc:
            raise TrainError(f"{path}: {exc}") from None


@dataclass
class ActivityStats:
    """Per-activity event statistics reduced from a sequence corpus.

    Durations are minutes (runs of 15-minute steps, truncated runs counted
    as observed), onsets are run-start steps, occurrences are runs per day
    including zero-run days, and the daily profile is the weighted
    probability of the activity being on at each step.  Model files hold no
    profile, so a loaded record has None there.
    """

    activity: ActivityState
    duration_dist: EmpiricalDistribution | None
    onset_dist: EmpiricalDistribution | None
    occurrences_dist: EmpiricalDistribution
    daily_profile: np.ndarray | None = None  # (96,)
    n_days: int = 0
    n_events: int = 0


@dataclass
class ClusterDayModel:
    """Everything trained for one (cluster, day type) pair."""

    cluster_id: int
    day_type: str
    tpms: TPMSet
    presence_tpms: TPMSet
    stats: dict[ActivityState, ActivityStats]


def _state_lut(alphabet: tuple[ActivityState, ...]) -> np.ndarray:
    lut = np.full(len(FULL_ALPHABET), -1, dtype=np.int64)
    for idx, a in enumerate(alphabet):
        lut[int(a)] = idx
    return lut


def _columns(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """The states and weight columns of a one-day-type SEQUENCE table, and its day type."""
    if not len(table):
        raise TrainError("no sequences to train on")
    day_type = str(table["day_type"][0])
    if np.any(table["day_type"] != day_type):
        raise TrainError("sequences mix day types")
    w = table["weight"]
    if w.sum() <= 0:
        raise TrainError("total weight must be positive")
    return table["states"], w, day_type


def estimate_tpm(
    table: np.ndarray,
    alphabet: tuple[ActivityState, ...] = FULL_ALPHABET,
    cluster_id: int = 0,
    *,
    fallback: str,
    alpha: float,
) -> TPMSet:
    """Weighted maximum-likelihood estimate of the per-step matrices.

    Rows with zero visit weight take the configured fallback row.  With the
    default absorbing fallback, forward-propagating the initial distribution
    reproduces the weighted empirical per-step state frequencies exactly.
    """
    if fallback not in FALLBACKS:
        raise TrainError(f"fallback must be one of {FALLBACKS}")
    if not 0 <= alpha < np.inf:
        raise TrainError(f"alpha must be finite and nonnegative, got {alpha}")
    X, w, day_type = _columns(table)
    lut = _state_lut(alphabet)
    idx = lut[X]
    if np.any(idx < 0):
        bad = ActivityState(int(X[idx < 0][0]))
        raise TrainError(f"state {bad.name} not in alphabet")
    S = len(alphabet)
    T = X.shape[1] - 1
    initial = np.bincount(idx[:, 0], weights=w, minlength=S).astype(np.float64)
    initial /= initial.sum()
    counts = np.empty((T, S, S))
    for t in range(T):
        flat = idx[:, t] * S + idx[:, t + 1]
        counts[t] = np.bincount(flat, weights=w, minlength=S * S).reshape(S, S)
    if fallback == "laplace":
        counts = counts + alpha
    totals = counts.sum(axis=2)
    matrices = np.zeros_like(counts)
    visited = totals > 0
    matrices[visited] = counts[visited] / totals[visited][:, None]
    if np.any(~visited):
        if fallback == "uniform":
            matrices[~visited] = 1.0 / S
        else:
            # absorbing, or laplace with alpha = 0
            eye = np.eye(S)
            t_i, s_i = np.nonzero(~visited)
            matrices[t_i, s_i] = eye[s_i]
    matrices /= matrices.sum(axis=2, keepdims=True)
    return TPMSet(cluster_id, day_type, tuple(alphabet), initial, matrices)


def forward_marginals(tpms: TPMSet) -> np.ndarray:
    """Per-step state distribution obtained by propagating the chain."""
    out = np.empty((tpms.n_steps, tpms.n_states))
    out[0] = tpms.initial
    for t in range(tpms.matrices.shape[0]):
        out[t + 1] = out[t] @ tpms.matrices[t]
    return out


def runs(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximal True runs per row of a boolean matrix, in row-major order.

    Returns (row index, start column, length) per run plus runs-per-row.
    """
    n = B.shape[0]
    pad = np.zeros((n, 1), dtype=bool)
    edges = np.diff(np.hstack([pad, B, pad]).astype(np.int8), axis=1)
    rows_s, cols_s = np.nonzero(edges == 1)
    rows_e, cols_e = np.nonzero(edges == -1)
    lengths = cols_e - cols_s  # starts and ends pair up in row-major order
    per_row = np.bincount(rows_s, minlength=n)
    return rows_s, cols_s, lengths, per_row


def estimate_statistics(table: np.ndarray, activity: ActivityState) -> ActivityStats:
    """Reduce a SEQUENCE table to duration/onset/occurrence distributions and a daily profile."""
    X, w, _ = _columns(table)
    B = X == int(activity)
    rows, onsets, lengths, per_row = runs(B)
    total_w = w.sum()
    profile = (w[:, None] * B).sum(axis=0) / total_w
    occurrences = EmpiricalDistribution.from_weights(per_row.astype(float), w, unit="count")
    if rows.size:
        duration = EmpiricalDistribution.from_weights(lengths * 15.0, w[rows], unit="minutes")
        onset = EmpiricalDistribution.from_weights(onsets.astype(float), w[rows], unit="steps")
    else:
        duration = None
        onset = None
    return ActivityStats(
        activity, duration, onset, occurrences, profile, n_days=X.shape[0], n_events=int(rows.size)
    )


def estimate_all_statistics(
    table: np.ndarray, activities: tuple[ActivityState, ...] = FULL_ALPHABET
) -> dict[ActivityState, ActivityStats]:
    return {a: estimate_statistics(table, a) for a in activities}


def train_cluster_day_model(
    table: np.ndarray,
    cluster_id: int,
    day_type: str,
    *,
    fallback: str,
    alpha: float,
) -> ClusterDayModel:
    """Fit the full-state chain, the presence chain, and the statistics of
    the event activities, which are all that simulation samples from."""
    tpms = estimate_tpm(table, FULL_ALPHABET, cluster_id, fallback=fallback, alpha=alpha)
    presence = table.copy()
    presence["states"] = project_to_presence(table["states"])
    presence_tpms = estimate_tpm(presence, PRESENCE_ALPHABET, cluster_id, fallback=fallback, alpha=alpha)
    stats = estimate_all_statistics(table, EVENT_ACTIVITIES)
    if day_type != tpms.day_type:
        raise TrainError(f"sequences are {tpms.day_type}, expected {day_type}")
    return ClusterDayModel(cluster_id, day_type, tpms, presence_tpms, stats)


# -- model directory layout --------------------------------------------------
# Per (cluster, day type) stem `c<id>.<wd|we>`: `<stem>.tpm`, `<stem>.presence.tpm`
# and, per event activity, `<stem>.<act>.count.dist` plus `.onset.dist` and
# `.duration.dist` when the count has mass above zero.  Other files are ignored.

_ACT_FILE = {a: STATE_TOKENS[a].lower() for a in EVENT_ACTIVITIES}
_TPM_NAME = re.compile(r"c(\d+)\.(wd|we)\.tpm")


def save_model_dir(directory: str | Path, models) -> None:
    """Write a model tree; accepts a flat iterable or a day-type keyed dict."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(models, dict):
        models = [m for by_cluster in models.values() for m in by_cluster.values()]
    for m in models:
        stem = f"c{m.cluster_id}.{m.day_type.lower()}"
        m.tpms.write(directory / f"{stem}.tpm")
        m.presence_tpms.write(directory / f"{stem}.presence.tpm")
        for activity, act in _ACT_FILE.items():
            st = m.stats[activity]
            st.occurrences_dist.write(directory / f"{stem}.{act}.count.dist")
            if st.duration_dist is not None:
                st.duration_dist.write(directory / f"{stem}.{act}.duration.dist")
            if st.onset_dist is not None:
                st.onset_dist.write(directory / f"{stem}.{act}.onset.dist")


def _read_model_file(path: Path, required: bool = True):
    """A `.tpm` or `.dist` model file, or None for an absent file that is not
    `required`; a missing required file or a bad one is a TrainError naming it."""
    if not path.exists():
        if required:
            raise TrainError(f"missing expected file: {path}")
        return None
    try:
        return (TPMSet.read if path.suffix == ".tpm" else EmpiricalDistribution.read)(path)
    except ValueError as exc:
        message = str(exc)
        raise TrainError(message if message.startswith(str(path)) else f"{path}: {message}") from None


def _read_day_tpm(path: Path, alphabet: tuple[ActivityState, ...]) -> TPMSet:
    """A model tree's `.tpm` file, which must hold a whole day over `alphabet` in order."""
    tpms = _read_model_file(path)
    if tpms.alphabet != alphabet:
        got, want = (",".join(STATE_TOKENS[a] for a in states) for states in (tpms.alphabet, alphabet))
        raise TrainError(f"{path}: states {got}, expected {want}")
    if tpms.n_steps != N_STEPS:
        raise TrainError(f"{path}: {tpms.n_steps - 1} matrices, expected {N_STEPS - 1}")
    return tpms


def load_model_dir(directory: str | Path) -> dict[str, dict[int, ClusterDayModel]]:
    """Load the trained model tree keyed by day type then cluster id."""
    directory = Path(directory)
    if not directory.is_dir():
        raise TrainError(f"model directory not found: {directory}")
    models: dict[str, dict[int, ClusterDayModel]] = {}
    tpm_files = sorted(p for p in directory.glob("c*.tpm") if not p.name.endswith(".presence.tpm"))
    if not tpm_files:
        raise TrainError(f"no TPM files in {directory}")
    for tpm_path in tpm_files:
        match = _TPM_NAME.fullmatch(tpm_path.name)
        if match is None:
            raise TrainError(f"{tpm_path}: model file name does not match c<int>.<wd|we>.tpm")
        stem = tpm_path.name[: -len(".tpm")]
        cluster_id, day_type = int(match[1]), match[2].upper()
        tpms = _read_day_tpm(tpm_path, FULL_ALPHABET)
        presence_tpms = _read_day_tpm(directory / f"{stem}.presence.tpm", PRESENCE_ALPHABET)
        stats: dict[ActivityState, ActivityStats] = {}
        for activity, act in _ACT_FILE.items():
            count = _read_model_file(directory / f"{stem}.{act}.count.dist")
            has_events = bool(np.any(count.probs[count.support > 0] > 0))
            duration, onset = (
                _read_model_file(directory / f"{stem}.{act}.{kind}.dist", has_events)
                for kind in ("duration", "onset")
            )
            stats[activity] = ActivityStats(activity, duration, onset, count)
        models.setdefault(day_type, {})[cluster_id] = ClusterDayModel(
            cluster_id, day_type, tpms, presence_tpms, stats
        )
    return models
