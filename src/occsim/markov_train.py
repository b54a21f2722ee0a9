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
from itertools import islice
from pathlib import Path

import numpy as np

from .conf import Lines, OccsimError, number_rows, number_text, reading, write_lines
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
from .distributions import EmpiricalDistribution, draw_thresholds

ROW_TOL = 1e-9
FALLBACKS = ("absorbing", "uniform", "laplace")


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
    _thresholds: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.alphabet = tuple(ActivityState(a) for a in self.alphabet)
        S = len(self.alphabet)
        self.initial = np.asarray(self.initial, dtype=np.float64)
        self.matrices = np.asarray(self.matrices, dtype=np.float64)
        if self.initial.shape != (S,):
            raise OccsimError("initial distribution does not match alphabet")
        if self.matrices.ndim != 3 or self.matrices.shape[1:] != (S, S) or self.matrices.shape[0] < 1:
            raise OccsimError(f"matrices must be (T, {S}, {S})")
        if not (np.isfinite(self.initial).all() and np.isfinite(self.matrices).all()):
            raise OccsimError("non-finite probabilities")
        if np.any(self.initial < 0) or np.any(self.matrices < 0):
            raise OccsimError("negative probabilities")
        if abs(self.initial.sum() - 1.0) > ROW_TOL:
            raise OccsimError("initial distribution does not sum to 1")
        rows = self.matrices.sum(axis=2)
        if np.max(np.abs(rows - 1.0)) > ROW_TOL:
            t, i = np.unravel_index(np.argmax(np.abs(rows - 1.0)), rows.shape)
            raise OccsimError(f"row (step {t}, state {self.alphabet[i].name}) sums to {rows[t, i]}")

    @property
    def n_steps(self) -> int:
        return self.matrices.shape[0] + 1

    @property
    def n_states(self) -> int:
        return len(self.alphabet)

    def thresholds(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached `draw_thresholds` of the initial distribution and of every
        matrix row: a draw of r counts those <= r."""
        if self._thresholds is None:
            self._thresholds = draw_thresholds(self.initial), draw_thresholds(self.matrices)
        return self._thresholds

    def section(self) -> tuple[str, np.ndarray]:
        """The `cluster_id,day_type,state tokens` head line and the rows, the
        initial distribution's then each matrix's, of a model file's chain."""
        head = ",".join([str(self.cluster_id), self.day_type, *(STATE_TOKENS[a] for a in self.alphabet)])
        return head, np.vstack([self.initial, self.matrices.reshape(-1, self.n_states)])

    @classmethod
    def parse(cls, lines: Lines, numbered: list[tuple[int, str]]) -> "TPMSet":
        """The chain `section` of `numbered`, lines of `lines`, its rows read
        by `number_rows`, which names a bad one."""
        if not numbered:
            raise ValueError("expected cluster_id,day_type,state tokens")
        lines.at, head = numbered[0]
        try:
            cluster_id, day_type, *tokens = head.split(",")
            cluster_id, alphabet = int(cluster_id), tuple(STATE_BY_TOKEN[t] for t in tokens)
        except ValueError:
            raise ValueError("expected cluster_id,day_type,state tokens") from None
        except KeyError as exc:
            raise ValueError(f"unknown state token {exc.args[0]!r}") from None
        S = len(alphabet)
        values = number_rows(lines, numbered[1:], S)
        if not len(values):
            raise ValueError("missing initial distribution row")
        if (len(values) - 1) % S != 0:
            raise ValueError(f"matrix block size not a multiple of {S}")
        return cls(cluster_id, day_type, alphabet, values[0], values[1:].reshape(-1, S, S))


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
    lut = np.full(len(FULL_ALPHABET), -1, dtype=np.int8)
    lut[list(map(int, alphabet))] = np.arange(len(alphabet))
    return lut


def _columns(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """The states and weight columns of a one-day-type SEQUENCE table, and its day type."""
    if not len(table):
        raise OccsimError("no sequences to train on")
    day_type = str(table["day_type"][0])
    if np.any(table["day_type"] != day_type):
        raise OccsimError("sequences mix day types")
    w = np.ascontiguousarray(table["weight"])  # each per-step bincount would copy a strided column
    if w.sum() <= 0:
        raise OccsimError("total weight must be positive")
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
        raise OccsimError(f"fallback must be one of {FALLBACKS}")
    if not 0 <= alpha < np.inf:
        raise OccsimError(f"alpha must be finite and nonnegative, got {alpha}")
    X, w, day_type = _columns(table)
    idx = _state_lut(alphabet)[X]
    if np.any(idx < 0):
        bad = ActivityState(int(X[idx < 0][0]))
        raise OccsimError(f"state {bad.name} not in alphabet")
    S = len(alphabet)
    labels = np.zeros(X.shape[0], dtype=np.intp)  # one cluster
    initial = state_counts(idx[:, :1], w, labels, 1, S)[0, 0]
    initial /= initial.sum()
    pairs = idx[:, :-1] * np.int16(S)  # (state at t, state at t+1) as one code below S * S
    pairs += idx[:, 1:]
    counts = state_counts(pairs, w, labels, 1, S * S)[0].reshape(-1, S, S)
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


# Cells `runs` scans at a time, so its temporaries are a few MiB whatever the table.
RUN_BLOCK_CELLS = 1 << 20


def runs(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of equal values per row of a 2-d array, in row-major order.

    Returns the row index, start column and length (int32) and the value of
    each run.  Rows are scanned in blocks of at most RUN_BLOCK_CELLS cells,
    at least one row.
    """
    n, m = X.shape
    step = max(1, RUN_BLOCK_CELLS // max(m, 1))
    parts = []
    for lo in range(0, max(n, 1), step):  # an empty table is one empty block
        block = X[lo : lo + step]
        starts = np.ones(block.shape, dtype=bool)
        starts[:, 1:] = block[:, 1:] != block[:, :-1]
        flat = np.flatnonzero(starts).astype(np.int32)
        rows, cols = np.divmod(flat, np.int32(m))
        # every row's first column starts a run, so a row's last run ends where the next row begins
        parts.append((rows + np.int32(lo), cols, np.diff(flat, append=np.int32(block.size)), block[rows, cols]))
    return tuple(np.concatenate(columns) for columns in zip(*parts))


# Cells (rows x steps) `state_counts` adds in one bincount, so its temporaries stay small.
COUNT_BLOCK_CELLS = 1 << 16


def state_counts(X: np.ndarray, w: np.ndarray, labels: np.ndarray, k: int, n_states: int) -> np.ndarray:
    """(k, steps, n_states) weighted count of each state (or, for
    `estimate_tpm`, each transition code) at each step within each cluster.
    One bincount per block of steps adds the weights of each cell in row
    order from 0.0, as a per-cell running sum would."""
    n, steps = X.shape
    counts = np.empty((k, steps, n_states))
    size = max(1, COUNT_BLOCK_CELLS // max(n, 1))
    for lo in range(0, steps, size):
        block = X[:, lo : lo + size]
        m = block.shape[1]
        cells = (labels[:, None] * m + np.arange(m)) * n_states + block
        counts[:, lo : lo + m] = np.bincount(cells.ravel(), np.repeat(w, m), k * m * n_states).reshape(k, m, -1)
    return counts


def estimate_statistics(
    table: np.ndarray, activities: tuple[ActivityState, ...] = FULL_ALPHABET
) -> dict[ActivityState, ActivityStats]:
    """Reduce a SEQUENCE table to each activity's duration/onset/occurrence
    distributions and daily profile, from one `runs` scan of its states."""
    X, w, _ = _columns(table)
    all_rows, all_onsets, all_lengths, values = runs(X)
    profiles = state_counts(X, w, np.zeros(X.shape[0], np.intp), 1, len(FULL_ALPHABET))[0] / w.sum()
    stats = {}
    for activity in activities:
        mine = values == int(activity)
        rows, onsets, lengths = all_rows[mine], all_onsets[mine], all_lengths[mine]
        per_row = np.bincount(rows, minlength=X.shape[0])
        occurrences = EmpiricalDistribution.from_weights(per_row.astype(float), w, unit="count")
        if w[rows].sum() > 0:  # else no weighted event to draw a duration or onset from
            duration = EmpiricalDistribution.from_weights(lengths * 15.0, w[rows], unit="minutes")
            onset = EmpiricalDistribution.from_weights(onsets.astype(float), w[rows], unit="steps")
        else:
            duration = None
            onset = None
        stats[activity] = ActivityStats(
            activity, duration, onset, occurrences, profiles[:, activity], n_days=X.shape[0], n_events=int(rows.size)
        )
    return stats


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
    stats = estimate_statistics(table, EVENT_ACTIVITIES)
    if day_type != tpms.day_type:
        raise OccsimError(f"sequences are {tpms.day_type}, expected {day_type}")
    return ClusterDayModel(cluster_id, day_type, tpms, presence_tpms, stats)


# -- model directory layout --------------------------------------------------
# One file per (cluster, day type), `c<id>.<wd|we>.tpm`: sections in
# _SECTIONS order, each under its `[name]` line.  `[tpm]` and
# `[presence]` each hold a `TPMSet.section`; each event activity's
# `[<act>.count]`, and its `[<act>.duration]` and `[<act>.onset]` when the
# count has mass above zero, an `EmpiricalDistribution.section`.  Other
# files are ignored.

_ACT_NAME = {a: STATE_TOKENS[a].lower() for a in EVENT_ACTIVITIES}
_CHAINS = {"[tpm]": FULL_ALPHABET, "[presence]": PRESENCE_ALPHABET}
_DISTS = [f"[{act}.{kind}]" for act in _ACT_NAME.values() for kind in ("count", "duration", "onset")]
_SECTIONS = {name: i for i, name in enumerate([*_CHAINS, *_DISTS])}
_TPM_NAME = re.compile(r"c(\d+)\.(wd|we)\.tpm")
# The names `save_model_dir` owns: its own and those of the layout before it,
# which held each chain and distribution in a file of its own.
_ACTS = "|".join(map(str.lower, STATE_TOKENS.values()))
_MODEL_NAME = re.compile(rf"c\d+\.(wd|we)\.((presence\.)?tpm|({_ACTS})\.(count|duration|onset)\.dist)")


def save_model_dir(directory: str | Path, models: dict[str, dict[int, ClusterDayModel]]) -> None:
    """Write a model tree from models keyed by day type, then cluster id, and
    delete any other file of `directory` with a model file's name."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = set()
    for m in (model for by_cluster in models.values() for model in by_cluster.values()):
        parts = [m.tpms, m.presence_tpms]
        for st in map(m.stats.get, _ACT_NAME):
            parts += [st.occurrences_dist, st.duration_dist, st.onset_dist]
        sections = [(name, *part.section()) for name, part in zip(_SECTIONS, parts) if part is not None]
        texts = iter(number_text(np.concatenate([rows.ravel() for *_, rows in sections])))
        lines = []
        for name, head, rows in sections:
            lines += [name, head, *map(",".join, zip(*[islice(texts, rows.size)] * rows.shape[1]))]
        path = directory / f"c{m.cluster_id}.{m.day_type.lower()}.tpm"
        write_lines(path, lines)
        written.add(path.name)
    for path in directory.iterdir():
        if _MODEL_NAME.fullmatch(path.name) and path.name not in written:
            path.unlink()


def read_model_file(path: Path) -> ClusterDayModel:
    """A model file; an OccsimError names a bad one and the line at fault: a
    row, a chain's head line or a distribution's header for a fault of the
    whole, or the header after a missing section."""
    match = _TPM_NAME.fullmatch(path.name)
    if match is None:
        raise OccsimError(f"{path}: model file name does not match c<int>.<wd|we>.tpm")
    header = int(match[1]), match[2].upper()
    parts: dict = {}
    with reading(path) as lines:
        numbered = lines.numbered
        starts = [i for i, (_, line) in enumerate(numbered) if line[0] == "["]
        if numbered and starts[:1] != [0]:
            lines.at = numbered[0][0]
            raise ValueError("expected a [section] header line")
        for i, end in zip(starts, [*starts[1:], len(numbered)]):
            lines.at, name = numbered[i]
            if name not in _SECTIONS:
                raise ValueError(f"unknown section {name}")
            if parts and _SECTIONS[name] <= _SECTIONS[next(reversed(parts))]:
                raise ValueError(f"section {name} repeated or out of order")
            body = numbered[i + 1 : end]
            if name not in _CHAINS:
                parts[name] = EmpiricalDistribution.parse(lines, body, name[1:-1].rpartition(".")[2])
                continue
            parts[name] = tpms = TPMSet.parse(lines, body)
            if (tpms.cluster_id, tpms.day_type) != header:
                raise ValueError(f"header {tpms.cluster_id},{tpms.day_type} does not match the file name")
            if tpms.alphabet != _CHAINS[name]:
                got, want = (",".join(STATE_TOKENS[a] for a in states) for states in (tpms.alphabet, _CHAINS[name]))
                raise ValueError(f"states {got}, expected {want}")
            if tpms.n_steps != N_STEPS:
                raise ValueError(f"{tpms.n_steps - 1} matrices, expected {N_STEPS - 1}")
        for name in _SECTIONS:  # required: a chain, a count, and the rest of a count with events
            count = parts.get(name.rpartition(".")[0] + ".count]")
            if name not in parts and (count is None or np.any(count.probs[count.support > 0] > 0)):
                later = [numbered[i][0] for i in starts if _SECTIONS[numbered[i][1]] > _SECTIONS[name]]
                lines.at = later[0] if later else None  # the header where it belongs
                raise ValueError(f"missing section {name}")
    stats = {
        a: ActivityStats(a, parts.get(f"[{act}.duration]"), parts.get(f"[{act}.onset]"), parts[f"[{act}.count]"])
        for a, act in _ACT_NAME.items()
    }
    return ClusterDayModel(*header, parts["[tpm]"], parts["[presence]"], stats)


def load_model_dir(directory: str | Path) -> dict[str, dict[int, ClusterDayModel]]:
    """Load the trained model tree keyed by day type then cluster id."""
    directory = Path(directory)
    if not directory.is_dir():
        raise OccsimError(f"model directory not found: {directory}")
    models: dict[str, dict[int, ClusterDayModel]] = {}
    paths = sorted(p for p in directory.glob("c*.tpm") if not p.name.endswith(".presence.tpm"))
    if not paths:
        raise OccsimError(f"no TPM files in {directory}")
    for model in map(read_model_file, paths):
        models.setdefault(model.day_type, {})[model.cluster_id] = model
    return models
