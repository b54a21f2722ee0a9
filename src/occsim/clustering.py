"""k-modes clustering of presence sequences.

Diaries are clustered on their 3-state presence projection with the
matching dissimilarity (count of differing steps).  k-modes starts from
density-based modes, so a fit is deterministic; model selection fits each
k of a range once and picks the largest k whose silhouette is within
epsilon of the best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conf import OccsimError, number_text, reading, write_lines
from .diary_ingest import (
    DAY_TYPES,
    N_STEPS,
    PRESENCE_ALPHABET,
    STATE_BY_TOKEN,
    STATE_TOKENS,
    ActivityState,
    project_to_presence,
)
from .markov_train import state_counts

# The most assignment rounds of one k-modes fit.
MAX_ITER = 50


@dataclass
class ClusterModel:
    """Fitted k-modes model over presence sequences."""

    k: int
    modes: np.ndarray  # (k, 96) int8 presence states
    shares: np.ndarray  # (k,) weighted population shares
    day_type: str

    def __post_init__(self) -> None:
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise OccsimError(f"k must be a positive integer, got {self.k!r}")
        if self.day_type not in DAY_TYPES:
            raise OccsimError(f"day_type must be one of {DAY_TYPES}, got {self.day_type!r}")
        self.modes = np.asarray(self.modes, dtype=np.int8)
        self.shares = np.asarray(self.shares, dtype=np.float64)
        if not np.all(np.isfinite(self.shares) & (self.shares >= 0)):
            raise OccsimError(f"shares must be finite and nonnegative, got {self.shares.tolist()}")
        if self.modes.shape != (self.k, N_STEPS):
            raise OccsimError(f"modes must be ({self.k}, {N_STEPS}), got {self.modes.shape}")
        outside = ~np.isin(self.modes, PRESENCE_ALPHABET)
        if outside.any():
            bad = STATE_TOKENS[ActivityState(int(self.modes[outside][0]))]
            raise OccsimError(f"modes hold {bad}; a mode state is one of Sleep, Away, HomeActive")
        if self.shares.shape != (self.k,):
            raise OccsimError("shares must have one entry per cluster")
        if abs(float(self.shares.sum()) - 1.0) > 1e-9:
            raise OccsimError(f"shares sum to {self.shares.sum()}, not 1")

    def write(self, path: str | Path) -> None:
        lines = [
            f"k,{self.k}",
            f"day_type,{self.day_type}",
            "shares," + ",".join(number_text(self.shares)),
        ]
        for mode in self.modes:
            tokens = ",".join(STATE_TOKENS[ActivityState(int(s))] for s in mode)
            lines.append(f"mode,{tokens}")
        write_lines(path, lines)

    @classmethod
    def read(cls, path: str | Path) -> "ClusterModel":
        k = None
        day_type = None
        shares = None
        modes = []
        keys = set()
        with reading(path) as lines:
            for line in lines:
                key, _, rest = line.partition(",")
                if key in keys and key != "mode":
                    raise ValueError(f"repeated {key} line")
                keys.add(key)
                if key == "k":
                    k = _read_k(rest)
                elif key == "day_type":
                    if rest not in DAY_TYPES:
                        raise ValueError(f"day_type must be one of {DAY_TYPES}, got {rest!r}")
                    day_type = rest
                elif key == "shares":
                    shares = _read_shares(rest)
                elif key == "mode":
                    modes.append(_read_mode(rest))
                else:
                    raise ValueError(f"unknown line key {key!r}")
            if k is None or day_type is None or shares is None or len(modes) != k:
                raise ValueError("incomplete cluster model")
            return cls(k, np.array(modes, dtype=np.int8), shares, day_type)


def _read_k(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        raise ValueError(f"k must be an integer, got {text!r}") from None
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k


def _read_shares(text: str) -> np.ndarray:
    try:
        shares = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ValueError(f"shares must be numbers, got {text!r}") from None
    if not np.all(np.isfinite(shares) & (shares >= 0)):
        raise ValueError(f"shares must be finite and nonnegative, got {text!r}")
    return shares


def _read_mode(text: str) -> list[int]:
    tokens = text.split(",")
    if len(tokens) != N_STEPS:
        raise ValueError(f"mode has {len(tokens)} states, expected {N_STEPS}")
    try:
        return [int(STATE_BY_TOKEN[t]) for t in tokens]
    except KeyError as exc:
        raise ValueError(f"unknown state token {exc.args[0]!r}") from None


def _distances_to_modes(X: np.ndarray, modes: np.ndarray) -> np.ndarray:
    D = np.empty((X.shape[0], modes.shape[0]), dtype=np.int32)
    for j in range(modes.shape[0]):
        D[:, j] = np.count_nonzero(X != modes[j], axis=1)
    return D


def _distinct_rows(X: np.ndarray) -> np.ndarray:
    """`np.unique(X, axis=0)` of an int8 matrix as one sort of its rows' bytes.
    Offset by the int8 minimum, every value is a byte whose unsigned order
    is the numeric one, so the rows come in the same order."""
    keys = np.ascontiguousarray(X.astype(np.int16) + 128, dtype=np.uint8)
    _, first = np.unique(keys.view(np.dtype((np.void, X.shape[1]))).ravel(), return_index=True)
    return X[first]


def pairwise_distances(X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(n, k) total matching distance from each row of X to the rows of each
    cluster, the row itself included; k is one more than the largest label.

    With C[c, t, s] the count of cluster c's rows in state s at step t
    (`state_counts` with unit weights), row i's distance to cluster c at step
    t is the count of c's rows not in state X[i, t], Σ_s C[c, t, s] −
    C[c, t, X[i, t]].  Every term is an integer, so the float64 sums are
    exact in any order.  They are added one step at a time into one (n, k)
    array, so no (n, n) or (k, n, steps) temporary is built.  Any integer
    states are accepted, offset by the smallest.

    The name stays while `bench/tracer.py` wraps it (ROADMAP item 1).
    """
    X = np.asarray(X)
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    lo = int(X.min())
    states = np.subtract(X, lo, dtype=np.result_type(X.dtype, np.int16))
    counts = state_counts(states, np.ones(X.shape[0]), labels, k, int(states.max()) + 1)
    others = counts.sum(axis=2, keepdims=True) - counts
    by_step = np.ascontiguousarray(others.transpose(1, 2, 0))  # (steps, n_states, k)
    sums = np.zeros((X.shape[0], k))
    for t in range(X.shape[1]):
        sums += by_step[t][states[:, t]]
    return sums


def _weighted_modes(X: np.ndarray, w: np.ndarray, labels: np.ndarray, k: int, n_states: int) -> np.ndarray:
    """Per-dimension weighted most-frequent state for each cluster.

    Ties break toward the smallest state value so refits are deterministic.
    """
    return state_counts(X, w, labels, k, n_states).argmax(axis=2).astype(np.int8)  # first maximum


def _initial_modes(X: np.ndarray, w: np.ndarray, distinct: np.ndarray, k: int, n_states: int) -> np.ndarray:
    """k of the distinct rows as starting modes, by the density-based
    initialization of Cao, Liang & Bai (2009).

    A row's density is the mean, over steps, of the weighted count of its
    own state at that step.  The first mode is the densest row; each next
    one is the row not chosen yet with the largest density times distance
    to its nearest chosen mode.  Ties go to the first row.
    """
    counts = state_counts(X, w, np.zeros(X.shape[0], dtype=np.intp), 1, n_states)[0]
    density = counts[np.arange(X.shape[1]), distinct].mean(axis=1)
    chosen = [int(density.argmax())]  # first maximum
    while len(chosen) < k:
        score = density * _distances_to_modes(distinct, distinct[chosen]).min(axis=1)
        score[chosen] = -1.0  # rows of zero density score 0 too, but are never chosen twice
        chosen.append(int(score.argmax()))
    return distinct[chosen]


def kmodes(X: np.ndarray, weights: np.ndarray, k: int, day_type: str) -> tuple[ClusterModel, np.ndarray]:
    """Weighted k-modes under matching dissimilarity.

    1. initialize modes as k distinct sequences by density (`_initial_modes`),
    2. assign each sequence to its nearest mode (ties to the lowest index),
    3. recompute each mode per dimension as the weighted most-frequent state,
       reseeding any emptied cluster from the point farthest from its own
       mode,
    4. repeat until assignments stop changing or `MAX_ITER` times.

    Returns the fitted model plus per-sequence labels; the same data give
    the same fit.  The weighted within-cluster distance never increases
    from one iteration to the next.
    """
    X, w = _coerce_data(X, weights)
    if k < 1:
        raise OccsimError("k must be >= 1")
    distinct = _distinct_rows(X)
    if k > distinct.shape[0]:
        raise OccsimError(f"k={k} exceeds the {distinct.shape[0]} distinct sequences")
    n_states = int(X.max()) + 1

    modes = _initial_modes(X, w, distinct, k, n_states)
    prev_obj = np.inf
    for _ in range(MAX_ITER):
        labels, own = _assign_with_repair(X, modes)
        obj = float((w * own).sum())
        if obj > prev_obj + 1e-9:
            raise AssertionError("within-cluster distance increased")
        prev_obj = obj
        new_modes = _weighted_modes(X, w, labels, k, n_states)
        if np.array_equal(new_modes, modes):
            break
        modes = new_modes
    labels, _ = _assign_with_repair(X, modes)
    shares = np.bincount(labels, weights=w, minlength=k)
    total = shares.sum()
    if total <= 0:
        raise OccsimError("total weight must be positive")
    shares = shares / total
    return ClusterModel(k, modes, shares, day_type), labels


def _assign_with_repair(X: np.ndarray, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-mode labels and each row's distance to its labelled mode;
    empty clusters are reseeded in place from the point farthest from its
    currently assigned mode."""
    rows = np.arange(X.shape[0])
    D = _distances_to_modes(X, modes)
    labels = D.argmin(axis=1)
    for c in range(modes.shape[0]):
        if not np.any(labels == c):
            far = int(D[rows, labels].argmax())
            modes[c] = X[far]
            labels[far] = c
            D[:, c] = np.count_nonzero(X != modes[c], axis=1)
    return labels, D[rows, labels]


def _coerce_data(X, weights):
    X = np.asarray(X, dtype=np.int8)
    if X.ndim != 2:
        raise OccsimError("data must be an (n, steps) matrix")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (X.shape[0],):
        raise OccsimError("weights must align with data rows")
    if np.any(w < 0):
        raise OccsimError("weights must be nonnegative")
    return X, w


def silhouette(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette of the labelled rows of X under matching dissimilarity.

    Per point: a = mean distance to its own cluster's other members, b =
    smallest mean distance to another cluster, score = (b - a) / max(a, b).
    Singleton clusters score zero, as does any point with max(a, b) = 0.
    The distance sums come from `pairwise_distances`.
    """
    X = np.asarray(X)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if X.ndim != 2 or X.shape[0] != n:
        raise OccsimError(f"states must be one row per label, got {X.shape} for {n} labels")
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise OccsimError("every cluster must be non-empty")
    if k < 2:
        raise OccsimError("silhouette needs at least two clusters")
    sums = pairwise_distances(X, labels)
    own = counts[labels]
    scores = np.zeros(n)
    valid = own > 1
    a = np.zeros(n)
    a[valid] = sums[np.arange(n), labels][valid] / (own[valid] - 1)
    other = sums / counts[None, :]
    other[np.arange(n), labels] = np.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    ok = valid & (denom > 0)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(scores.mean())


@dataclass
class SelectKResult:
    k_star: int
    table: dict[int, float]  # k -> silhouette
    model: ClusterModel
    labels: np.ndarray = field(repr=False)


def select_k(X: np.ndarray, weights: np.ndarray, *, k_range: range, epsilon: float, day_type: str) -> SelectKResult:
    """Fit k-modes once for each k of a k range (every k >= 2) and pick k by
    the silhouette over every row.

    The chosen k is the largest whose silhouette is within `epsilon` of the
    best; the returned model is that k's fit.
    """
    if not k_range or min(k_range) < 2:
        raise OccsimError(f"k range must be nonempty with every k >= 2, got {k_range}")
    if not 0 <= epsilon < np.inf:
        raise OccsimError(f"epsilon must be finite and nonnegative, got {epsilon}")
    X, w = _coerce_data(X, weights)
    table: dict[int, float] = {}
    fits: dict[int, tuple[ClusterModel, np.ndarray]] = {}
    for k in k_range:
        fits[k] = kmodes(X, w, k, day_type)
        table[k] = silhouette(X, fits[k][1])
    best = max(table.values())
    k_star = max(k for k, score in table.items() if score >= best - epsilon)
    return SelectKResult(k_star, table, *fits[k_star])


def assign_cluster(states: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Nearest-mode label of each row of an (n, 96) state matrix, by matching
    dissimilarity on the presence projection."""
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != N_STEPS:
        raise OccsimError(f"states must be (n, {N_STEPS}), got {states.shape}")
    return _distances_to_modes(project_to_presence(states), model.modes).argmin(axis=1)
