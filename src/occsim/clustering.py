"""k-modes clustering of presence sequences.

Diaries are clustered on their 3-state presence projection with the
matching dissimilarity (count of differing steps).  Model selection runs
k-modes repeatedly across a k range and picks the largest k whose mean
silhouette is within epsilon of the best mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import streams
from .diary_ingest import (
    N_STEPS,
    STATE_BY_TOKEN,
    STATE_TOKENS,
    ActivityState,
    StateSequence,
    project_to_presence,
)

# Population shares of the default four-cluster configuration shipped for
# household sampling.
DEFAULT_CLUSTER_SHARES = (0.36, 0.21, 0.21, 0.22)


class ClusterError(ValueError):
    """Invalid clustering input or model file."""


@dataclass
class ClusterModel:
    """Fitted k-modes model over presence sequences."""

    k: int
    modes: np.ndarray  # (k, 96) int8 presence states
    shares: np.ndarray  # (k,) weighted population shares
    day_type: str
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.modes = np.asarray(self.modes, dtype=np.int8)
        self.shares = np.asarray(self.shares, dtype=np.float64)
        if self.modes.shape != (self.k, N_STEPS):
            raise ClusterError(f"modes must be ({self.k}, {N_STEPS}), got {self.modes.shape}")
        if self.shares.shape != (self.k,):
            raise ClusterError("shares must have one entry per cluster")
        if abs(float(self.shares.sum()) - 1.0) > 1e-9:
            raise ClusterError(f"shares sum to {self.shares.sum()}, not 1")
        if self.names is not None and len(self.names) != self.k:
            raise ClusterError("names must have one entry per cluster")

    def write(self, path: str | Path) -> None:
        lines = [
            f"k,{self.k}",
            f"day_type,{self.day_type}",
            "shares," + ",".join(f"{s:.12g}" for s in self.shares),
        ]
        if self.names is not None:
            lines.append("names," + "|".join(self.names))
        for mode in self.modes:
            tokens = ",".join(STATE_TOKENS[ActivityState(int(s))] for s in mode)
            lines.append(f"mode,{tokens}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path: str | Path) -> "ClusterModel":
        path = Path(path)
        k = None
        day_type = None
        shares = None
        names = None
        modes = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(",")
            if key == "k":
                k = int(rest)
            elif key == "day_type":
                day_type = rest
            elif key == "shares":
                shares = np.array([float(x) for x in rest.split(",")])
            elif key == "names":
                names = tuple(rest.split("|"))
            elif key == "mode":
                tokens = rest.split(",")
                try:
                    modes.append([int(STATE_BY_TOKEN[t]) for t in tokens])
                except KeyError as exc:
                    raise ClusterError(f"{path}: unknown state token {exc.args[0]!r}")
            else:
                raise ClusterError(f"{path}: unknown line key {key!r}")
        if k is None or day_type is None or shares is None or len(modes) != k:
            raise ClusterError(f"{path}: incomplete cluster model")
        return cls(k, np.array(modes, dtype=np.int8), shares, day_type, names)


def sequence_distance(a, b) -> int:
    """Matching dissimilarity: number of steps whose states differ."""
    a = _as_states(a)
    b = _as_states(b)
    if a.shape != b.shape:
        raise ClusterError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def _as_states(x) -> np.ndarray:
    if isinstance(x, StateSequence):
        return x.states
    return np.asarray(x, dtype=np.int8)


def presence_matrix(sequences: list[StateSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Project sequences to presence states and stack with weights."""
    X = np.stack([project_to_presence(s).states for s in sequences])
    w = np.array([s.weight for s in sequences], dtype=np.float64)
    return X, w


def _distances_to_modes(X: np.ndarray, modes: np.ndarray) -> np.ndarray:
    D = np.empty((X.shape[0], modes.shape[0]), dtype=np.int32)
    for j in range(modes.shape[0]):
        D[:, j] = np.count_nonzero(X != modes[j], axis=1)
    return D


def pairwise_distances(X: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Full matching-dissimilarity matrix, computed in row chunks."""
    n = X.shape[0]
    D = np.empty((n, n), dtype=np.int32)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        D[lo:hi] = (X[lo:hi, None, :] != X[None, :, :]).sum(axis=2)
    return D


def _weighted_modes(X: np.ndarray, w: np.ndarray, labels: np.ndarray, k: int, n_states: int) -> np.ndarray:
    """Per-dimension weighted most-frequent state for each cluster.

    Ties break toward the smallest state value so refits are deterministic.
    """
    modes = np.zeros((k, X.shape[1]), dtype=np.int8)
    dims = np.tile(np.arange(X.shape[1]), (X.shape[0], 1))
    for c in range(k):
        member = labels == c
        counts = np.zeros((X.shape[1], n_states), dtype=np.float64)
        np.add.at(counts, (dims[member].ravel(), X[member].ravel()), np.repeat(w[member], X.shape[1]))
        modes[c] = counts.argmax(axis=1)  # argmax takes the first maximum
    return modes


def kmodes(
    data,
    weights: np.ndarray | None = None,
    k: int = 4,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    max_iter: int = 50,
    day_type: str = "WD",
    use_weights: bool = True,
) -> tuple[ClusterModel, np.ndarray]:
    """Weighted k-modes under matching dissimilarity.

    1. initialize modes as k distinct sequences drawn at random,
    2. assign each sequence to its nearest mode (ties to the lowest index),
    3. recompute each mode per dimension as the weighted most-frequent state,
       reseeding any emptied cluster from the point farthest from its own
       mode,
    4. repeat until assignments stop changing or `max_iter`.

    Returns the fitted model plus per-sequence labels.  The weighted
    within-cluster distance never increases from one iteration to the next.
    """
    X, w = _coerce_data(data, weights)
    if not use_weights:
        w = np.ones_like(w)
    n = X.shape[0]
    if k < 1:
        raise ClusterError("k must be >= 1")
    distinct = np.unique(X, axis=0)
    if k > distinct.shape[0]:
        raise ClusterError(f"k={k} exceeds the {distinct.shape[0]} distinct sequences")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_states = int(X.max()) + 1

    modes = distinct[rng.choice(distinct.shape[0], size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    prev_obj = np.inf
    for _ in range(max_iter):
        labels = _assign_with_repair(X, modes)
        obj = float(w @ np.count_nonzero(X != modes[labels], axis=1))
        if obj > prev_obj + 1e-9:
            raise AssertionError("within-cluster distance increased")
        prev_obj = obj
        new_modes = _weighted_modes(X, w, labels, k, n_states)
        if np.array_equal(new_modes, modes):
            break
        modes = new_modes
    labels = _assign_with_repair(X, modes)
    shares = np.bincount(labels, weights=w, minlength=k)
    total = shares.sum()
    if total <= 0:
        raise ClusterError("total weight must be positive")
    shares = shares / total
    return ClusterModel(k, modes, shares, day_type), labels


def _assign_with_repair(X: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Nearest-mode assignment; empty clusters are reseeded in place from the
    point farthest from its currently assigned mode."""
    n = X.shape[0]
    D = _distances_to_modes(X, modes)
    labels = D.argmin(axis=1)
    for c in range(modes.shape[0]):
        if not np.any(labels == c):
            own = D[np.arange(n), labels]
            far = int(own.argmax())
            modes[c] = X[far]
            labels[far] = c
            D[:, c] = np.count_nonzero(X != modes[c], axis=1)
    return labels


def _coerce_data(data, weights):
    if isinstance(data, np.ndarray):
        X = np.asarray(data, dtype=np.int8)
        w = np.ones(X.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    else:
        X, w_seq = presence_matrix(list(data))
        w = w_seq if weights is None else np.asarray(weights, dtype=np.float64)
    if X.ndim != 2:
        raise ClusterError("data must be an (n, steps) matrix or sequence list")
    if w.shape != (X.shape[0],):
        raise ClusterError("weights must align with data rows")
    if np.any(w < 0):
        raise ClusterError("weights must be nonnegative")
    return X, w


def silhouette(data, labels: np.ndarray) -> float:
    """Mean silhouette under matching dissimilarity.

    Per point: a = mean distance to its own cluster's other members,
    b = smallest mean distance to another cluster, score = (b - a) / max(a, b).
    Singleton clusters score zero, as does any point with max(a, b) = 0.
    """
    X, _ = _coerce_data(data, None)
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise ClusterError("every cluster must be non-empty")
    if k < 2:
        raise ClusterError("silhouette needs at least two clusters")
    return _silhouette_core(X, labels, counts)


def _silhouette_core(X: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> float:
    n = X.shape[0]
    k = counts.shape[0]
    D = pairwise_distances(X).astype(np.float64)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    sums = D @ onehot  # (n, k) total distance to each cluster
    own = counts[labels]
    scores = np.zeros(n)
    valid = own > 1
    a = np.zeros(n)
    a[valid] = sums[np.arange(n), labels][valid] / (own[valid] - 1)
    other = sums / np.maximum(counts, 1)[None, :]
    other[np.arange(n), labels] = np.inf
    other[:, counts == 0] = np.inf
    b = other.min(axis=1)
    denom = np.maximum(a, b)
    ok = valid & (denom > 0) & np.isfinite(b)
    scores[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(scores.mean())


def _silhouette_subset(X: np.ndarray, labels: np.ndarray) -> float:
    """Silhouette tolerant of clusters absent from a subsample."""
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.count_nonzero(counts) < 2:
        return 0.0
    return _silhouette_core(X, labels, counts)


@dataclass
class KScore:
    k: int
    scores: list[float]
    mean: float


@dataclass
class SelectKResult:
    k_star: int
    table: list[KScore]
    model: ClusterModel
    labels: np.ndarray = field(repr=False)


def select_k(
    data,
    weights: np.ndarray | None = None,
    k_range: range = range(3, 11),
    repeats: int = 10,
    base_seed: int = 0,
    epsilon: float = 0.01,
    day_type: str = "WD",
    silhouette_sample: int | None = None,
    use_weights: bool = True,
) -> SelectKResult:
    """Run repeated k-modes across a k range and pick k by mean silhouette.

    Each run's seed derives deterministically from (base_seed, k, repeat).
    The chosen k is the largest whose mean silhouette is within `epsilon`
    of the best mean; the returned model is that k's best-scoring run.
    For large corpora `silhouette_sample` scores a fixed random subsample.
    """
    X, w = _coerce_data(data, weights)
    n = X.shape[0]
    sil_idx = None
    if silhouette_sample is not None and n > silhouette_sample:
        pick_rng = streams.generator(int(base_seed), streams.CLUSTERING, 0)
        sil_idx = np.sort(pick_rng.choice(n, size=silhouette_sample, replace=False))
    table: list[KScore] = []
    best_by_k: dict[int, tuple[float, ClusterModel, np.ndarray]] = {}
    for k in k_range:
        scores = []
        for r in range(repeats):
            seq = streams.child(streams.root(int(base_seed)), streams.CLUSTERING, k, r)
            model, labels = kmodes(
                X, w, k=k, seed=np.random.default_rng(seq), day_type=day_type, use_weights=use_weights
            )
            if sil_idx is None:
                score = silhouette(X, labels)
            else:
                score = _silhouette_subset(X[sil_idx], labels[sil_idx])
            scores.append(score)
            if k not in best_by_k or score > best_by_k[k][0] + 0.0:
                best_by_k[k] = (score, model, labels)
        table.append(KScore(k, scores, float(np.mean(scores))))
    best_mean = max(row.mean for row in table)
    k_star = max(row.k for row in table if row.mean >= best_mean - epsilon)
    _, model, labels = best_by_k[k_star]
    return SelectKResult(k_star, table, model, labels)


def assign_cluster(seq, model: ClusterModel):
    """Nearest mode by matching dissimilarity on the presence projection.

    Accepts a single sequence (returns int) or a list/matrix of sequences
    (returns an int array of labels).
    """
    if isinstance(seq, (list, tuple)):
        X, _ = _coerce_data(seq, None)
        return _distances_to_modes(X, model.modes).argmin(axis=1)
    if isinstance(seq, np.ndarray) and seq.ndim == 2:
        X = np.minimum(np.asarray(seq, dtype=np.int8), np.int8(ActivityState.HOME_ACTIVE))
        return _distances_to_modes(X, model.modes).argmin(axis=1)
    if isinstance(seq, StateSequence):
        x = project_to_presence(seq).states
    else:
        x = np.minimum(np.asarray(seq, dtype=np.int8), np.int8(ActivityState.HOME_ACTIVE))
    if x.shape != (N_STEPS,):
        raise ClusterError(f"sequence must have {N_STEPS} steps")
    d = np.count_nonzero(model.modes != x[None, :], axis=1)
    return int(d.argmin())
