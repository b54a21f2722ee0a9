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
    DAY_TYPES,
    N_STEPS,
    PRESENCE_ALPHABET,
    STATE_BY_TOKEN,
    STATE_TOKENS,
    ActivityState,
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

    def __post_init__(self) -> None:
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ClusterError(f"k must be a positive integer, got {self.k!r}")
        if self.day_type not in DAY_TYPES:
            raise ClusterError(f"day_type must be one of {DAY_TYPES}, got {self.day_type!r}")
        self.modes = np.asarray(self.modes, dtype=np.int8)
        self.shares = np.asarray(self.shares, dtype=np.float64)
        if not np.all(np.isfinite(self.shares) & (self.shares >= 0)):
            raise ClusterError(f"shares must be finite and nonnegative, got {self.shares.tolist()}")
        if self.modes.shape != (self.k, N_STEPS):
            raise ClusterError(f"modes must be ({self.k}, {N_STEPS}), got {self.modes.shape}")
        outside = ~np.isin(self.modes, PRESENCE_ALPHABET)
        if outside.any():
            bad = STATE_TOKENS[ActivityState(int(self.modes[outside][0]))]
            raise ClusterError(f"modes hold {bad}; a mode state is one of Sleep, Away, HomeActive")
        if self.shares.shape != (self.k,):
            raise ClusterError("shares must have one entry per cluster")
        if abs(float(self.shares.sum()) - 1.0) > 1e-9:
            raise ClusterError(f"shares sum to {self.shares.sum()}, not 1")

    def write(self, path: str | Path) -> None:
        lines = [
            f"k,{self.k}",
            f"day_type,{self.day_type}",
            "shares," + ",".join(f"{s:.12g}" for s in self.shares),
        ]
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
        modes = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(",")
            try:
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
            except ValueError as exc:
                raise ClusterError(f"{path}: line {lineno}: {exc}") from None
        if k is None or day_type is None or shares is None or len(modes) != k:
            raise ClusterError(f"{path}: incomplete cluster model")
        try:
            return cls(k, np.array(modes, dtype=np.int8), shares, day_type)
        except ClusterError as exc:
            raise ClusterError(f"{path}: {exc}") from None


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


def pairwise_distances(X: np.ndarray) -> np.ndarray:
    """Full matching-dissimilarity matrix as one GEMM over one-hot rows.

    With O one-hot encoding each row's (step, state) cells, the agreement
    count of rows i and j is (O·Oᵀ)[i, j] and their distance is steps minus
    that.  Every partial sum is an integer no larger than the step count, so
    float32 holds it exactly whatever order BLAS sums in.
    """
    X = np.asarray(X)
    n, steps = X.shape
    lo = int(X.min())
    n_states = int(X.max()) - lo + 1
    onehot = np.zeros((n, steps * n_states), dtype=np.float32)
    cells = np.arange(steps) * n_states + (X.astype(np.intp) - lo)
    onehot[np.arange(n)[:, None], cells] = 1.0
    agree = onehot @ onehot.T
    return np.subtract(steps, agree, out=agree).astype(np.int32)


def _weighted_modes(X: np.ndarray, w: np.ndarray, labels: np.ndarray, k: int, n_states: int) -> np.ndarray:
    """Per-dimension weighted most-frequent state for each cluster.

    Ties break toward the smallest state value so refits are deterministic.
    One bincount over the (cluster, step, state) cell of every entry adds the
    weights of each cell in row order, as a per-cell running sum would.
    """
    steps = X.shape[1]
    cells = (labels[:, None] * steps + np.arange(steps)) * n_states + X
    counts = np.bincount(cells.ravel(), np.repeat(w, steps), minlength=k * steps * n_states)
    return counts.reshape(k, steps, n_states).argmax(axis=2).astype(np.int8)  # first maximum


def kmodes(
    X: np.ndarray,
    weights: np.ndarray | None = None,
    k: int = 4,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    max_iter: int = 50,
    day_type: str = "WD",
    distinct: np.ndarray | None = None,
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
    `distinct` is `np.unique(X, axis=0)` for a caller that fits the same data
    many times.
    """
    X, w = _coerce_data(X, weights)
    n = X.shape[0]
    if k < 1:
        raise ClusterError("k must be >= 1")
    if distinct is None:
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


def _coerce_data(X, weights):
    X = np.asarray(X, dtype=np.int8)
    if X.ndim != 2:
        raise ClusterError("data must be an (n, steps) matrix")
    w = np.ones(X.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (X.shape[0],):
        raise ClusterError("weights must align with data rows")
    if np.any(w < 0):
        raise ClusterError("weights must be nonnegative")
    return X, w


def silhouette(distances: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette from a matching-dissimilarity matrix.

    `distances` is `pairwise_distances` of the labelled rows.  Per point:
    a = mean distance to its own cluster's other members, b = smallest mean
    distance to another cluster, score = (b - a) / max(a, b).  Singleton
    clusters score zero, as does any point with max(a, b) = 0.
    """
    D = np.asarray(distances, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if D.shape != (n, n):
        raise ClusterError(f"distances must be ({n}, {n}) for {n} labels, got {D.shape}")
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise ClusterError("every cluster must be non-empty")
    if k < 2:
        raise ClusterError("silhouette needs at least two clusters")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    sums = D @ onehot  # (n, k) total distance to each cluster; exact integers
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
    X: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    k_range: range,
    repeats: int,
    base_seed: int,
    epsilon: float,
    silhouette_sample: int | None,
    day_type: str = "WD",
) -> SelectKResult:
    """Run repeated k-modes across a k range (every k >= 2) and pick k by mean silhouette.

    Each run's seed derives deterministically from (base_seed, k, repeat).
    The chosen k is the largest whose mean silhouette is within `epsilon`
    of the best mean; the returned model is that k's best-scoring run.
    For large corpora `silhouette_sample` scores a fixed random subsample,
    on which clusters absent from it are left out and fewer than two
    present clusters score 0.  The distance matrix of the scored rows is
    built once and shared by every run.
    """
    if not k_range or min(k_range) < 2:
        raise ClusterError(f"k range must be nonempty with every k >= 2, got {k_range}")
    if repeats < 1:
        raise ClusterError(f"repeats must be at least 1, got {repeats}")
    if not 0 <= epsilon < np.inf:
        raise ClusterError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if silhouette_sample is not None and silhouette_sample < 2:
        raise ClusterError(f"silhouette_sample must be at least 2, got {silhouette_sample}")
    X, w = _coerce_data(X, weights)
    n = X.shape[0]
    sil_idx = None
    if silhouette_sample is not None and n > silhouette_sample:
        pick_rng = streams.generator(int(base_seed), streams.CLUSTERING, 0)
        sil_idx = np.sort(pick_rng.choice(n, size=silhouette_sample, replace=False))
    D = pairwise_distances(X if sil_idx is None else X[sil_idx]).astype(np.float64)
    distinct = np.unique(X, axis=0)
    table: list[KScore] = []
    best_by_k: dict[int, tuple[float, ClusterModel, np.ndarray]] = {}
    for k in k_range:
        scores = []
        for r in range(repeats):
            seq = streams.child(streams.root(int(base_seed)), streams.CLUSTERING, k, r)
            model, labels = kmodes(
                X,
                w,
                k=k,
                seed=np.random.default_rng(seq),
                day_type=day_type,
                distinct=distinct,
            )
            if sil_idx is None:
                score = silhouette(D, labels)
            else:
                present, sub_labels = np.unique(labels[sil_idx], return_inverse=True)
                score = silhouette(D, sub_labels) if present.size > 1 else 0.0
            scores.append(score)
            if k not in best_by_k or score > best_by_k[k][0] + 0.0:
                best_by_k[k] = (score, model, labels)
        table.append(KScore(k, scores, float(np.mean(scores))))
    best_mean = max(row.mean for row in table)
    k_star = max(row.k for row in table if row.mean >= best_mean - epsilon)
    _, model, labels = best_by_k[k_star]
    return SelectKResult(k_star, table, model, labels)


def assign_cluster(states: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Nearest-mode label of each row of an (n, 96) state matrix, by matching
    dissimilarity on the presence projection."""
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != N_STEPS:
        raise ClusterError(f"states must be (n, {N_STEPS}), got {states.shape}")
    return _distances_to_modes(project_to_presence(states), model.modes).argmin(axis=1)
