import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occsim import clustering, streams
from occsim.cli import main
from occsim.clustering import (
    ClusterModel,
    _assign_with_repair,
    _weighted_modes,
    assign_cluster,
    kmodes,
    pairwise_distances,
    select_k,
    silhouette,
)
from occsim.conf import OccsimError
from occsim.diary_ingest import N_STEPS, project_to_presence
from occsim.synth import generate_corpus, write_diaries
from tests.helpers import sequence_distance, whole_pairwise_distances, whole_silhouette


def _pairwise_reference(X, chunk=256):
    """The chunked-broadcast matrix the GEMM kernel replaced."""
    n = X.shape[0]
    D = np.empty((n, n), dtype=np.int32)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        D[lo:hi] = (X[lo:hi, None, :] != X[None, :, :]).sum(axis=2)
    return D


def _weighted_modes_reference(X, w, labels, k, n_states):
    """The per-cluster `np.add.at` refit the bincount kernel replaced."""
    modes = np.zeros((k, X.shape[1]), dtype=np.int8)
    dims = np.tile(np.arange(X.shape[1]), (X.shape[0], 1))
    for c in range(k):
        member = labels == c
        counts = np.zeros((X.shape[1], n_states), dtype=np.float64)
        np.add.at(counts, (dims[member].ravel(), X[member].ravel()), np.repeat(w[member], X.shape[1]))
        modes[c] = counts.argmax(axis=1)
    return modes


def _silhouette_reference(X, labels):
    """Silhouette of X's rows with the matrix rebuilt per call; clusters absent
    from `labels` are skipped and fewer than two present ones score 0."""
    n = X.shape[0]
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.count_nonzero(counts) < 2:
        return 0.0
    D = _pairwise_reference(X).astype(np.float64)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    sums = D @ onehot
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


@st.composite
def state_matrices(draw, max_rows=12):
    """Small state matrices built from a few base rows, so rows repeat."""
    steps = draw(st.integers(1, 24))
    row = st.lists(st.integers(0, 6), min_size=steps, max_size=steps)
    base = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=max_rows))
    return np.array([base[i] for i in picks], dtype=np.int8)


def planted_matrix(rng, modes, per_cluster, flips):
    """Points = planted modes with `flips` distinct dimensions toggled."""
    rows = []
    labels = []
    for c, mode in enumerate(modes):
        for i in range(per_cluster):
            x = mode.copy()
            dims = rng.choice(mode.shape[0], size=flips, replace=False)
            x[dims] = (x[dims] + 1) % 3
            rows.append(x)
            labels.append(c)
    return np.array(rows, dtype=np.int8), np.array(labels)


def brute_force_cost(X, k):
    """Exhaustive minimum within-cluster matching distance over all
    surjective assignments (oracle for small instances)."""
    n, d = X.shape
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) < k:
            continue
        cost = 0
        for c in range(k):
            members = X[np.array(assignment) == c]
            counts = np.stack([(members == s).sum(axis=0) for s in range(3)])
            cost += (members.shape[0] - counts.max(axis=0)).sum()
        best = min(best, cost)
    return best


def model_cost(X, labels, modes, w=None):
    if w is None:
        w = np.ones(X.shape[0])
    return float(w @ np.count_nonzero(X != modes[labels], axis=1))


def test_sequence_distance_frozen():
    a = np.zeros(N_STEPS, dtype=np.int8)
    b = a.copy()
    assert sequence_distance(a, b) == 0
    b[10] = 2
    assert sequence_distance(a, b) == 1
    assert sequence_distance(a, np.full(N_STEPS, 1, dtype=np.int8)) == N_STEPS


def test_sequence_distance_length_mismatch():
    with pytest.raises(OccsimError, match="length mismatch"):
        sequence_distance(np.zeros(5, dtype=np.int8), np.zeros(6, dtype=np.int8))


def test_kmodes_recovers_planted_partition():
    rng = np.random.default_rng(3)
    m0 = np.zeros(N_STEPS, dtype=np.int8)
    m1 = np.full(N_STEPS, 2, dtype=np.int8)
    m1[:20] = 1
    X, truth = planted_matrix(rng, [m0, m1], per_cluster=5, flips=3)
    model, labels = kmodes(X, k=2)
    # same partition up to cluster relabeling
    maps = {}
    for t, l in zip(truth, labels):
        maps.setdefault(t, l)
        assert maps[t] == l
    assert len(set(maps.values())) == 2
    recovered = {tuple(m) for m in model.modes}
    assert tuple(m0) in recovered and tuple(m1) in recovered


def test_weighted_modes_tie_breaks_smallest_state():
    X = np.array([[0, 2], [2, 0]], dtype=np.int8)
    w = np.ones(2)
    labels = np.zeros(2, dtype=np.int64)
    modes = _weighted_modes(X, w, labels, k=1, n_states=3)
    assert list(modes[0]) == [0, 0]


def test_weighted_modes_weight_dominates():
    X = np.array([[0], [2]], dtype=np.int8)
    modes = _weighted_modes(X, np.array([1.0, 3.0]), np.zeros(2, dtype=np.int64), 1, 3)
    assert modes[0][0] == 2


def test_kmodes_k_exceeds_distinct():
    X = np.zeros((5, N_STEPS), dtype=np.int8)
    X[2:] = 1  # two distinct rows
    with pytest.raises(OccsimError, match="exceeds"):
        kmodes(X, k=3)


def test_kmodes_weighted_shares():
    X = np.zeros((4, N_STEPS), dtype=np.int8)
    X[2:] = 2
    model, labels = kmodes(X, weights=np.array([3.0, 1.0, 1.0, 1.0]), k=2)
    shares = sorted(model.shares)
    assert shares == pytest.approx([2 / 6, 4 / 6])


def test_kmodes_matches_brute_force():
    rng = np.random.default_rng(11)
    m0 = np.zeros(N_STEPS, dtype=np.int8)
    m1 = np.full(N_STEPS, 2, dtype=np.int8)
    X, _ = planted_matrix(rng, [m0, m1], per_cluster=4, flips=30)
    model, labels = kmodes(X, k=2)
    assert model_cost(X, labels, model.modes) == brute_force_cost(X, 2)


def test_kmodes_draws_no_random_numbers():
    X, _ = _three_cluster_data()
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("kmodes drew a generator")):
        first, labels = kmodes(X, k=3)
    again, labels_again = kmodes(X, k=3)
    assert np.array_equal(first.modes, again.modes) and np.array_equal(labels, labels_again)


def _initial_modes_reference(X, w, k):
    """Cao, Liang & Bai's initialization written out row by row and step by step."""
    distinct = np.unique(X, axis=0)
    density = [np.mean([w[X[:, j] == row[j]].sum() for j in range(X.shape[1])]) for row in distinct]
    chosen = [int(np.argmax(density))]
    while len(chosen) < k:
        best, pick = -1.0, None
        for i, row in enumerate(distinct):
            score = density[i] * min(np.count_nonzero(row != distinct[c]) for c in chosen)
            if i not in chosen and score > best:
                best, pick = score, i
        chosen.append(pick)
    return distinct[chosen]


@given(state_matrices(), st.data())
def test_initial_modes_match_reference(X, data):
    # whole-number weights sum exactly in any order, so density ties are exact
    n = X.shape[0]
    w = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=np.float64)
    distinct = clustering._distinct_rows(X)
    k = data.draw(st.integers(1, distinct.shape[0]))
    got = clustering._initial_modes(X, w, distinct, k, int(X.max()) + 1)
    assert np.array_equal(got, _initial_modes_reference(X, w, k))


def test_initial_modes_break_density_ties_to_the_first_distinct_row():
    # a Latin square: every row has the same density and the same distance
    # to every other, so each pick is a tie that the distinct-row order breaks
    X = np.array([[2, 0, 1], [0, 1, 2], [1, 2, 0]], dtype=np.int8)
    distinct = clustering._distinct_rows(X)
    assert distinct.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    for k in (1, 2, 3):
        modes = clustering._initial_modes(X, np.ones(3), distinct, k, 3)
        assert modes.tolist() == distinct[:k].tolist()


def test_initial_modes_never_repeat_a_row_of_zero_density():
    # the two zero-weight rows share no state with the weighted ones, so
    # they score 0 like the chosen row does; each is still picked only once
    X = np.zeros((4, N_STEPS), dtype=np.int8)
    X[2], X[3] = 1, 2
    w = np.array([1.0, 1.0, 0.0, 0.0])
    distinct = clustering._distinct_rows(X)
    for k in (2, 3):
        modes = clustering._initial_modes(X, w, distinct, k, 3)
        assert len({tuple(mode) for mode in modes}) == k
    model, labels = kmodes(X, w, k=3)
    assert sorted(model.modes[:, 0]) == [0, 1, 2]
    assert sorted(model.shares) == [0.0, 0.0, 1.0]


def test_kmodes_with_k_equal_to_the_distinct_rows():
    X = np.zeros((7, N_STEPS), dtype=np.int8)
    X[2:5] = 1
    X[5:] = 2
    w = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 3.0, 1.0])
    model, labels = kmodes(X, w, k=3)
    assert model_cost(X, labels, model.modes, w) == 0.0
    assert sorted(model.shares) == pytest.approx([3 / 10, 3 / 10, 4 / 10])


def test_assign_with_repair_fills_empty_cluster():
    X = np.zeros((4, 6), dtype=np.int8)
    modes = np.array([[0] * 6, [2] * 6], dtype=np.int8)
    labels = _assign_with_repair(X, modes)
    assert np.bincount(labels, minlength=2).min() >= 1
    assert np.array_equal(modes[1], X[0])  # reseeded in place


def naive_silhouette(X, labels):
    n = X.shape[0]
    D = _pairwise_reference(X).astype(float)
    k = labels.max() + 1
    scores = []
    for i in range(n):
        own = np.where(labels == labels[i])[0]
        if own.size == 1:
            scores.append(0.0)
            continue
        a = D[i, own[own != i]].mean()
        b = min(
            D[i, labels == c].mean() for c in range(k) if c != labels[i] and np.any(labels == c)
        )
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


def test_silhouette_matches_direct_evaluation():
    rng = np.random.default_rng(5)
    for trial in range(10):
        X = rng.integers(0, 3, size=(12, 20)).astype(np.int8)
        labels = rng.integers(0, 3, size=12)
        labels[:3] = [0, 1, 2]  # keep all clusters populated
        expected = naive_silhouette(X, labels)
        assert silhouette(X, labels) == pytest.approx(expected, abs=1e-12)


def test_silhouette_singleton_scores_zero():
    X = np.array([[0, 0], [0, 0], [2, 2]], dtype=np.int8)
    labels = np.array([0, 0, 1])
    assert silhouette(X, labels) == pytest.approx(2 / 3)


def test_silhouette_zero_denominator():
    X = np.zeros((4, 8), dtype=np.int8)
    labels = np.array([0, 0, 1, 1])
    assert silhouette(X, labels) == 0.0


def test_silhouette_preconditions():
    X = np.zeros((4, 8), dtype=np.int8)
    with pytest.raises(OccsimError, match="non-empty"):
        silhouette(X, np.array([0, 0, 0, 2]))
    with pytest.raises(OccsimError, match="two clusters"):
        silhouette(X, np.zeros(4, dtype=np.int64))
    with pytest.raises(OccsimError, match="one row per label"):
        silhouette(X[:3], np.array([0, 0, 1, 1]))


def _three_cluster_data(per=8):
    rng = np.random.default_rng(9)
    modes = [
        np.zeros(N_STEPS, dtype=np.int8),
        np.full(N_STEPS, 1, dtype=np.int8),
        np.full(N_STEPS, 2, dtype=np.int8),
    ]
    X, truth = planted_matrix(rng, modes, per_cluster=per, flips=4)
    return X, truth


def test_select_k_finds_planted_k():
    X, _ = _three_cluster_data()
    result = select_k(X, k_range=range(2, 6), base_seed=0, epsilon=0.01, silhouette_sample=None)
    assert result.k_star == 3
    assert list(result.table) == [2, 3, 4, 5]
    assert result.model.k == 3


def test_select_k_epsilon_rule_prefers_largest_within_band():
    X, _ = _three_cluster_data()
    # an epsilon wider than any score gap must choose the top of the range
    result = select_k(X, k_range=range(2, 5), base_seed=0, epsilon=1.0, silhouette_sample=None)
    assert result.k_star == 4


def test_select_k_deterministic():
    X, _ = _three_cluster_data()
    r1 = select_k(X, k_range=range(2, 5), base_seed=7, epsilon=0.01, silhouette_sample=None)
    r2 = select_k(X, k_range=range(2, 5), base_seed=7, epsilon=0.01, silhouette_sample=None)
    assert r1.k_star == r2.k_star
    assert np.array_equal(r1.model.modes, r2.model.modes)
    assert r1.table == r2.table


def test_select_k_silhouette_subsample_deterministic():
    X, _ = _three_cluster_data(per=40)
    r1 = select_k(X, k_range=range(2, 4), base_seed=1, epsilon=0.01, silhouette_sample=30)
    r2 = select_k(X, k_range=range(2, 4), base_seed=1, epsilon=0.01, silhouette_sample=30)
    assert r1.k_star == r2.k_star == 3
    assert r1.table == r2.table


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k_range": range(1, 4)}, "every k >= 2"),
        ({"k_range": range(1, 4), "silhouette_sample": 30}, "every k >= 2"),
        ({"k_range": range(4, 3)}, "nonempty"),
        ({"k_range": range(200, 201)}, "k=200 exceeds the 120 distinct sequences"),
        ({"epsilon": float("nan")}, "epsilon must be finite"),
        ({"epsilon": float("inf")}, "epsilon must be finite"),
        ({"epsilon": -0.01}, "epsilon must be finite"),
        ({"silhouette_sample": 1}, "silhouette_sample must be at least 2"),
    ],
)
def test_select_k_rejects_out_of_range_parameters(kwargs, message):
    X, _ = _three_cluster_data(per=40)
    with pytest.raises(OccsimError, match=message):
        params = {"k_range": range(2, 4), "base_seed": 0, "epsilon": 0.01}
        select_k(X, **{**params, "silhouette_sample": None, **kwargs})


def test_cluster_model_round_trip(tmp_path):
    modes = np.tile(np.array([[0], [1], [2]], dtype=np.int8), (1, N_STEPS))
    model = ClusterModel(3, modes, np.array([0.5, 0.25, 0.25]), "WE")
    path = tmp_path / "m.clusters"
    model.write(path)
    back = ClusterModel.read(path)
    assert back.k == 3 and back.day_type == "WE"
    assert np.array_equal(back.modes, model.modes)
    assert np.allclose(back.shares, model.shares)


def test_cluster_model_validation():
    with pytest.raises(OccsimError, match="shares"):
        ClusterModel(2, np.zeros((2, N_STEPS), dtype=np.int8), np.array([0.7, 0.7]), "WD")
    with pytest.raises(OccsimError, match="modes"):
        ClusterModel(2, np.zeros((2, 10), dtype=np.int8), np.array([0.5, 0.5]), "WD")


def test_assign_cluster_single_and_batch():
    modes = np.zeros((2, N_STEPS), dtype=np.int8)
    modes[1] = 2
    model = ClusterModel(2, modes, np.array([0.5, 0.5]), "WD")
    near_one = np.full(N_STEPS, 2, dtype=np.int8)
    near_one[:5] = 0
    assert assign_cluster(near_one[None], model).tolist() == [1]
    batch = assign_cluster(np.stack([np.zeros(N_STEPS, dtype=np.int8), near_one]), model)
    assert batch.tolist() == [0, 1]
    # one form only: a single day is a one-row matrix
    for bad in (near_one, np.zeros((2, N_STEPS - 1), dtype=np.int8)):
        with pytest.raises(OccsimError, match="states must be"):
            assign_cluster(bad, model)


def test_assign_cluster_projects_event_states():
    modes = np.zeros((2, N_STEPS), dtype=np.int8)
    modes[1] = 2
    model = ClusterModel(2, modes, np.array([0.5, 0.5]), "WD")
    # cooking projects to HomeActive, so an all-cooking day matches mode 1
    cooking = np.full((1, N_STEPS), 3, dtype=np.int8)
    assert assign_cluster(cooking, model).tolist() == [1]


def test_cluster_model_rejects_bad_fields():
    modes = np.zeros((2, N_STEPS), dtype=np.int8)
    with pytest.raises(OccsimError, match="finite and nonnegative"):
        ClusterModel(2, modes, np.array([np.nan, 1.0]), "WD")
    with pytest.raises(OccsimError, match="finite and nonnegative"):
        ClusterModel(2, modes, np.array([-0.5, 1.5]), "WD")
    with pytest.raises(OccsimError, match="day_type"):
        ClusterModel(2, modes, np.array([0.5, 0.5]), "XX")
    with pytest.raises(OccsimError, match="positive integer"):
        ClusterModel(2.0, modes, np.array([0.5, 0.5]), "WD")


def _cluster_lines():
    mode = ",".join(["Sleep"] * N_STEPS)
    return ["k,2", "day_type,WD", "shares,0.5,0.5", f"mode,{mode}", f"mode,{mode}"]


BAD_CLUSTER_LINES = [
    (2, "shares,nan,1", "finite and nonnegative"),
    (2, "shares,-0.5,1.5", "finite and nonnegative"),
    (2, "shares,0.5,x", "must be numbers"),
    (1, "day_type,XX", "day_type must be one of"),
    (3, "mode," + ",".join(["Sleep"] * (N_STEPS - 1)), f"expected {N_STEPS}"),
    (3, "mode," + ",".join(["Nap"] * N_STEPS), "unknown state token 'Nap'"),
    (0, "k,2.5", "k must be an integer"),
    (0, "k,0", "k must be positive"),
    (0, "kk,2", "unknown line key"),
    (2, "names,a|b", "unknown line key 'names'"),
]


@pytest.mark.parametrize("index,line,message", BAD_CLUSTER_LINES)
def test_cli_train_rejects_bad_cluster_file(tmp_path, capsys, index, line, message):
    sequences = tmp_path / "sequences.csv"
    write_diaries(sequences, generate_corpus(6, base_seed=3, day_types=("WD",)))
    lines = _cluster_lines()
    lines[index] = line
    path = tmp_path / "bad.clusters"
    path.write_text("\n".join(lines) + "\n")
    argv = ["train", "--diaries", str(sequences), "--clusters", str(path), "--out", str(tmp_path / "tpms")]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert f"{path}: line {index + 1}: " in err and message in err


def _cluster_sums_reference(X, labels, k):
    """Each row's summed distance to each cluster, from the broadcast matrix."""
    D = _pairwise_reference(X)
    return np.stack([D[:, labels == c].sum(axis=1) for c in range(k)], axis=1)


@given(state_matrices(), st.data())
@example(np.zeros((1, N_STEPS), dtype=np.int8), None)
@example(np.tile(np.arange(N_STEPS, dtype=np.int8) % 3, (5, 1)), None)
def test_pairwise_distances_match_reference(X, data):
    n = X.shape[0]
    labels = np.zeros(n, dtype=np.intp)
    if data is not None:
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.intp)
    k = int(labels.max()) + 1
    D = pairwise_distances(X, labels)
    assert D.shape == (n, k) and D.dtype == np.float64
    assert np.array_equal(D, _cluster_sums_reference(X, labels, k))


@given(st.data(), st.integers(1, 6), st.integers(1, 12))
def test_distinct_rows_match_unique_rows(data, steps, n):
    """One byte sort gives `np.unique(X, axis=0)`: the same rows in the same
    order, negative states included."""
    row = st.lists(st.integers(-128, 127), min_size=steps, max_size=steps)
    base = data.draw(st.lists(row, min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    X = np.array([base[i] for i in picks], dtype=np.int8)
    got = clustering._distinct_rows(X)
    assert got.dtype == np.int8
    assert np.array_equal(got, np.unique(X, axis=0))


def test_pairwise_distances_match_reference_on_a_corpus():
    X = project_to_presence(generate_corpus(300, base_seed=5, day_types=("WD",))["states"])
    labels = kmodes(X, k=4)[1]
    assert np.array_equal(pairwise_distances(X, labels), _cluster_sums_reference(X, labels, 4))


@given(
    state_matrices(),
    st.integers(1, 4),
    st.data(),
)
def test_weighted_modes_match_reference(X, k, data):
    n = X.shape[0]
    weights = st.floats(0, 1e300, allow_nan=False, allow_infinity=False)
    w = np.array(data.draw(st.lists(weights, min_size=n, max_size=n)))
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    n_states = int(X.max()) + 1
    got = _weighted_modes(X, w, labels, k, n_states)
    assert got.dtype == np.int8
    assert np.array_equal(got, _weighted_modes_reference(X, w, labels, k, n_states))


def test_weighted_modes_sum_order_matches_reference():
    # 1e16 + 1 + 1 rounds to 1e16 but 1 + 1 + 1e16 does not; the order of
    # the rows decides the tie below, so both kernels must sum in row order
    X = np.array([[0], [1], [1], [0], [0]], dtype=np.int8)
    w = np.array([1e16, 1e16, 2.0, 1.0, 1.0])
    labels = np.zeros(5, dtype=np.int64)
    expected = _weighted_modes_reference(X, w, labels, 1, 2)
    assert np.array_equal(_weighted_modes(X, w, labels, 1, 2), expected)


def _select_k_reference(X, w, k_range, base_seed, epsilon, silhouette_sample, monkeypatch):
    """select_k as a per-k recompute: every k rebuilds its own matrix and
    refits modes with the `np.add.at` kernel."""
    n = X.shape[0]
    rows = np.arange(n)
    if silhouette_sample is not None and n > silhouette_sample:
        pick_rng = streams.generator(base_seed, streams.CLUSTERING, 0)
        rows = np.sort(pick_rng.choice(n, size=silhouette_sample, replace=False))
    table, fits = {}, {}
    with monkeypatch.context() as m:
        m.setattr(clustering, "_weighted_modes", _weighted_modes_reference)
        for k in k_range:
            fits[k] = kmodes(X, w, k=k)
            labels = fits[k][1]
            # the first member of each cluster the sample misses is scored too
            firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(k) if c not in set(labels[rows])]
            scored = np.union1d(rows, firsts).astype(np.intp)
            table[k] = _silhouette_reference(X[scored], labels[scored])
    best = max(table.values())
    k_star = max(k for k, score in table.items() if score >= best - epsilon)
    return k_star, table, *fits[k_star]


@pytest.mark.parametrize("sample", [None, 500, 150])
def test_select_k_matches_per_run_reference(monkeypatch, sample):
    corpus = generate_corpus(240, base_seed=17, day_types=("WD",))
    X, w = project_to_presence(corpus["states"]), corpus["weight"]
    kwargs = dict(k_range=range(2, 6), base_seed=17, epsilon=0.01, silhouette_sample=sample)
    got = select_k(X, w, **kwargs)
    k_star, table, model, labels = _select_k_reference(X, w, **kwargs, monkeypatch=monkeypatch)
    assert got.table == table
    assert got.k_star == k_star
    assert np.array_equal(got.model.modes, model.modes)
    assert np.array_equal(got.model.shares, model.shares)
    assert np.array_equal(got.labels, labels)


def _oracle_silhouette(X, labels):
    return whole_silhouette(whole_pairwise_distances(X), labels)


@st.composite
def labelled_states(draw):
    """int8 states 0..6 of width 1..96 and labels leaving no cluster empty;
    rows repeat, so some points have max(a, b) = 0, and clusters may be
    singletons."""
    n = draw(st.integers(2, 40))
    steps = draw(st.integers(1, N_STEPS))
    row = st.lists(st.integers(0, 6), min_size=steps, max_size=steps)
    base = draw(st.lists(row, min_size=1, max_size=5))
    X = np.array([base[i] for i in draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))],
                 dtype=np.int8)
    k = draw(st.integers(2, min(n, 6)))
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = np.array(draw(st.permutations(list(range(k)) + rest)), dtype=np.intp)
    return X, labels


@settings(derandomize=True, deadline=None, max_examples=80)
@given(labelled_states(), st.integers(0, 2**32 - 1), st.data())
@example((np.zeros((3, N_STEPS), dtype=np.int8), np.array([0, 0, 1])), 0, None)
@example((np.array([[0, 0], [0, 0], [2, 2]], dtype=np.int8), np.array([0, 0, 1])), 3, None)
def test_silhouette_and_select_k_equal_whole_matrix_oracles(case, seed, data):
    """The count-form silhouette equals the whole-matrix oracles bit for bit,
    singletons and zero denominators included; so does `select_k`'s table,
    choice and labels, with `silhouette_sample` or without it."""
    X, labels = case
    assert silhouette(X, labels) == _oracle_silhouette(X, labels)
    # select_k fits presence rows of the day's width: the same rows tiled
    presence = np.tile(X % 3, (1, -(-N_STEPS // X.shape[1])))[:, :N_STEPS]
    distinct = clustering._distinct_rows(presence).shape[0]
    if distinct < 2:
        return
    n = presence.shape[0]
    sample = None if data is None else data.draw(st.none() | st.integers(2, n))
    kwargs = dict(k_range=range(2, min(distinct, 4) + 1), base_seed=seed, epsilon=0.01, silhouette_sample=sample)
    got = select_k(presence, **kwargs)
    with mock.patch.object(clustering, "silhouette", _oracle_silhouette):
        expected = select_k(presence, **kwargs)
    assert got.table == expected.table
    assert got.k_star == expected.k_star
    assert np.array_equal(got.labels, expected.labels)


def test_select_k_peak_memory_stays_below_2_kib_per_row():
    """The stage holds (n, k) sums and per-row temporaries, no n x n array:
    the uint8 matrix it once held alone took n bytes a row."""
    n = 3000
    corpus = generate_corpus(n, base_seed=31, day_types=("WD",))
    X, w = project_to_presence(corpus["states"]), corpus["weight"]
    tracemalloc.start()
    try:
        select_k(X, w, k_range=range(3, 5), base_seed=31, epsilon=0.01, silhouette_sample=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * n


def test_select_k_subsample_scores_a_missed_cluster_through_its_first_member():
    # 30 rows of one pattern and 2 of another: a 3-row subsample misses the
    # small cluster, so its first member, row 30, is scored with the sample:
    # three rows at silhouette 1 and a singleton at 0
    X = np.zeros((32, N_STEPS), dtype=np.int8)
    X[30:] = 2
    result = select_k(X, k_range=range(2, 3), base_seed=3, epsilon=0.01, silhouette_sample=3)
    pick = np.sort(streams.generator(3, streams.CLUSTERING, 0).choice(32, size=3, replace=False))
    assert np.all(pick < 30)
    assert result.table == {2: 0.75}


@pytest.mark.parametrize("seed, day_type", [(9, "WE"), (101, "WD"), (20006, "WE")])
def test_sampled_silhouette_picks_the_planted_k(seed, day_type):
    """On these 1500-diary corpora the k = 5 fit splits one diary off the
    planted k = 4 fit, and the 768-row sample misses it; scored through
    that diary, k = 5 falls below k = 4 (it tied k = 4 when the cluster was
    left out), so the sampled score picks k = 4 as the full one does."""
    corpus = generate_corpus(1500, seed)
    corpus = corpus[corpus["day_type"] == day_type]
    X, w = project_to_presence(corpus["states"]), corpus["weight"]
    result = select_k(X, w, k_range=range(3, 11), base_seed=seed, epsilon=0.01, silhouette_sample=768)
    assert result.k_star == 4
    assert result.table[5] < result.table[4] - 0.01  # outside epsilon
