"""Small constructors and reference measures shared by the tests."""

import bisect
import re
from collections import defaultdict

import numpy as np

from occsim.conf import OccsimError
from occsim.diary_ingest import (
    _INDEX_BY_TOKEN,
    _UNMAPPED,
    DIARY,
    EVENT_ACTIVITIES,
    FULL_ALPHABET,
    N_MINUTES,
    N_STEPS,
    SEQUENCE,
    STEP_MINUTES,
    ActivityState,
    _row_head,
    sequence_table,
)
from occsim.distributions import EmpiricalDistribution
from occsim.household import ACTIVITY_APPLIANCE, EVENT, EVENT_COLUMNS, build_household, draw_households
from occsim.markov_train import ActivityStats
from occsim.occupant_sim import RETRY_BUDGET, _hold_steps, uniforms_per_day


def forward_marginals(tpms) -> np.ndarray:
    """Per-step state distribution obtained by propagating the chain."""
    out = np.empty((tpms.n_steps, tpms.n_states))
    out[0] = tpms.initial
    for t in range(tpms.matrices.shape[0]):
        out[t + 1] = out[t] @ tpms.matrices[t]
    return out


def one_household(index, models, bundle, config, calendar, base_seed, *, approach):
    """`build_household` of household `index`, drawn on its own."""
    (draw,) = draw_households([index], models, config, calendar, base_seed, approach=approach)
    return build_household(draw, models, bundle, config, calendar, approach=approach)


def draw_index(probs, r: float) -> int:
    """Inverse-CDF index in clamp form, the scalar oracle of every draw: the
    first i whose cumulative probability exceeds r, clamped to the last i of
    positive probability."""
    last = max(i for i, p in enumerate(probs) if p > 0)
    return min(bisect.bisect_right(np.cumsum(probs).tolist(), r), last)


def day_uniforms(tpms, rng, holds=None) -> np.ndarray:
    """One day's block of uniforms for `walk_days`, drawn from `rng`."""
    return rng.random(uniforms_per_day(tpms, holds))


def point_mass(value: float, unit: str = "") -> EmpiricalDistribution:
    return EmpiricalDistribution(np.array([value]), np.array([1.0]), unit)


def model_section(tpms_dir, name):
    """The model file and section header that hold what the file `name`
    held when each chain and distribution had a file of its own:
    `c0.wd.tpm` is `[tpm]` of `c0.wd.tpm`, `c0.wd.presence.tpm` its
    `[presence]` and `c0.wd.cooking.count.dist` its `[cooking.count]`."""
    stem, part = re.fullmatch(r"(c\d+\.w[de])\.(.+)", name).groups()
    section = {"tpm": "tpm", "presence.tpm": "presence"}.get(part, part.removesuffix(".dist"))
    return tpms_dir / f"{stem}.tpm", f"[{section}]"


def _section_bounds(lines, section):
    """The index of the header `section` in a model file's lines and of the line after its last."""
    start = lines.index(section)
    return start, next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))


def section_lines(path, section):
    """The lines under the header `section` of the model file `path`."""
    lines = path.read_text().splitlines()
    start, end = _section_bounds(lines, section)
    return lines[start + 1 : end]


def edit_section(path, section, edit) -> int:
    """Replace the lines under the header `section` of the model file `path`
    by `edit` of them, or delete the section, header included, where `edit`
    gives None.  Returns the file line number of the header."""
    lines = path.read_text().splitlines()
    start, end = _section_bounds(lines, section)
    body = edit(lines[start + 1 : end])
    lines[start:end] = [] if body is None else [section, *body]
    path.write_text("\n".join(lines) + "\n")
    return start + 1


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
        raise OccsimError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


# -- row-loop reader -----------------------------------------------------------
# The diary and sequence-file reader before it mapped blocks of rows in
# numpy: every row split into fields and every code looked up in a dict,
# a diary code the code map lacks through a `defaultdict`.  The blocked
# reader must give the same tables, unknown counts and error messages.


def row_loop_read_rows(path, lookup, width, dtype) -> np.ndarray:
    """The `dtype` table of a header line and rows of three head fields and
    `width` codes, each looked up in `lookup` one at a time."""
    get = lookup.__getitem__
    heads, codes = [], bytearray()
    try:
        with open(path) as fh:
            if not fh.readline():
                raise OccsimError(f"{path}: empty file")
            for row, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split(",")
                heads.append(_row_head(path, row, fields, 3 + width))
                try:
                    codes += bytes(map(get, fields[3:]))
                except KeyError as exc:
                    raise OccsimError(f"{path}: row {row}: unknown state token {exc.args[0]!r}") from None
    except UnicodeDecodeError as exc:
        raise OccsimError(f"{path}: {exc}") from None
    table = np.empty(len(heads), dtype=dtype)
    table["id"], table["day_type"], table["weight"] = zip(*heads) if heads else ((), (), ())
    table[dtype.names[3]] = np.frombuffer(codes, np.int8).reshape(-1, width)
    return table


def row_loop_parse_diaries(path, code_map) -> tuple[np.ndarray, int]:
    """The DIARY table and unknown-code count of `parse_diaries`, row by row."""
    lookup = defaultdict(lambda: _UNMAPPED, ((code, int(state)) for code, state in code_map.mapping.items()))
    diaries = row_loop_read_rows(path, lookup, N_MINUTES, DIARY)
    minutes = diaries["minutes"]
    unmapped = minutes.view(np.uint8) == _UNMAPPED
    minutes[unmapped] = int(code_map.default_state)
    return diaries, int(np.count_nonzero(unmapped))


def row_loop_read_sequences(path) -> np.ndarray:
    """The SEQUENCE table of `read_sequences`, row by row."""
    return row_loop_read_rows(path, _INDEX_BY_TOKEN, N_STEPS, SEQUENCE)


def row_loop_number_rows(numbered, width):
    """The rows of `numbered`, (line number, line) pairs, read a line at a
    time with Python's float: their (len(numbered), width) values, or the
    (line number, message) of the first line that is not `width` numbers."""
    values = []
    for n, line in numbered:
        fields = line.split(",")
        if len(fields) != width:
            return n, f"expected {width} values, got {len(fields)}"
        try:
            values.append([float(field) for field in fields])
        except ValueError as exc:
            return n, str(exc)
    return np.array(values, dtype=np.float64).reshape(-1, width)


# -- whole-matrix clustering oracles ------------------------------------------
# Silhouette from a whole n x n distance matrix, as occsim scored it before
# the per-cluster state counts: one GEMM over the whole one-hot matrix cast
# to int32, and one float64 copy of the matrix times the cluster one-hot.
# The count form must match them bit for bit.


def whole_pairwise_distances(X) -> np.ndarray:
    """Matching-dissimilarity matrix as one float32 GEMM, cast to int32."""
    X = np.asarray(X)
    n, steps = X.shape
    lo = int(X.min())
    n_states = int(X.max()) - lo + 1
    onehot = np.zeros((n, steps * n_states), dtype=np.float32)
    cells = np.arange(steps) * n_states + (X.astype(np.intp) - lo)
    onehot[np.arange(n)[:, None], cells] = 1.0
    agree = onehot @ onehot.T
    return np.subtract(steps, agree, out=agree).astype(np.int32)


def whole_silhouette(distances, labels) -> float:
    """Mean silhouette over one float64 copy of the whole matrix."""
    D = np.asarray(distances, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if D.shape != (n, n):
        raise OccsimError(f"distances must be ({n}, {n}) for {n} labels, got {D.shape}")
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise OccsimError("every cluster must be non-empty")
    if k < 2:
        raise OccsimError("silhouette needs at least two clusters")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    sums = D @ onehot
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


# -- scalar reference samplers ------------------------------------------------
# The household draws before they took whole arrays: one `sample` call per
# value, a per-interval loop, and a per-event onset retry loop.  Kept as the
# oracle that the vectorized draws are tested against in distribution.
# `scalar_place_events` is approach-1 placement one day at a time, with a
# numpy draw per sample; `place_events` must match it byte for byte.
# `activity_statistics` is the per-activity statistics oracle.


def scalar_place_events(presence, stats, rng):
    """One presence day's placed states and placement failures, each sample
    one `rng.random()` through `EmpiricalDistribution.sample`."""
    states = presence.copy()
    free = presence == int(ActivityState.HOME_ACTIVE)
    failures = 0
    for activity in EVENT_ACTIVITIES:
        st = stats.get(activity)
        if st is None:
            continue
        count = st.occurrences_dist.sample_int(rng)
        if count <= 0:
            continue
        if st.onset_dist is None or st.duration_dist is None:
            failures += count
            continue
        for _ in range(count):
            h = _hold_steps(st.duration_dist.sample(rng))
            for _ in range(RETRY_BUDGET):
                onset = int(round(st.onset_dist.sample(rng)))
                if 0 <= onset and onset + h <= len(free) and free[onset : onset + h].all():
                    states[onset : onset + h] = int(activity)
                    free[onset : onset + h] = False
                    break
            else:
                failures += 1
    return states, failures


def state_counts_reference(X, w, labels, k, n_states):
    """The per-step loop `markov_train.state_counts` replaced: one bincount
    per step, adding each cell's weights in row order from 0.0."""
    cells = labels * n_states
    counts = np.empty((k, X.shape[1], n_states))
    for t in range(X.shape[1]):
        counts[:, t] = np.bincount(cells + X[:, t], w, minlength=k * n_states).reshape(k, n_states)
    return counts


def estimate_tpm_reference(table, alphabet, *, fallback, alpha):
    """The initial distribution and matrices of `markov_train.estimate_tpm`
    as it was before it counted through `state_counts`: int64 state indices
    and a loop that bincounts each step's transitions on its own."""
    X, w = table["states"], np.ascontiguousarray(table["weight"])
    lut = np.full(len(FULL_ALPHABET), -1, dtype=np.int64)
    for i, a in enumerate(alphabet):
        lut[int(a)] = i
    idx = lut[X]
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
            eye = np.eye(S)
            t_i, s_i = np.nonzero(~visited)
            matrices[t_i, s_i] = eye[s_i]
    matrices /= matrices.sum(axis=2, keepdims=True)
    return initial, matrices


def whole_table_runs(X):
    """`markov_train.runs` before it scanned in row blocks: one pass over the
    whole table with int64 indices."""
    n, m = X.shape
    starts = np.ones((n, m), dtype=bool)
    starts[:, 1:] = X[:, 1:] != X[:, :-1]
    flat = np.flatnonzero(starts)
    rows, cols = np.divmod(flat, m)
    return rows, cols, np.diff(flat, append=n * m), X[rows, cols]


def activity_statistics(table, activity):
    """`estimate_statistics` of one activity as it was before every activity
    came from one run scan: the True runs of `states == activity`, found
    from the edges of the padded boolean matrix, with the later rule that
    events only on zero-weight days give no duration or onset.  The
    one-pass statistics must match it bit for bit."""
    w = table["weight"]
    B = table["states"] == int(activity)
    pad = np.zeros((len(B), 1), dtype=bool)
    edges = np.diff(np.hstack([pad, B, pad]).astype(np.int8), axis=1)
    rows, onsets = np.nonzero(edges == 1)
    lengths = np.nonzero(edges == -1)[1] - onsets  # starts and ends pair up in row-major order
    per_row = np.bincount(rows, minlength=len(B))
    profile = (w[:, None] * B).sum(axis=0) / w.sum()
    occurrences = EmpiricalDistribution.from_weights(per_row.astype(float), w, unit="count")
    duration = onset = None
    if w[rows].sum() > 0:
        duration = EmpiricalDistribution.from_weights(lengths * 15.0, w[rows], unit="minutes")
        onset = EmpiricalDistribution.from_weights(onsets.astype(float), w[rows], unit="steps")
    return ActivityStats(activity, duration, onset, occurrences, profile, n_days=len(B), n_events=int(rows.size))


def scalar_appliance_events(intervals_by_activity, bundle, rng, *, year_minutes):
    """`attach_appliance_events` drawn row by row: per interval, power
    duration and level, water duration and flow, then dryer duration and
    level for a dryer that starts before `year_minutes`."""
    dryer = EVENT_COLUMNS.index("clothes_dryer_power")
    rows = []
    for activity, (key, power, water) in ACTIVITY_APPLIANCE.items():
        for start, _end in np.asarray(intervals_by_activity.get(activity, np.zeros((0, 2)))).tolist():
            duration = bundle[f"{key}.power.duration"].sample(rng)
            rows.append((power, start, duration, bundle[f"{key}.power.level"].sample(rng)))
            if water is not None:
                w_dur = bundle[f"{key}.water.duration"].sample(rng)
                rows.append((water, start, w_dur, bundle[f"{key}.water.flow"].sample(rng)))
            if activity is ActivityState.LAUNDRY and start + duration < year_minutes:
                d_dur = bundle["clothes_dryer.power.duration"].sample(rng)
                rows.append((dryer, start + duration, d_dur, bundle["clothes_dryer.power.level"].sample(rng)))
    return np.array(rows, dtype=EVENT)


def scalar_hygiene_water(intervals, bundle, shower_fraction, rng):
    """`attach_hygiene_water` drawn interval by interval."""
    showers, baths = EVENT_COLUMNS.index("showers"), EVENT_COLUMNS.index("baths")
    rows = []
    for start, end in np.asarray(intervals).tolist():
        is_shower = rng.random() < shower_fraction
        key = "shower" if is_shower else "bath"
        duration = bundle[f"{key}.duration"].sample(rng)
        flow = bundle[f"{key}.flow"].sample(rng)
        window = end - start
        if duration >= window:
            duration, offset = window, 0
        else:
            offset = int(rng.integers(0, int(window - duration) + 1))
        rows.append((showers if is_shower else baths, start + offset, duration, flow))
    return np.array(rows, dtype=EVENT)


def scalar_sink_events(active, bundle, rng):
    """`generate_sink_events` by rejection: each event retries its onset up
    to RETRY_BUDGET times until it lands on an active step, else is dropped."""
    sinks = EVENT_COLUMNS.index("sinks")
    rows = []
    for day in range(active.shape[0] // N_STEPS):
        base = day * N_STEPS
        for _ in range(bundle["sink.count"].sample_int(rng)):
            for _ in range(RETRY_BUDGET):
                step = bundle["sink.onset"].sample_int(rng)
                if 0 <= step < N_STEPS and active[base + step]:
                    start = float((base + step) * STEP_MINUTES)
                    duration = bundle["sink.duration"].sample(rng)
                    rows.append((sinks, start, duration, bundle["sink.flow"].sample(rng)))
                    break
    return np.array(rows, dtype=EVENT)
