"""Acceptance gate: twelve numbered criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Each criterion is self-contained and seeds its own randomness, so the whole
module is deterministic.
"""

import itertools
import sys
import time

import numpy as np

from occsim import streams
from occsim.clustering import kmodes, select_k, silhouette
from occsim.conf import OccsimError
from occsim.diary_ingest import (
    FULL_ALPHABET,
    N_STEPS,
    ActivityState,
    project_to_presence,
)
from occsim.distributions import EmpiricalDistribution
from occsim.household import (
    EVENT,
    EVENT_COLUMNS,
    HouseholdConfig,
    _draw_index,
    attach_hygiene_water,
    build_household,
    draw_households,
    hygiene_intervals,
    merge_shared_events,
    modulate_schedule,
    sample_household,
)
from occsim.markov_train import (
    TPMSet,
    estimate_statistics,
    estimate_tpm,
    train_cluster_day_model,
)
from occsim.occupant_sim import SimCalendar, days_to_sequences, walk_days
from occsim.pipeline import run_pipeline, ProjectConfig
from occsim.schedule_io import rasterize_events
from occsim.synth import (
    PLANTED_SHARES,
    build_truth_model,
    default_bundle,
    generate_corpus,
    truth_models,
    write_input_tree,
)
from occsim.validate import compare_behavior
from tests.helpers import forward_marginals, point_mass


def check(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_tpm_identity():
    corpus = generate_corpus(500, base_seed=11)  # 1,000 diaries over both day types
    t0 = time.perf_counter()
    row_err = 0.0
    marg_err = 0.0
    for day_type in ("WD", "WE"):
        seqs = corpus[corpus["day_type"] == day_type]
        tpms = estimate_tpm(seqs, alphabet=FULL_ALPHABET, cluster_id=0)
        row_err = max(row_err, float(np.abs(tpms.matrices.sum(axis=2) - 1.0).max()))
        X, w = seqs["states"], seqs["weight"]
        empirical = np.stack(
            [np.bincount(X[:, t], weights=w, minlength=7) for t in range(N_STEPS)]
        ) / w.sum()
        marg_err = max(marg_err, float(np.abs(forward_marginals(tpms) - empirical).max()))
    elapsed = time.perf_counter() - t0
    ok = row_err <= 1e-9 and marg_err <= 1e-9 and elapsed < 1.0
    check(
        1,
        "tpm stochasticity and marginal identity",
        ok,
        f"row sum err {row_err:.2e}, marginal err {marg_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_model_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    S = 4
    m = rng.uniform(0.15, 0.45, size=(95, S, S))
    m /= m.sum(axis=2, keepdims=True)
    alphabet = tuple(FULL_ALPHABET[:S])
    truth = TPMSet(0, "WD", alphabet, np.full(S, 1 / S), m)
    n_days = 50_000
    days = walk_days(truth, np.random.default_rng(7).random((n_days, N_STEPS)))
    refit = estimate_tpm(days_to_sequences(days, "WD", "sim"), alphabet=alphabet, cluster_id=0)
    visits = n_days * forward_marginals(truth)[:-1]
    mask = visits >= 500
    worst = float(np.abs(refit.matrices - truth.matrices)[mask].max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 30.0
    check(
        2,
        "transition recovery from 50k days",
        ok,
        f"worst abs err {worst:.4f} over {int(mask.sum()) * S} cells, {elapsed:.1f}s",
    )


def test_criterion_03_approach3_fidelity():
    t0 = time.perf_counter()
    truth = build_truth_model(0, "WD")
    u = streams.generator(streams.root(501), 1).random((20_000, 2 * N_STEPS))
    corpus = days_to_sequences(walk_days(truth.tpms, u, truth.stats), "WD", "t")
    model = train_cluster_day_model(corpus, cluster_id=0, day_type="WD")
    u = streams.generator(streams.root(501), 2).random((10_000, 2 * N_STEPS))
    sim = days_to_sequences(walk_days(model.tpms, u, model.stats), "WD", "s")
    report = compare_behavior(sim, estimate_statistics(corpus))
    ks_vals = [
        v for r in report.rows for v in (r.ks_duration, r.ks_onset) if v is not None
    ]
    mad_vals = [r.profile_mad for r in report.rows]
    worst_ks = max(ks_vals)
    worst_mad = max(mad_vals)
    elapsed = time.perf_counter() - t0
    ok = worst_ks <= 0.05 and worst_mad <= 0.02 and elapsed < 60.0
    check(
        3,
        "behavioral fidelity on 10k simulated days",
        ok,
        f"worst KS {worst_ks:.4f} (limit 0.05), worst profile MAD {worst_mad:.4f} "
        f"(limit 0.02), {elapsed:.1f}s",
    )


def test_criterion_04_shower_bath_split():
    bundle = default_bundle()
    config = HouseholdConfig(point_mass(1.0, "count"))
    n = 100_000
    intervals = np.tile([0.0, 30.0], (n, 1))
    rng = streams.generator(streams.root(88), streams.HYGIENE)
    events = attach_hygiene_water(intervals, bundle, config, rng)
    share = float(np.mean(events["column"] == EVENT_COLUMNS.index("showers")))
    ok = len(events) == n and abs(share - 0.921) <= 0.005
    check(4, "shower/bath split", ok, f"shower fraction {share:.4f} vs 0.921 over {n} events")


def test_criterion_05_cluster_shares():
    config = HouseholdConfig(point_mass(1.0, "count"))
    rng = streams.generator(streams.root(303), streams.HOUSEHOLD)
    n = 100_000
    wd = np.zeros(4)
    we = np.zeros(4)
    for _ in range(n):
        (profile,) = sample_household(config, rng, 0)
        wd[profile.weekday_cluster] += 1
        we[profile.weekend_cluster] += 1
    target = np.array(PLANTED_SHARES)
    err = max(float(np.abs(wd / n - target).max()), float(np.abs(we / n - target).max()))
    ok = err <= 0.01
    check(5, "cluster share sampling", ok, f"max share err {err:.4f} over {n} occupants")


def _planted_instance(seed):
    rng = np.random.default_rng(seed)
    m0 = np.zeros(N_STEPS, dtype=np.int8)
    m1 = np.full(N_STEPS, 2, dtype=np.int8)
    rows = []
    for mode in (m0, m1):
        for _ in range(4):
            x = mode.copy()
            dims = rng.choice(N_STEPS, size=30, replace=False)
            x[dims] = (x[dims] + 1) % 3
            rows.append(x)
    return np.array(rows, dtype=np.int8)


def _brute_force_cost(X, k):
    n = X.shape[0]
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) < k:
            continue
        lab = np.array(assignment)
        cost = 0
        for c in range(k):
            members = X[lab == c]
            counts = np.stack([(members == s).sum(axis=0) for s in range(3)])
            cost += (members.shape[0] - counts.max(axis=0)).sum()
        if cost < best:
            best = cost
    return best


def _naive_silhouette(X, labels):
    D = (X[:, None, :] != X[None, :, :]).sum(axis=2).astype(float)
    k = labels.max() + 1
    scores = []
    for i in range(X.shape[0]):
        own = np.where(labels == labels[i])[0]
        if own.size == 1:
            scores.append(0.0)
            continue
        a = D[i, own[own != i]].mean()
        b = min(D[i, labels == c].mean() for c in range(k) if c != labels[i])
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


def test_criterion_06_clustering_oracle():
    X = _planted_instance(11)
    target = _brute_force_cost(X, 2)
    model, labels = kmodes(X, np.ones(len(X)), 2, "WD")
    cost = int(np.count_nonzero(X != model.modes[labels]))
    rng = np.random.default_rng(5)
    sil_err = 0.0
    for _ in range(10):
        Y = rng.integers(0, 3, size=(14, 40)).astype(np.int8)
        labels = rng.integers(0, 3, size=14)
        labels[:3] = [0, 1, 2]
        err = abs(silhouette(Y, labels) - _naive_silhouette(Y, labels))
        sil_err = max(sil_err, err)
    ok = cost == target and sil_err <= 1e-12
    check(
        6,
        "k-modes optimum and silhouette",
        ok,
        f"fit cost {cost} vs brute-force optimum {target}, silhouette err {sil_err:.1e}",
    )


def test_criterion_07_modulation_identities():
    rng = np.random.default_rng(17)
    n_days = 4
    ref = rng.uniform(0.05, 1.0, n_days * N_STEPS)
    ones = np.ones(n_days * N_STEPS)
    zeros = np.zeros(n_days * N_STEPS)
    full = modulate_schedule(ref, ones)
    empty = modulate_schedule(ref, zeros)
    dmin = np.repeat(ref.reshape(n_days, N_STEPS).min(axis=1), N_STEPS)
    full_exact = bool(np.array_equal(full, ref))
    empty_exact = bool(np.array_equal(empty, dmin))
    ok = full_exact and empty_exact
    check(
        7,
        "modulation identities",
        ok,
        f"full occupancy bit-exact: {full_exact}, zero occupancy bit-exact: {empty_exact}",
    )


def test_criterion_08_merge_invariant():
    rng = np.random.default_rng(2025)
    horizon_steps = 2 * N_STEPS
    mergeable = (ActivityState.COOKING, ActivityState.DISHWASHING, ActivityState.LAUNDRY)
    failures = 0
    hygiene_rejected = True
    for _ in range(1000):
        n_occ = int(rng.integers(2, 6))
        for activity in mergeable:
            # random other states, then `activity` over each occupant's random
            # step-aligned (start, end) minute intervals
            others = [int(s) for s in FULL_ALPHABET if s != activity]
            states = rng.choice(others, size=(n_occ, horizon_steps)).astype(np.int8)
            per_occ = []
            for o in range(n_occ):
                ivs = []
                for _i in range(rng.integers(0, 4)):
                    s = int(rng.integers(0, horizon_steps - 8)) * 15
                    e = s + int(rng.integers(1, 8)) * 15
                    ivs.append((float(s), float(e)))
                    states[o, s // 15 : e // 15] = int(activity)
                per_occ.append(ivs)
            merged = [tuple(iv) for iv in merge_shared_events(states, activity).tolist()]
            mask = np.zeros(horizon_steps * 15, dtype=bool)
            for ivs in per_occ:
                for s, e in ivs:
                    mask[int(s) : int(e)] = True
            edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
            oracle = list(
                zip(
                    np.nonzero(edges == 1)[0].astype(float),
                    np.nonzero(edges == -1)[0].astype(float),
                )
            )
            if merged != oracle:
                failures += 1
            if any(b[0] <= a[1] for a, b in zip(merged, merged[1:])):
                failures += 1
    hygiene = ActivityState.PERSONAL_HYGIENE
    try:
        merge_shared_events(np.full((1, N_STEPS), int(hygiene)), hygiene)
        hygiene_rejected = False
    except OccsimError:
        pass
    # identical overlapping hygiene runs stay one event per occupant
    bundle = default_bundle()
    config = HouseholdConfig(point_mass(1.0, "count"))
    states = np.full((3, N_STEPS), int(ActivityState.HOME_ACTIVE), dtype=np.int8)
    states[:, 40:42] = int(hygiene)  # minutes 600 to 630
    events = attach_hygiene_water(hygiene_intervals(states), bundle, config, np.random.default_rng(0))
    ok = failures == 0 and hygiene_rejected and len(events) == 3
    check(
        8,
        "shared-event merge invariant",
        ok,
        f"{failures} oracle mismatches over 3000 merges, hygiene unmerged: "
        f"{hygiene_rejected and len(events) == 3}",
    )


def test_criterion_09_conservation():
    rng = np.random.default_rng(909)
    n_days = 2
    horizon = n_days * 1440.0
    worst_rel = 0.0
    power_channels = ("cooking_range", "dishwasher_power", "clothes_washer_power", "clothes_dryer_power")
    water_channel = {"dishwasher_power": "dishwasher_water", "clothes_washer_power": "clothes_washer_water"}
    fixture_channels = ("showers", "baths", "sinks")
    for _ in range(1000):
        expected: dict[str, float] = {}
        appliance_events = []
        water_events = []
        for _i in range(rng.integers(1, 12)):
            power = power_channels[rng.integers(0, 4)]
            p_dur = float(rng.uniform(5, 120))
            w_dur = float(rng.uniform(2, 40)) if power in water_channel else 0.0
            start = float(rng.uniform(0, horizon - max(p_dur, w_dur)))
            p_lvl = float(rng.uniform(0.2, 1.0))
            w_flow = float(rng.uniform(0.5, 8.0)) if w_dur else 0.0
            appliance_events.append((EVENT_COLUMNS.index(power), start, p_dur, p_lvl))
            expected[power] = expected.get(power, 0.0) + p_dur * p_lvl
            if w_dur:
                water = water_channel[power]
                appliance_events.append((EVENT_COLUMNS.index(water), start, w_dur, w_flow))
                expected[water] = expected.get(water, 0.0) + w_dur * w_flow
        for _i in range(rng.integers(1, 12)):
            fix = fixture_channels[rng.integers(0, 3)]
            dur = float(rng.uniform(1, 45))
            start = float(rng.uniform(0, horizon - dur))
            flow = float(rng.uniform(0.5, 10.0))
            water_events.append((EVENT_COLUMNS.index(fix), start, dur, flow))
            expected[fix] = expected.get(fix, 0.0) + dur * flow
        appliance_events = np.array(appliance_events, dtype=EVENT)
        water_events = np.array(water_events, dtype=EVENT)
        raw = rasterize_events(appliance_events, water_events, n_days)
        for name, series in zip(EVENT_COLUMNS, raw):
            want = expected.get(name, 0.0)
            got = float(series.sum())
            if want == 0.0:
                worst_rel = max(worst_rel, abs(got))
            else:
                worst_rel = max(worst_rel, abs(got - want) / want)
    ok = worst_rel <= 1e-6
    check(9, "rasterization conserves event mass", ok, f"worst relative err {worst_rel:.2e}")


def test_criterion_10_heterogeneity_control():
    t0 = time.perf_counter()
    models = truth_models()
    bundle = default_bundle()
    counts = EmpiricalDistribution(np.array([1.0, 2.0, 3.0]), np.array([0.3, 0.45, 0.25]), "count")
    config = HouseholdConfig(counts, PLANTED_SHARES, PLANTED_SHARES)
    cal = SimCalendar(start_weekday=0, n_days=28)
    series = []
    for draw in draw_households(range(100), models, config, cal, 424, approach=3):
        res = build_household(draw, models, bundle, config, cal, approach=3)
        no_water = np.zeros(0, dtype=EVENT)
        raw = rasterize_events(res.appliance_events, no_water, cal.n_days)
        series.append(raw[EVENT_COLUMNS.index("cooking_range")])
    series = np.stack(series)

    def pmr(x):
        return float(x.max() / x.mean())

    independent = pmr(series.sum(axis=0))
    clone = pmr(series[0] * 100.0)
    ratio = clone / independent
    elapsed = time.perf_counter() - t0
    ok = ratio >= 1.5 and elapsed < 120.0
    check(
        10,
        "clone vs independent peak-to-mean",
        ok,
        f"clone PMR {clone:.2f} / independent PMR {independent:.2f} = {ratio:.2f} "
        f"(needs >= 1.5), {elapsed:.1f}s",
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        tree = tmp_path / name
        write_input_tree(tree, n_per_day_type=150, base_seed=606, n_households=2, n_days=6)
        code = run_pipeline(ProjectConfig.read(tree / "project.conf"), log=sys.stderr)
        assert code == 0
        outputs.append(tree / "out")
    files_a = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outputs[1]) for p in outputs[1].rglob("*") if p.is_file())
    same_names = files_a == files_b
    diffs = [
        str(rel)
        for rel in files_a
        if (outputs[0] / rel).read_bytes() != (outputs[1] / rel).read_bytes()
    ] if same_names else ["<file lists differ>"]
    ok = same_names and not diffs
    check(
        11,
        "end-to-end determinism",
        ok,
        f"{len(files_a)} artifacts byte-identical" if ok else f"differs: {diffs[:5]}",
    )


def test_criterion_12_planted_structure_recovery():
    """select_k over k 2..7 finds the four clusters synth plants, on both day
    types, with the planted labels up to relabelling on >= 99% of the weight."""
    t0 = time.perf_counter()
    found = []
    for seed in (31, 9, 57):
        corpus = generate_corpus(1500, seed)
        root = streams.root(seed)
        for di, day_type in enumerate(("WD", "WE")):
            rows = corpus[corpus["day_type"] == day_type]
            # each diary's planted cluster, drawn as generate_corpus draws it
            picks = [streams.generator(root, streams.SYNTH, di, i, 0) for i in range(len(rows))]
            planted = np.array([_draw_index(PLANTED_SHARES, pick) for pick in picks])
            w = rows["weight"]
            result = select_k(
                project_to_presence(rows["states"]),
                w,
                k_range=range(2, 8),
                epsilon=0.01,
                day_type=day_type,
            )
            agreement = 0.0
            if result.k_star == len(PLANTED_SHARES):
                joint = np.zeros((result.k_star, len(PLANTED_SHARES)))
                np.add.at(joint, (result.labels, planted), w)
                best = max(joint[perm, np.arange(len(perm))].sum() for perm in itertools.permutations(range(4)))
                agreement = float(best / w.sum())
            found.append((seed, day_type, result.k_star, agreement))
    elapsed = time.perf_counter() - t0
    ok = all(k == 4 and agreement >= 0.99 for _, _, k, agreement in found)
    detail = ", ".join(f"{dt}@{seed} k={k} agree {agreement:.4f}" for seed, dt, k, agreement in found)
    check(12, "planted structure recovery", ok, f"{detail}, {elapsed:.1f}s")
