"""Compare the three day-simulation approaches against a planted ground truth.

Trains a cluster/day model on synthetic diaries drawn from a known truth
model, simulates the same number of days with each approach, and scores
each simulated set against the training corpus statistics (KS on duration
and onset, occurrence chi-square, profile MAD).  Approach 1 places events
on a presence skeleton, Approach 2 walks the full chain with no holds,
Approach 3 (the default elsewhere) walks the chain with duration holds.

Usage:
    python3 scripts/approach_comparison.py --train 20000 --sim 10000 --seed 7
"""

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from occsim import streams
from occsim.diary_ingest import N_STEPS, STATE_TOKENS
from occsim.markov_train import estimate_statistics, train_cluster_day_model
from occsim.occupant_sim import days_to_sequences, place_events, walk_days
from occsim.synth import build_truth_model
from occsim.validate import compare_behavior


def simulate_set(approach, model, n, rng):
    """Return (sequences, placement_failures) for one approach; each walks
    all n days in one call."""
    failures = 0
    if approach == 1:
        presence = walk_days(model.presence_tpms, rng.random((n, N_STEPS)))
        days, fails = place_events(presence, model.stats, rng.random)
        failures = sum(fails)
    elif approach == 2:
        days = walk_days(model.tpms, rng.random((n, N_STEPS)))
    else:
        days = walk_days(model.tpms, rng.random((n, 2 * N_STEPS)), model.stats)
    return days_to_sequences(days, model.tpms.day_type, f"a{approach}d"), failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--train", type=int, default=20000, help="training diaries")
    ap.add_argument("--sim", type=int, default=10000, help="simulated days per approach")
    ap.add_argument("--seed", type=int, default=7, help="base seed")
    ap.add_argument("--cluster", type=int, default=0, help="truth cluster id (0..3)")
    ap.add_argument("--day-type", default="WD", choices=("WD", "WE"))
    ap.add_argument("--out", type=Path, default=None, help="optional per-activity CSV")
    ap.add_argument("--verbose", action="store_true", help="print per-activity tables")
    args = ap.parse_args(argv)

    root = streams.root(args.seed)
    truth = build_truth_model(args.cluster, args.day_type)
    u = streams.generator(root, streams.SYNTH).random((args.train, 2 * N_STEPS))
    corpus = days_to_sequences(walk_days(truth.tpms, u, truth.stats), args.day_type, "t")
    model = train_cluster_day_model(corpus, cluster_id=args.cluster, day_type=args.day_type)
    reference = estimate_statistics(corpus)

    rows = []
    for approach in (1, 2, 3):
        rng = streams.generator(root, streams.OCCUPANT, approach)
        t0 = time.perf_counter()
        seqs, failures = simulate_set(approach, model, args.sim, rng)
        elapsed = time.perf_counter() - t0
        report = compare_behavior(seqs, reference)
        ks = [v for r in report.rows for v in (r.ks_duration, r.ks_onset) if v is not None]
        mad = [r.profile_mad for r in report.rows]
        rows.append((approach, elapsed, failures, max(ks), max(mad), report))

    print(f"truth: cluster {args.cluster} {args.day_type}, "
          f"{args.train} training diaries, {args.sim} days per approach")
    print(f"{'approach':<10} {'seconds':>8} {'failures':>9} {'worst_ks':>9} {'worst_mad':>10}")
    for approach, elapsed, failures, worst_ks, worst_mad, _ in rows:
        print(f"{approach:<10} {elapsed:8.2f} {failures:9d} {worst_ks:9.4f} {worst_mad:10.4f}")

    if args.verbose:
        for approach, _, _, _, _, report in rows:
            print(f"\napproach {approach}")
            print(report.format_table())

    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["approach", "activity", "ks_duration", "ks_onset",
                        "occurrence_chi2_p", "profile_mad"])
            for approach, _, _, _, _, report in rows:
                for r in report.rows:
                    w.writerow([approach, STATE_TOKENS[r.activity],
                                r.ks_duration, r.ks_onset,
                                r.occurrence_chi2_p, r.profile_mad])
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
