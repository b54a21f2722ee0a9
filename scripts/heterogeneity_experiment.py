"""Quantify aggregate smoothing from household heterogeneity.

Builds N independent households from planted truth models, aggregates a
rasterized event channel, and compares its peak-to-mean ratio against a
control where one household's series is cloned N times.  Independent
draws should flatten the aggregate markedly; clones keep single-household
spikiness at full aggregate scale.

Usage:
    python3 scripts/heterogeneity_experiment.py --households 100 --days 28
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from occsim.distributions import EmpiricalDistribution
from occsim.household import EVENT_COLUMNS, HouseholdConfig, build_household, draw_households
from occsim.occupant_sim import SimCalendar
from occsim.pipeline import Settings
from occsim.schedule_io import rasterize_events
from occsim.synth import PLANTED_SHARES, default_bundle, truth_models


def peak_to_mean(series: np.ndarray) -> float:
    mean = series.mean()
    return float(series.max() / mean) if mean > 0 else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--households", type=int, default=100)
    ap.add_argument("--days", type=int, default=28)
    ap.add_argument("--seed", type=int, default=424, help="base seed")
    ap.add_argument("--start-weekday", type=int, default=0, help="0 = Monday")
    ap.add_argument("--channel", default="cooking_range", choices=EVENT_COLUMNS,
                    help="rasterized channel to aggregate")
    ap.add_argument("--clone-index", type=int, default=0,
                    help="household whose series backs the clone control")
    ap.add_argument("--out", type=Path, default=None,
                    help="optional CSV of the two aggregate series")
    args = ap.parse_args(argv)

    models = truth_models()
    bundle = default_bundle()
    counts = EmpiricalDistribution(
        np.array([1.0, 2.0, 3.0]), np.array([0.3, 0.45, 0.25]), "count"
    )
    config = HouseholdConfig(counts, PLANTED_SHARES, PLANTED_SHARES)
    cal = SimCalendar(start_weekday=args.start_weekday, n_days=args.days)

    approach = Settings().approach
    t0 = time.perf_counter()
    series = []
    for draw in draw_households(range(args.households), models, config, cal, args.seed, approach=approach):
        res = build_household(draw, models, bundle, config, cal, approach=approach)
        raster = rasterize_events(res.appliance_events, res.water_events, cal.n_days)
        series.append(raster[EVENT_COLUMNS.index(args.channel)])
    series = np.stack(series)
    elapsed = time.perf_counter() - t0

    independent = series.sum(axis=0)
    clone = series[args.clone_index] * args.households
    pmr_ind = peak_to_mean(independent)
    pmr_clone = peak_to_mean(clone)

    print(f"{args.households} households x {args.days} days, channel {args.channel}, "
          f"seed {args.seed} ({elapsed:.1f}s)")
    print(f"{'aggregate':<22} {'peak':>10} {'mean':>10} {'peak/mean':>10}")
    print(f"{'independent':<22} {independent.max():10.2f} {independent.mean():10.2f} "
          f"{pmr_ind:10.2f}")
    print(f"{'cloned household':<22} {clone.max():10.2f} {clone.mean():10.2f} "
          f"{pmr_clone:10.2f}")
    if pmr_ind > 0:
        print(f"clone/independent peak-to-mean factor: {pmr_clone / pmr_ind:.2f}")

    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "independent", "cloned"])
            for t in range(independent.size):
                w.writerow([t, independent[t], clone[t]])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
