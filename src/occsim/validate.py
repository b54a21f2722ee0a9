"""Statistical comparison of simulated behavior against a reference corpus.

Durations and onsets are compared with a two-sample Kolmogorov-Smirnov
statistic over weighted empirical distributions, daily occurrence counts
with a chi-square test (bins pooled until every expected count is at least
five), and daily activity profiles with mean absolute deviation.  The
chi-square p-value is the exact closed-form upper tail for integer degrees
of freedom (`chi2_sf`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .conf import OccsimError, write_lines
from .diary_ingest import STATE_TOKENS, ActivityState
from .distributions import EmpiricalDistribution
from .markov_train import ActivityStats, estimate_statistics

MIN_EXPECTED = 5.0


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted distinct values of two nonempty supports.  np.union1d and
    np.unique would import numpy.ma on first use."""
    points = np.sort(np.concatenate([a, b]))
    return points[np.r_[True, points[1:] != points[:-1]]]


def ks_statistic(a: EmpiricalDistribution | None, b: EmpiricalDistribution | None) -> float | None:
    """Two-sample KS over weighted empirical distributions.

    An activity absent on both sides has no statistic (None); absent on one
    side only is maximal disagreement (1.0).
    """
    if a is None and b is None:
        return None
    if a is None or b is None:
        return 1.0
    points = _union(a.support, b.support)
    return float(np.max(np.abs(a.cdf_at(points) - b.cdf_at(points))))


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square upper tail P(X > x) for an integer `dof` >= 1.

    With h = x/2: [erfc(sqrt(h)) if dof is odd] plus h**a e**-h / Gamma(a + 1)
    over a = dof/2 - j, j = 1..dof//2, each term formed in log space so it
    does not underflow early.
    """
    if x <= 0:
        return 1.0
    h = x / 2
    log_h = math.log(h)
    head = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    terms = (dof / 2 - j for j in range(1, dof // 2 + 1))
    return head + sum(math.exp(a * log_h - h - math.lgamma(a + 1)) for a in terms)


def occurrence_chi2_p(
    sim: EmpiricalDistribution, ref: EmpiricalDistribution, n_sim_days: int
) -> float:
    """Chi-square p-value for simulated daily occurrence counts.

    Expected counts come from the reference proportions scaled to the
    simulated day total; consecutive bins pool until each expected count
    reaches five, with any remainder folded into the last bin.
    """
    support = _union(sim.support, ref.support)
    obs = sim.cdf_at(support) - sim.cdf_at(support - 0.5)
    exp = ref.cdf_at(support) - ref.cdf_at(support - 0.5)
    obs = obs * n_sim_days
    exp = exp * n_sim_days
    pooled_obs: list[float] = []
    pooled_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if pooled_obs:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
    k = len(pooled_obs)
    if k < 2:
        return 1.0
    obs_arr = np.array(pooled_obs)
    exp_arr = np.array(pooled_exp)
    if np.any(exp_arr <= 0):
        return 0.0
    stat = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    return chi2_sf(stat, k - 1)


@dataclass
class ActivityComparison:
    activity: ActivityState
    ks_duration: float | None
    ks_onset: float | None
    occurrence_chi2_p: float
    profile_mad: float
    n_sim_days: int
    n_ref_days: int
    n_sim_events: int
    n_ref_events: int


@dataclass
class ComparisonReport:
    rows: list[ActivityComparison]

    def to_records(self) -> list[tuple[str, str, str]]:
        """(metric, activity, value) per metric field of each row, in field
        order: a count as is, a float to 9 significant digits, None as "na"."""
        def text(v):
            return "na" if v is None else str(v) if isinstance(v, int) else f"{v:.9g}"
        metrics = [f.name for f in fields(ActivityComparison)[1:]]
        return [(m, STATE_TOKENS[r.activity], text(getattr(r, m))) for r in self.rows for m in metrics]

    def write(self, path: str | Path) -> None:
        write_lines(path, ["metric,activity,value", *map(",".join, self.to_records())])

    def format_table(self) -> str:
        head = f"{'activity':<16} {'ks_dur':>8} {'ks_onset':>8} {'chi2_p':>8} {'mad':>8} {'events':>12}"
        out = [head, "-" * len(head)]
        for r in self.rows:
            def fmt(v):
                return "na" if v is None else f"{v:8.4f}"
            out.append(
                f"{STATE_TOKENS[r.activity]:<16} {fmt(r.ks_duration):>8} {fmt(r.ks_onset):>8} "
                f"{r.occurrence_chi2_p:8.4f} {r.profile_mad:8.4f} "
                f"{r.n_sim_events:>5}/{r.n_ref_events:<6}"
            )
        return "\n".join(out)


def compare_behavior(sim_days: np.ndarray, ref_stats: dict[ActivityState, ActivityStats]) -> ComparisonReport:
    """Compare a SEQUENCE table of simulated days against reference
    statistics, for each activity of `ref_stats` in its order."""
    if not len(sim_days):
        raise OccsimError("no simulated days")
    rows = []
    sim_stats = estimate_statistics(sim_days, tuple(ref_stats))
    for activity, sim in sim_stats.items():
        ref = ref_stats[activity]
        rows.append(
            ActivityComparison(
                activity,
                ks_statistic(sim.duration_dist, ref.duration_dist),
                ks_statistic(sim.onset_dist, ref.onset_dist),
                occurrence_chi2_p(sim.occurrences_dist, ref.occurrences_dist, sim.n_days),
                float(np.abs(sim.daily_profile - ref.daily_profile).mean()),
                sim.n_days,
                ref.n_days,
                sim.n_events,
                ref.n_events,
            )
        )
    return ComparisonReport(rows)

