"""Weighted empirical distributions with inverse-CDF sampling."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .conf import Lines, OccsimError, number_rows, number_text, reading, write_lines
from .diary_ingest import N_STEPS

PROB_TOL = 1e-9

# Domain of a distribution's support by its kind: the last part of a bundle
# file's name (`sink.flow`) or of a model file's section (`[cooking.count]`).
SUPPORT_DOMAIN = {
    "duration": (lambda v: v > 0, "durations must be > 0"),
    "level": (lambda v: v >= 0, "levels must be >= 0"),
    "flow": (lambda v: v >= 0, "flows must be >= 0"),
    "count": (lambda v: v >= 0 and v.is_integer(), "counts must be whole and >= 0"),
    "onset": (lambda v: 0 <= round(v) < N_STEPS, "onsets must round into steps 0..95"),
}


def draw_thresholds(probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF thresholds of the distributions along the last axis of
    `probs`: the cumulative sums without the last, each inf from the last
    positive probability on.  A draw of r takes the index that counts the
    thresholds <= r, so a value of probability 0 is never drawn, even where
    the running sum rounds below 1."""
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[-1]
    last = n - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    return np.where(np.arange(n - 1) >= last[..., None], np.inf, np.cumsum(probs, axis=-1)[..., :-1])


@dataclass
class EmpiricalDistribution:
    """Discrete distribution over a strictly increasing support.

    Probabilities must sum to one within 1e-9 at construction; the stored
    vector is renormalized exactly so serialization round trips stay
    consistent.  `thresholds` are its `draw_thresholds`: a draw of r is the
    support value at the count of thresholds <= r.
    """

    support: np.ndarray
    probs: np.ndarray
    unit: str = ""
    thresholds: list[float] = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.support = np.asarray(self.support, dtype=np.float64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.support.ndim != 1 or self.support.size == 0:
            raise OccsimError("support must be a nonempty 1-d array")
        if self.support.shape != self.probs.shape:
            raise OccsimError("support and probs must align")
        if not (np.isfinite(self.support).all() and np.isfinite(self.probs).all()):
            raise OccsimError("support and probabilities must be finite")
        if (self.support[1:] <= self.support[:-1]).any():
            raise OccsimError("support must be strictly increasing with no duplicates")
        if (self.probs < 0).any():
            raise OccsimError("probabilities must be nonnegative")
        total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise OccsimError(f"probabilities sum to {total}, not 1")
        self.probs = self.probs / total
        self._cum = np.cumsum(self.probs)
        self.thresholds = draw_thresholds(self.probs).tolist()

    @classmethod
    def from_weights(cls, values: np.ndarray, weights: np.ndarray, unit: str) -> "EmpiricalDistribution":
        """Aggregate (possibly repeated) weighted samples into a distribution."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise OccsimError("no samples")
        weights = np.asarray(weights, dtype=np.float64)
        support, inverse = np.unique(values, return_inverse=True)
        mass = np.bincount(inverse, weights=weights, minlength=support.size)
        total = mass.sum()
        if total <= 0:
            raise OccsimError("total weight must be positive")
        return cls(support, mass / total, unit)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inverse-CDF draw: one float, or an array of `size`."""
        if size is None:
            return float(self.support[bisect.bisect_right(self.thresholds, rng.random())])
        return self.support[np.searchsorted(self.thresholds, rng.random(size), side="right")]

    def table(self, fn) -> tuple[list[float], list]:
        """`(thresholds, values)` for draws without numpy, built once per
        `fn`: `values[bisect_right(thresholds, r)]` is `fn` of the draw for `r`."""
        if fn not in self._tables:
            self._tables[fn] = (self.thresholds, [fn(v) for v in self.support.tolist()])
        return self._tables[fn]

    def sample_int(self, rng: np.random.Generator, size: int | None = None):
        value = self.sample(rng, size)
        return int(round(value)) if size is None else np.rint(value).astype(np.int64)

    def cdf_at(self, points: np.ndarray) -> np.ndarray:
        """Right-continuous CDF evaluated at `points`."""
        points = np.asarray(points, dtype=np.float64)
        idx = np.searchsorted(self.support, points, side="right")
        return np.concatenate([[0.0], self._cum])[idx]

    def section(self) -> tuple[str, np.ndarray]:
        """The `unit,<unit>` head line and `value,probability` rows of a `.dist` body."""
        return f"unit,{self.unit}", np.stack([self.support, self.probs], axis=1)

    def write(self, path: str | Path) -> None:
        head, rows = self.section()
        write_lines(path, [head, *map(",".join, number_text(rows))])

    @classmethod
    def read(cls, path: str | Path) -> "EmpiricalDistribution":
        """A `write` file, its support inside the `SUPPORT_DOMAIN` of the kind
        its name ends in; bad input raises OccsimError naming the file."""
        with reading(path) as lines:
            return cls.parse(lines, lines.numbered, Path(path).name.rsplit(".", 1)[-1])

    @classmethod
    def parse(cls, lines: Lines, numbered: list[tuple[int, str]], kind: str) -> "EmpiricalDistribution":
        """The `.dist` body of `numbered`, lines of `lines`, its support inside
        the `SUPPORT_DOMAIN` of `kind`: its rows read by `number_rows`, which
        names a bad one, then range-checked, naming the first out of range."""
        if not numbered or not numbered[0][1].startswith("unit,"):
            raise ValueError("missing unit header")
        v, p = number_rows(lines, numbered[1:], 2).T
        bad_p = ~((p >= 0) & (p <= 1))
        bad = bad_p | ~np.isfinite(v)
        bad[1:] |= v[1:] <= v[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            lines.at = numbered[1 + i][0]
            if bad_p[i]:
                raise ValueError(f"probability {float(p[i])} outside 0..1")
            raise ValueError(f"values must be finite and increasing, got {float(v[i])}")
        dist = cls(v, p, numbered[0][1].split(",", 1)[1])
        if kind in SUPPORT_DOMAIN:
            in_domain, rule = SUPPORT_DOMAIN[kind]
            bad = [v for v in dist.support.tolist() if not in_domain(v)]
            if bad:
                raise ValueError(f"{rule}, got {bad[0]:g}")
        return dist

