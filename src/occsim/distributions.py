"""Weighted empirical distributions with inverse-CDF sampling."""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .conf import OccsimError, number_text, reading, write_lines
from .diary_ingest import N_STEPS

PROB_TOL = 1e-9

# Domain of a distribution's support by the kind its file name ends in, the
# last part before any `.dist` (`sink.flow`, `c0.wd.cooking.count.dist`).
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
        if np.any(self.support[1:] <= self.support[:-1]):
            raise OccsimError("support must be strictly increasing with no duplicates")
        if np.any(self.probs < 0):
            raise OccsimError("probabilities must be nonnegative")
        total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise OccsimError(f"probabilities sum to {total}, not 1")
        self.probs = self.probs / total
        self._cum = np.cumsum(self.probs)
        self.thresholds = draw_thresholds(self.probs).tolist()

    @classmethod
    def from_weights(
        cls, values: np.ndarray, weights: np.ndarray | None = None, unit: str = ""
    ) -> "EmpiricalDistribution":
        """Aggregate (possibly repeated) weighted samples into a distribution."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise OccsimError("no samples")
        if weights is None:
            weights = np.ones_like(values)
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

    def write(self, path: str | Path) -> None:
        rows = number_text(np.stack([self.support, self.probs], axis=1))
        write_lines(path, [f"unit,{self.unit}", *map(",".join, rows)])

    @classmethod
    def read(cls, path: str | Path) -> "EmpiricalDistribution":
        """A `write` file, its support inside the `SUPPORT_DOMAIN` of the kind
        its name ends in; bad input raises OccsimError naming the file."""
        with reading(path) as lines:
            if not lines.first.startswith("unit,"):
                raise ValueError("missing unit header")
            rows = iter(lines)
            unit = next(rows).split(",", 1)[1]
            values, probs = [], []
            for line in rows:
                try:
                    v, p = map(float, line.split(","))
                except ValueError:
                    raise ValueError(f"expected value,probability, got {line!r}") from None
                if not 0 <= p <= 1:
                    raise ValueError(f"probability {p} outside 0..1")
                if not math.isfinite(v) or (values and v <= values[-1]):
                    raise ValueError(f"values must be finite and increasing, got {v}")
                values.append(v)
                probs.append(p)
            dist = cls(np.array(values), np.array(probs), unit)
            kind = os.path.basename(path).removesuffix(".dist").rsplit(".", 1)[-1]
            if kind in SUPPORT_DOMAIN:
                in_domain, rule = SUPPORT_DOMAIN[kind]
                bad = [v for v in values if not in_domain(v)]
                if bad:
                    raise ValueError(f"{rule}, got {bad[0]:g}")
        return dist
