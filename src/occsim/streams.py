"""Deterministic RNG stream derivation.

Every stochastic component draws from a generator derived from the base seed
plus a structured integer path (stage tag, household index, occupant index,
day-type index, ...).  Derivation is stateless, so results never depend on
execution order, and adding a household or occupant never perturbs the
streams of existing ones.  A stream is derived per component, never per
day: a component takes its draws from its stream in calendar order.
"""

from __future__ import annotations

import itertools

import numpy as np

# Stage tags keep independent subsystems off each other's streams.
HOUSEHOLD = 2
OCCUPANT = 3
APPLIANCES = 4
HYGIENE = 5
SINKS = 6
SYNTH = 7


def root(base_seed: int) -> np.random.SeedSequence:
    """Root stream for a run."""
    return np.random.SeedSequence(int(base_seed))


def child(seq: np.random.SeedSequence, *path: int) -> np.random.SeedSequence:
    """Derive a sub-stream of `seq` without mutating it.

    Unlike ``SeedSequence.spawn`` this is a pure function of (entropy,
    spawn_key, path), so repeated calls with the same arguments always
    yield the same stream.
    """
    entropy = seq.entropy if seq.entropy is not None else 0
    key = tuple(seq.spawn_key) + tuple(int(p) for p in path)
    return np.random.SeedSequence(entropy, spawn_key=key)


# Uniforms that `uniforms` draws at a time.
UNIFORM_BLOCK = 512


def generator(seq: np.random.SeedSequence, *path: int) -> np.random.Generator:
    """Generator for the stream `child(seq, *path)`."""
    return np.random.default_rng(child(seq, *path))


def uniforms(rng: np.random.Generator):
    """`rng.random()` as a `draw()`, drawn `UNIFORM_BLOCK` at a time (the rest of the last block is lost)."""
    return itertools.chain.from_iterable(iter(lambda: rng.random(UNIFORM_BLOCK).tolist(), None)).__next__
