import numpy as np
import pytest

from occsim import streams


def test_same_path_same_draws():
    a = streams.generator(streams.root(5), streams.HOUSEHOLD, 3)
    b = streams.generator(streams.root(5), streams.HOUSEHOLD, 3)
    assert np.array_equal(a.random(8), b.random(8))


def test_different_path_different_draws():
    a = streams.generator(streams.root(5), streams.HOUSEHOLD, 3)
    b = streams.generator(streams.root(5), streams.HOUSEHOLD, 4)
    c = streams.generator(streams.root(5), streams.OCCUPANT, 3)
    assert not np.array_equal(a.random(8), b.random(8))
    assert not np.array_equal(a.random(8), c.random(8))


def test_child_is_stateless():
    root = streams.root(11)
    k1 = streams.child(root, 1, 2).spawn_key
    k2 = streams.child(root, 1, 2).spawn_key
    assert k1 == k2
    # deriving k1 first must not perturb a sibling
    assert streams.child(root, 9).spawn_key == streams.child(streams.root(11), 9).spawn_key


def test_nested_children_extend_spawn_key():
    root = streams.root(0)
    outer = streams.child(root, 2)
    inner = streams.child(outer, 7, 1)
    assert inner.spawn_key == (2, 7, 1)
    assert inner.entropy == root.entropy


def test_generator_accepts_seedsequence():
    seq = streams.child(streams.root(3), 1)
    a = streams.generator(seq)
    b = streams.generator(streams.child(streams.root(3), 1))
    assert a.random() == b.random()


def test_uniforms_are_repeated_random_calls_across_blocks():
    draw = streams.uniforms(streams.generator(streams.root(5), streams.OCCUPANT))
    rng = streams.generator(streams.root(5), streams.OCCUPANT)
    n = 2 * streams.UNIFORM_BLOCK + 5
    got = [draw() for _ in range(n)]
    assert got == [rng.random() for _ in range(n)]
    assert all(type(r) is float for r in got)
