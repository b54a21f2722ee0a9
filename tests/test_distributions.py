from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occsim.diary_ingest import FULL_ALPHABET
from occsim.distributions import EmpiricalDistribution
from occsim.household import _draw_index
from occsim.markov_train import TPMSet
from occsim.occupant_sim import walk_days
from tests.helpers import draw_index, point_mass


class FixedRng:
    """Stand-in generator returning scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def test_from_weights_aggregates_duplicates():
    d = EmpiricalDistribution.from_weights(
        np.array([3.0, 1.0, 3.0]), np.array([2.0, 1.0, 4.0]), unit="minutes"
    )
    assert list(d.support) == [1.0, 3.0]
    assert np.allclose(d.probs, [1 / 7, 6 / 7])
    assert d.unit == "minutes"


def test_inverse_cdf_boundaries():
    d = EmpiricalDistribution(np.array([10.0, 20.0, 30.0]), np.array([0.2, 0.5, 0.3]))
    # cumulative edges are 0.2 and 0.7; a draw equal to an edge falls right
    assert d.sample(FixedRng([0.19])) == 10.0
    assert d.sample(FixedRng([0.2])) == 20.0
    assert d.sample(FixedRng([0.69999])) == 20.0
    assert d.sample(FixedRng([0.7])) == 30.0
    assert d.sample(FixedRng([0.999999])) == 30.0


def test_draw_index_edges_and_clamp():
    probs = [0.2, 0.5, 0.3]  # cumulative 0.2, 0.7, 1.0
    assert draw_index(probs, 0.0) == 0
    assert draw_index(probs, 0.2) == 1
    assert draw_index(probs, 0.99) == 2
    # rounding can leave the last cumulative value below the draw
    assert draw_index([0.2, 0.5, 0.2999999], 0.99999995) == 2
    assert draw_index(np.array(probs), 1.0) == 2
    # ... and never past the last value of positive probability
    assert draw_index([0.2, 0.7999999, 0.0], 0.99999995) == 1


def test_a_value_of_probability_zero_is_never_drawn():
    """Where the running sum of the probabilities rounds below 1, the draw
    just below 1 takes the last value of positive probability, not the
    trailing zero-probability value: the thresholds from the last positive
    probability on are inf."""
    r = np.nextafter(1.0, 0.0)
    dist = EmpiricalDistribution(np.arange(8.0), [1 / 7] * 7 + [0.0])
    assert np.cumsum(dist.probs)[-2] == 0.9999999999999998
    assert dist.sample(FixedRng([r])) == 6.0
    assert dist.sample(FixedRng([r] * 3), 3).tolist() == [6.0] * 3
    thresholds, values = dist.table(round)
    assert values[bisect_right(thresholds, r)] == 6
    assert thresholds[-1] == np.inf
    row = [1 / 6] * 6 + [0.0]
    chain = TPMSet(0, "WD", FULL_ALPHABET, row, np.array([[row] * len(FULL_ALPHABET)]))
    assert walk_days(chain, np.full((1, 2), r)).tolist() == [[5, 5]]


@pytest.mark.parametrize(
    "support, probs",
    [([10.0, 20.0, 30.0], [0.2, 0.5, 0.3]), ([1.0, 2.0, 3.0, 4.0], [0.1, 0.0, 0.6, 0.3]), ([5.0], [1.0])],
)
def test_array_sample_follows_draw_index(support, probs):
    d = EmpiricalDistribution(np.array(support), np.array(probs))
    cum = np.cumsum(d.probs).tolist()
    # zero, every cumulative edge and the float just below it, and just below 1
    r = [0.0, *cum, *np.nextafter(cum, 0.0).tolist(), np.nextafter(1.0, 0.0)]
    want = [float(d.support[draw_index(d.probs, x)]) for x in r]
    got = d.sample(FixedRng(r), len(r))
    assert isinstance(got, np.ndarray) and got.tolist() == want
    assert got.tolist() == [d.sample(FixedRng([x])) for x in r]
    assert d.sample_int(FixedRng(r), len(r)).tolist() == [d.sample_int(FixedRng([x])) for x in r]


def _weights(size):
    """Probabilities of `size` outcomes from small whole weights, zeros included."""
    return st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any).map(lambda w: np.array(w) / sum(w))


@st.composite
def _distributions(draw):
    size = draw(st.integers(1, 6))
    support = draw(st.lists(st.integers(-40, 400), min_size=size, max_size=size, unique=True))
    return EmpiricalDistribution(np.sort(support) / 4, draw(_weights(size)))


@st.composite
def _chains(draw):
    """A TPMSet of 1..4 states and 1..3 steps whose rows may sum to 1 - 9e-10,
    inside the row tolerance, so their last cumulative sum ends below 1."""
    S, T = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    short = draw(st.sampled_from([0.0, 1e-10, 9e-10]))
    initial = draw(_weights(S)) * (1 - short)
    matrices = np.array([[draw(_weights(S)) for _ in range(S)] for _ in range(T)]) * (1 - short)
    return TPMSet(0, "WD", FULL_ALPHABET[:S], initial, matrices)


def _edges(*cums) -> list[float]:
    """0, each cumulative sum and the float just below it, and values at or
    above the last sum: every r at which a count of thresholds could part
    from the clamped first index above r."""
    cum = np.concatenate([np.ravel(c) for c in cums])
    return np.unique(np.concatenate([[0.0, 1.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])).tolist()


@settings(deadline=None, max_examples=200)
@given(
    _distributions(),
    st.lists(st.floats(0, 10), min_size=1, max_size=6).filter(lambda w: sum(w) > 0),
    _chains(),
    st.integers(0, 2**32 - 1),
)
@example(
    EmpiricalDistribution(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.1, 0.0, 0.6, 0.3])),
    [0.2, 0.5, 0.2999999],  # cumulative sums 0.2, 0.7, 0.9999999
    TPMSet(0, "WD", FULL_ALPHABET[:3], np.array([0.2, 0.5, 0.3 - 9e-10]), np.array([np.eye(3)[[1, 2, 0]]])),
    0,
)
def test_every_draw_is_the_clamped_first_index_above_r(dist, shares, chain, seed):
    """Each sampler counts the thresholds <= r of a distribution or chain row;
    that count equals the `draw_index` oracle, the first cumulative sum above
    r clamped to the last index of positive probability, at every edge r:
    `sample` (scalar and array), `sample_int`, `table(fn)`, `walk_days` and
    `household._draw_index`."""
    cum = np.cumsum(dist.probs).tolist()
    r = _edges(cum)
    want = [float(dist.support[draw_index(dist.probs, x)]) for x in r]
    assert [dist.sample(FixedRng([x])) for x in r] == want
    drawn = dist.sample(FixedRng(r), len(r))
    assert isinstance(drawn, np.ndarray) and drawn.tolist() == want
    assert [dist.sample_int(FixedRng([x])) for x in r] == [round(v) for v in want]
    assert dist.sample_int(FixedRng(r), len(r)).tolist() == [round(v) for v in want]
    thresholds, values = dist.table(round)
    assert [values[bisect_right(thresholds, x)] for x in r] == [round(v) for v in want]

    cum = np.cumsum(shares)
    r = _edges(cum / cum[-1])
    assert [_draw_index(shares, FixedRng([x])) for x in r] == [draw_index(shares, x * cum[-1]) for x in r]

    cum_init, cum_rows = np.cumsum(chain.initial), np.cumsum(chain.matrices, axis=2)
    u = np.random.default_rng(seed).choice(_edges(cum_init, cum_rows), size=(64, chain.n_steps))
    for days, row in zip(walk_days(chain, u), u):
        s = [draw_index(chain.initial, row[0])]
        for t in range(chain.n_steps - 1):
            s.append(draw_index(chain.matrices[t, s[-1]], row[t + 1]))
        assert days.tolist() == s


def test_cdf_at_right_continuous():
    d = EmpiricalDistribution(np.array([1.0, 2.0]), np.array([0.4, 0.6]))
    pts = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    assert np.allclose(d.cdf_at(pts), [0.0, 0.4, 0.4, 1.0, 1.0])


def test_point_mass_degenerate():
    d = point_mass(9.0, unit="minutes")
    rng = np.random.default_rng(0)
    assert all(d.sample(rng) == 9.0 for _ in range(5))


def test_validation_errors():
    with pytest.raises(ValueError, match="strictly increasing"):
        EmpiricalDistribution(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="nonnegative"):
        EmpiricalDistribution(np.array([1.0, 2.0]), np.array([-0.1, 1.1]))
    with pytest.raises(ValueError, match="sum to"):
        EmpiricalDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="align"):
        EmpiricalDistribution(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        EmpiricalDistribution.from_weights(np.array([]), np.array([]), "count")


@pytest.mark.parametrize(
    "support, probs",
    [
        ([1.0, 2.0], [np.nan, 1.0]),
        ([1.0, 2.0], [0.5, np.inf]),
        ([1.0, np.inf], [0.5, 0.5]),
        ([-np.inf, 1.0], [0.5, 0.5]),
        ([np.nan], [1.0]),
    ],
)
def test_validation_rejects_non_finite(support, probs):
    with pytest.raises(ValueError, match="finite"):
        EmpiricalDistribution(np.array(support), np.array(probs))


def test_round_trip(tmp_path):
    d = EmpiricalDistribution(
        np.array([1.0, 2.5, 7.0]), np.array([0.125, 0.5, 0.375]), unit="steps"
    )
    path = tmp_path / "d.dist"
    d.write(path)
    back = EmpiricalDistribution.read(path)
    assert back.unit == "steps"
    assert np.array_equal(back.support, d.support)
    assert np.allclose(back.probs, d.probs, atol=1e-12)


def test_read_missing_unit_header(tmp_path):
    path = tmp_path / "bad.dist"
    path.write_text("1.0,1.0\n")
    with pytest.raises(ValueError, match="unit header"):
        EmpiricalDistribution.read(path)


@pytest.mark.parametrize(
    "body, pattern",
    [
        ("1.0,0.5\n2.0;0.5\n", r"bad\.dist: line 3: expected 2 values, got 1"),
        ("1.0,0.5\n2.0,half\n", r"bad\.dist: line 3"),
        ("1.0,0.5,9\n", r"bad\.dist: line 2"),
        ("# comment\n\n1.0,0.5;9\n", r"bad\.dist: line 4: could not convert string to float: '0\.5;9'"),
        ("1.0,0.5\ninf,0.5\n", r"bad\.dist: .*finite"),
        ("", r"bad\.dist: support must be a nonempty"),
    ],
)
def test_read_names_file_and_line(tmp_path, body, pattern):
    path = tmp_path / "bad.dist"
    path.write_text("unit,minutes\n" + body)
    with pytest.raises(ValueError, match=pattern):
        EmpiricalDistribution.read(path)


def test_read_skips_comments_blank_lines_and_spaces(tmp_path):
    path = tmp_path / "d.dist"
    path.write_text("# survey 2019\nunit,minutes\n  15,0.25\n\n# tail\n30,0.75  \n")
    dist = EmpiricalDistribution.read(path)
    assert dist.unit == "minutes" and dist.support.tolist() == [15.0, 30.0]


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=20, unique=True),
    st.integers(0, 2**32 - 1),
)
def test_sampling_hits_only_support(values, seed):
    values = sorted(values)
    probs = np.ones(len(values)) / len(values)
    d = EmpiricalDistribution(np.array(values), probs)
    rng = np.random.default_rng(seed)
    support = set(values)
    assert all(d.sample(rng) in support for _ in range(20))


@given(st.integers(0, 2**32 - 1))
def test_empirical_frequencies_converge(seed):
    d = EmpiricalDistribution(np.array([0.0, 1.0, 2.0]), np.array([0.6, 0.3, 0.1]))
    rng = np.random.default_rng(seed)
    draws = np.array([d.sample(rng) for _ in range(4000)])
    freq = np.array([(draws == v).mean() for v in d.support])
    assert np.all(np.abs(freq - d.probs) < 0.05)
