import pytest

from run import import_seconds
from summary import describe, quartile_spread, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_describe_reports_tail_only_with_enough_samples():
    assert describe([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0}
    out = describe([float(i) for i in range(1, 101)])
    assert out["tail_percentile"] == 90.0
    assert out["tail"] == 90.0
    assert sum(1 for i in range(1, 101) if i > out["tail"]) == 10


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_import_seconds_takes_outermost_package_imports():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:        50 |        150 |   scipy",
            "import time:       200 |        200 |     scipy.special",
            "import time:       300 |        500 |   scipy.stats",
            "import time:        10 |        700 | occsim.validate",
            "import time:        20 |         20 | json",
        ]
    )
    assert import_seconds(log, "scipy") == pytest.approx(650e-6)
    assert import_seconds(log, "occsim") == pytest.approx(700e-6)
    assert import_seconds(log, "json") == pytest.approx(20e-6)
