import numpy as np
import pytest

from stats import percentile, summarize, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_p50_tail_and_n():
    values = np.arange(1000, dtype=float)
    s = summarize(values)
    assert s["n"] == 1000
    assert s["p50"] == pytest.approx(499.5)
    assert s["tail_pct"] == 99.0
    assert s["tail"] == pytest.approx(np.percentile(values, 99.0))
    assert np.sum(values > s["tail"]) >= 10


def test_summarize_small_and_empty_samples_have_no_tail():
    assert summarize([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "tail_pct": None, "tail": None}
    assert summarize([]) == {"n": 0, "p50": 0.0, "tail_pct": None, "tail": None}
    assert percentile([], 90.0) == 0.0
