import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parse_seeds_ranges_and_lists():
    assert bench_pairs.parse_seeds("601-603,7") == [601, 602, 603, 7]


def test_summary_counts_wins_by_direction_and_skips_ties():
    def run(p50, rate):
        return {"metrics": {"op_p50_ms": p50, "items_per_s": rate}}

    pairs = [
        {"parent": run(10.0, 100.0), "change": run(9.0, 90.0)},
        {"parent": run(10.0, 100.0), "change": run(10.0, 110.0)},
        {"parent": run(12.0, 100.0), "change": run(13.0, 120.0)},
    ]
    end_to_end = [
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
    out = bench_pairs.summarize(pairs, end_to_end)
    assert (out["op_p50_ms"]["change_wins"], out["op_p50_ms"]["parent_wins"]) == (1, 1)
    assert (out["items_per_s"]["change_wins"], out["items_per_s"]["parent_wins"]) == (2, 1)
    assert out["op_p50_ms"]["parent"] == {"q1": 10.0, "median": 10.0, "q3": 11.0}
