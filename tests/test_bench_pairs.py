import importlib.util
import json
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


def test_summary_verdicts():
    def run(rate):
        return {"metrics": {"items_per_s": rate}}

    spec = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]

    def verdicts(parent, change):
        pairs = [{"parent": run(p), "change": run(c)} for p, c in zip(parent, change)]
        m = bench_pairs.summarize(pairs, spec)["items_per_s"]
        return m["claim_holds"], m["regressed"], m["disjoint"]

    parent = [100.0, 90.0, 110.0, 95.0, 105.0, 100.0, 98.0, 102.0, 97.0, 103.0]
    # every run 30% faster: the claim holds and the sides are disjoint
    assert verdicts(parent, [1.3 * p for p in parent]) == (True, False, True)
    # wins 9/10, but the median gap (4.0) is inside the parent's IQR (5.5)
    assert verdicts(parent, [p + 5.0 for p in parent[:9]] + [50.0]) == (False, False, False)
    # 8/10 wins with a wide gap: the win count fails the claim
    change = [p + 40.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    assert verdicts(parent, change) == (False, False, False)
    # 30% slower in every pair: worse than the 25% bound
    assert verdicts(parent, [0.7 * p for p in parent]) == (False, True, False)
    assert verdicts(parent, [0.8 * p for p in parent]) == (False, False, False)


def test_digest_mismatches_name_each_differing_seed():
    def pair(seed, parent, change):
        return {"seed": seed, "parent": {"digest": parent}, "change": {"digest": change}}

    pairs = [pair(7, "a", "a"), pair(8, "b", "c"), pair(9, "d", "d"), pair(10, "e", None)]
    assert bench_pairs.digest_mismatches(pairs) == [8, 10]
    assert bench_pairs.digest_mismatches(pairs[:1] + pairs[2:3]) == []


def test_verdict_mismatches_name_seeds_whose_exit_or_failed_share_differ():
    def pair(seed, parent, change):
        """``parent`` and ``change`` are (exit, failed, attempted)."""
        return {
            "seed": seed,
            "parent": dict(zip(("exit", "failed", "attempted"), parent), digest="a"),
            "change": dict(zip(("exit", "failed", "attempted"), change), digest="b"),
        }

    pairs = [pair(30, (1, 1, 9), (0, 0, 9)), pair(31, (0, 0, 9), (0, 0, 9)),
             pair(38, (1, 1, 9), (1, 2, 9)), pair(39, (1, 1, 9), (1, 1, 9)),
             pair(40, (0, 0, 9), (1, 0, 9)),
             # every unit of 121 checks fails one; the sides ran 11 and 10 units
             # plus the cross-unit digest check (cl_update seed 1905)
             pair(1905, (1, 11, 1332), (1, 10, 1211)),
             # the same, but one of the change's 10 units passed
             pair(1906, (1, 11, 1332), (1, 9, 1211))]  # fmt: skip
    assert bench_pairs.verdict_mismatches(pairs) == [30, 38, 40, 1906]
    # digests may move while every verdict holds
    assert bench_pairs.digest_mismatches(pairs[1:2] + pairs[3:4]) == [31, 39]


def test_run_bench_records_each_runs_median_setup_repeat(tmp_path):
    info = {"setup_runs_s": [0.30, 0.10, 0.20, 0.50], "digest": "d", "env": {}}
    result = {"attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.45}}}
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        f"print({json.dumps(json.dumps({'info': info}))})\n"
        f"print({json.dumps(json.dumps(result))})\n"
    )
    run = bench_pairs.run_bench(tmp_path, "kfold_train", 1, 0)
    assert run["setup_run_median_s"] == 0.25
    assert run["metrics"] == {"setup_s": 0.45} and run["digest"] == "d"

    def side(median):
        return {"setup_run_median_s": median}

    pairs = [{"parent": side(p), "change": side(c)} for p, c in [(0.25, 0.125), (0.75, 0.375)]]
    assert bench_pairs.setup_run_quartiles(pairs) == {
        "parent": {"q1": 0.375, "median": 0.5, "q3": 0.625},
        "change": {"q1": 0.1875, "median": 0.25, "q3": 0.3125},
    }
