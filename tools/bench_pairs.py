"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cl_update --seeds 601-610

For each seed, ``bench/run.py --workload W --seed S --seconds T --trace 0``
runs once in each checkout; the side that runs first alternates from one
pair to the next.  The run length T, the end-to-end metrics and their
direction come from ``BENCHMARK.json`` next to this script.

One comparison is appended to ``BENCH_<workload>.json`` at the root of
the repository holding this script: every run's end-to-end metrics,
failed/attempted counts and median set-up repeat (``setup_s`` without
its import time; each side's quartiles of it are printed under
``setup_s``), and per metric each side's quartiles and the number of
pairs each side won (ties count for neither), with the verdicts that
:func:`summarize` defines, and the seeds whose two runs differ in output
digest or in verdict (exit status or failed share).  The file is
rewritten after every pair, so a batch cut short keeps the pairs it ran.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """``601-610`` or ``3,5,9`` (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its result line plus the median set-up repeat, output
    digest, git state and load it reported."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    results = [r for r in records if "metrics" in r]
    if not results:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}:\n{proc.stderr}")
    info = next((r["info"] for r in records if "info" in r), {})
    env = info.get("env", {})
    result = results[-1]
    return {
        "exit": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "setup_run_median_s": statistics.median(info["setup_runs_s"]),
        "digest": info.get("digest"),
        "git_sha": env.get("git_sha"),
        "git_dirty": env.get("git_dirty"),
        "loadavg_start": env.get("loadavg_start"),
    }


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric: quartiles, wins, and three verdicts.

    ``claim_holds``: the change won at least 9 of every 10 pairs and its
    median beats the parent's by more than the parent's interquartile
    range.  ``regressed``: the change's median is worse than the parent's
    by more than ``bound`` times the parent's median.  ``disjoint``:
    every change run beats every parent run.
    """
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        change_wins = sum(d > 0 for d in diffs)
        gap = sign * (change["median"] - parent["median"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "change_wins": change_wins,
            "parent_wins": sum(d < 0 for d in diffs),
            "claim_holds": 10 * change_wins >= 9 * len(pairs)
            and gap > parent["q3"] - parent["q1"],
            "regressed": -gap > spec["bound"] * abs(parent["median"]),
            "disjoint": min(sign * c for c in values["change"])
            > max(sign * p for p in values["parent"]),
        }
    return out


def setup_run_quartiles(pairs: list) -> dict:
    """Per side, the quartiles of each run's median set-up repeat."""
    return {side: quartiles([p[side]["setup_run_median_s"] for p in pairs]) for side in SIDES}


def digest_mismatches(pairs: list) -> list:
    """Seeds of the pairs whose parent and change runs report different output digests."""
    return [p["seed"] for p in pairs if p["parent"]["digest"] != p["change"]["digest"]]


def verdict_mismatches(pairs: list) -> list:
    """Seeds of the pairs whose parent and change runs differ in exit status or in
    failed share (failed / attempted).  Two shares count as equal when they are
    closer than half of one failure in the larger run, so a seed that fails the
    same checks in every unit keeps one verdict however many units each side ran:
    the cross-unit digest check adds one check per run, not per unit."""
    def differ(a: dict, b: dict) -> bool:
        gap = abs(a["failed"] / a["attempted"] - b["failed"] / b["attempted"])
        return a["exit"] != b["exit"] or gap >= 0.5 / max(a["attempted"], b["attempted"])

    return [p["seed"] for p in pairs if differ(p["parent"], p["change"])]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    workloads = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 601-610")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    out_path = ROOT / f"BENCH_{args.workload}.json"
    doc = {"workload": args.workload, "comparisons": []}
    if out_path.exists():
        doc = json.loads(out_path.read_text())
    entry = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed S "
        f"--seconds {seconds} --trace 0",
        "pairs": [],
    }
    doc["comparisons"].append(entry)
    checkouts = {"parent": args.parent, "change": args.change}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(checkouts[side], args.workload, seed, seconds)
            print(
                f"seed {seed} {side}: op_p50_ms {pair[side]['metrics']['op_p50_ms']:.2f}",
                file=sys.stderr,
            )
        entry["pairs"].append(pair)
        entry["failed"] = {
            side: [sum(p[side]["failed"] for p in entry["pairs"]),
                   sum(p[side]["attempted"] for p in entry["pairs"])]
            for side in SIDES
        }  # fmt: skip
        entry["metrics"] = summarize(entry["pairs"], bench["end_to_end"])
        entry["setup_run_median_s"] = setup_run_quartiles(entry["pairs"])
        entry["digest_mismatch_seeds"] = digest_mismatches(entry["pairs"])
        entry["verdict_mismatch_seeds"] = verdict_mismatches(entry["pairs"])
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in entry["metrics"].items():
        print(
            f"{name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
            f"{m['unit']}; change won {m['change_wins']}/{len(entry['pairs'])}; "
            f"claim holds {m['claim_holds']}; regressed {m['regressed']}; "
            f"disjoint {m['disjoint']}",
        )
        if name == "setup_s":
            runs = entry["setup_run_median_s"]
            print(
                "  set-up repeats alone (per-run medians, q1/median/q3 s): "
                + "; ".join(
                    f"{side} {q['q1']:.4g}/{q['median']:.4g}/{q['q3']:.4g}"
                    for side, q in runs.items()
                )
            )
    differ, verdicts = entry["digest_mismatch_seeds"], entry["verdict_mismatch_seeds"]
    print(
        (f"output digests differ at seeds {differ}" if differ else "output digests match")
        + (f"; verdicts differ at seeds {verdicts}" if verdicts else "; verdicts match")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
