"""Run one surfsense benchmark workload and print its metrics.

    python3 bench/run.py --workload capture_stream --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout this file lives
in.  Set-up runs several times and the median is reported; then whole
units of work repeat until ``--seconds`` have passed.  With
``--trace 0`` the only wrapper is the step clock on
``classifier.batch_tensors`` and the end-to-end metrics are printed.
With ``--trace 1`` the set-up and one extra unit run with every layer
wrapped (see ``layers.py``), after an untraced phase of ``--seconds``
that gives the baseline for the tracing overhead, and the per-layer
metrics are printed.

Earlier stdout lines carry a JSON record of the environment, the output
digest and workload-native names of the metrics; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check still prints the result, with ``correct`` false, and
exits 1.  A checkout without ``src/surfsense`` exits 2 without a result.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from stats import percentile, summarize  # noqa: E402
from tracer import Patches, StepClock, Tracer, aggregate, covered_time_per_op  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Set-up repeats at least SETUP_MIN_REPEATS times, and more (up to
# SETUP_MAX_REPEATS) while the repeats so far took under SETUP_MIN_S.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_S = 2.0

# Share of the median traced op that the layer spans may leave
# uncovered: the benchmark's own loop code between library calls.
MAX_UNACCOUNTED_FRAC = 0.05

# (name, unit) of every end-to-end metric; BENCHMARK.json repeats them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

# Workload-native names of the generic metrics, for the info line.
NATIVE_NAMES = {
    "capture_stream": {
        "op_p50_ms": "capture_p50_ms",
        "op_p90_ms": "capture_p90_ms",
        "items_per_s": "stream_samples_per_s",
    },
    "cl_update": {
        "op_p50_ms": "train_step_p50_ms",
        "op_p90_ms": "train_step_p90_ms",
        "items_per_s": "train_images_per_s",
    },
    "kfold_train": {
        "op_p50_ms": "train_step_p50_ms",
        "op_p90_ms": "train_step_p90_ms",
        "items_per_s": "train_images_per_s",
    },
}


def import_library():
    """Put ``src/`` first on the path and import the library from there."""
    if not (SRC / "surfsense" / "__init__.py").is_file():
        fail_setup(f"no library sources at {SRC / 'surfsense'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import surfsense

    if Path(surfsense.__file__).resolve().parent != (SRC / "surfsense").resolve():
        fail_setup(f"imported surfsense from {surfsense.__file__}, not from {SRC}")


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def blas_info():
    """(name and version, thread count) of the BLAS numpy uses, where known."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps") as fp:
            libs = {line.split()[-1] for line in fp if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def git_state():
    """(commit SHA, dirty flag) of the checkout, or (None, None) outside git."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None, None
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return sha, dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def environment(load_at_start):
    import numpy as np

    blas, threads = blas_info()
    sha, dirty = git_state()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": load_at_start,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_units(workload, state, seconds, patches, clock):
    """Repeat whole units until ``seconds`` have passed (at least one unit)."""
    from surfsense import classifier

    patches.rebind(classifier, "batch_tensors", clock.wrap)
    units = []
    try:
        start = time.perf_counter()
        while True:
            units.append(workload.run_unit(state, clock))
            if time.perf_counter() - start >= seconds:
                break
    finally:
        patches.restore()
    return units


def op_summary(units):
    ops = [(b - a) * 1e3 for u in units for a, b in u.ops]
    wall = sum(u.wall_s for u in units)
    return {
        "op_p50_ms": percentile(ops, 50.0),
        "op_p90_ms": percentile(ops, 90.0),
        "items_per_s": sum(u.items for u in units) / wall if wall > 0 else 0.0,
        "ops": summarize(ops),
    }


def check_units(units):
    """Failures of every unit, plus one if repeated units disagree."""
    failures = [f for u in units for f in u.failures]
    digests = {u.digest for u in units}
    if len(digests) > 1:
        failures.append(f"repeated units produced {len(digests)} different output digests")
    return failures


def untraced_run(workload, seed, seconds, import_s):
    setup_runs = []
    state = None
    while len(setup_runs) < SETUP_MIN_REPEATS or (
        sum(setup_runs) < SETUP_MIN_S and len(setup_runs) < SETUP_MAX_REPEATS
    ):
        state = None  # free the previous inputs before building new ones
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_runs.append(time.perf_counter() - t0)
    units = run_units(workload, state, seconds, Patches(), StepClock())
    summary = op_summary(units)
    metrics = {
        "setup_s": import_s + statistics.median(setup_runs),
        "op_p50_ms": summary["op_p50_ms"],
        "op_p90_ms": summary["op_p90_ms"],
        "items_per_s": summary["items_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    units_of = dict(END_TO_END)
    info = {"setup_runs_s": setup_runs, "ops": summary["ops"]}
    return {k: (v, units_of[k]) for k, v in metrics.items()}, units, info


def traced_run(workload, seed, seconds):
    patches = Patches()
    setup_tracer = Tracer()
    layers.install(setup_tracer, patches)
    try:
        state = workload.setup(seed)
    finally:
        patches.restore()
    base_units = run_units(workload, state, seconds, patches, StepClock())
    base = op_summary(base_units)

    unit_tracer = Tracer()
    layers.install(unit_tracer, patches)
    traced_units = run_units(workload, state, 0.0, patches, StepClock())
    unit = traced_units[0]
    traced = op_summary(traced_units)
    unit_tracer.assign_ops(unit.ops)
    covered = covered_time_per_op(unit_tracer.spans, unit.ops)
    span_p50_ms = percentile(covered, 50.0) * 1e3
    unaccounted = percentile([(b - a - c) / (b - a) for (a, b), c in zip(unit.ops, covered)], 50.0)
    if unaccounted > MAX_UNACCOUNTED_FRAC:
        unit.failures.append(
            f"layer spans leave {unaccounted:.1%} of the median op unaccounted "
            f"(at most {MAX_UNACCOUNTED_FRAC:.0%})"
        )
    calls = aggregate(unit_tracer.spans)
    for name, expected in unit.expected_calls.items():
        got = calls[name].calls if name in calls else 0
        if got != expected:
            unit.failures.append(f"{name} was called {got} times, not {expected}")
    unit.attempted += 1 + len(unit.expected_calls)

    def ratio(a, b):
        return a / b - 1.0 if b else 0.0

    trace_summary = {
        "trace.op_p50_ms": base["op_p50_ms"],
        "trace.op_tail_ms": base["ops"]["tail"] or 0.0,
        "trace.op_tail_pct": base["ops"]["tail_pct"] or 0.0,
        "trace.op_n": base["ops"]["n"],
        "trace.traced_op_p50_ms": traced["op_p50_ms"],
        "trace.span_p50_ms": span_p50_ms,
        "trace.unaccounted_frac": unaccounted,
        "trace.accounted_gap_frac": ratio(span_p50_ms, base["op_p50_ms"]),
        "trace.overhead_frac": ratio(traced["op_p50_ms"], base["op_p50_ms"]),
        "trace.items_overhead_frac": ratio(base["items_per_s"], traced["items_per_s"]),
    }
    metrics = layers.per_layer_metrics(
        setup_tracer.spans, unit_tracer.spans, unit.counts, unit.quality, trace_summary
    )
    info = {"ops": base["ops"], "traced_ops": traced["ops"]}
    return (
        {k: (metrics[k], layers.UNITS[k]) for k in layers.UNITS},
        base_units + traced_units,
        info,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NATIVE_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be >= 0")

    load_at_start = os.getloadavg()
    import_library()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T_START
    workload = WORKLOADS[args.workload]()
    if args.trace:
        metrics, units, info = traced_run(workload, args.seed, args.seconds)
    else:
        metrics, units, info = untraced_run(workload, args.seed, args.seconds, import_s)

    failures = check_units(units)
    attempted = sum(u.attempted for u in units) + 1  # +1: the cross-unit digest check
    for failure in failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    native = NATIVE_NAMES[args.workload]
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=environment(load_at_start),
        digest=units[0].digest,
        units=len(units),
        unit_wall_s=[u.wall_s for u in units],
        quality=units[0].quality,
        counts=units[0].counts,
        native={native[k]: v for k, (v, _) in metrics.items() if k in native},
        failures=failures[:20],
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
