"""Tracer self-check on tiny instances of each workload.

Every per-layer metric the benchmark documentation predicts to be
non-zero on a workload must read > 0 there, every metric predicted zero
must read 0, and after the traced run every wrapped name must be bound
to its original object again.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from tracer import Patches, StepClock, Tracer, aggregate, covered_time_per_op, library_modules
from workloads import (
    CaptureSizes,
    CaptureStream,
    ClSizes,
    ClUpdate,
    KfoldSizes,
    KfoldTrain,
)

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = {
    "capture_stream": lambda: CaptureStream(
        CaptureSizes(setdowns=12, long_rests=3, pool_per_material=1,
                     train_renders_per_material=1, train_epochs=1)
    ),
    "cl_update": lambda: ClUpdate(ClSizes(images_per_class=12, pretrain_epochs=1, epochs=1)),
    "kfold_train": lambda: KfoldTrain(KfoldSizes(images_per_class=8, k=2, epochs=1)),
}

BLOCK_FWD = [f"classifier.{b}.{p}" for b in layers.BLOCKS for p in ("fwd_ms", "busy_s")]
BLOCK_BWD = [f"classifier.{b}.bwd_ms" for b in layers.BLOCKS]
TRAINING = [
    "imaging.augment_batch.calls", "imaging.augment_batch.images",
    "imaging.augment_batch.p50_ms", "imaging.augment_batch.busy_s",
    *BLOCK_FWD, *BLOCK_BWD,
    "classifier.batch_tensors.self_s", "classifier.Adam.step.p50_ms",
    "classifier.Adam.step.busy_s", "classifier.train.self_s",
    "classifier.predict_records.busy_s",
]
CAPTURE = [
    "imu_trigger.ingest.calls", "imu_trigger.ingest.busy_s", "imu_trigger.ingest.p50_us",
    "imu_trigger.events.capture", "imu_trigger.events.background_enter",
    "imu_trigger.events.foreground_resume",
    "imaging.log_sharpness.calls", "imaging.log_sharpness.p50_ms",
    "imaging.log_sharpness.busy_s", "imaging.gate.rejected", "imaging.gate.pass_frac",
    "classifier.forward.calls", "classifier.forward.p50_ms",
    "semantics.validate_and_repair.calls", "semantics.validate_and_repair.p50_us",
]
REPLAY = [
    "replay.insert.calls", "replay.insert.busy_s", "replay.sample_replay_batch.busy_s",
    "replay.replay_tensors.self_s", "replay.fit_bias_correction.busy_s",
    "replay.predict_with_bias.busy_s", "replay.fill_from_records.busy_s",
]
PROTOCOL = [
    "harness.run_protocol.folds", "harness.fold.p50_s", "harness.confusion.busy_ms",
    "corpus.make_split.busy_s",
]
SETUP_SYNTH = ["synth.synth_generate.busy_s", "synth.images"]
TRACE = ["trace.op_p50_ms", "trace.op_n", "trace.traced_op_p50_ms", "trace.span_p50_ms"]

EXPECT_NONZERO = {
    "capture_stream": CAPTURE + BLOCK_FWD + SETUP_SYNTH + TRACE,
    "cl_update": TRAINING + REPLAY + SETUP_SYNTH + TRACE + [
        "classifier.per_sample_losses.busy_s",
        "harness.harden_records.busy_s", "harness.select_difficult.busy_s",
    ],
    "kfold_train": TRAINING + PROTOCOL + SETUP_SYNTH + TRACE,
}
EXPECT_ZERO = {
    "capture_stream": [n for n in TRAINING if n not in BLOCK_FWD] + REPLAY + PROTOCOL + [
        "classifier.per_sample_losses.busy_s", "replay.insert.tail_us",
        "harness.harden_records.busy_s", "harness.select_difficult.busy_s",
        "replay.cl_novel_acc", "harness.kfold_object_acc",
    ],
    "cl_update": CAPTURE + PROTOCOL + [
        "semantics.repaired", "semantics.recognition_failed", "semantics.hint_acc",
        "semantics.context_lookup.p50_us", "harness.kfold_material_acc",
    ],
    "kfold_train": CAPTURE + REPLAY + [
        "classifier.per_sample_losses.busy_s", "semantics.context_lookup.p50_us",
        "harness.harden_records.busy_s", "harness.select_difficult.busy_s",
        "replay.cl_original_acc", "semantics.hint_acc",
    ],
}


def bindings():
    """Every callable bound in a library module, plus ``Adam.step``."""
    from surfsense import classifier

    out = {
        (mod.__name__, attr): obj
        for mod in library_modules()
        for attr, obj in vars(mod).items()
        if callable(obj)
    }
    out[("Adam", "step")] = classifier.Adam.__dict__["step"]
    return out


@pytest.fixture(scope="module", params=sorted(TINY))
def traced(request):
    before = bindings()
    metrics, units, _ = run.traced_run(TINY[request.param](), seed=3, seconds=0.0)
    return request.param, metrics, units, before


def test_every_per_layer_metric_is_reported(traced):
    _, metrics, _, _ = traced
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert all(unit == layers.UNITS[name] for name, (_, unit) in metrics.items())


def test_predicted_nonzero_metrics_are_nonzero(traced):
    workload, metrics, _, _ = traced
    zero = [n for n in EXPECT_NONZERO[workload] if not metrics[n][0] > 0]
    assert zero == []


def test_predicted_zero_metrics_are_zero(traced):
    workload, metrics, _, _ = traced
    nonzero = [n for n in EXPECT_ZERO[workload] if metrics[n][0] != 0]
    assert nonzero == []


def test_layer_spans_account_for_each_op(traced):
    workload, metrics, _, _ = traced
    unaccounted = metrics["trace.unaccounted_frac"][0]
    # Training steps lie inside a classifier.train span, so the spans
    # cover them whole; a capture leaves the benchmark's loop code.
    if workload == "capture_stream":
        assert 0.0 < unaccounted <= run.MAX_UNACCOUNTED_FRAC
    else:
        assert unaccounted == pytest.approx(0.0, abs=1e-9)


def test_wrappers_are_removed_after_the_traced_run(traced):
    _, _, _, before = traced
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert not [k for k, obj in after.items() if hasattr(obj, "__wrapped__")]


def test_traced_unit_repeats_the_untraced_output(traced):
    workload, metrics, units, _ = traced
    if workload == "cl_update":
        assert metrics["replay.insert.calls"][0] == units[1].expected_calls["replay.insert"]
    assert len(units) == 2
    assert units[0].digest == units[1].digest
    assert units[0].digest


def test_same_seed_gives_the_same_digest_across_setups():
    for make in (TINY["capture_stream"], TINY["kfold_train"]):
        workload = make()
        digests = {workload.run_unit(workload.setup(5), StepClock()).digest for _ in range(2)}
        assert len(digests) == 1


def test_capture_stream_events_follow_the_schedule_oracle():
    workload = TINY["capture_stream"]()
    state = workload.setup(8)
    unit = workload.run_unit(state)
    assert unit.failures == []
    assert unit.counts["events.capture"] == 12
    assert unit.counts["events.background_enter"] == 3
    assert unit.counts["gate.rejected"] == sum(state.gate_rejects[i % len(state.pool)]
                                                for i in range(12))


def test_self_and_covered_time_and_rebinding_reaches_aliases():
    from surfsense import classifier, imaging, replay

    tracer, patches = Tracer(), Patches()
    original = imaging.augment_batch
    patches.rebind(imaging, "augment_batch", lambda fn: tracer.wrap("aug", fn))
    try:
        assert classifier.augment_batch is imaging.augment_batch is replay.augment_batch
        assert imaging.augment_batch is not original
    finally:
        patches.restore()
    assert classifier.augment_batch is original and replay.augment_batch is original

    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer()
    stats = aggregate(tracer.spans)
    assert stats["outer"].self_s == pytest.approx(stats["outer"].busy_s - stats["inner"].busy_s)
    (_, o_start, o_end, *_), (_, i_start, i_end, *_) = tracer.spans
    mid = (i_start + i_end) / 2
    # An op that starts inside the outer span counts its own time too.
    ops = [(o_start - 1.0, mid), (mid, o_end + 1.0), (o_end + 1.0, o_end + 2.0)]
    assert covered_time_per_op(tracer.spans, ops) == pytest.approx(
        [mid - o_start, o_end - mid, 0.0]
    )


def test_step_clock_drops_intervals_across_epochs_and_tasks():
    clock = StepClock()
    step = clock.wrap(lambda records, cfg, key: None)
    for key in [(1, 101, 0, 0), (1, 101, 0, 1), (1, 101, 1, 0), (1, 101, 1, 1), (2, 101, 0, 0)]:
        step([None] * 4, None, key)
    assert len(clock.intervals()) == 2
    assert clock.intervals(2) == [(clock.marks[2][4], clock.marks[3][4])]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.NATIVE_NAMES)


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kfold_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
