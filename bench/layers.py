"""Which library functions the traced run wraps, and the per-layer metrics.

Every span is named ``<module>.<function>``; the convolution kernels are
named by block instead (``classifier.dw2.fwd``), assigned from the input
channel count, because the same kernel serves several blocks.
``PER_LAYER`` is the single list of per-layer metric names and units;
``BENCHMARK.json`` repeats it and a test keeps the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from stats import percentile, summarize
from tracer import END, NAME, PARENT, START, Patches, SpanStats, Tracer, aggregate

BLOCKS = ("stem", "dw1", "dw2", "dw3", "pw1", "pw2", "pw3")

# (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("imu_trigger.ingest.calls", "count", "higher"),
    ("imu_trigger.ingest.busy_s", "s", "lower"),
    ("imu_trigger.ingest.p50_us", "us", "lower"),
    ("imu_trigger.events.capture", "count", "higher"),
    ("imu_trigger.events.background_enter", "count", "higher"),
    ("imu_trigger.events.foreground_resume", "count", "higher"),
    ("imaging.log_sharpness.calls", "count", "higher"),
    ("imaging.log_sharpness.p50_ms", "ms", "lower"),
    ("imaging.log_sharpness.busy_s", "s", "lower"),
    ("imaging.gate.rejected", "count", "lower"),
    ("imaging.gate.pass_frac", "ratio", "higher"),
    ("imaging.augment_batch.calls", "count", "higher"),
    ("imaging.augment_batch.images", "count", "higher"),
    ("imaging.augment_batch.p50_ms", "ms", "lower"),
    ("imaging.augment_batch.busy_s", "s", "lower"),
    ("classifier.forward.calls", "count", "higher"),
    ("classifier.forward.p50_ms", "ms", "lower"),
    ("classifier.forward.tail_ms", "ms", "lower"),
    ("classifier.forward.tail_pct", "%", "higher"),
    *(
        (f"classifier.{block}.{part}", unit, "lower")
        for block in BLOCKS
        for part, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("busy_s", "s"))
    ),
    ("classifier.batch_tensors.self_s", "s", "lower"),
    ("classifier.Adam.step.p50_ms", "ms", "lower"),
    ("classifier.Adam.step.busy_s", "s", "lower"),
    ("classifier.train.self_s", "s", "lower"),
    ("classifier.predict_records.busy_s", "s", "lower"),
    ("classifier.per_sample_losses.busy_s", "s", "lower"),
    ("replay.insert.calls", "count", "higher"),
    ("replay.insert.busy_s", "s", "lower"),
    ("replay.insert.tail_us", "us", "lower"),
    ("replay.insert.tail_pct", "%", "higher"),
    ("replay.sample_replay_batch.busy_s", "s", "lower"),
    ("replay.replay_tensors.self_s", "s", "lower"),
    ("replay.fit_bias_correction.busy_s", "s", "lower"),
    ("replay.predict_with_bias.busy_s", "s", "lower"),
    ("replay.fill_from_records.busy_s", "s", "lower"),
    ("replay.cl_novel_acc", "ratio", "higher"),
    ("replay.cl_original_acc", "ratio", "higher"),
    ("semantics.validate_and_repair.calls", "count", "higher"),
    ("semantics.validate_and_repair.p50_us", "us", "lower"),
    ("semantics.repaired", "count", "lower"),
    ("semantics.recognition_failed", "count", "lower"),
    ("semantics.repair_frac", "ratio", "lower"),
    ("semantics.context_lookup.p50_us", "us", "lower"),
    ("semantics.hint_acc", "ratio", "higher"),
    ("synth.synth_generate.busy_s", "s", "lower"),
    ("synth.images", "count", "higher"),
    ("corpus.make_split.busy_s", "s", "lower"),
    ("harness.run_protocol.folds", "count", "higher"),
    ("harness.fold.p50_s", "s", "lower"),
    ("harness.confusion.busy_ms", "ms", "lower"),
    ("harness.harden_records.busy_s", "s", "lower"),
    ("harness.select_difficult.busy_s", "s", "lower"),
    ("harness.kfold_object_acc", "ratio", "higher"),
    ("harness.kfold_material_acc", "ratio", "higher"),
    ("trace.op_p50_ms", "ms", "lower"),
    ("trace.op_tail_ms", "ms", "lower"),
    ("trace.op_tail_pct", "%", "higher"),
    ("trace.op_n", "count", "higher"),
    ("trace.traced_op_p50_ms", "ms", "lower"),
    ("trace.span_p50_ms", "ms", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
    ("trace.accounted_gap_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.items_overhead_frac", "ratio", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced public function of the library."""
    from surfsense import (
        classifier,
        corpus,
        harness,
        imaging,
        imu_trigger,
        replay,
        semantics,
        synth,
    )

    def wrap(owner, attr: str, name, count=None) -> None:
        patches.rebind(owner, attr, lambda fn: tracer.wrap(name, fn, count))

    wrap(imu_trigger, "ingest", "imu_trigger.ingest")
    wrap(imaging, "log_sharpness", "imaging.log_sharpness")
    wrap(imaging, "augment_batch", "imaging.augment_batch", lambda args, _: len(args[0]))
    for attr in ("forward", "batch_tensors", "train", "predict_records", "per_sample_losses"):
        wrap(classifier, attr, f"classifier.{attr}")
    wrap(classifier.Adam, "step", "classifier.Adam.step")

    # Depthwise and pointwise blocks b=1..3 take STEM_FILTERS, then the
    # first two block widths, as input channels.
    widths = (classifier.STEM_FILTERS,) + tuple(classifier.BLOCK_WIDTHS[:-1])
    block_of = {c: i + 1 for i, c in enumerate(widths)}
    wrap(classifier, "conv3x3s2_forward", "classifier.stem.fwd")
    wrap(classifier, "conv3x3s2_backward", "classifier.stem.bwd")
    wrap(classifier, "depthwise3x3s2_forward", lambda a: f"classifier.dw{block_of[a[0].shape[1]]}.fwd")
    wrap(classifier, "depthwise3x3s2_backward", lambda a: f"classifier.dw{block_of[a[3][1]]}.bwd")
    wrap(classifier, "pointwise_forward", lambda a: f"classifier.pw{block_of[a[0].shape[1]]}.fwd")
    wrap(classifier, "pointwise_backward", lambda a: f"classifier.pw{block_of[a[1].shape[1]]}.bwd")

    for attr in (
        "insert",
        "sample_replay_batch",
        "replay_tensors",
        "fit_bias_correction",
        "predict_with_bias",
        "fill_from_records",
    ):
        wrap(replay, attr, f"replay.{attr}")
    for attr in ("validate_and_repair", "context_lookup"):
        wrap(semantics, attr, f"semantics.{attr}")
    wrap(synth, "synth_generate", "synth.synth_generate", lambda _, result: len(result))
    wrap(corpus, "make_split", "corpus.make_split")
    for attr in ("run_protocol", "confusion", "harden_records", "select_difficult"):
        wrap(harness, attr, f"harness.{attr}")


def fold_durations(spans: Sequence[list]) -> List[float]:
    """Per fold of ``run_protocol``: its ``train`` plus its ``predict_records`` span."""
    folds: List[float] = []
    for span in spans:
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != "harness.run_protocol":
            continue
        if span[NAME] == "classifier.train":
            folds.append(span[END] - span[START])
        elif span[NAME] == "classifier.predict_records" and folds:
            folds[-1] += span[END] - span[START]
    return folds


def per_layer_metrics(
    setup_spans: Sequence[list],
    unit_spans: Sequence[list],
    counts: Dict[str, float],
    quality: Dict[str, float],
    trace_summary: Dict[str, float],
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric: set-up layers from the traced set-up,
    the rest from the one traced unit of work.  Layers a workload never
    calls read 0."""
    setup = aggregate(setup_spans)
    unit = aggregate(unit_spans)
    empty = SpanStats()

    def st(name: str, agg=unit) -> SpanStats:
        return agg.get(name, empty)

    def p50(name: str, scale: float) -> float:
        return percentile(st(name).durations, 50.0) * scale

    def tail(name: str, scale: float) -> Tuple[float, float]:
        s = summarize(st(name).durations)
        if s["tail_pct"] is None:
            return 0.0, 0.0
        return s["tail"] * scale, s["tail_pct"]

    m: Dict[str, float] = {}
    m["imu_trigger.ingest.calls"] = st("imu_trigger.ingest").calls
    m["imu_trigger.ingest.busy_s"] = st("imu_trigger.ingest").busy_s
    m["imu_trigger.ingest.p50_us"] = p50("imu_trigger.ingest", 1e6)
    for kind in ("capture", "background_enter", "foreground_resume"):
        m[f"imu_trigger.events.{kind}"] = counts.get(f"events.{kind}", 0)

    gate_calls = st("imaging.log_sharpness").calls
    rejected = counts.get("gate.rejected", 0)
    m["imaging.log_sharpness.calls"] = gate_calls
    m["imaging.log_sharpness.p50_ms"] = p50("imaging.log_sharpness", 1e3)
    m["imaging.log_sharpness.busy_s"] = st("imaging.log_sharpness").busy_s
    m["imaging.gate.rejected"] = rejected
    m["imaging.gate.pass_frac"] = (gate_calls - rejected) / gate_calls if gate_calls else 0.0
    m["imaging.augment_batch.calls"] = st("imaging.augment_batch").calls
    m["imaging.augment_batch.images"] = st("imaging.augment_batch").items
    m["imaging.augment_batch.p50_ms"] = p50("imaging.augment_batch", 1e3)
    m["imaging.augment_batch.busy_s"] = st("imaging.augment_batch").busy_s

    m["classifier.forward.calls"] = st("classifier.forward").calls
    m["classifier.forward.p50_ms"] = p50("classifier.forward", 1e3)
    m["classifier.forward.tail_ms"], m["classifier.forward.tail_pct"] = tail(
        "classifier.forward", 1e3
    )
    for block in BLOCKS:
        fwd, bwd = f"classifier.{block}.fwd", f"classifier.{block}.bwd"
        m[f"classifier.{block}.fwd_ms"] = p50(fwd, 1e3)
        m[f"classifier.{block}.bwd_ms"] = p50(bwd, 1e3)
        m[f"classifier.{block}.busy_s"] = st(fwd).busy_s + st(bwd).busy_s
    m["classifier.batch_tensors.self_s"] = st("classifier.batch_tensors").self_s
    m["classifier.Adam.step.p50_ms"] = p50("classifier.Adam.step", 1e3)
    m["classifier.Adam.step.busy_s"] = st("classifier.Adam.step").busy_s
    m["classifier.train.self_s"] = st("classifier.train").self_s
    m["classifier.predict_records.busy_s"] = st("classifier.predict_records").busy_s
    m["classifier.per_sample_losses.busy_s"] = st("classifier.per_sample_losses").busy_s

    m["replay.insert.calls"] = st("replay.insert").calls
    m["replay.insert.busy_s"] = st("replay.insert").busy_s
    m["replay.insert.tail_us"], m["replay.insert.tail_pct"] = tail("replay.insert", 1e6)
    m["replay.sample_replay_batch.busy_s"] = st("replay.sample_replay_batch").busy_s
    m["replay.replay_tensors.self_s"] = st("replay.replay_tensors").self_s
    m["replay.fit_bias_correction.busy_s"] = st("replay.fit_bias_correction").busy_s
    m["replay.predict_with_bias.busy_s"] = st("replay.predict_with_bias").busy_s
    m["replay.fill_from_records.busy_s"] = st("replay.fill_from_records").busy_s
    m["replay.cl_novel_acc"] = quality.get("cl_novel_acc", 0.0)
    m["replay.cl_original_acc"] = quality.get("cl_original_acc", 0.0)

    validations = st("semantics.validate_and_repair").calls
    repaired = counts.get("semantics.repaired", 0)
    m["semantics.validate_and_repair.calls"] = validations
    m["semantics.validate_and_repair.p50_us"] = p50("semantics.validate_and_repair", 1e6)
    m["semantics.repaired"] = repaired
    m["semantics.recognition_failed"] = counts.get("semantics.recognition_failed", 0)
    m["semantics.repair_frac"] = repaired / validations if validations else 0.0
    m["semantics.context_lookup.p50_us"] = p50("semantics.context_lookup", 1e6)
    m["semantics.hint_acc"] = quality.get("hint_acc", 0.0)

    m["synth.synth_generate.busy_s"] = st("synth.synth_generate", setup).busy_s
    m["synth.images"] = st("synth.synth_generate", setup).items
    m["corpus.make_split.busy_s"] = st("corpus.make_split", setup).busy_s

    folds = fold_durations(unit_spans)
    m["harness.run_protocol.folds"] = len(folds)
    m["harness.fold.p50_s"] = percentile(folds, 50.0)
    m["harness.confusion.busy_ms"] = st("harness.confusion").busy_s * 1e3
    m["harness.harden_records.busy_s"] = st("harness.harden_records", setup).busy_s
    m["harness.select_difficult.busy_s"] = st("harness.select_difficult", setup).busy_s
    m["harness.kfold_object_acc"] = quality.get("kfold_object_acc", 0.0)
    m["harness.kfold_material_acc"] = quality.get("kfold_material_acc", 0.0)

    m.update(trace_summary)
    return m
