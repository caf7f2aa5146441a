import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from surfsense.cli import main, parse_config
from surfsense.imaging import Image, save_image


def run(args):
    return main([str(a) for a in args])


def write_config(path: Path, **kv):
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
    return path


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "c.txt", out_dir=tmp_path / "o", bogus_key=1)
    assert run(["simulate-trigger", cfg]) == 2


def test_malformed_line_rejected(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("this is not a pair\n")
    assert run(["simulate-trigger", cfg]) == 2


def test_parse_config_defaults_and_comments(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# comment\nseed=5\n\ntt=12.5\n")
    values = parse_config(cfg)
    assert values["seed"] == 5
    assert values["tt"] == 12.5
    assert values["debounce_n"] == 10


def test_simulate_trigger_demo_trace(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.txt", out_dir=out)
    assert run(["simulate-trigger", cfg]) == 0
    events = (out / "events.txt").read_text().splitlines()
    captures = [l for l in events if l.endswith(" capture")]
    assert len(captures) == 5
    assert (out / "config.txt").read_text() == cfg.read_text()


def test_simulate_trigger_reads_trace_file(tmp_path):
    trace = tmp_path / "trace.txt"
    lines = []
    for i in range(20):
        lines.append(f"{i * 0.02:.6f} 0 0 0 0 0 0")
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.txt", out_dir=out, trace=trace)
    assert run(["simulate-trigger", cfg]) == 0
    events = (out / "events.txt").read_text().splitlines()
    assert len([l for l in events if "capture" in l]) == 1


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0.060000 0 0 0 0 0", "expected 7 fields, got 6"),
        ("0.060000 0 0 x 0 0 0", "could not convert string to float: 'x'"),
        ("0.040000 0 0 0 0 0 0", "timestamp 0.04 does not advance past 0.04"),
        ("0.060000 0 nan 0 0 0 0", "non-finite sample at t=0.06"),
    ],
)
def test_simulate_trigger_trace_errors_name_path_and_line(tmp_path, capsys, bad, message):
    # the bad sample sits on line 6, after a comment, a blank line and three samples
    good = [f"{i * 0.02:.6f} 0 0 0 0 0 0" for i in range(3)]
    trace = tmp_path / "trace.txt"
    trace.write_text("# t la aa\n\n" + "\n".join(good + [bad]) + "\n")
    out = tmp_path / "run"
    assert run(["simulate-trigger", write_config(tmp_path / "c.txt", out_dir=out, trace=trace)]) == 1
    assert f"{trace}:6: {message}" in capsys.readouterr().err
    assert not (out / "events.txt").exists()


@pytest.mark.parametrize(
    "key, value", [("tt", "nan"), ("la_thresh", "nan,0.04,0.04"), ("aa_thresh", "0.02,nan,0.02")]
)
def test_simulate_trigger_rejects_nan_settings(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run(["simulate-trigger", write_config(tmp_path / "c.txt", out_dir=out, **{key: value})]) == 2
    assert f"error: config: bad trigger setting: {key} must be positive" in capsys.readouterr().err
    assert not (out / "events.txt").exists()


def test_gen_corpus_roundtrips_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    c1 = write_config(tmp_path / "c1.txt", out_dir=out1, images_per_class=4, persons=2, side=32, seed=9)
    c2 = write_config(tmp_path / "c2.txt", out_dir=out2, images_per_class=4, persons=2, side=32, seed=9)
    assert run(["gen-corpus", c1]) == 0
    assert run(["gen-corpus", c2]) == 0
    d1, d2 = tree_digest(out1), tree_digest(out2)
    del d1["config.txt"], d2["config.txt"]
    assert d1 == d2  # byte-identical corpora


def test_assess_quality(tmp_path):
    gen_out = tmp_path / "corpus_run"
    gen_cfg = write_config(
        tmp_path / "g.txt", out_dir=gen_out, images_per_class=3, persons=2, side=32, seed=1
    )
    assert run(["gen-corpus", gen_cfg]) == 0
    out = tmp_path / "quality"
    cfg = write_config(
        tmp_path / "q.txt", out_dir=out, images=gen_out / "corpus", blur_threshold=0.0
    )
    assert run(["assess-quality", cfg]) == 0
    rows = (out / "quality.csv").read_text().splitlines()
    assert rows[0] == "path,log_variance,pass"
    assert len(rows) > 1


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("blur_threshold", "nan", "must be 'auto' or finite"),
        ("sigma", "nan", "must be positive and finite"),
        ("sigma", "inf", "must be positive and finite"),
        ("sigma", "1e-200", "must be positive and finite"),
        ("blur_percentile", "150", "must lie in [0, 100]"),
        ("blur_percentile", "nan", "must lie in [0, 100]"),
    ],
)
def test_assess_quality_rejects_bad_settings_before_reading_images(
    tmp_path, capsys, key, value, message
):
    image = tmp_path / "a.ppm"
    save_image(Image(np.full((8, 8, 3), 0.5)), image)
    out = tmp_path / "quality"
    cfg = write_config(tmp_path / "q.txt", out_dir=out, images=image, **{key: value})
    assert run(["assess-quality", cfg]) == 2
    assert f"{cfg}:3: bad value for {key!r}: {message}" in capsys.readouterr().err
    assert not (out / "quality.csv").exists()


def test_train_evaluate_and_report(tmp_path):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=6, persons=2, side=32, seed=3)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"

    train_out = tmp_path / "train"
    write_config(
        tmp_path / "t.txt",
        out_dir=train_out,
        corpus_manifest=manifest,
        epochs=2,
        lr0=0.002,
        seed=3,
    )
    assert run(["train", tmp_path / "t.txt"]) == 0
    assert (train_out / "checkpoint.bin").exists()
    assert (train_out / "training.csv").read_text().startswith("epoch,loss")

    eval_out = tmp_path / "eval"
    write_config(
        tmp_path / "e.txt",
        out_dir=eval_out,
        corpus_manifest=manifest,
        split_kind="time_kfold",
        k=2,
        epochs=2,
        lr0=0.002,
        seed=3,
    )
    assert run(["evaluate", tmp_path / "e.txt"]) == 0
    for name in (
        "folds.csv",
        "summary.txt",
        "confusion_object.csv",
        "confusion_material.csv",
    ):
        assert (eval_out / name).exists(), name

    write_config(tmp_path / "r.txt", out_dir=eval_out)
    assert run(["report", tmp_path / "r.txt"]) == 0
    assert "summary.txt" in (eval_out / "report.txt").read_text()


def test_report_keeps_the_config_of_the_run_it_reports_on(tmp_path):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=3, persons=2, side=32, seed=3)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    eval_out = tmp_path / "eval"
    eval_cfg = write_config(
        tmp_path / "e.txt",
        out_dir=eval_out,
        corpus_manifest=gen_out / "corpus" / "manifest.txt",
        k=2,
        epochs=1,
        seed=3,
    )
    assert run(["evaluate", eval_cfg]) == 0
    before = tree_digest(eval_out)
    assert run(["report", write_config(tmp_path / "r.txt", out_dir=eval_out)]) == 0
    assert (eval_out / "config.txt").read_bytes() == eval_cfg.read_bytes()
    after = tree_digest(eval_out)
    del after["report.txt"]
    assert after == before


def test_train_rerun_byte_identical_checkpoint(tmp_path):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=4, persons=2, side=32, seed=2)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"
    digests = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        write_config(
            tmp_path / f"{name}.txt",
            out_dir=out,
            corpus_manifest=manifest,
            epochs=1,
            seed=7,
        )
        assert run(["train", tmp_path / f"{name}.txt"]) == 0
        digests.append(hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_cl_run_command(tmp_path):
    # corpus + checkpoint
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=6, persons=2, side=32, seed=4)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"
    train_out = tmp_path / "train"
    write_config(
        tmp_path / "t.txt", out_dir=train_out, corpus_manifest=manifest, epochs=1, seed=4
    )
    assert run(["train", tmp_path / "t.txt"]) == 0

    # a one-task stream reusing the corpus manifest for train and eval
    stream = tmp_path / "stream.txt"
    rel = manifest.relative_to(tmp_path)
    stream.write_text(f"1 {rel} {rel}\n")

    cl_out = tmp_path / "cl"
    write_config(
        tmp_path / "c.txt",
        out_dir=cl_out,
        checkpoint=train_out / "checkpoint.bin",
        task_stream=stream,
        epochs=1,
        seed=4,
        buffer_capacity=16,
        tricks="all",
    )
    assert run(["cl-run", tmp_path / "c.txt"]) == 0
    metrics = (cl_out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "task_id,eval_task_id,top1_object,top1_material"
    assert len(metrics) == 2


def test_cl_run_seeds_its_buffer_from_a_manifest(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=2, persons=2, side=16, seed=4)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"
    ckpt = tmp_path / "init.bin"
    from surfsense import classifier

    classifier.save_checkpoint(classifier.init_params(seed=4), ckpt)
    stream = tmp_path / "stream.txt"
    rel = manifest.relative_to(tmp_path)
    stream.write_text(f"1 {rel} {rel}\n")

    def cl_run(name, **extra):
        out = tmp_path / name
        cfg = write_config(
            tmp_path / f"{name}.txt", out_dir=out, checkpoint=ckpt, task_stream=stream,
            epochs=1, seed=4, buffer_capacity=64, tricks="all", **extra,
        )  # fmt: skip
        capsys.readouterr()
        assert run(["cl-run", cfg]) == 0
        digests = tree_digest(out)
        del digests["config.txt"]  # names its own out_dir
        return capsys.readouterr().out, digests

    plain_out, plain = cl_run("plain")
    seeded_out, seeded = cl_run("seeded", buffer_seed_manifest=manifest)
    # 18 task records alone, or 18 seed records first and the task's 18 after
    assert "buffer holds 18 items" in plain_out and "buffer holds 36 items" in seeded_out
    # task 1 replays the seeded items, so it trains on other batches
    assert seeded["checkpoint.bin"] != plain["checkpoint.bin"]
    assert cl_run("seeded_again", buffer_seed_manifest=manifest)[1] == seeded
    # input_side resizes the seeded and the task records alike, so the
    # replayed and the new half of each step have one side
    resized_out, _ = cl_run("resized", buffer_seed_manifest=manifest, input_side=8)
    assert "buffer holds 36 items" in resized_out


def test_evaluate_trains_and_scores_at_input_side(tmp_path):
    from surfsense import corpus as corpus_mod, harness
    from surfsense.classifier import TrainConfig
    from surfsense.imaging import center_crop_resize

    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=6, persons=2, side=32, seed=3)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"
    eval_out = tmp_path / "eval"
    cfg = write_config(
        tmp_path / "e.txt", out_dir=eval_out, corpus_manifest=manifest, k=2, epochs=2,
        lr0=0.01, seed=3, input_side=12,
    )  # fmt: skip
    assert run(["evaluate", cfg]) == 0

    # The same records resized in memory (a corpus written at 12 px would
    # quantize the resized pixels to 8 bits).
    data = corpus_mod.read_manifest(manifest, manifest.parent)
    data.records = [
        replace(r, image=center_crop_resize(r.image, 12)) for r in data.records
    ]
    plan = corpus_mod.make_split(data, "time_kfold", 2)
    want = harness.run_protocol(data, plan, TrainConfig(lr0=0.01, epochs=2, seed=3))
    rows = [
        f"{f},{ao:.6f},{am:.6f}"
        for f, (ao, am) in enumerate(zip(want.fold_acc_object, want.fold_acc_material))
    ]
    assert (eval_out / "folds.csv").read_text().splitlines() == ["fold,object,material"] + rows


def test_negative_input_side_is_a_usage_error(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=1, persons=1, side=16, seed=1)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    out = tmp_path / "t"
    cfg = write_config(
        tmp_path / "t.txt", out_dir=out, corpus_manifest=gen_out / "corpus" / "manifest.txt",
        epochs=1, input_side=-1,
    )  # fmt: skip
    capsys.readouterr()
    assert run(["train", cfg]) == 2
    assert "input_side" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("gamma", 2, "gamma must be"),
        ("replay_batch", 0, "replay_batch must be"),
        ("bias_fit_fraction", "nan", "bias_fit_fraction must be"),
        ("bias_fit_fraction", 0, "bias_fit_fraction must be"),
        ("bias_fit_fraction", 1.5, "bias_fit_fraction must be"),
    ],
)
def test_bad_replay_settings_are_config_errors(tmp_path, capsys, key, value, message):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=1, persons=1, side=16, seed=1)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"
    ckpt = tmp_path / "init.bin"
    from surfsense import classifier

    classifier.save_checkpoint(classifier.init_params(seed=1), ckpt)
    stream = tmp_path / "stream.txt"
    rel = manifest.relative_to(tmp_path)
    stream.write_text(f"1 {rel} {rel}\n")
    out = tmp_path / "cl"
    cfg = write_config(
        tmp_path / "c.txt", out_dir=out, checkpoint=ckpt, task_stream=stream, epochs=1,
        **{key: value},
    )  # fmt: skip
    capsys.readouterr()
    assert run(["cl-run", cfg]) == 2
    assert f"error: config: bad replay setting: {message}" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_negative_buffer_capacity_names_its_key_and_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", out_dir=tmp_path / "cl", buffer_capacity=-1)
    capsys.readouterr()
    assert run(["cl-run", cfg]) == 2
    err = capsys.readouterr().err
    assert f"error: config: {cfg}:2: bad value for 'buffer_capacity': must be >= 0" in err


def test_validate_exit_codes(capsys):
    assert run(["validate", "bed", "plush"]) == 0
    assert run(["validate", "bed", "ceramic"]) == 1
    assert run(["validate", "bed", "granite"]) == 2


def test_validate_with_override_file(tmp_path):
    table = tmp_path / "pairs.txt"
    table.write_text("bed ceramic\n")
    assert run(["validate", "bed", "ceramic", "--mapping-file", table]) == 0


def test_bad_training_settings_are_config_errors(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=1, persons=1, side=16, seed=1)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"
    capsys.readouterr()
    for key, value in (("lr0", "nan"), ("lr0", "inf"), ("batch", 0), ("epochs", 0)):
        out = tmp_path / f"{key}_{value}"
        cfg = write_config(
            tmp_path / "t.txt", out_dir=out, corpus_manifest=manifest, **{"epochs": 1, key: value}
        )
        assert run(["train", cfg]) == 2, (key, value)
        assert f"error: config: bad training setting: {key} must be" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()


def test_failure_removes_partial_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path / "c.txt", out_dir=out, corpus_manifest=tmp_path / "missing.txt", epochs=1
    )
    assert run(["train", cfg]) == 2
    assert not (out / "config.txt").exists()
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize(
    "command, key",
    [
        ("simulate-trigger", "trace"),
        ("assess-quality", "images"),
        ("evaluate", "corpus_manifest"),  # train's case: test_failure_removes_partial_outputs
        ("cl-run", "checkpoint"),
        ("cl-run", "task_stream"),
        ("cl-run", "buffer_seed_manifest"),
    ],
)
def test_missing_input_file_is_a_usage_error_in_every_command(tmp_path, capsys, command, key):
    from surfsense import classifier

    ckpt = tmp_path / "init.bin"
    classifier.save_checkpoint(classifier.init_params(seed=6), ckpt)
    stream = tmp_path / "stream.txt"
    stream.write_text("")
    inputs = {"checkpoint": ckpt, "task_stream": stream, key: tmp_path / "missing.txt"}
    if command != "cl-run":
        inputs = {key: inputs[key]}
    out = tmp_path / "run"
    assert run([command, write_config(tmp_path / "c.txt", out_dir=out, **inputs)]) == 2
    assert f"error: config: cannot read {tmp_path / 'missing.txt'}: not a file" in (
        capsys.readouterr().err
    )
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "line, message",
    [
        ("bed plush extra", "expected 'object material', got 'bed plush extra'"),
        ("bed granite", "pair (bed, granite) names unknown classes"),
    ],
)
def test_validate_bad_mapping_file_is_a_usage_error(tmp_path, capsys, line, message):
    table = tmp_path / "pairs.txt"
    table.write_text(f"bed plush\n{line}\n")
    assert run(["validate", "bed", "plush", "--mapping-file", table]) == 2
    assert capsys.readouterr().err == f"error: {table}:2: {message}\n"


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("gen-corpus", "absences", "x:plush", "bad absence cell 'x:plush'"),
        ("gen-corpus", "absences", "3:plsh", "bad absence cell '3:plsh'"),
        ("evaluate", "split_kind", "lopo", "must be one of time_kfold, leave_one_person_out"),
        ("evaluate", "k", "1", "must be >= 2"),
    ],
)
def test_bad_corpus_and_split_settings_name_config_and_line(
    tmp_path, capsys, command, key, value, message
):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.txt", out_dir=out, **{key: value})
    assert run([command, cfg]) == 2
    assert f"error: config: {cfg}:2: bad value for {key!r}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_absences_config_leaves_its_cells_empty(tmp_path):
    out = tmp_path / "gen"
    cfg = write_config(
        tmp_path / "g.txt", out_dir=out, images_per_class=2, persons=2, side=8, seed=1,
        absences="2:plush, 1:wood",
    )  # fmt: skip
    assert run(["gen-corpus", cfg]) == 0
    cells = {tuple(line.split()[0:3:2]) for line in (out / "corpus/manifest.txt").open()}
    assert ("1", "plush") in cells and ("2", "wood") in cells
    assert ("2", "plush") not in cells and ("1", "wood") not in cells


def test_truncated_image_names_its_file(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=1, persons=1, side=8, seed=1)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    manifest = gen_out / "corpus" / "manifest.txt"
    first = manifest.read_text().split("\n")[0].split()[3]
    image = gen_out / "corpus" / first
    image.write_bytes(image.read_bytes()[:-5])
    cfg = write_config(tmp_path / "t.txt", out_dir=tmp_path / "t", corpus_manifest=manifest)
    capsys.readouterr()
    assert run(["train", cfg]) == 1
    want = f"error: runtime: ValueError: {manifest}:1: {image}: truncated raster data"
    assert want in capsys.readouterr().err
    cfg = write_config(tmp_path / "q.txt", out_dir=tmp_path / "q", images=image)
    assert run(["assess-quality", cfg]) == 1
    assert f"error: runtime: ValueError: {image}: truncated raster data" in capsys.readouterr().err


def test_validate_missing_mapping_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "pairs.txt"
    assert run(["validate", "bed", "ceramic", "--mapping-file", missing]) == 2
    assert f"error: cannot read {missing}: not a file" in capsys.readouterr().err


def test_commands_do_not_mutate_inputs(tmp_path):
    gen_out = tmp_path / "gen"
    write_config(tmp_path / "g.txt", out_dir=gen_out, images_per_class=3, persons=2, side=32, seed=5)
    assert run(["gen-corpus", tmp_path / "g.txt"]) == 0
    before = tree_digest(gen_out)
    train_out = tmp_path / "train"
    write_config(
        tmp_path / "t.txt",
        out_dir=train_out,
        corpus_manifest=gen_out / "corpus" / "manifest.txt",
        epochs=1,
        seed=5,
    )
    assert run(["train", tmp_path / "t.txt"]) == 0
    assert tree_digest(gen_out) == before


def test_task_stream_errors_name_path_and_line(tmp_path):
    from surfsense.cli import ConfigError, _read_task_stream

    gen = write_config(
        tmp_path / "g.txt", out_dir=tmp_path / "gen", images_per_class=1, persons=1, side=8, seed=6
    )
    assert run(["gen-corpus", gen]) == 0
    good = "gen/corpus/manifest.txt"
    stream = tmp_path / "stream.txt"
    cases = [
        (f"1 {good}\n", "expected 'task_id train_manifest eval_manifest', got 2 fields"),
        (f"one {good} {good}\n", "task id must be an integer, got 'one'"),
        (f"1 {good} missing.txt\n", f"cannot read {tmp_path / 'missing.txt'}"),
    ]
    for body, message in cases:
        stream.write_text(f"# tasks\n1 {good} {good}\n\n" + body)
        with pytest.raises(ConfigError) as exc:
            _read_task_stream(stream, 0)
        assert str(exc.value).startswith(f"{stream}:4: {message}")
    stream.write_text(f"1 {good} {good}\n")
    assert [t.task_id for t in _read_task_stream(stream, 0)] == [1]


def _cl_run_config_with_missing_image(tmp_path, **extra):
    """A cl-run config whose task manifest names an image that is gone."""
    from surfsense import classifier

    gen = write_config(
        tmp_path / "g.txt", out_dir=tmp_path / "gen", images_per_class=1, persons=1, side=8, seed=6
    )
    assert run(["gen-corpus", gen]) == 0
    manifest = tmp_path / "gen" / "corpus" / "manifest.txt"
    first = manifest.read_text().split("\n", 1)[0]
    (manifest.parent / first.split()[3]).unlink()
    ckpt = tmp_path / "init.bin"
    classifier.save_checkpoint(classifier.init_params(seed=6), ckpt)
    stream = tmp_path / "stream.txt"
    stream.write_text("1 gen/corpus/manifest.txt gen/corpus/manifest.txt\n")
    return write_config(
        tmp_path / "c.txt",
        out_dir=tmp_path / "cl",
        checkpoint=ckpt,
        task_stream=stream,
        epochs=1,
        buffer_capacity=4,
        **extra,
    )


def test_cl_run_missing_image_in_manifest_is_runtime_error(tmp_path):
    cfg = _cl_run_config_with_missing_image(tmp_path)
    assert run(["cl-run", cfg]) == 1
    assert not (tmp_path / "cl" / "checkpoint.bin").exists()


def test_cl_run_checks_replay_settings_before_reading_tasks(tmp_path, capsys):
    cfg = _cl_run_config_with_missing_image(tmp_path, gamma=2)
    capsys.readouterr()
    # the missing image would exit 1, but the bad setting is found first
    assert run(["cl-run", cfg]) == 2
    assert "error: config: bad replay setting: gamma" in capsys.readouterr().err
