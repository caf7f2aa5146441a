"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines as they complete.  The long experiments (desk-scale
cross-validation, the continual-learning benchmarks) are marked `slow`.
"""

import hashlib
import shutil
import time
import numpy as np
import pytest
from scipy import stats

from surfsense import classifier, corpus as corpus_mod, harness, replay
from surfsense.classifier import TrainConfig, init_params
from surfsense.cli import main as cli_main
from surfsense.corpus import SampleRecord
from surfsense.imaging import Image, gaussian_blur, log_sharpness
from surfsense.imu_trigger import TriggerConfig, demo_trace, run_stream
from surfsense.replay import (
    CLConfig,
    CLTricks,
    ReplayBuffer,
    insert,
)
from surfsense.semantics import (
    DEFAULT_MAPPING,
    RecognitionFailed,
    validate_and_repair,
    validate_pair,
)
from surfsense.synth import SynthSpec, synth_generate

from test_classifier import loss_and_grad, relu_kink_margin
from test_imaging import oracle_log_variance
from test_imu_trigger import brute_force_scan, random_trace


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


# -- 1. trigger oracle equivalence ------------------------------------------


def test_criterion_01_trigger_oracle_equivalence():
    cfg = TriggerConfig()
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(1000):
        trace = random_trace(seed, n=250)
        streamed = [(e.t, e.kind.value) for e in run_stream(trace, cfg)]
        if streamed != brute_force_scan(trace, cfg):
            mismatches += 1
    demo = demo_trace()
    demo_events = [(e.t, e.kind.value) for e in run_stream(demo, cfg)]
    demo_ok = demo_events == brute_force_scan(demo, cfg)
    captures = sum(1 for _, k in demo_events if k == "capture")
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        mismatches == 0 and demo_ok and captures == 5 and elapsed < 5.0,
        f"1000 random traces + demo trace match the offline scan, "
        f"{captures} demo captures, {elapsed:.2f}s (< 5s)",
    )


# -- 2. LoG properties --------------------------------------------------------


def test_criterion_02_log_sharpness_properties():
    const = Image(np.full((48, 48, 1), 0.37))
    const_zero = log_sharpness(const, 1.0).log_variance == 0.0

    rng = np.random.default_rng(0)
    monotone = 0
    for seed in range(20):
        img = Image(np.random.default_rng(seed).uniform(0, 1, (48, 48, 3)))
        scores = []
        for sigma in (0, 1, 2, 4):
            blurred = img if sigma == 0 else gaussian_blur(img, sigma)
            scores.append(log_sharpness(blurred, 1.0).log_variance)
        if all(a > b for a, b in zip(scores, scores[1:])):
            monotone += 1

    px = np.zeros((64, 64, 1))
    px[20, 31, 0] = 1.0
    impulse = Image(px)
    got = log_sharpness(impulse, 1.0).log_variance
    want = oracle_log_variance(impulse, 1.0)
    impulse_ok = abs(got - want) < 1e-9

    verdict(
        2,
        const_zero and monotone == 20 and impulse_ok,
        f"constant image scores 0, blur monotonicity {monotone}/20 across "
        f"sigma 0/1/2/4, impulse matches dense oracle within 1e-9",
    )


# -- 3. reservoir statistics --------------------------------------------------


def _dummy_record(material: int) -> SampleRecord:
    img = Image(np.full((2, 2, 3), 0.5, dtype=np.float32))
    return SampleRecord(1, 1, material, img, 0.0)


def test_criterion_03_reservoir_statistics():
    t0 = time.perf_counter()

    # uniform inclusion: N=10,000, M=500, 200 seeds
    n, m, n_seeds = 10_000, 500, 200
    counts = np.zeros(n)
    template = _dummy_record(0)
    stream = [SampleRecord(1, 1, i, template.image, 0.0) for i in range(n)]
    for seed in range(n_seeds):
        buf = ReplayBuffer(capacity=m)
        rng = np.random.default_rng(seed)
        for rec in stream:
            insert(buf, rec, 0.0, rng)
        for rec in buf.records:
            counts[rec.material] += 1
    freq_ok = abs(counts.mean() / n_seeds - m / n) < 1e-12
    expected = n_seeds * m / n
    chi2 = ((counts - expected) ** 2 / expected).sum()
    p_value = float(1.0 - stats.chi2.cdf(chi2, df=n - 1))
    chi_ok = p_value > 0.01

    # balanced mode on a 90/10 stream
    buf = ReplayBuffer(capacity=100, sampling_mode="balanced")
    rng = np.random.default_rng(7)
    for i in range(5000):
        mat = 1 if rng.random() < 0.9 else 2
        insert(buf, _dummy_record(mat), 0.0, rng)
    cc = buf.class_counts()
    balanced_ok = abs(cc.get(1, 0) - 50) <= 1 and abs(cc.get(2, 0) - 50) <= 1

    # loss-aware eviction ratio for losses {0.01, 10.0}
    rng = np.random.default_rng(11)
    lo, hi, new = _dummy_record(1), _dummy_record(2), _dummy_record(3)
    evict_lo = evict_hi = 0
    for _ in range(140_000):
        buf2 = ReplayBuffer(capacity=2, sampling_mode="loss_aware")
        insert(buf2, lo, 0.01, rng)
        insert(buf2, hi, 10.0, rng)
        insert(buf2, new, 1.0, rng)
        if all(rec.material != 1 for rec in buf2.records):
            evict_lo += 1
        else:
            evict_hi += 1
    ratio = evict_lo / max(evict_hi, 1)
    analytic = (10.0 + replay.LOSS_EPS) / (0.01 + replay.LOSS_EPS)
    ratio_ok = abs(ratio - analytic) / analytic < 0.2

    elapsed = time.perf_counter() - t0
    verdict(
        3,
        freq_ok and chi_ok and balanced_ok and ratio_ok and elapsed < 60.0,
        f"inclusion 0.05 exact, chi-square p={p_value:.3f} (> 0.01), "
        f"balanced counts {cc}, loss-aware ratio {ratio:.0f} vs {analytic:.0f} "
        f"(within 20%), {elapsed:.1f}s (< 60s)",
    )


# -- 4. gradient check ---------------------------------------------------------


def test_criterion_04_gradient_check():
    seed = 53
    rng = np.random.default_rng(seed)
    p = init_params(seed=seed, dtype=np.float64)
    for name in p.tensor_names():
        if name.endswith("_w") and not name.startswith("head"):
            p.tensors[name] *= 1.6
        if name.endswith("_b"):
            p.tensors[name] += rng.uniform(0.05, 0.15, size=p.tensors[name].shape)
    x = rng.uniform(0.05, 0.95, (2, 3, 12, 12))
    y = (np.array([1, 4]), np.array([2, 8]))
    h = 1e-4
    assert relu_kink_margin(p, x) > 50 * h
    _, grads = loss_and_grad(p, (x, *y))
    worst = 0.0
    checked = 0
    for name in p.tensor_names():
        flat = p.tensors[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(p, (x, *y))
            flat[i] = orig - h
            lm, _ = loss_and_grad(p, (x, *y))
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
            checked += 1
    verdict(
        4,
        checked >= 100 and worst < 1e-4,
        f"{checked} parameters checked against central differences (h=1e-4), "
        f"max relative error {worst:.2e} (< 1e-4)",
    )


# -- 5. desk-scale classification ----------------------------------------------


@pytest.mark.slow
def test_criterion_05_desk_scale_time_kfold():
    t0 = time.perf_counter()
    corpus = synth_generate(
        SynthSpec(rng_seed=11, images_per_class=200, side=64, persons=12)
    )
    plan = corpus_mod.make_split(corpus, "time_kfold", 10)
    cfg = TrainConfig(lr0=2e-3, batch=16, epochs=20, seed=1)
    result = harness.run_protocol(corpus, plan, cfg)
    elapsed = time.perf_counter() - t0
    verdict(
        5,
        result.mean_object >= 0.90
        and result.mean_material >= 0.90
        and elapsed < 15 * 60,
        f"time-kfold k=10 on 200 img/class: object {result.mean_object:.4f}, "
        f"material {result.mean_material:.4f} (both >= 0.90) in {elapsed / 60:.1f} min "
        f"(< 15 min); reference at paper scale: 0.9844/0.9925",
    )


# -- 6. LOPO behavior ------------------------------------------------------------


@pytest.mark.slow
def test_criterion_06_lopo_report():
    absences = frozenset(
        {(2, "plush"), (5, "ceramic"), (5, "steel"), (9, "fabric_hi"), (11, "marble")}
    )
    corpus = synth_generate(
        SynthSpec(rng_seed=21, images_per_class=60, side=64, persons=12, absences=absences)
    )
    plan = corpus_mod.make_split(corpus, "leave_one_person_out")
    cfg = TrainConfig(lr0=2e-3, batch=16, epochs=8, seed=2)
    result = harness.run_protocol(corpus, plan, cfg)

    tax = corpus.taxonomy
    expected_denoms = {
        c: 12 - sum(1 for _, m in absences if tax.material_index(m) == c)
        for c in range(1, 10)
    }
    denoms_ok = result.lopo_material.class_denominators == expected_denoms
    acc_ok = result.mean_object >= 0.80 and result.mean_material >= 0.80
    verdict(
        6,
        denoms_ok and acc_ok,
        f"LOPO denominators match constructed absences exactly; mean object "
        f"{result.mean_object:.4f}, material {result.mean_material:.4f} (both >= 0.80); "
        f"reference at paper scale: 0.9556/0.9696",
    )


# -- 7. forgetting experiment -----------------------------------------------------


@pytest.mark.slow
def test_criterion_07_forgetting_and_cl_gains():
    # two-task benchmark: 5 material classes, then 4 new ones
    a_mats = ("plush", "fabric_hi", "fabric_lo", "leather", "fiberboard")
    b_mats = ("wood", "ceramic", "steel", "marble")
    corpus_a = synth_generate(
        SynthSpec(rng_seed=31, images_per_class=60, side=64, persons=6, materials=a_mats)
    )
    corpus_b = synth_generate(
        SynthSpec(rng_seed=32, images_per_class=60, side=64, persons=6, materials=b_mats)
    )
    cl_cfg = CLConfig(
        train=TrainConfig(lr0=2e-3, batch=16, epochs=10, seed=5),
        tricks=CLTricks.all_on(),
    )
    rep = harness.forgetting_experiment(
        harness.split_by_time(corpus_a.records),
        harness.split_by_time(corpus_b.records),
        cl_cfg,
        buffer_capacity=500,
        init_seed=5,
    )
    naive_ok = rep.naive_drop >= 0.30
    er_ok = rep.er_gap_to_joint <= 0.10 and rep.task_a_er > rep.task_a_naive

    # three-dataset robustness/generalization gains
    setup = harness.build_cl_eval(seed=6, train_cfg=TrainConfig(lr0=2e-3, epochs=10, seed=6))
    report = harness.cl_evaluation(setup)
    novel_off = report.er_off["novel"]
    chance_ok = novel_off[0] == 0.0 and novel_off[1] == 0.0
    d_hard = report.delta("hardened")
    d_novel = report.delta("novel")
    deltas_ok = (
        d_hard[0] > 0
        and d_hard[1] > 0
        and d_novel[0] > d_hard[0]
        and d_novel[1] > d_hard[1]
    )
    verdict(
        7,
        naive_ok and er_ok and chance_ok and deltas_ok,
        f"naive fine-tune drops {rep.naive_drop * 100:.0f} pts (>= 30); ER within "
        f"{rep.er_gap_to_joint * 100:.0f} pts of joint (<= 10); deltas hardened "
        f"{d_hard[0]:+.3f}/{d_hard[1]:+.3f}, novel {d_novel[0]:+.3f}/{d_novel[1]:+.3f} "
        f"(positive, novel larger); paper-scale references +12.95/+12.04 and "
        f"+61.18/+62.27 (direction and ordering only)",
    )


# -- 8. mapping validator ----------------------------------------------------------


def test_criterion_08_mapping_validator():
    hits = sum(
        validate_pair(o, m) for o in range(1, 7) for m in range(1, 10)
    )
    pairs = set(DEFAULT_MAPPING.valid_index_pairs())
    rng = np.random.default_rng(0)
    violations = 0
    returned = 0
    for _ in range(10_000):
        p_o = rng.random(6)
        p_o /= p_o.sum()
        p_m = rng.random(9)
        p_m /= p_m.sum()
        try:
            res = validate_and_repair(p_o, p_m)
        except RecognitionFailed:
            continue
        returned += 1
        if (res.object_index, res.material_index) not in pairs:
            violations += 1
    verdict(
        8,
        hits == 11 and violations == 0 and returned > 0,
        f"6x9 sweep yields exactly {hits} valid pairs; {returned} of 10,000 random "
        f"distributions returned, 0 invalid pairs emitted",
    )


# -- 9. CLI determinism --------------------------------------------------------------


def _digest_tree(root) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.mark.slow
def test_criterion_09_cli_rerun_byte_identical(tmp_path):
    def cfg_file(name, **kv):
        path = tmp_path / name
        path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()))
        return path

    gen_cfg = cfg_file(
        "gen.txt", out_dir=tmp_path / "gen", images_per_class=6, persons=2, side=32, seed=3
    )
    manifest = tmp_path / "gen" / "corpus" / "manifest.txt"
    train_cfg = cfg_file(
        "train.txt",
        out_dir=tmp_path / "train",
        corpus_manifest=manifest,
        epochs=2,
        lr0=0.002,
        seed=3,
    )
    eval_cfg = cfg_file(
        "eval.txt",
        out_dir=tmp_path / "eval",
        corpus_manifest=manifest,
        split_kind="time_kfold",
        k=2,
        epochs=1,
        lr0=0.002,
        seed=3,
    )
    trig_cfg = cfg_file("trig.txt", out_dir=tmp_path / "trig")
    quality_cfg = cfg_file(
        "quality.txt", out_dir=tmp_path / "quality", images=tmp_path / "gen" / "corpus"
    )
    stream = tmp_path / "stream.txt"
    cl_cfg = cfg_file(
        "cl.txt",
        out_dir=tmp_path / "cl",
        checkpoint=tmp_path / "train" / "checkpoint.bin",
        task_stream=stream,
        epochs=1,
        seed=3,
        buffer_capacity=8,
    )

    runs = [
        ("gen-corpus", gen_cfg, tmp_path / "gen"),
        ("train", train_cfg, tmp_path / "train"),
        ("evaluate", eval_cfg, tmp_path / "eval"),
        ("simulate-trigger", trig_cfg, tmp_path / "trig"),
        ("assess-quality", quality_cfg, tmp_path / "quality"),
        ("cl-run", cl_cfg, tmp_path / "cl"),
    ]

    digests = []
    for round_ in range(2):
        if stream.exists():
            stream.unlink()
        round_digests = {}
        for command, cfg, out_dir in runs:
            if command == "cl-run" and not stream.exists():
                rel = manifest.relative_to(tmp_path)
                stream.write_text(f"1 {rel} {rel}\n")
            if out_dir.exists():
                shutil.rmtree(out_dir)
            code = cli_main([command, str(cfg)])
            assert code == 0, f"{command} failed on round {round_}"
            round_digests[command] = _digest_tree(out_dir)
        digests.append(round_digests)

    mismatched = [
        cmd for cmd in digests[0] if digests[0][cmd] != digests[1][cmd]
    ]
    verdict(
        9,
        not mismatched,
        f"all {len(runs)} artifact-producing commands rerun byte-identical "
        f"(corpora, checkpoints, event logs, reports)",
    )


# -- 10. latency budget ----------------------------------------------------------------


def test_criterion_10_forward_latency_budget():
    params = init_params(seed=0)
    img = Image(np.random.default_rng(0).uniform(0.0, 1.0, (224, 224, 3)).astype(np.float32))
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        classifier.forward(params, img)
        times.append(time.perf_counter() - t0)
    mean_ms = float(np.mean(times)) * 1000
    verdict(
        10,
        mean_ms < 100.0,
        f"224x224 forward pass mean {mean_ms:.1f} ms over 100 runs (< 100 ms budget)",
    )
