import numpy as np
import pytest

from surfsense.classifier import TrainConfig, forward, init_params
from surfsense.corpus import make_split
from surfsense.harness import (
    ProtocolResult,
    build_cl_eval,
    confusion,
    harden_records,
    lopo_report,
    protocol_summary,
    run_protocol,
    select_difficult,
    top1_accuracy,
    write_confusion_csv,
    write_counts_csv,
)
from surfsense.synth import SynthSpec, synth_generate


def test_perfect_accuracy():
    assert top1_accuracy([1, 2, 3], [1, 2, 3]) == 1.0


def test_two_thirds_accuracy():
    assert top1_accuracy([1, 2, 4], [1, 2, 3]) == pytest.approx(2 / 3)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        top1_accuracy([], [])


def test_accuracy_equals_confusion_trace():
    rng = np.random.default_rng(0)
    labels = rng.integers(1, 7, size=500)
    preds = rng.integers(1, 7, size=500)
    cm = confusion(preds, labels, 6)
    assert cm.accuracy() == pytest.approx(top1_accuracy(preds, labels))
    assert cm.counts.sum() == 500


def test_perfect_predictor_gives_identity_columns():
    labels = np.array([1, 2, 3, 1, 2, 3])
    cm = confusion(labels, labels, 3)
    assert np.allclose(cm.normalized, np.eye(3))


def test_constant_predictor_fills_first_row():
    labels = np.array([1, 2, 3, 2, 3, 3])
    preds = np.ones_like(labels)
    cm = confusion(preds, labels, 3)
    assert np.allclose(cm.normalized[0], 1.0)
    assert np.allclose(cm.normalized[1:], 0.0)


def test_half_of_class3_predicted_class1():
    # mirrors the reported sofa-to-bed confusion cell
    labels = np.array([3] * 10 + [1] * 4)
    preds = np.array([1] * 5 + [3] * 5 + [1] * 4)
    cm = confusion(preds, labels, 3)
    assert cm.normalized[0, 2] == pytest.approx(0.5)


def test_column_normalization_sums_to_one():
    rng = np.random.default_rng(3)
    labels = rng.integers(1, 10, size=400)
    preds = rng.integers(1, 10, size=400)
    cm = confusion(preds, labels, 9)
    sums = cm.normalized.sum(axis=0)
    present = np.bincount(labels - 1, minlength=9) > 0
    assert np.allclose(sums[present], 1.0, atol=1e-9)
    assert np.allclose(sums[~present], 0.0)


def test_empty_column_stays_zero():
    labels = np.array([1, 1, 2])
    preds = np.array([1, 2, 2])
    cm = confusion(preds, labels, 3)
    assert np.allclose(cm.normalized[:, 2], 0.0)


def test_labels_out_of_range_rejected():
    with pytest.raises(ValueError):
        confusion([1], [4], 3)


def test_out_of_range_predictions_are_unbinned_but_counted_in_columns():
    labels = np.array([1, 2, 2, 3])
    preds = np.array([1, 0, 2, 4])  # 0 and C+1 cannot be binned
    cm = confusion(preds, labels, 3)
    assert cm.counts.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert cm.normalized[:, 1].tolist() == [0.0, 0.5, 0.0]
    assert cm.normalized[:, 2].tolist() == [0.0, 0.0, 0.0]
    assert cm.accuracy() == 1.0  # trace over binned counts only


def confusion_counts_loop(preds, labels, n_classes):
    """Per-sample loop reference for ``confusion``'s counts and column totals."""
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    col_totals = np.zeros(n_classes, dtype=np.int64)
    for p, t in zip(preds, labels):
        if 1 <= p <= n_classes:
            counts[p - 1, t - 1] += 1
        col_totals[t - 1] += 1
    return counts, col_totals


def test_confusion_matches_the_loop_reference():
    rng = np.random.default_rng(5)
    for n_classes in (1, 3, 9, 11):
        labels = rng.integers(1, n_classes + 1, size=300)
        preds = rng.integers(-1, n_classes + 3, size=300)  # some out of range
        cm = confusion(preds, labels, n_classes)
        counts, col_totals = confusion_counts_loop(preds, labels, n_classes)
        assert np.array_equal(cm.counts, counts)
        present = col_totals > 0
        assert np.array_equal(cm.normalized[:, present], counts[:, present] / col_totals[present])
        assert not cm.normalized[:, ~present].any()


def test_prediction_label_length_mismatch_rejected():
    with pytest.raises(ValueError, match="3 predictions for 2 labels"):
        confusion([1, 2, 2], [1, 2], 3)
    with pytest.raises(ValueError):
        confusion([1], [1, 2], 3)


# --- LOPO missing-class averaging ---


def test_lopo_denominators_match_presence():
    # person 1 has classes {1,2}; person 2 only {1}; person 3 {1,2}
    folds = [
        (1, np.array([1, 2, 2]), np.array([1, 2, 2])),
        (2, np.array([1, 1]), np.array([1, 1])),
        (3, np.array([1, 2, 1]), np.array([1, 2, 2])),
    ]
    rep = lopo_report(folds, n_classes=2)
    assert rep.class_denominators == {1: 3, 2: 2}
    assert rep.class_averages[1] == pytest.approx(1.0)
    # class 2: person1 -> 1.0, person3 -> 0.5; person2 not counted
    assert rep.class_averages[2] == pytest.approx(0.75)


def test_lopo_mean_and_sd_over_persons():
    folds = [
        (1, np.array([1, 1]), np.array([1, 1])),
        (2, np.array([1, 2]), np.array([2, 2])),
    ]
    rep = lopo_report(folds, n_classes=2)
    assert rep.per_person_acc[1] == 1.0
    assert rep.per_person_acc[2] == 0.5
    assert rep.mean_accuracy == pytest.approx(0.75)
    assert rep.sd_accuracy == pytest.approx(np.std([1.0, 0.5], ddof=1))


def test_lopo_absent_class_not_in_averages():
    folds = [(1, np.array([1]), np.array([1]))]
    rep = lopo_report(folds, n_classes=3)
    assert rep.class_denominators[3] == 0
    assert 3 not in rep.class_averages


# --- protocol smoke runs (tiny corpus, tiny training) ---


def small_cfg(epochs=3):
    return TrainConfig(lr0=2e-3, batch=8, epochs=epochs, seed=0)


def test_run_protocol_time_kfold_smoke():
    corpus = synth_generate(SynthSpec(rng_seed=5, images_per_class=8, side=32, persons=3))
    plan = make_split(corpus, "time_kfold", 3)
    result = run_protocol(corpus, plan, small_cfg())
    assert len(result.fold_acc_object) == 3
    assert 0.0 <= result.mean_object <= 1.0
    assert result.confusion_object.counts.sum() == len(corpus)
    # pooled equals trace/total identity
    assert result.pooled_object == pytest.approx(result.confusion_object.accuracy())
    assert result.pooled_material == pytest.approx(result.confusion_material.accuracy())


def test_run_protocol_lopo_produces_reports():
    corpus = synth_generate(
        SynthSpec(
            rng_seed=6,
            images_per_class=9,
            side=32,
            persons=3,
            absences=frozenset({(2, "plush")}),
        )
    )
    plan = make_split(corpus, "leave_one_person_out")
    result = run_protocol(corpus, plan, small_cfg(epochs=2))
    assert result.lopo_material is not None
    plush = corpus.taxonomy.material_index("plush")
    assert result.lopo_material.class_denominators[plush] == 2  # person 2 lacks it
    assert len(result.fold_acc_object) == 3


def test_run_protocol_deterministic():
    corpus = synth_generate(SynthSpec(rng_seed=7, images_per_class=4, side=32, persons=2))
    plan = make_split(corpus, "time_kfold", 2)
    a = run_protocol(corpus, plan, small_cfg(epochs=1))
    b = run_protocol(corpus, plan, small_cfg(epochs=1))
    assert a.fold_acc_object == b.fold_acc_object
    assert np.array_equal(a.confusion_material.counts, b.confusion_material.counts)


def test_empty_train_fold_rejected():
    corpus = synth_generate(SynthSpec(rng_seed=8, images_per_class=2, side=32, persons=2))
    from surfsense.corpus import SplitPlan

    bad = SplitPlan(kind="time_kfold", folds=(((), (0, 1)),))
    with pytest.raises(ValueError):
        run_protocol(corpus, bad, small_cfg(epochs=1))


# --- report files, pinned on a hand-built result (no training) ---


def hand_built_lopo_result():
    """Two LOPO folds (persons 1 and 4) over three classes per head; every
    scalar differs between the heads, so a swapped head shows."""
    folds_o = [
        (1, np.array([1, 2, 3, 3]), np.array([1, 2, 3, 1])),
        (4, np.array([2, 2, 1]), np.array([1, 2, 1])),
    ]
    folds_m = [
        (1, np.array([1, 1, 2, 3]), np.array([1, 2, 2, 3])),
        (4, np.array([3, 3, 1]), np.array([3, 1, 1])),
    ]

    def pooled(folds):
        return (np.concatenate([p for _, p, _ in folds]), np.concatenate([y for _, _, y in folds]))

    return ProtocolResult(
        kind="leave_one_person_out",
        fold_acc_object=[0.75, 2 / 3],
        fold_acc_material=[0.5, 1.0],
        mean_object=0.7083333333333333,
        sd_object=0.05892556509887896,
        mean_material=0.75,
        sd_material=0.3535533905932738,
        pooled_object=5 / 7,
        pooled_material=4 / 7,
        confusion_object=confusion(*pooled(folds_o), 3),
        confusion_material=confusion(*pooled(folds_m), 3),
        lopo_object=lopo_report(folds_o, 3),
        lopo_material=lopo_report(folds_m, 3),
    )


def test_protocol_summary_text_is_pinned():
    assert protocol_summary(hand_built_lopo_result()) == (
        "protocol: leave_one_person_out\n"
        "folds: 2\n"
        "object: mean 0.7083 sd 0.0589 pooled 0.7143\n"
        "material: mean 0.7500 sd 0.3536 pooled 0.5714\n"
        "fold 0: object 0.7500 material 0.5000\n"
        "fold 1: object 0.6667 material 1.0000\n"
        "lopo object class averages (class: acc over n persons):\n"
        "  1: 0.5000 over 2\n"
        "  2: 1.0000 over 2\n"
        "  3: 1.0000 over 1\n"
        "lopo material class averages:\n"
        "  1: 0.7500 over 2\n"
        "  2: 0.5000 over 1\n"
        "  3: 1.0000 over 2\n"
    )


def test_confusion_csv_writers_are_pinned(tmp_path):
    result = hand_built_lopo_result()
    write_confusion_csv(result.confusion_object, tmp_path / "n.csv", ["bed", "desk", "sofa"])
    write_counts_csv(result.confusion_material, tmp_path / "c.csv", ["plush", "wood", "steel"])
    assert (tmp_path / "n.csv").read_bytes() == (
        b"pred\\truth,bed,desk,sofa\r\n"
        b"bed,0.500000,0.000000,0.000000\r\n"
        b"desk,0.250000,1.000000,0.000000\r\n"
        b"sofa,0.250000,0.000000,1.000000\r\n"
    )
    assert (tmp_path / "c.csv").read_bytes() == (
        b"pred\\truth,plush,wood,steel\r\n"
        b"plush,2,1,0\r\n"
        b"wood,0,1,0\r\n"
        b"steel,1,0,2\r\n"
    )


# --- degradations ---


def test_harden_records_change_images_keep_labels():
    corpus = synth_generate(SynthSpec(rng_seed=9, images_per_class=5, side=32, persons=2))
    hardened = harden_records(corpus.records, rng_seed=4)
    assert len(hardened) == len(corpus.records)
    changed = 0
    for a, b in zip(corpus.records, hardened):
        assert (a.object, a.material, a.person_id) == (b.object, b.material, b.person_id)
        if not np.array_equal(a.image.pixels, b.image.pixels):
            changed += 1
    assert changed == len(hardened)


def test_harden_records_deterministic():
    corpus = synth_generate(SynthSpec(rng_seed=10, images_per_class=3, side=32, persons=2))
    a = harden_records(corpus.records, rng_seed=1)
    b = harden_records(corpus.records, rng_seed=1)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.image.pixels, rb.image.pixels)


def test_hardened_images_score_lower_on_average():
    from surfsense.imaging import log_sharpness

    corpus = synth_generate(SynthSpec(rng_seed=11, images_per_class=6, side=32, persons=2))
    base = np.mean([log_sharpness(r.image).log_variance for r in corpus.records])
    hard = np.mean(
        [log_sharpness(r.image).log_variance for r in harden_records(corpus.records, 2)]
    )
    assert hard < base


def test_select_difficult_puts_errors_first_then_low_confidence():
    recs = synth_generate(SynthSpec(rng_seed=4, images_per_class=4, side=16, persons=2)).records
    params = init_params(seed=1)
    preds = [forward(params, r.image) for r in recs]
    wrong = [
        (p.top1_object, p.top1_material) != (r.object, r.material) for p, r in zip(preds, recs)
    ]
    conf = [float(p.p_object.max() * p.p_material.max()) for p in preds]
    position = {id(r): i for i, r in enumerate(recs)}
    picked = [position[id(r)] for r in select_difficult(recs, params, keep=10)]
    assert len(set(picked)) == 10
    keys = [(not wrong[i], conf[i]) for i in picked]
    assert keys == sorted(keys)
    assert keys[-1] <= min((not wrong[i], conf[i]) for i in range(len(recs)) if i not in picked)
    assert select_difficult([], params, keep=3) == []


def test_build_cl_eval_keeps_a_float32_corpus_float32():
    setup = build_cl_eval(
        3, images_per_class=4, side=16, persons=2, train_cfg=TrainConfig(lr0=2e-3, epochs=1, seed=3)
    )
    names = (
        "buffer_source", "original_test", "hardened_train",
        "hardened_test", "novel_train", "novel_test",
    )  # fmt: skip
    for name in names:
        records = getattr(setup, name)
        assert records, name
        assert {r.image.pixels.dtype for r in records} == {np.dtype(np.float32)}, name
