import warnings
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np
import pytest

from surfsense import classifier, replay
from surfsense.classifier import TrainConfig, init_params
from surfsense.corpus import SampleRecord
from surfsense.imaging import Image
from surfsense.replay import (
    CLConfig,
    CLTricks,
    HeadBias,
    ReplayBuffer,
    Task,
    apply_bias,
    cl_run,
    fit_affine_on_logits,
    fit_bias_correction,
    insert,
    sample_replay_batch,
    task_seed,
)

LOSS_EPS = replay.LOSS_EPS


def rec(material=1, obj=1, seed=0, side=8):
    rng = np.random.default_rng(seed)
    img = Image(rng.uniform(0, 1, (side, side, 3)).astype(np.float32))
    return SampleRecord(1, obj, material, img, 0.0)


def simple_records(labels, side=8):
    recs = []
    for i, (o, m) in enumerate(labels):
        rng = np.random.default_rng(i)
        img = Image(rng.uniform(0, 1, (side, side, 3)).astype(np.float32))
        recs.append(SampleRecord(1, o, m, img, float(i)))
    return recs


def test_buffer_rejects_unknown_mode_and_negative_capacity():
    with pytest.raises(ValueError, match="sampling_mode"):
        ReplayBuffer(capacity=4, sampling_mode="fifo")
    with pytest.raises(ValueError, match="capacity"):
        ReplayBuffer(capacity=-1)
    for mode in replay.SAMPLING_MODES:
        assert ReplayBuffer(capacity=0, sampling_mode=mode).sampling_mode == mode


@pytest.mark.parametrize(
    "field, value",
    [
        ("gamma", 0.0),
        ("gamma", 2.0),
        ("gamma", float("nan")),
        ("replay_batch", 0),
        ("bias_fit_fraction", 0.0),
        ("bias_fit_fraction", -0.5),
        ("bias_fit_fraction", 1.5),
        ("bias_fit_fraction", float("inf")),
        ("bias_fit_fraction", float("nan")),
    ],
)
def test_cl_config_names_the_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        CLConfig(**{field: value})


def test_cl_config_accepts_a_whole_buffer_bias_fit():
    assert CLConfig(bias_fit_fraction=1.0, gamma=1.0).bias_fit_fraction == 1.0


# --- reservoir discipline ---


def test_under_capacity_retains_everything():
    buf = ReplayBuffer(capacity=500)
    rng = np.random.default_rng(0)
    for i in range(500):
        insert(buf, rec(seed=i), 0.0, rng)
    assert len(buf.records) == 500
    assert buf.seen_count == 500


def test_capacity_one_stream_of_two_is_fair():
    hits = 0
    trials = 4000
    for seed in range(trials):
        buf = ReplayBuffer(capacity=1)
        rng = np.random.default_rng(seed)
        insert(buf, rec(material=1), 0.0, rng)
        insert(buf, rec(material=2), 0.0, rng)
        hits += buf.records[0].material == 2
    # exact inclusion probability is 1/2
    assert abs(hits / trials - 0.5) < 0.03


def test_reservoir_inclusion_frequency_small_scale():
    n, m, seeds = 400, 40, 120
    counts = np.zeros(n)
    stream = [rec(material=i) for i in range(n)]
    for s in range(seeds):
        buf = ReplayBuffer(capacity=m)
        rng = np.random.default_rng(s)
        for r in stream:
            insert(buf, r, 0.0, rng)
        for r in buf.records:
            counts[r.material] += 1
    freq = counts / seeds
    assert abs(freq.mean() - m / n) < 1e-9  # each run keeps exactly m
    # no position should be wildly over/under represented
    expected = seeds * m / n
    chi2 = ((counts - expected) ** 2 / expected).sum()
    from scipy import stats

    p = 1.0 - stats.chi2.cdf(chi2, df=n - 1)
    assert p > 0.01


def test_capacity_zero_counts_but_stores_nothing():
    buf = ReplayBuffer(capacity=0)
    rng = np.random.default_rng(0)
    for i in range(10):
        insert(buf, rec(), 0.0, rng)
    assert buf.records == []
    assert buf.seen_count == 10


# --- balanced discipline ---


def test_balanced_ninety_ten_stream_equalizes():
    buf = ReplayBuffer(capacity=100, sampling_mode="balanced")
    rng = np.random.default_rng(7)
    for i in range(5000):
        mat = 1 if rng.random() < 0.9 else 2
        insert(buf, rec(material=mat), 0.0, rng)
    counts = buf.class_counts()
    assert abs(counts[1] - 50) <= 1
    assert abs(counts[2] - 50) <= 1


def test_balanced_single_class_evicts_uniformly():
    # with one class the victim pool is the whole buffer: uniform slots
    buf = ReplayBuffer(capacity=20, sampling_mode="balanced")
    rng = np.random.default_rng(3)
    one = rec(material=1)
    for i in range(20):
        insert(buf, one, float(i), rng)
    evictions = np.zeros(20)
    for trial in range(4000):
        snapshot = buf.loss.copy()
        insert(buf, one, 1000.0 + trial, rng)
        evictions[np.flatnonzero(buf.loss != snapshot)[0]] += 1
    # chi-square uniformity over slots
    expected = evictions.sum() / 20
    chi2 = ((evictions - expected) ** 2 / expected).sum()
    from scipy import stats

    assert 1.0 - stats.chi2.cdf(chi2, df=19) > 0.01


def test_balanced_three_class_spread_at_most_one():
    buf = ReplayBuffer(capacity=10, sampling_mode="balanced")
    rng = np.random.default_rng(5)
    for i in range(3000):
        insert(buf, rec(material=1 + i % 3), 0.0, rng)
        if buf.seen_count > 30:
            counts = sorted(buf.class_counts().values())
            assert counts[-1] - counts[0] <= 1
    assert sorted(buf.class_counts().values()) == [3, 3, 4]


# --- loss-aware discipline ---


def test_loss_aware_evicts_easy_items():
    rng = np.random.default_rng(11)
    evict_low = evict_high = 0
    easy, hard, new = rec(material=1), rec(material=2), rec(material=3)
    for _ in range(60_000):
        buf = ReplayBuffer(capacity=2, sampling_mode="loss_aware")
        insert(buf, easy, 0.01, rng)
        insert(buf, hard, 10.0, rng)
        insert(buf, new, 1.0, rng)
        mats = {r.material for r in buf.records}
        if 1 not in mats:
            evict_low += 1
        else:
            evict_high += 1
    ratio = evict_low / max(evict_high, 1)
    want = (10.0 + LOSS_EPS) / (0.01 + LOSS_EPS)
    assert abs(ratio - want) / want < 0.2


def test_loss_aware_equal_losses_is_uniform():
    rng = np.random.default_rng(13)
    evictions = np.zeros(10)
    kept, new = [rec(material=i) for i in range(10)], rec(material=99)
    for _ in range(20_000):
        buf = ReplayBuffer(capacity=10, sampling_mode="loss_aware")
        for r in kept:
            insert(buf, r, 2.0, rng)
        insert(buf, new, 2.0, rng)
        gone = next(i for i in range(10) if buf.records[i].material != i)
        evictions[gone] += 1
    expected = evictions.sum() / 10
    chi2 = ((evictions - expected) ** 2 / expected).sum()
    from scipy import stats

    assert 1.0 - stats.chi2.cdf(chi2, df=9) > 0.01


def test_loss_aware_zero_loss_stays_finite():
    rng = np.random.default_rng(17)
    buf = ReplayBuffer(capacity=2, sampling_mode="loss_aware")
    for material in (1, 2, 3):
        insert(buf, rec(material=material), 0.0, rng)
    assert len(buf.records) == 2


def test_fill_from_records_stores_each_records_joint_loss():
    recs = simple_records([(1, 1), (3, 3), (5, 7)] * 3)
    params = init_params(seed=0, object_classes=[1, 3, 5], material_classes=[1, 3, 7])
    buf = replay.fill_from_records(ReplayBuffer(capacity=20), recs, np.random.default_rng(0), params)
    assert buf.seen_count == len(recs)
    assert all(a is b for a, b in zip(buf.records, recs, strict=True))
    for loss, r in zip(buf.loss, recs):
        pred = classifier.forward(params, r.image)
        want = -np.log(pred.p_object[[1, 3, 5].index(r.object)]) - np.log(
            pred.p_material[[1, 3, 7].index(r.material)]
        )
        assert loss == pytest.approx(float(want), rel=1e-5)
    no_params = replay.fill_from_records(ReplayBuffer(capacity=20), recs, np.random.default_rng(0))
    assert no_params.loss[: len(recs)].tolist() == [0.0] * len(recs)


# --- the list-based reference ---


@dataclass
class BufferItem:
    image: Image
    object: int
    material: int
    last_loss: float
    task_id: int
    insert_step: int


@dataclass
class ListBuffer:
    capacity: int
    sampling_mode: str
    items: List[BufferItem]
    seen_count: int = 0

    def class_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for it in self.items:
            counts[it.material] = counts.get(it.material, 0) + 1
        return counts


def _most_populated_class(buf: ListBuffer, incoming: int, rng: np.random.Generator) -> int:
    counts = buf.class_counts()
    top = max(counts.values())
    tied = sorted(c for c, n in counts.items() if n == top)
    if incoming in tied:
        return incoming
    if len(tied) == 1:
        return tied[0]
    return int(tied[rng.integers(0, len(tied))])


def reference_insert(buf: ListBuffer, item: BufferItem, rng: np.random.Generator) -> None:
    """The buffer's former insert: a list of items, rescanned per insert."""
    buf.seen_count += 1
    if buf.capacity == 0:
        return
    if len(buf.items) < buf.capacity:
        buf.items.append(item)
        return
    mode = buf.sampling_mode
    if mode == "reservoir":
        j = int(rng.integers(0, buf.seen_count))
        if j < buf.capacity:
            buf.items[j] = item
        return
    if mode.startswith("balanced"):
        victim_class = _most_populated_class(buf, item.material, rng)
        slots = [i for i, it in enumerate(buf.items) if it.material == victim_class]
    else:
        slots = range(len(buf.items))
    if mode.endswith("loss_aware"):
        weights = np.array([1.0 / (buf.items[i].last_loss + LOSS_EPS) for i in slots])
        weights /= weights.sum()
        pick = int(rng.choice(len(slots), p=weights))
    else:
        pick = int(rng.integers(0, len(slots)))
    buf.items[slots[pick]] = item


@pytest.mark.parametrize("mode", replay.SAMPLING_MODES)
@pytest.mark.parametrize("capacity", [0, 1, 2, 7, 29])
def test_insert_matches_the_list_based_reference(mode, capacity):
    for seed in range(6):
        data = np.random.default_rng((seed, 1))
        n_classes = int(data.integers(1, 5))
        stream = []
        for i in range(300):
            img = Image(np.full((1, 1, 3), 0.5, dtype=np.float32))
            material = int(data.integers(1, n_classes + 1))
            # some exact ties and zeros among the losses
            loss = float(data.choice([0.0, 1.0, data.exponential()]))
            stream.append((SampleRecord(1, 1, material, img, float(i)), loss))
        buf = ReplayBuffer(capacity=capacity, sampling_mode=mode)
        ref = ListBuffer(capacity, mode, [])
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, (r, loss) in enumerate(stream):
            insert(buf, r, loss, rng)
            reference_insert(ref, BufferItem(r.image, r.object, r.material, loss, 0, i), ref_rng)
            pairs = zip(buf.records, ref.items, strict=True)
            assert all(x.image is it.image for x, it in pairs)
            kept = len(ref.items)
            assert buf.loss[:kept].tolist() == [it.last_loss for it in ref.items]
            assert buf.material[:kept].tolist() == [it.material for it in ref.items]
            assert buf.class_counts() == ref.class_counts()
        assert buf.seen_count == ref.seen_count == len(stream)
        assert rng.integers(2**63) == ref_rng.integers(2**63)


# --- replay draws ---


def test_sample_replay_empty_buffer_rejected():
    with pytest.raises(ValueError):
        sample_replay_batch(ReplayBuffer(capacity=4), 2, np.random.default_rng(0), CLConfig())


def test_sample_replay_zero_items():
    buf = insert(ReplayBuffer(capacity=4), rec(), 0.0, np.random.default_rng(0))
    assert sample_replay_batch(buf, 0, np.random.default_rng(0), CLConfig()) == ([], [])


def test_sample_replay_deterministic():
    buf = ReplayBuffer(capacity=8)
    for i in range(8):
        insert(buf, rec(material=i), 0.0, np.random.default_rng(0))
    cfg = CLConfig(tricks=CLTricks(independent_buffer_augmentation=True))
    a = sample_replay_batch(buf, 5, np.random.default_rng(42), cfg)
    b = sample_replay_batch(buf, 5, np.random.default_rng(42), cfg)
    assert [r.material for r in a[0]] == [r.material for r in b[0]]
    assert a[1] == b[1]


def test_independent_augmentation_gives_distinct_seeds():
    buf = insert(ReplayBuffer(capacity=2), rec(material=1), 0.0, np.random.default_rng(0))
    on = CLConfig(tricks=CLTricks(independent_buffer_augmentation=True))
    off = CLConfig()
    _, seeds_on = sample_replay_batch(buf, 6, np.random.default_rng(0), on)
    _, seeds_off = sample_replay_batch(buf, 6, np.random.default_rng(0), off)
    assert len(set(seeds_on)) > 1  # same record, different transforms
    assert len(set(seeds_off)) == 1  # batch-shared transform


# --- bias control ---


def test_identity_bias_leaves_logits_unchanged():
    logits = np.random.default_rng(0).normal(size=(5, 7))
    out = apply_bias(logits, HeadBias())
    assert np.array_equal(out, logits)


def test_bias_only_touches_new_units():
    logits = np.random.default_rng(1).normal(size=(4, 6))
    out = apply_bias(logits, HeadBias(scale=2.0, offset=-1.0, new_units=(4, 5)))
    assert np.array_equal(out[:, :4], logits[:, :4])
    assert np.allclose(out[:, 4:], 2.0 * logits[:, 4:] - 1.0)


def test_fitted_offset_recovers_constructed_inflation():
    # Calibrated construction: labels drawn from the softmax of the raw
    # logits, so the population CE optimum over (scale, offset) on the
    # inflated columns is exactly (1, -2).
    rng = np.random.default_rng(1)
    n, c = 2500, 9
    new_units = (5, 6, 7, 8)
    raw = rng.normal(0, 1.5, size=(n, c))
    p = np.exp(raw - raw.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random(n)
    labels = (p.cumsum(axis=1) < u[:, None]).sum(axis=1)
    logits = raw.copy()
    logits[:, new_units] += 2.0  # uniform inflation of new classes
    fitted = fit_affine_on_logits(logits, labels, new_units)
    assert abs(fitted.offset - (-2.0)) < 0.2
    assert abs(fitted.scale - 1.0) < 0.2


def test_old_class_ordering_preserved():
    logits = np.array([[3.0, 2.0, 1.0, 0.0, 5.0]])
    out = apply_bias(logits, HeadBias(scale=0.5, offset=-4.0, new_units=(4,)))
    assert np.array_equal(np.argsort(out[0, :4]), np.argsort(logits[0, :4]))


def test_no_new_classes_gives_identity():
    buf = insert(ReplayBuffer(capacity=4), rec(), 0.0, np.random.default_rng(0))
    params = init_params(seed=0)
    bias = fit_bias_correction(params, buf, CLConfig())
    assert bias.object_head == HeadBias()
    assert bias.material_head == HeadBias()


# --- the continual-learning loop ---


def two_task_records():
    a = simple_records([(1, 1), (1, 2), (3, 3)] * 6)
    b = simple_records([(5, 7), (5, 8)] * 6)
    return a, b


def test_empty_task_skipped_with_warning():
    params = init_params(seed=0)
    cfg = CLConfig(train=TrainConfig(epochs=1, batch=4, seed=0, augment=False))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = cl_run(params, [Task(1, ())], cfg, ReplayBuffer(capacity=4))
    assert any("skipped" in str(w.message) for w in caught)
    assert result.metrics == []


def test_cl_run_capacity_zero_equals_sequential_finetuning():
    a, b = two_task_records()
    base = TrainConfig(lr0=1e-3, batch=4, epochs=2, seed=9, augment=False)
    cfg = CLConfig(train=base, tricks=CLTricks())
    params = init_params(seed=1)

    stream = [Task(1, tuple(a)), Task(2, tuple(b))]
    cl_result = cl_run(params, stream, cfg, ReplayBuffer(capacity=0))

    ref = params.copy()
    for pos, records in enumerate([a, b], start=1):
        task_cfg = replace(base, seed=task_seed(base.seed, pos))
        grow_obj = sorted({r.object for r in records} - set(ref.object_classes))
        grow_mat = sorted({r.material for r in records} - set(ref.material_classes))
        if grow_obj or grow_mat:
            ref = classifier.grow_heads(ref, grow_obj, grow_mat, task_cfg.seed)
        ref = classifier.train(ref, records, task_cfg).params

    for name in ref.tensors:
        assert np.array_equal(cl_result.params.tensors[name], ref.tensors[name]), name


def test_cl_run_single_task_empty_buffer_is_plain_training():
    a, _ = two_task_records()
    base = TrainConfig(lr0=1e-3, batch=4, epochs=2, seed=3, augment=False)
    cfg = CLConfig(train=base, tricks=CLTricks())
    params = init_params(seed=0)
    got = cl_run(params, [Task(1, tuple(a))], cfg, ReplayBuffer(capacity=0))
    want = classifier.train(
        params, a, replace(base, seed=task_seed(base.seed, 1))
    ).params
    for name in want.tensors:
        assert np.array_equal(got.params.tensors[name], want.tensors[name])


def test_cl_run_gamma_one_keeps_lr_constant():
    a, b = two_task_records()
    base = TrainConfig(lr0=1e-3, batch=4, epochs=1, seed=5, augment=False)
    on = CLConfig(train=base, tricks=CLTricks(exp_lr_decay=True), gamma=1.0)
    off = CLConfig(train=base, tricks=CLTricks())
    pa = cl_run(init_params(seed=2), [Task(1, tuple(a))], on, ReplayBuffer(capacity=0))
    pb = cl_run(init_params(seed=2), [Task(1, tuple(a))], off, ReplayBuffer(capacity=0))
    for name in pa.params.tensors:
        assert np.array_equal(pa.params.tensors[name], pb.params.tensors[name])


def test_cl_run_grows_heads_and_buffers_items():
    a, b = two_task_records()
    base = TrainConfig(lr0=1e-3, batch=4, epochs=1, seed=7, augment=False)
    cfg = CLConfig(train=base, tricks=CLTricks.all_on(), gamma=0.9)
    params = init_params(seed=0, object_classes=[1, 3], material_classes=[1, 2, 3])
    buf = ReplayBuffer(capacity=16, sampling_mode=cfg.buffer_mode())
    result = cl_run(params, [Task(1, tuple(a), tuple(a)), Task(2, tuple(b), tuple(b))], cfg, buf)
    assert 5 in result.params.object_classes
    assert set(result.params.material_classes) >= {7, 8}
    assert len(buf.records) == 16
    assert buf.seen_count == len(a) + len(b)
    # metrics rows: task1 evaluated once, then both after task 2
    assert [(r[0], r[1]) for r in result.metrics] == [(1, 1), (2, 1), (2, 2)]


def test_cl_run_metrics_accuracy_range():
    a, b = two_task_records()
    base = TrainConfig(lr0=2e-3, batch=4, epochs=3, seed=11, augment=False)
    cfg = CLConfig(train=base, tricks=CLTricks.all_on())
    params = init_params(seed=4, object_classes=[1, 3], material_classes=[1, 2, 3])
    buf = ReplayBuffer(capacity=32, sampling_mode=cfg.buffer_mode())
    result = cl_run(params, [Task(1, tuple(a), tuple(a)), Task(2, tuple(b), tuple(b))], cfg, buf)
    for _, _, ao, am in result.metrics:
        assert 0.0 <= ao <= 1.0 and 0.0 <= am <= 1.0
