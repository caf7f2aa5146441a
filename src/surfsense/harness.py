"""Evaluation harness: accuracy, confusion matrices, cross-validation
protocols, hardened-set construction, and continual-learning experiments.

Confusion matrices follow the ground-truth-in-columns convention: entry
(r, c) counts samples of true class c predicted as class r, and the
normalized form divides each column by its total.  Leave-one-person-out
reports apply the missing-class rule: a person lacking a class simply
does not enter that class's average.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import classifier, replay
from .classifier import ModelParams, TrainConfig
from .corpus import Corpus, SampleRecord, SplitPlan
from .imaging import (
    Image,
    add_gaussian_noise,
    adjust_brightness,
    gaussian_blur,
)
from .replay import CLConfig, ReplayBuffer, Task


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) ints; row = prediction, column = ground truth
    normalized: np.ndarray  # columns sum to 1; empty columns all-zero

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    def accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.trace(self.counts) / total) if total else 0.0


def top1_accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ValueError("predictions and labels must be equal-length and non-empty")
    return float(np.mean(preds == labels))


def confusion(preds: Sequence[int], labels: Sequence[int], n_classes: int) -> ConfusionMatrix:
    """Counts and column-normalized confusion over 1-based labels."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"{preds.size} predictions for {labels.size} labels")
    if labels.min() < 1 or labels.max() > n_classes:
        raise ValueError("labels out of range")
    # Predictions outside 1..C (possible before head growth) count as
    # errors but cannot be binned; column totals still include them.
    binned = (preds >= 1) & (preds <= n_classes)
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (preds[binned] - 1, labels[binned] - 1), 1)
    col_totals = np.bincount(labels - 1, minlength=n_classes)
    normalized = np.zeros((n_classes, n_classes), dtype=np.float64)
    nonzero = col_totals > 0
    normalized[:, nonzero] = counts[:, nonzero] / col_totals[nonzero]
    return ConfusionMatrix(counts=counts, normalized=normalized)


@dataclass
class LOPOReport:
    """Per-person, per-class accuracy with missing-class averaging."""

    persons: List[int]
    per_person_class_acc: Dict[int, Dict[int, float]]  # person -> class -> acc
    per_person_acc: Dict[int, float]
    class_averages: Dict[int, float]  # class -> mean over persons having it
    class_denominators: Dict[int, int]
    mean_accuracy: float
    sd_accuracy: float


def lopo_report(
    fold_results: Sequence[Tuple[int, np.ndarray, np.ndarray]], n_classes: int
) -> LOPOReport:
    """Aggregate (person, preds, labels) fold outputs.

    A person absent from a class contributes nothing to that class's
    average; denominators record how many persons actually held it.
    """
    persons: List[int] = []
    per_person_class: Dict[int, Dict[int, float]] = {}
    per_person: Dict[int, float] = {}
    for person, preds, labels in fold_results:
        persons.append(person)
        per_person[person] = top1_accuracy(preds, labels)
        class_acc: Dict[int, float] = {}
        for c in range(1, n_classes + 1):
            mask = labels == c
            if mask.any():
                class_acc[c] = float(np.mean(preds[mask] == c))
        per_person_class[person] = class_acc

    class_avg: Dict[int, float] = {}
    class_den: Dict[int, int] = {}
    for c in range(1, n_classes + 1):
        vals = [acc[c] for acc in per_person_class.values() if c in acc]
        class_den[c] = len(vals)
        if vals:
            class_avg[c] = float(np.mean(vals))
    accs = np.array([per_person[p] for p in persons])
    return LOPOReport(
        persons=persons,
        per_person_class_acc=per_person_class,
        per_person_acc=per_person,
        class_averages=class_avg,
        class_denominators=class_den,
        mean_accuracy=float(accs.mean()),
        sd_accuracy=float(accs.std(ddof=1)) if len(accs) > 1 else 0.0,
    )


@dataclass
class ProtocolResult:
    kind: str
    fold_acc_object: List[float]
    fold_acc_material: List[float]
    mean_object: float
    sd_object: float
    mean_material: float
    sd_material: float
    pooled_object: float  # pooled over all test predictions
    pooled_material: float
    confusion_object: ConfusionMatrix
    confusion_material: ConfusionMatrix
    lopo_object: Optional[LOPOReport] = None
    lopo_material: Optional[LOPOReport] = None


def fold_seed(base_seed: int, fold: int) -> int:
    return int(np.random.SeedSequence((base_seed, 601, fold)).generate_state(1)[0])


def run_protocol(corpus: Corpus, plan: SplitPlan, train_cfg: TrainConfig) -> ProtocolResult:
    """Train and evaluate each fold from a fixed seed, then aggregate.

    Both the mean of per-fold accuracies and the pooled accuracy over
    all test predictions are reported (they differ when folds are
    unequal).
    """
    n_classes = (corpus.taxonomy.n_objects, corpus.taxonomy.n_materials)
    folds = []  # per fold: ((object, material) predictions, (object, material) labels)
    for f, (train_ids, test_ids) in enumerate(plan.folds):
        if len(train_ids) == 0:
            raise ValueError(f"fold {f} has an empty training set")
        train_records = [corpus.records[i] for i in train_ids]
        test_records = [corpus.records[i] for i in test_ids]
        cfg = replace(train_cfg, seed=fold_seed(train_cfg.seed, f))
        params = classifier.init_params(cfg.seed, *n_classes, dtype=np.float32)
        params = classifier.train(params, train_records, cfg).params
        folds.append(
            (classifier.predict_records(params, test_records), classifier.labels(test_records))
        )

    per_head = {}
    for h, (head, n) in enumerate(zip(classifier.HEADS, n_classes)):
        preds, labs = [fold[0][h] for fold in folds], [fold[1][h] for fold in folds]
        acc = [top1_accuracy(p, y) for p, y in zip(preds, labs)]
        pred, lab = np.concatenate(preds), np.concatenate(labs)
        lopo = None
        if plan.kind == "leave_one_person_out":
            lopo = lopo_report(list(zip(plan.fold_persons, preds, labs)), n)
        per_head[f"fold_acc_{head}"] = acc
        per_head[f"mean_{head}"] = float(np.mean(acc))
        per_head[f"sd_{head}"] = float(np.std(acc, ddof=1)) if len(acc) > 1 else 0.0
        per_head[f"pooled_{head}"] = top1_accuracy(pred, lab)
        per_head[f"confusion_{head}"] = confusion(pred, lab, n)
        per_head[f"lopo_{head}"] = lopo
    return ProtocolResult(kind=plan.kind, **per_head)


# --- hardened-set degradations ----------------------------------------------
#
# Defocus blur (sigma 2 or 4), brightness shifts (+/-40%), and additive
# Gaussian noise (sigma 0.1).  Difficult instances combine two of them,
# mirroring the worst captures a deployed sensor produces.

DEGRADATIONS: Tuple[str, ...] = ("blur2", "blur4", "bright_up", "bright_down", "noise")

DEGRADATION_COMBOS: Tuple[Tuple[str, ...], ...] = (
    ("blur2", "noise"),
    ("blur4", "bright_down"),
    ("blur4", "noise"),
    ("noise", "bright_down"),
    ("noise", "bright_up"),
    ("blur4", "bright_up"),
)


def degrade(img: Image, kind: str, rng_seed) -> Image:
    if kind == "blur2":
        return gaussian_blur(img, 2.0)
    if kind == "blur4":
        return gaussian_blur(img, 4.0)
    if kind == "bright_up":
        return adjust_brightness(img, 1.4)
    if kind == "bright_down":
        return adjust_brightness(img, 0.6)
    if kind == "noise":
        return add_gaussian_noise(img, 0.1, rng_seed)
    raise ValueError(f"unknown degradation {kind!r}")


def harden_records(
    records: Sequence[SampleRecord], rng_seed: int
) -> List[SampleRecord]:
    """Degraded copies: each image gets one random degradation combo.

    Returns one record per input, in input order, with ``path`` empty
    and an image of the input image's dtype (see :mod:`.imaging`)."""
    rng = np.random.default_rng(np.random.SeedSequence((rng_seed, 71)))
    out = []
    for i, rec in enumerate(records):
        combo = DEGRADATION_COMBOS[int(rng.integers(0, len(DEGRADATION_COMBOS)))]
        img = rec.image
        for j, kind in enumerate(combo):
            img = degrade(img, kind, np.random.SeedSequence((rng_seed, 72, i, j)))
        out.append(
            SampleRecord(
                person_id=rec.person_id,
                object=rec.object,
                material=rec.material,
                image=img,
                t=rec.t,
                path="",
            )
        )
    return out


def select_difficult(
    records: Sequence[SampleRecord], params: ModelParams, keep: int
) -> List[SampleRecord]:
    """Pick the instances a model handles worst: everything it
    misclassifies on either head, then the lowest-confidence rest."""
    logits = classifier.predict_logits(params, records)
    heads = list(zip(params.classes, logits, classifier.labels(records)))
    wrong = np.logical_or(*(classifier.top1(c, z) != y for c, z, y in heads))
    confs = np.multiply(*(classifier.softmax(z).max(axis=1) for _, z, _ in heads))
    # wrong first, then ascending confidence (stable among ties)
    order = np.lexsort((confs, ~wrong))
    return [records[i] for i in order[:keep]]


# --- continual-learning evaluation -------------------------------------------


@dataclass
class CLEvalSetup:
    """Inputs for the three-dataset robustness/generalization report."""

    pretrained: ModelParams
    buffer_source: List[SampleRecord]  # pretraining data for buffer seeding
    original_test: List[SampleRecord]
    hardened_train: List[SampleRecord]
    hardened_test: List[SampleRecord]
    novel_train: List[SampleRecord]
    novel_test: List[SampleRecord]
    cl: CLConfig = CLConfig()
    buffer_capacity: int = 500
    seed: int = 0


@dataclass
class CLEvalReport:
    # set name -> (object acc, material acc)
    er_off: Dict[str, Tuple[float, float]]
    er_on: Dict[str, Tuple[float, float]]

    def delta(self, name: str) -> Tuple[float, float]:
        return tuple(on - off for on, off in zip(self.er_on[name], self.er_off[name]))


def build_cl_eval(
    seed: int,
    images_per_class: int = 100,
    side: int = 64,
    persons: int = 6,
    train_cfg: Optional[TrainConfig] = None,
) -> CLEvalSetup:
    """Assemble the standard three-dataset evaluation.

    Pretrains on a full-taxonomy synthetic corpus, builds the hardened
    sets by degrading disjoint train/test images and keeping the
    instances the pretrained model handles worst, and generates the
    novel-class shard (classes absent from pretraining).
    """
    from .synth import SynthSpec, novel_spec, synth_generate

    cfg = train_cfg if train_cfg is not None else TrainConfig(lr0=2e-3, seed=seed)
    base = synth_generate(
        SynthSpec(rng_seed=seed + 41, images_per_class=images_per_class, side=side, persons=persons)
    )
    orig_train, orig_test = split_by_time(base.records)
    pre = classifier.init_params(seed=cfg.seed, dtype=np.float32)
    pre = classifier.train(pre, orig_train, cfg).params

    hard_train = select_difficult(
        harden_records(orig_train, rng_seed=seed + 42), pre, keep=len(orig_train) // 3
    )
    hard_test = select_difficult(
        harden_records(orig_test, rng_seed=seed + 43), pre, keep=len(orig_test) // 2
    )
    novel = synth_generate(novel_spec(seed + 44, images_per_class=images_per_class, side=side))
    novel_train, novel_test = split_by_time(novel.records)
    return CLEvalSetup(
        pretrained=pre,
        buffer_source=list(orig_train),
        original_test=list(orig_test),
        hardened_train=hard_train,
        hardened_test=hard_test,
        novel_train=novel_train,
        novel_test=novel_test,
        cl=CLConfig(train=cfg, tricks=replay.CLTricks.all_on()),
        buffer_capacity=500,
        seed=seed,
    )


def cl_evaluation(setup: CLEvalSetup) -> CLEvalReport:
    """Static model vs replay-trained model on original / hard / novel sets.

    The replay arm seeds its buffer from the pretraining data, then
    learns a two-task stream: degraded examples of known classes, then
    entirely novel classes (which grow the heads).
    """
    for name in ("original_test", "hardened_train", "hardened_test", "novel_train", "novel_test"):
        if len(getattr(setup, name)) == 0:
            raise ValueError(f"missing corpus: {name}")

    sets = {
        "original": setup.original_test,
        "hardened": setup.hardened_test,
        "novel": setup.novel_test,
    }
    er_off = {name: replay.accuracy_pair(setup.pretrained, recs) for name, recs in sets.items()}

    buf = ReplayBuffer(capacity=setup.buffer_capacity, sampling_mode=setup.cl.buffer_mode())
    rng = np.random.default_rng(np.random.SeedSequence((setup.seed, 81)))
    replay.fill_from_records(buf, setup.buffer_source, rng, setup.pretrained)
    stream = [
        Task(1, tuple(setup.hardened_train), tuple(setup.hardened_test)),
        Task(2, tuple(setup.novel_train), tuple(setup.novel_test)),
    ]
    outcome = replay.cl_run(setup.pretrained, stream, setup.cl, buf)
    er_on = {
        name: replay.accuracy_pair(outcome.params, recs, outcome.bias)
        for name, recs in sets.items()
    }
    return CLEvalReport(er_off=er_off, er_on=er_on)


# --- the two-task forgetting experiment ---------------------------------------


@dataclass
class ForgettingReport:
    task_a_after_pretrain: float  # material accuracy on task-A test
    task_a_naive: float  # after fine-tuning on B with no buffer
    task_a_er: float  # after ER training on B
    task_a_joint: float  # joint training on A+B (reference upper bound)
    task_b_er: float

    @property
    def naive_drop(self) -> float:
        return self.task_a_after_pretrain - self.task_a_naive

    @property
    def er_gap_to_joint(self) -> float:
        return self.task_a_joint - self.task_a_er


def split_by_time(records: Sequence[SampleRecord], test_fraction: float = 0.2):
    ordered = sorted(records, key=lambda r: r.t)
    n_test = max(1, int(round(len(ordered) * test_fraction)))
    return ordered[:-n_test], ordered[-n_test:]


def forgetting_experiment(
    task_a: Tuple[List[SampleRecord], List[SampleRecord]],
    task_b: Tuple[List[SampleRecord], List[SampleRecord]],
    cl_cfg: CLConfig,
    buffer_capacity: int = 500,
    init_seed: int = 0,
) -> ForgettingReport:
    """Catastrophic-forgetting comparison on a two-task stream.

    Pretrains on task A, then fine-tunes on task B three ways: naive
    (no buffer, no tricks), full ER, and the joint-training reference.
    All arms share seeds, so results are reproducible.
    """
    a_train, a_test = task_a
    b_train, b_test = task_b

    obj_a, mat_a = (sorted(set(y.tolist())) for y in classifier.labels(a_train))
    params0 = classifier.init_params(
        seed=init_seed, object_classes=obj_a, material_classes=mat_a, dtype=np.float32
    )
    pre = classifier.train(params0, a_train, cl_cfg.train).params
    acc_pre = replay.accuracy_pair(pre, a_test)[1]

    # Naive fine-tuning: buffer off, tricks off.
    naive_cfg = replace(cl_cfg, tricks=replay.CLTricks())
    naive_buf = ReplayBuffer(capacity=0)
    naive = replay.cl_run(pre, [Task(1, tuple(b_train), tuple(b_test))], naive_cfg, naive_buf)
    acc_naive = replay.accuracy_pair(naive.params, a_test)[1]

    # Full experience replay.
    er_buf = ReplayBuffer(capacity=buffer_capacity, sampling_mode=cl_cfg.buffer_mode())
    rng = np.random.default_rng(np.random.SeedSequence((init_seed, 82)))
    replay.fill_from_records(er_buf, a_train, rng, pre)
    er = replay.cl_run(pre, [Task(1, tuple(b_train), tuple(b_test))], cl_cfg, er_buf)
    acc_er = replay.accuracy_pair(er.params, a_test, er.bias)[1]
    acc_b_er = replay.accuracy_pair(er.params, b_test, er.bias)[1]

    # Joint-training reference on A + B together.
    obj_all, mat_all = (sorted(set(y.tolist())) for y in classifier.labels(a_train + b_train))
    joint0 = classifier.init_params(
        seed=init_seed, object_classes=obj_all, material_classes=mat_all, dtype=np.float32
    )
    joint = classifier.train(joint0, a_train + b_train, cl_cfg.train).params
    acc_joint = replay.accuracy_pair(joint, a_test)[1]

    return ForgettingReport(
        task_a_after_pretrain=acc_pre,
        task_a_naive=acc_naive,
        task_a_er=acc_er,
        task_a_joint=acc_joint,
        task_b_er=acc_b_er,
    )


# --- report files ---------------------------------------------------------------


def _write_matrix_csv(path, label_names: Sequence[str], rows) -> None:
    """A confusion CSV: the truth names as header, one row per predicted class."""
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["pred\\truth"] + list(label_names))
        for r, row in enumerate(rows):
            writer.writerow([label_names[r]] + row)


def write_confusion_csv(cm: ConfusionMatrix, path, label_names: Sequence[str]) -> None:
    _write_matrix_csv(path, label_names, [[f"{v:.6f}" for v in row] for row in cm.normalized])


def write_counts_csv(cm: ConfusionMatrix, path, label_names: Sequence[str]) -> None:
    _write_matrix_csv(path, label_names, [[int(v) for v in row] for row in cm.counts])


# Each head's LOPO block header, in ``classifier.HEADS`` order.
_LOPO_HEADERS = (
    "lopo object class averages (class: acc over n persons):",
    "lopo material class averages:",
)


def protocol_summary(result: ProtocolResult) -> str:
    lines = [f"protocol: {result.kind}", f"folds: {len(result.fold_acc_object)}"]
    for head in classifier.HEADS:
        mean, sd, pooled = (getattr(result, f"{stat}_{head}") for stat in ("mean", "sd", "pooled"))
        lines.append(f"{head}: mean {mean:.4f} sd {sd:.4f} pooled {pooled:.4f}")
    for f, (ao, am) in enumerate(zip(result.fold_acc_object, result.fold_acc_material)):
        lines.append(f"fold {f}: object {ao:.4f} material {am:.4f}")
    for head, header in zip(classifier.HEADS, _LOPO_HEADERS):
        report = getattr(result, f"lopo_{head}")
        if report is not None:
            lines.append(header)
            for c, avg in sorted(report.class_averages.items()):
                lines.append(f"  {c}: {avg:.4f} over {report.class_denominators[c]}")
    return "\n".join(lines) + "\n"
