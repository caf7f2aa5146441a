"""Experience-replay continual learning.

A bounded memory buffer retains past experiences while the classifier
trains on a stream of new tasks; each training step mixes a batch of new
data with ``replay_batch`` records drawn uniformly, with replacement,
from the buffer.  The buffer holds the records themselves plus, per
slot, the record's material and its loss when it entered.  Each new
record enters the buffer once, through :func:`insert`.  Five
optimization tricks are supported, each switchable:

1. independent buffer augmentation: every replayed record gets its own
   fresh augmentation seed instead of a batch-shared transform;
2. bias control: per head, a two-parameter affine correction of the
   new-class logits, fit on a fixed-stride slice of the buffer after
   each task and applied at inference;
3. exponential learning-rate decay per task (lr0 * gamma^t);
4. balanced insertion: once the buffer is full, the victim comes from
   the currently most-populated material class;
5. loss-aware insertion: once the buffer is full, the victim slot is
   drawn with probability proportional to 1 / (loss + eps), retaining
   difficult memories.

Tricks 4 and 5 pick the buffer's ``sampling_mode``; with neither, the
buffer is a plain reservoir.  The buffer is single-owner mutable state;
the run loop is sequential by definition (task order matters).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import classifier
from .classifier import BiasParams, HeadBias, ModelParams, TrainConfig, apply_bias  # noqa: F401
from .corpus import SampleRecord
from .imaging import augment_batch  # noqa: F401

LOSS_EPS = 1e-3
# The bias fit: Adam steps, their rate, and the L2 weight toward the identity.
BIAS_FIT_STEPS, BIAS_FIT_LR, BIAS_FIT_L2 = 400, 0.05, 0.5
SAMPLING_MODES = ("reservoir", "balanced", "loss_aware", "balanced_loss_aware")


@dataclass
class ReplayBuffer:
    """Bounded memory with a pluggable eviction discipline.

    ``records`` holds the kept records; slot ``j`` of the preallocated
    ``material`` and ``loss`` arrays holds ``records[j]``'s material and
    its loss when it entered, and only :func:`insert` writes a slot.
    ``sampling_mode`` is one of ``SAMPLING_MODES`` (see :func:`insert`);
    ``seen_count`` is the total stream length observed.
    """

    capacity: int = 500
    sampling_mode: str = "reservoir"
    records: List[SampleRecord] = field(default_factory=list, init=False)
    seen_count: int = 0
    material: np.ndarray = field(init=False, repr=False, compare=False)
    loss: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(
                f"unknown sampling_mode {self.sampling_mode!r}; expected one of {SAMPLING_MODES}"
            )
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        self.material = np.zeros(self.capacity, dtype=int)
        self.loss = np.zeros(self.capacity)

    def class_counts(self) -> Dict[int, int]:
        classes, counts = np.unique(self.material[: len(self.records)], return_counts=True)
        return dict(zip(classes.tolist(), counts.tolist()))


@dataclass(frozen=True)
class CLTricks:
    independent_buffer_augmentation: bool = False
    bias_control: bool = False
    exp_lr_decay: bool = False
    balanced_sampling: bool = False
    loss_aware_sampling: bool = False

    @staticmethod
    def all_on() -> "CLTricks":
        return CLTricks(True, True, True, True, True)


@dataclass(frozen=True)
class CLConfig:
    train: TrainConfig = TrainConfig()
    tricks: CLTricks = CLTricks()
    gamma: float = 0.75
    replay_batch: int = 16
    bias_fit_fraction: float = 0.1

    def __post_init__(self) -> None:
        for name in ("gamma", "bias_fit_fraction"):  # a comparison with nan is false
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)!r}")
        if not self.replay_batch >= 1:
            raise ValueError(f"replay_batch must be >= 1, got {self.replay_batch!r}")

    def buffer_mode(self) -> str:
        if self.tricks.balanced_sampling and self.tricks.loss_aware_sampling:
            return "balanced_loss_aware"
        if self.tricks.balanced_sampling:
            return "balanced"
        if self.tricks.loss_aware_sampling:
            return "loss_aware"
        return "reservoir"


# --- insertion ----------------------------------------------------------------


def _most_populated_class(buf: ReplayBuffer, incoming: int, rng: np.random.Generator) -> int:
    classes, counts = np.unique(buf.material, return_counts=True)
    tied = classes[counts == counts.max()]
    if incoming in tied:
        # Preferring the incoming class keeps the count spread at <= 1.
        return incoming
    if len(tied) == 1:
        return int(tied[0])
    return int(tied[rng.integers(0, len(tied))])


def insert(
    buf: ReplayBuffer, rec: SampleRecord, loss: float, rng: np.random.Generator
) -> ReplayBuffer:
    """Stream one record, with its current loss, into the buffer under its
    ``sampling_mode``.

    Every call counts towards ``seen_count``; below capacity the record
    takes the next slot without drawing from ``rng``.  Once full,
    ``reservoir`` keeps it with probability capacity / seen_count, in a
    uniform slot (Vitter's algorithm R).  The other modes always keep it
    and pick the victim in two steps: the class (``balanced*``: the most
    populated material, so minority classes are never displaced;
    otherwise any), then the slot within it (``*loss_aware``: with
    probability proportional to 1 / (loss + eps), retaining difficult
    memories; otherwise uniform).
    """
    buf.seen_count += 1
    j = len(buf.records)
    if j == buf.capacity:
        if buf.capacity == 0:
            return buf
        mode = buf.sampling_mode
        if mode == "reservoir":
            j = int(rng.integers(0, buf.seen_count))
            if j >= buf.capacity:
                return buf
        else:
            if mode.startswith("balanced"):
                victim = _most_populated_class(buf, rec.material, rng)
                slots = np.flatnonzero(buf.material == victim)
            else:
                slots = np.arange(buf.capacity)
            if mode.endswith("loss_aware"):
                weights = 1.0 / (buf.loss[slots] + LOSS_EPS)
                weights /= weights.sum()
                j = int(slots[rng.choice(len(slots), p=weights)])
            else:
                j = int(slots[rng.integers(0, len(slots))])
    buf.records[j : j + 1] = [rec]  # appends when j == len(records)
    buf.material[j] = rec.material
    buf.loss[j] = loss
    return buf


def fill_from_records(
    buf: ReplayBuffer,
    records: Sequence[SampleRecord],
    rng: np.random.Generator,
    params: Optional[ModelParams] = None,
) -> ReplayBuffer:
    """Stream a record list through the buffer (e.g. to seed it with the
    pretraining data).  When ``params`` is given, stored losses are the
    model's current per-sample losses; otherwise zero."""
    losses = np.zeros(len(records)) if params is None else classifier.per_sample_losses(params, records)
    for rec, loss in zip(records, losses):
        insert(buf, rec, float(loss), rng)
    return buf


# --- replay drawing ----------------------------------------------------------


def sample_replay_batch(
    buf: ReplayBuffer, n: int, rng: np.random.Generator, cfg: CLConfig
) -> Tuple[List[SampleRecord], List[int]]:
    """A uniform draw with replacement: the drawn records and their
    augmentation seeds.

    With independent buffer augmentation every drawn record gets its own
    seed; otherwise the whole draw shares one transform seed.
    """
    if not buf.records:
        raise ValueError("cannot sample from an empty buffer")
    if n == 0:
        return [], []
    idx = rng.integers(0, len(buf.records), size=n)
    if cfg.tricks.independent_buffer_augmentation:
        seeds = [int(s) for s in rng.integers(0, 2**63, size=n)]
    else:
        seeds = [int(rng.integers(0, 2**63))] * n
    return [buf.records[i] for i in idx], seeds


def replay_tensors(
    records: Sequence[SampleRecord], seeds: Sequence[int], cfg: CLConfig
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A draw's (x, y_object, y_material) by :func:`classifier.input_batch`,
    with its draw seeds when ``cfg.train.augment``; ``None`` if it is empty."""
    if not records:
        return None
    x = classifier.input_batch(
        [r.image for r in records], seeds if cfg.train.augment else None, cfg.train.policy
    )
    return (x, *classifier.labels(records))


# --- bias control ------------------------------------------------------------


def fit_affine_on_logits(
    logits: np.ndarray, labels: np.ndarray, new_units: Sequence[int]
) -> HeadBias:
    """Fit (scale, offset) on cached logits by cross-entropy descent:
    ``BIAS_FIT_STEPS`` Adam steps of rate ``BIAS_FIT_LR`` on the two scalars.

    The trunk is frozen by construction: only the two scalars move.  An
    L2 pull toward the identity correction (total weight ``BIAS_FIT_L2``,
    spread over the holdout like the per-sample loss) keeps the fit from
    drifting to unbounded-confidence optima on small holdouts.
    """
    new_units = tuple(sorted(new_units))
    if not new_units:
        return HeadBias()
    n, c = logits.shape
    mask = np.zeros(c, dtype=bool)
    mask[list(new_units)] = True
    a, b = 1.0, 0.0
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    ma, va, mb, vb = 0.0, 0.0, 0.0, 0.0
    for t in range(1, BIAS_FIT_STEPS + 1):
        z = logits.copy()
        z[:, mask] = a * logits[:, mask] + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        d = (p - onehot) / n
        ga = float((d[:, mask] * logits[:, mask]).sum()) + BIAS_FIT_L2 * (a - 1.0) / n
        gb = float(d[:, mask].sum()) + BIAS_FIT_L2 * b / n
        # Adam on two scalars.
        ma = 0.9 * ma + 0.1 * ga
        va = 0.999 * va + 0.001 * ga * ga
        mb = 0.9 * mb + 0.1 * gb
        vb = 0.999 * vb + 0.001 * gb * gb
        a -= BIAS_FIT_LR * (ma / (1 - 0.9**t)) / (np.sqrt(va / (1 - 0.999**t)) + 1e-8)
        b -= BIAS_FIT_LR * (mb / (1 - 0.9**t)) / (np.sqrt(vb / (1 - 0.999**t)) + 1e-8)
    return HeadBias(scale=float(a), offset=float(b), new_units=new_units)


def _holdout_slice(n_items: int, fraction: float) -> np.ndarray:
    k = max(1, int(round(n_items * fraction)))
    # Deterministic spread: every (n // k)-th slot.
    stride = max(1, n_items // k)
    return np.arange(0, n_items, stride)[:k]


def fit_bias_correction(
    params: ModelParams,
    buf: ReplayBuffer,
    cfg: CLConfig,
    new_object_classes: Sequence[int] = (),
    new_material_classes: Sequence[int] = (),
) -> BiasParams:
    """Fit per-head affine corrections on a held-out slice of the buffer.

    Returns identity corrections when no new classes exist or the
    holdout lacks class coverage.
    """
    if not (new_object_classes or new_material_classes) or not buf.records:
        return BiasParams()
    hold = [buf.records[i] for i in _holdout_slice(len(buf.records), cfg.bias_fit_fraction)]
    heads = []
    for logits, classes, labels, new_classes in zip(
        classifier.predict_logits(params, hold),
        params.classes,
        classifier.labels(hold),
        (new_object_classes, new_material_classes),
    ):
        units = [i for i, c in enumerate(classes) if c in set(new_classes)]
        lut = {c: i for i, c in enumerate(classes)}
        unit_labels = np.array([lut.get(v, -1) for v in labels])
        ok = unit_labels >= 0
        is_new = np.isin(unit_labels, units)
        if not units:
            heads.append(HeadBias())
        elif not (ok & ~is_new).any() or not (ok & is_new).any():
            heads.append(HeadBias(new_units=tuple(units)))
        else:
            logits_ok = np.asarray(logits[ok], dtype=np.float64)
            heads.append(fit_affine_on_logits(logits_ok, unit_labels[ok], units))
    return BiasParams(*heads)


def predict_with_bias(
    params: ModelParams, records: Sequence[SampleRecord], bias: BiasParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-1 taxonomy indices under ``bias``: :func:`classifier.predict_records`."""
    return classifier.predict_records(params, records, bias)


def accuracy_pair(
    params: ModelParams, records: Sequence[SampleRecord], bias: BiasParams = BiasParams()
) -> Tuple[float, float]:
    """Top-1 accuracy of both heads over ``records``, predicted by :func:`predict_with_bias`."""
    preds = predict_with_bias(params, records, bias)
    return tuple(float(np.mean(p == y)) for p, y in zip(preds, classifier.labels(records)))


# --- the continual-learning run ----------------------------------------------


@dataclass(frozen=True)
class Task:
    task_id: int
    train_records: Tuple[SampleRecord, ...]
    eval_records: Tuple[SampleRecord, ...] = ()


@dataclass
class CLRunResult:
    params: ModelParams
    bias: BiasParams
    # Rows: (task_id, eval_task_id, top1_object, top1_material)
    metrics: List[Tuple[int, int, float, float]] = field(default_factory=list)


def task_seed(base_seed: int, position: int) -> int:
    """Per-task training seed; shared with the plain fine-tuning
    reference so the two pipelines are comparable step for step."""
    return int(np.random.SeedSequence((base_seed, 401, position)).generate_state(1)[0])


def cl_run(
    params: ModelParams,
    task_stream: Sequence[Task],
    cfg: CLConfig,
    buf: ReplayBuffer,
) -> CLRunResult:
    """Sequential task training with replay mixing and the five tricks.

    Each step trains on a new-data batch of ``cfg.train.batch`` records
    mixed 1:1 with ``cfg.replay_batch`` replayed records (when the buffer
    has content); the new records then stream into the buffer, each with
    its loss from that step, under its insertion discipline.  With no
    tricks and capacity zero the loop degenerates to plain sequential
    fine-tuning.
    """
    params = params.copy()
    grown: Tuple[List[int], List[int]] = ([], [])  # the classes each head grew, in order
    bias = BiasParams()
    result = CLRunResult(params=params, bias=bias)
    seen_tasks: List[Task] = []

    for pos, task in enumerate(task_stream, start=1):
        if len(task.train_records) == 0:
            warnings.warn(f"task {task.task_id} has no training records; skipped")
            continue
        seed = task_seed(cfg.train.seed, pos)
        grow = [
            sorted(set(y.tolist()) - set(c))
            for y, c in zip(classifier.labels(task.train_records), params.classes)
        ]
        if any(grow):
            params = classifier.grow_heads(params, *grow, seed)
            for classes, new in zip(grown, grow):
                classes.extend(new)

        lr = cfg.train.lr0 * (cfg.gamma**pos if cfg.tricks.exp_lr_decay else 1.0)
        task_cfg = replace(cfg.train, seed=seed)
        replay_rng = np.random.default_rng(np.random.SeedSequence((seed, 402)))
        insert_rng = np.random.default_rng(np.random.SeedSequence((seed, 403)))

        def extra_batch(epoch: int, step: int):
            if not buf.records:
                return None
            draw = sample_replay_batch(buf, cfg.replay_batch, replay_rng, cfg)
            return replay_tensors(*draw, cfg)

        def step_hook(epoch: int, step: int, records, losses):
            # Each stream item enters the buffer exactly once (first
            # epoch); later epochs revisit the same experiences and must
            # not inflate the stream count.
            if epoch != 0:
                return
            for rec, loss in zip(records, losses):
                insert(buf, rec, float(loss), insert_rng)

        outcome = classifier.train(
            params,
            list(task.train_records),
            task_cfg,
            lr_schedule=lambda epoch: lr,
            step_hook=step_hook,
            extra_batch=extra_batch,
        )
        params = outcome.params
        result.params = params

        if cfg.tricks.bias_control:
            bias = fit_bias_correction(params, buf, cfg, *grown)
        result.bias = bias

        seen_tasks.append(task)
        for prev in seen_tasks:
            if len(prev.eval_records) == 0:
                continue
            acc = accuracy_pair(params, list(prev.eval_records), bias)
            result.metrics.append((task.task_id, prev.task_id, *acc))
    return result
