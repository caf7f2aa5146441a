"""Tiny dual-head depthwise-separable CNN, trained with plain numpy.

Architecture: a 3x3/stride-2 stem (8 filters), three
depthwise-separable blocks (depthwise 3x3 stride 2 + pointwise 1x1,
widths 16/32/64), global average pooling, and two softmax heads: one
over object classes, one over material classes.  Global pooling makes
the trunk resolution-agnostic, so the same weights serve 224x224
inference and small-raster training.  Under 100k parameters in total.

Every gradient is computed analytically; training is deterministic for
a given seed (fixed batch order, seeded init and augmentation).  Heads
can grow output units for classes first seen in deployment; each output
unit is tagged with the 1-based taxonomy index it predicts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .imaging import AugmentPolicy, Image, augment_batch

STEM_FILTERS = 8
BLOCK_WIDTHS = (16, 32, 64)
CHECKPOINT_MAGIC = b"SSCK"
CHECKPOINT_VERSION = 1
# Records per forward pass when predicting over a record list.
PREDICT_CHUNK = 64
# The two heads, in the order of every per-head pair, tensor and report.
HEADS = ("object", "material")


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, step: int, last_loss: float):
        super().__init__(
            f"loss became non-finite at epoch {epoch}, step {step}; "
            f"last finite loss {last_loss:.6g}"
        )
        self.epoch = epoch
        self.step = step
        self.last_loss = last_loss


@dataclass
class ModelParams:
    """Named weight tensors plus the taxonomy index carried by each head unit."""

    tensors: Dict[str, np.ndarray]
    object_classes: Tuple[int, ...]
    material_classes: Tuple[int, ...]

    def copy(self) -> "ModelParams":
        return ModelParams(
            {k: v.copy() for k, v in self.tensors.items()},
            self.object_classes,
            self.material_classes,
        )

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["stem_w"].dtype

    @property
    def classes(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Both heads' class maps, in ``HEADS`` order."""
        return self.object_classes, self.material_classes

    def tensor_names(self) -> List[str]:
        return list(self.tensors.keys())


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings; defaults follow the reference recipe.

    Inputs are [0, 1] rasters by default; ``standardize`` switches to
    per-channel standardization with statistics taken over the training
    set (stored with the weights, applied on every forward pass).
    """

    lr0: float = 1e-4
    batch: int = 16
    epochs: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    augment: bool = True
    policy: AugmentPolicy = AugmentPolicy()
    standardize: bool = False

    def __post_init__(self) -> None:
        # Each check names its field; a comparison with nan is false.
        if not 0 <= self.lr0 < np.inf:
            raise ValueError(f"lr0 must be finite and >= 0, got {self.lr0!r}")
        for name in ("batch", "epochs"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps!r}")


@dataclass(frozen=True)
class PredictionPair:
    """Both head distributions; top-1 values are 1-based taxonomy indices."""

    p_object: np.ndarray
    p_material: np.ndarray
    object_classes: Tuple[int, ...]
    material_classes: Tuple[int, ...]

    @property
    def top1_object(self) -> int:
        return self.object_classes[int(np.argmax(self.p_object))]

    @property
    def top1_material(self) -> int:
        return self.material_classes[int(np.argmax(self.p_material))]


@dataclass(frozen=True)
class HeadBias:
    scale: float = 1.0
    offset: float = 0.0
    new_units: Tuple[int, ...] = ()


@dataclass(frozen=True)
class BiasParams:
    object_head: HeadBias = HeadBias()
    material_head: HeadBias = HeadBias()


def apply_bias(logits: np.ndarray, head: HeadBias) -> np.ndarray:
    """Affine-correct the new-class logits only; with none, ``logits`` come back uncopied."""
    if not head.new_units:
        return logits
    out = logits.copy()
    units = list(head.new_units)
    out[..., units] = head.scale * logits[..., units] + head.offset
    return out


def _he_uniform(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_params(
    seed: int,
    n_objects: int = 6,
    n_materials: int = 9,
    object_classes: Optional[Sequence[int]] = None,
    material_classes: Optional[Sequence[int]] = None,
    dtype=np.float32,
) -> ModelParams:
    """Seeded He-uniform initialization."""
    given = ((object_classes, n_objects), (material_classes, n_materials))
    classes = [tuple(range(1, n + 1) if c is None else c) for c, n in given]

    tensors: Dict[str, np.ndarray] = {}
    widths = (STEM_FILTERS,) + BLOCK_WIDTHS

    def rng_for(i: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((seed, 7, i)))

    tensors["stem_w"] = _he_uniform(rng_for(0), (STEM_FILTERS, 3, 3, 3), 27, dtype)
    tensors["stem_b"] = np.zeros(STEM_FILTERS, dtype=dtype)
    for bi in range(3):
        cin, cout = widths[bi], widths[bi + 1]
        tensors[f"dw{bi + 1}_w"] = _he_uniform(rng_for(1 + 2 * bi), (cin, 3, 3), 9, dtype)
        tensors[f"dw{bi + 1}_b"] = np.zeros(cin, dtype=dtype)
        tensors[f"pw{bi + 1}_w"] = _he_uniform(rng_for(2 + 2 * bi), (cout, cin), cin, dtype)
        tensors[f"pw{bi + 1}_b"] = np.zeros(cout, dtype=dtype)
    feat = BLOCK_WIDTHS[-1]
    for i, (head, units) in enumerate(zip(HEADS, map(len, classes))):
        tensors[f"head_{head}_w"] = _he_uniform(rng_for(7 + i), (units, feat), feat, dtype)
        tensors[f"head_{head}_b"] = np.zeros(units, dtype=dtype)
    return ModelParams(tensors, *classes)


# --- conv primitives (stride-2 3x3, zero padding 1) -------------------------
#
# Trunk activations live in channel-major (C, N, H, W) buffers, and every
# kernel takes and returns (N, C, H, W)-shaped views of them (``_swap``).
# The stem's im2col and every weight or input gradient of a 1x1 conv is
# one 2-D GEMM over (C, N*H*W) with no transposed copy; the stem's column
# matrix is (9*C, N*H'*W'), tap index major.  The depthwise layers work on
# the four parity planes of the padded input (``_parity_planes``), each a
# zero-edged (ho+1, wo+1) grid per sample flattened to (C, N*(ho+1)*(wo+1)),
# so every tap of the forward, the input gradient and the weight gradient
# is one operation at a flat offset; the forward and input-gradient taps
# run over whole rows of a flat buffer with spare cells.  Bias gradients
# sum in the order numpy uses for a C-ordered (N, C, H, W) array
# (``_sum_nhw``).  All
# outputs and gradients but the depthwise weight gradients equal those of
# per-sample (N, C, H, W) kernels bit for bit wherever the last map is
# larger than 1x1 (the tests keep such kernels as the reference).  Each
# depthwise weight gradient is a flat dot product per channel, which sums in
# another order: the tests hold it within 4 * eps * sum|dout * x| of the
# exact sum, weight by weight.


def _swap(x: np.ndarray) -> np.ndarray:
    """The (C, N, H, W) view of an (N, C, H, W) array, and back."""
    return x.transpose(1, 0, 2, 3)


def _pad1(x: np.ndarray) -> np.ndarray:
    xp = np.zeros(x.shape[:2] + (x.shape[2] + 2, x.shape[3] + 2), dtype=x.dtype)
    xp[:, :, 1:-1, 1:-1] = x
    return xp


def _out_hw(h: int, w: int) -> Tuple[int, int]:
    return (h + 1) // 2, (w + 1) // 2


def _tap_slice(k: int, ho: int, wo: int):
    ki, kj = divmod(k, 3)
    return np.s_[:, :, ki : ki + 2 * ho - 1 : 2, kj : kj + 2 * wo - 1 : 2]


def _sum_nhw(xc: np.ndarray) -> np.ndarray:
    """Per-channel sum of a channel-major (C, N, H, W) array, in numpy's
    order for ``sum(axis=(0, 2, 3))`` of a C-ordered (N, C, H, W) one: a
    pairwise sum over each H*W block, then a sequential sum over N."""
    c, n = xc.shape[:2]
    blocks = xc.reshape(c, n, -1).sum(axis=-1)
    return np.add.accumulate(blocks, axis=1)[:, -1]


def conv3x3s2_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    n, c, h, wd = x.shape
    ho, wo = _out_hw(h, wd)
    xp = _pad1(_swap(x))
    cols = np.empty((9, c, n, ho, wo), dtype=xp.dtype)
    for k in range(9):
        cols[k] = xp[_tap_slice(k, ho, wo)]
    cols = cols.reshape(9 * c, n * ho * wo)
    w2 = w.transpose(0, 2, 3, 1).reshape(w.shape[0], 9 * c)  # tap-major
    out = w2 @ cols
    out += b[:, None]
    return _swap(out.reshape(-1, n, ho, wo)), cols


def conv3x3s2_backward(dout: np.ndarray, cols: np.ndarray, w: np.ndarray):
    """Weight and bias gradients of the stem; the trunk's input needs no
    gradient."""
    o, c = w.shape[:2]
    dc = _swap(dout)
    # (9*C, O) rather than (O, 9*C): the same sums, and OpenBLAS 0.3.31
    # (Haswell kernels, 2 threads) runs this long N*H*W reduction in 0.65
    # instead of 1.1 ms for 32 images of 64 px.
    dw = (cols @ dc.reshape(o, -1).T).reshape(3, 3, c, o).transpose(3, 2, 0, 1)
    return dw, _sum_nhw(dc)


_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _parity_planes(xc: np.ndarray) -> np.ndarray:
    """The four parity phases of a channel-major (C, N, H, W) input padded
    by one, as a flat zeroed buffer that holds a (4, C, N*(ho+1)*(wo+1))
    array and then wo + 2 more cells: plane ``_PHASES.index((pi, pj))``
    holds the padded pixels (2*r + pi, 2*s + pj) on a zero-edged (ho+1,
    wo+1) grid per sample.  The spare cells let every tap read whole rows."""
    c, n, h, wd = xc.shape
    ho, wo = _out_hw(h, wd)
    size = n * (ho + 1) * (wo + 1)
    flat = np.zeros(4 * c * size + wo + 2, dtype=xc.dtype)
    planes = flat[: 4 * c * size].reshape(4, c, n, ho + 1, wo + 1)
    for p, (pi, pj) in enumerate(_PHASES):
        # Padded row 2*r + pi is input row 2*r + pi - 1.
        src = xc[:, :, 1 - pi :: 2, 1 - pj :: 2]
        planes[p, :, :, 1 - pi : 1 - pi + src.shape[2], 1 - pj : 1 - pj + src.shape[3]] = src
    return flat


def _tap_offset(ki: int, kj: int, wo: int) -> Tuple[int, int]:
    """Parity plane and flat grid offset that tap (ki, kj) reads."""
    return 2 * (ki % 2) + kj % 2, (ki // 2) * (wo + 1) + kj // 2


def depthwise3x3s2_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Depthwise 3x3/stride-2 conv of an (N, C, H, W) view of a channel-major
    buffer; returns the output view and the input's parity planes.  Output
    cell (i, j) and plane cell (i, j) share a flat grid position, so each
    tap is one multiply-add over the grid at the tap's offset; every cell
    sums its taps in order k = 0..8 from zero and adds the bias last.  A
    tap works on whole rows: the last ``off`` cells of a channel's row read
    on past its plane, and they are edge cells, which no output keeps."""
    n, c, h, wd = x.shape
    ho, wo = _out_hw(h, wd)
    flat = _parity_planes(_swap(x))
    size = n * (ho + 1) * (wo + 1)
    acc = np.zeros((c, size), dtype=x.dtype)
    tap = np.empty(acc.shape, dtype=np.result_type(w, x))
    for k in range(9):
        ki, kj = divmod(k, 3)
        p, off = _tap_offset(ki, kj, wo)
        rows = flat[p * c * size + off :][: c * size].reshape(c, size)
        np.multiply(w[:, ki, kj, None], rows, out=tap)
        acc += tap
    out = np.empty((c, n, ho, wo), dtype=x.dtype)
    # last: a bias-first sum rounds differently
    np.add(acc.reshape(c, n, ho + 1, wo + 1)[:, :, :ho, :wo], b[:, None, None, None], out=out)
    return _swap(out), flat[: 4 * c * size].reshape(4, c, size)


def depthwise3x3s2_backward(dout: np.ndarray, planes: np.ndarray, w: np.ndarray, x_shape):
    """Input, weight and bias gradients of :func:`depthwise3x3s2_forward`,
    from its parity ``planes``.  The input and bias gradients have the bits
    of a strided conv's; each weight gradient is one dot product per
    channel over the flat grid."""
    n, c, h, wd = x_shape
    ho, wo = dout.shape[2], dout.shape[3]
    dc = _swap(dout)
    # ``dc`` on the zero-edged (ho + 1, wo + 1) grid of the planes, after
    # wo + 2 zero cells.
    lead = wo + 2
    gflat = np.zeros(lead + planes[0].size, dtype=dc.dtype)
    grid = gflat[lead:].reshape(c, n, ho + 1, wo + 1)
    grid[:, :, :ho, :wo] = dc
    grid = grid.reshape(c, -1)
    size = grid.shape[1]
    dw = np.empty_like(w)
    dplanes = np.zeros((4, c, size), dtype=dc.dtype)
    tap = np.empty_like(grid)
    for k in range(9):
        ki, kj = divmod(k, 3)
        p, off = _tap_offset(ki, kj, wo)
        # One flat per-channel dot product; the grid's zero edge drops the
        # plane cells no output reads.
        dw[:, ki, kj] = np.einsum("cg,cg->c", grid[:, : size - off], planes[p, :, off:])
        # The tap adds into the gradient of the plane it read, at the same
        # offset, so every cell takes its taps in order k = 0..8 from zero.
        # On whole rows, a channel's first ``off`` cells take the zero
        # cells before its grid row (the previous channel's edge or the
        # leading zeros), and adding a zero leaves a sum that started at
        # +0.0 as it is.
        rows = gflat[lead - off :][: c * size].reshape(c, size)
        np.multiply(w[:, ki, kj, None], rows, out=tap)
        dplanes[p] += tap
    # Each input pixel is one cell of one plane (``_parity_planes``).
    dx = np.empty((c, n, h, wd), dtype=dc.dtype)
    for p, (pi, pj) in enumerate(_PHASES):
        dst = dx[:, :, 1 - pi :: 2, 1 - pj :: 2]
        grid_p = dplanes[p].reshape(c, n, ho + 1, wo + 1)
        dst[...] = grid_p[:, :, 1 - pi : 1 - pi + dst.shape[2], 1 - pj : 1 - pj + dst.shape[3]]
    return _swap(dx), dw, _sum_nhw(dc)


def pointwise_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, c, h, wd = x.shape
    out = np.empty((w.shape[0], n, h * wd), dtype=x.dtype)
    # One GEMM per sample, written into the channel-major output: a single
    # (C, N*H*W) GEMM rounds differently on small maps (2x2 with 32 inputs).
    np.matmul(w, x.reshape(n, c, -1), out=out.transpose(1, 0, 2))
    out += b[:, None, None]
    return _swap(out.reshape(-1, n, h, wd))


def pointwise_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray):
    n, c, h, wd = x.shape
    dc = _swap(dout)
    d2 = dc.reshape(w.shape[0], -1)
    dw = d2 @ _swap(x).reshape(c, -1).T
    dx = (w.T @ d2).reshape(c, n, h, wd)
    return _swap(dx), dw, _sum_nhw(dc)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _apply_input_norm(params: ModelParams, x: np.ndarray) -> np.ndarray:
    # Optional per-channel standardization; stats live in the checkpoint.
    if "norm_mean" not in params.tensors:
        return x
    mean = params.tensors["norm_mean"].reshape(1, 3, 1, 1)
    std = params.tensors["norm_std"].reshape(1, 3, 1, 1)
    return (x - mean) / std


def _forward_trunk(params: ModelParams, x: np.ndarray, want_cache: bool):
    """Pooled features of an (N, C, H, W) batch.  The activations between
    kernels are channel-major."""
    t = params.tensors
    x = _apply_input_norm(params, x)
    cache: Dict[str, object] = {}

    def relu(z):
        zc = _swap(z)
        mask = zc > 0
        # In place: no pre-activation is kept, in the cache or elsewhere.
        return np.multiply(zc, mask, out=zc), mask

    a, cols = conv3x3s2_forward(x, t["stem_w"], t["stem_b"])
    a, mask = relu(a)
    if want_cache:
        cache["stem"] = (cols, mask)

    for bi in (1, 2, 3):
        x = _swap(a)
        d, planes = depthwise3x3s2_forward(x, t[f"dw{bi}_w"], t[f"dw{bi}_b"])
        d, dmask = relu(d)
        a, pmask = relu(pointwise_forward(_swap(d), t[f"pw{bi}_w"], t[f"pw{bi}_b"]))
        if want_cache:
            cache[f"block{bi}"] = (x.shape, planes, dmask, d, pmask)

    c, n = a.shape[:2]
    hw = a.shape[2] * a.shape[3]
    # C-ordered (N, C) rows: the head GEMMs round differently on a transposed view.
    feat = np.ascontiguousarray(a.reshape(c, n, hw).mean(axis=-1).T)
    if want_cache:
        cache["gap"] = hw
    return feat, cache


def _head_logits(params: ModelParams, feat: np.ndarray):
    t = params.tensors
    return tuple(feat @ t[f"head_{head}_w"].T + t[f"head_{head}_b"] for head in HEADS)


def head_logits_batch(params: ModelParams, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Raw head logits for a (N, 3, H, W) batch."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ValueError(f"expected (N, 3, H, W) input, got {x.shape}")
    feat, _ = _forward_trunk(params, x.astype(params.dtype, copy=False), want_cache=False)
    return _head_logits(params, feat)


def input_batch(images: Sequence[Image], seeds=None, policy=AugmentPolicy()) -> np.ndarray:
    """The (N, C, H, W) model input of ``images``: with one seed per image,
    :func:`~surfsense.imaging.augment_batch` under ``policy``; without
    seeds, the images stacked as they are."""
    if seeds is not None:
        return augment_batch(images, seeds, policy).transpose(0, 3, 1, 2)
    return np.stack([img.pixels.transpose(2, 0, 1) for img in images])


def forward(params: ModelParams, img: Image) -> PredictionPair:
    """Single-image inference on a view of the pixels; deterministic, simplex outputs."""
    logits = head_logits_batch(params, img.pixels.transpose(2, 0, 1)[None])
    return PredictionPair(*(softmax(z)[0] for z in logits), *params.classes)


def predict_logits(params: ModelParams, records: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Both heads' raw logits over a list of records (anything with an
    ``image``), one forward pass per ``PREDICT_CHUNK`` records."""
    logits = tuple(np.empty((len(records), len(c)), dtype=params.dtype) for c in params.classes)
    for start in range(0, len(records), PREDICT_CHUNK):
        chunk = records[start : start + PREDICT_CHUNK]
        x = input_batch([r.image for r in chunk])
        rows = slice(start, start + len(chunk))
        logits[0][rows], logits[1][rows] = head_logits_batch(params, x)
    return logits


def top1(classes: Tuple[int, ...], logits: np.ndarray) -> np.ndarray:
    """Taxonomy index of each row's largest logit (ties: the lowest unit)."""
    return np.array(classes, dtype=int)[np.argmax(logits, axis=1)]


def _joint_ce(p_o: np.ndarray, p_m: np.ndarray, uo: np.ndarray, um: np.ndarray) -> np.ndarray:
    """Per-sample CE_object + CE_material; probabilities floored at ``tiny``."""
    rows = np.arange(len(uo))
    eps = np.finfo(p_o.dtype).tiny
    return -np.log(np.maximum(p_o[rows, uo], eps)) - np.log(np.maximum(p_m[rows, um], eps))


def labels(records: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """The object and the material label arrays of ``records``."""
    return tuple(np.array([getattr(r, head) for r in records], dtype=int) for head in HEADS)


def _unit_index(classes: Tuple[int, ...], labels: np.ndarray) -> np.ndarray:
    lut = {c: i for i, c in enumerate(classes)}
    try:
        return np.array([lut[int(v)] for v in labels], dtype=int)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]} not represented by this model") from exc


def _loss_grad(
    params: ModelParams, x: np.ndarray, y_obj: np.ndarray, y_mat: np.ndarray
):
    """Joint cross-entropy loss, full analytic gradient, per-sample losses."""
    n = x.shape[0]
    t = params.tensors
    feat, cache = _forward_trunk(params, x.astype(params.dtype, copy=False), want_cache=True)
    probs = [softmax(z) for z in _head_logits(params, feat)]
    units = [_unit_index(c, y) for c, y in zip(params.classes, (y_obj, y_mat))]
    per_sample = _joint_ce(*probs, *units)
    loss = float(per_sample.mean())

    # Head tensors first, object before material: Adam's layout follows this order.
    grads: Dict[str, np.ndarray] = {}
    dfeat = None
    for head, p, u in zip(HEADS, probs, units):
        dlogits = p.copy()
        dlogits[np.arange(n), u] -= 1.0
        dlogits /= n
        grads[f"head_{head}_w"] = dlogits.T @ feat
        grads[f"head_{head}_b"] = dlogits.sum(axis=0)
        term = dlogits @ t[f"head_{head}_w"]
        dfeat = term if dfeat is None else dfeat + term

    # Channel-major gradient of the last activation, broadcast over H, W.
    da = (dfeat.T / cache["gap"])[:, :, None, None]
    for bi in (3, 2, 1):
        x_shape, planes, dmask, d, pmask = cache[f"block{bi}"]
        dd, grads[f"pw{bi}_w"], grads[f"pw{bi}_b"] = pointwise_backward(
            _swap(da * pmask), _swap(d), t[f"pw{bi}_w"]
        )
        da, grads[f"dw{bi}_w"], grads[f"dw{bi}_b"] = depthwise3x3s2_backward(
            _swap(_swap(dd) * dmask), planes, t[f"dw{bi}_w"], x_shape
        )
        da = _swap(da)

    cols, mask = cache["stem"]
    grads["stem_w"], grads["stem_b"] = conv3x3s2_backward(_swap(da * mask), cols, t["stem_w"])

    return loss, grads, per_sample


def per_sample_losses(params: ModelParams, records: Sequence) -> np.ndarray:
    """Forward-only joint CE per record (used for replay bookkeeping)."""
    probs = [softmax(z) for z in predict_logits(params, records)]
    units = [_unit_index(c, y) for c, y in zip(params.classes, labels(records))]
    return _joint_ce(*probs, *units)


# --- optimizer and training loop -------------------------------------------


class Adam:
    """Adam over the tensors that have a gradient.  The moments ``m`` and
    ``v`` are one flat buffer each, in the parameters' dtype, laid out by
    the first step's gradient keys in their order; each step concatenates
    the gradients once, runs every element-wise operation once over all
    of them, and subtracts each tensor's slice of the update from it.
    Every element takes the operations of a per-tensor update, in order."""

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.dtype = params.dtype
        self.keys: List[str] = []
        self.m = self.v = np.zeros(0, dtype=self.dtype)
        self.t = 0

    def step(self, params: ModelParams, grads: Dict[str, np.ndarray], lr: float) -> None:
        cfg = self.cfg
        if not self.keys:
            self.keys = list(grads)
            size = sum(g.size for g in grads.values())
            self.m, self.v = np.zeros((2, size), dtype=self.dtype)
        elif list(grads) != self.keys:
            raise ValueError(f"gradient keys {list(grads)} differ from the first step's")
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        g = np.concatenate([g.reshape(-1) for g in grads.values()])
        m, v = self.m, self.v
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        start = 0
        for k, gk in grads.items():
            w = params.tensors[k]
            w -= update[start : start + gk.size].reshape(w.shape)
            start += gk.size


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: List[float] = field(default_factory=list)


def batch_tensors(
    records: Sequence, cfg: TrainConfig, seed_key: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A step's (x, y_object, y_material) by :func:`input_batch`: with
    ``cfg.augment``, same-sized square records augmented under ``cfg.policy``
    with seed ``seed_key`` plus their position; otherwise stacked."""
    seeds = None
    if cfg.augment:
        seeds = [np.random.SeedSequence(seed_key + (pos,)) for pos in range(len(records))]
    return (input_batch([r.image for r in records], seeds, cfg.policy), *labels(records))


def train(
    params: ModelParams,
    train_records: Sequence,
    cfg: TrainConfig,
    lr_schedule: Optional[Callable[[int], float]] = None,
    step_hook: Optional[Callable] = None,
    extra_batch: Optional[Callable] = None,
) -> TrainResult:
    """Deterministic training loop over labeled records.

    ``lr_schedule`` maps epoch index to a learning rate (default:
    constant ``cfg.lr0``).  ``extra_batch(epoch, step)`` may supply
    additional (x, y_obj, y_mat) rows mixed into each step (replay);
    ``step_hook(epoch, step, records, losses)`` observes the new-data
    half after each update.  Raises :class:`TrainingDiverged` if the
    loss stops being finite.
    """
    if len(train_records) == 0:
        raise ValueError("empty training set")
    params = params.copy()
    if cfg.standardize:
        stacked = np.stack([r.image.pixels for r in train_records])
        mean = stacked.mean(axis=(0, 1, 2))
        std = np.maximum(stacked.std(axis=(0, 1, 2)), 1e-6)
        params.tensors["norm_mean"] = mean.astype(params.dtype)
        params.tensors["norm_std"] = std.astype(params.dtype)
    opt = Adam(params, cfg)
    result = TrainResult(params=params)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 31)))
    last_finite = float("nan")

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch) if lr_schedule is not None else cfg.lr0
        order = rng.permutation(len(train_records))
        epoch_loss = 0.0
        n_batches = 0
        for step, start in enumerate(range(0, len(order), cfg.batch)):
            idx = order[start : start + cfg.batch]
            batch_records = [train_records[i] for i in idx]
            x, y_obj, y_mat = batch_tensors(
                batch_records, cfg, (cfg.seed, 101, epoch, step)
            )
            n_new = x.shape[0]
            if extra_batch is not None:
                extra = extra_batch(epoch, step)
                if extra is not None:
                    ex, eo, em = extra
                    if ex.shape[0]:
                        x = _swap(np.concatenate([_swap(x), _swap(ex)], axis=1))
                        y_obj = np.concatenate([y_obj, eo])
                        y_mat = np.concatenate([y_mat, em])
            loss, grads, per_sample = _loss_grad(params, x, y_obj, y_mat)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, step, last_finite)
            last_finite = loss
            opt.step(params, grads, lr)
            if step_hook is not None:
                step_hook(epoch, step, batch_records, per_sample[:n_new])
            epoch_loss += loss
            n_batches += 1
        result.epoch_losses.append(epoch_loss / max(n_batches, 1))
    return result


def predict_records(
    params: ModelParams, records: Sequence, bias: BiasParams = BiasParams()
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-1 taxonomy indices for both heads over a record list: the
    argmax of each head's logits from :func:`predict_logits` after
    :func:`apply_bias`."""
    logits = predict_logits(params, records)
    heads = (bias.object_head, bias.material_head)
    return tuple(top1(c, apply_bias(z, h)) for c, z, h in zip(params.classes, logits, heads))


# --- head growth for deployment-time classes --------------------------------


def grow_heads(
    params: ModelParams,
    new_object_classes: Sequence[int],
    new_material_classes: Sequence[int],
    seed: int,
) -> ModelParams:
    """Append He-initialized output units for newly observed classes; a
    head's new rows draw from ``SeedSequence((seed, tag, units before))``
    with tag 51 for the object head and 52 for the material head."""
    params = params.copy()
    t = params.tensors
    feat, dtype = t["head_object_w"].shape[1], params.dtype
    pairs = zip(HEADS, (51, 52), params.classes, (new_object_classes, new_material_classes))
    for head, tag, classes, wanted in pairs:
        new = [c for c in wanted if c not in classes]
        if not new:
            continue
        rng = np.random.default_rng(np.random.SeedSequence((seed, tag, len(classes))))
        w, b = f"head_{head}_w", f"head_{head}_b"
        t[w] = np.concatenate([t[w], _he_uniform(rng, (len(new), feat), feat, dtype)])
        t[b] = np.concatenate([t[b], np.zeros(len(new), dtype=dtype)])
        setattr(params, f"{head}_classes", classes + tuple(new))
    return params


# --- checkpoint format -------------------------------------------------------
#
# Header: magic, u32 version, the two class maps, then a layer manifest
# (name, ndim, dims).  Body: little-endian float32 tensors in manifest
# order.


def save_checkpoint(params: ModelParams, path) -> None:
    with open(path, "wb") as fp:
        fp.write(CHECKPOINT_MAGIC)
        fp.write(struct.pack("<I", CHECKPOINT_VERSION))
        for classes in params.classes:
            fp.write(struct.pack("<I", len(classes)))
            fp.write(struct.pack(f"<{len(classes)}I", *classes))
        names = params.tensor_names()
        fp.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("ascii")
            shape = params.tensors[name].shape
            fp.write(struct.pack("<H", len(raw)))
            fp.write(raw)
            fp.write(struct.pack("<B", len(shape)))
            fp.write(struct.pack(f"<{len(shape)}I", *shape))
        for name in names:
            fp.write(params.tensors[name].astype("<f4").tobytes())


def load_checkpoint(path, dtype=np.float32) -> ModelParams:
    """Read a :func:`save_checkpoint` file.  A short file raises
    ``ValueError("<path>: truncated in <field>")``; bytes after the last
    tensor are rejected too."""
    with open(path, "rb") as fp:
        data = fp.read()
    pos = 0

    def unpack(fmt: str, field: str) -> tuple:
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise ValueError(f"{path}: truncated in {field}")
        pos += size
        return struct.unpack_from(fmt, data, pos - size)

    if data[:4] != CHECKPOINT_MAGIC[: len(data)]:
        raise ValueError(f"{path}: not a checkpoint file")
    unpack("<4s", "magic")
    (version,) = unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    maps = []
    for head in HEADS:
        (n,) = unpack("<I", f"{head} class count")
        maps.append(unpack(f"<{n}I", f"{head} classes"))
    (n_tensors,) = unpack("<I", "tensor count")
    manifest = []
    for i in range(n_tensors):
        (name_len,) = unpack("<H", f"name length of tensor {i}")
        (raw,) = unpack(f"<{name_len}s", f"name of tensor {i}")
        if not raw.isascii():
            raise ValueError(f"{path}: name of tensor {i} is not ASCII")
        name = raw.decode("ascii")
        (ndim,) = unpack("<B", f"rank of {name}")
        manifest.append((name, unpack(f"<{ndim}I", f"shape of {name}")))
    tensors = {}
    for name, shape in manifest:
        count = int(np.prod(shape)) if shape else 1
        (raw,) = unpack(f"<{4 * count}s", f"data of {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(dtype)
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes after the last tensor")
    return ModelParams(tensors, tuple(maps[0]), tuple(maps[1]))
