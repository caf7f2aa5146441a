import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfsense import classifier as C
from surfsense.classifier import (
    TrainConfig,
    TrainingDiverged,
    forward,
    grow_heads,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from surfsense.corpus import SampleRecord
from surfsense.imaging import Image


def loss_and_grad(params, batch):
    """Mean joint loss CE_object + CE_material and its full gradient.

    ``batch`` is (x, y_object, y_material) with 1-based taxonomy labels.
    """
    x, y_obj, y_mat = batch
    loss, grads, _ = C._loss_grad(params, x, np.asarray(y_obj), np.asarray(y_mat))
    return loss, grads


def rand_image(seed, side=16):
    rng = np.random.default_rng(seed)
    return Image(rng.uniform(0, 1, (side, side, 3)))


def records_from_arrays(images, objects, materials):
    return [
        SampleRecord(person_id=1, object=o, material=m, image=img, t=float(i))
        for i, (img, o, m) in enumerate(zip(images, objects, materials))
    ]


def test_parameter_count_under_100k():
    p = init_params(seed=0)
    assert sum(v.size for v in p.tensors.values()) < 100_000


def test_forward_gives_simplex_outputs():
    p = init_params(seed=0)
    pred = forward(p, rand_image(1, side=32))
    assert pred.p_object.shape == (6,)
    assert pred.p_material.shape == (9,)
    assert pred.p_object.sum() == pytest.approx(1.0, abs=1e-6)
    assert pred.p_material.sum() == pytest.approx(1.0, abs=1e-6)
    assert pred.p_object.min() >= 0.0


def test_forward_224_input():
    p = init_params(seed=0)
    pred = forward(p, rand_image(2, side=224))
    assert pred.p_object.sum() == pytest.approx(1.0, abs=1e-6)


def test_zero_heads_give_uniform_outputs():
    p = init_params(seed=3)
    p.tensors["head_object_w"][:] = 0
    p.tensors["head_object_b"][:] = 0
    p.tensors["head_material_w"][:] = 0
    p.tensors["head_material_b"][:] = 0
    pred = forward(p, rand_image(4))
    assert np.allclose(pred.p_object, 1 / 6, atol=1e-7)
    assert np.allclose(pred.p_material, 1 / 9, atol=1e-7)


def test_permuting_head_rows_permutes_probabilities():
    p = init_params(seed=5)
    img = rand_image(6)
    base = forward(p, img)
    perm = np.array([2, 0, 1, 5, 4, 3])
    q = p.copy()
    q.tensors["head_object_w"] = q.tensors["head_object_w"][perm]
    q.tensors["head_object_b"] = q.tensors["head_object_b"][perm]
    permuted = forward(q, img)
    assert np.allclose(permuted.p_object, base.p_object[perm], atol=1e-7)


def test_forward_shape_mismatch_rejected():
    p = init_params(seed=0)
    with pytest.raises(ValueError):
        forward(p, Image(np.full((8, 8, 1), 0.5)))


def test_toy_1x1_matches_hand_unrolled_affine():
    p = init_params(seed=9, dtype=np.float64)
    x = np.array([0.2, 0.7, 0.4])
    img = Image(x.reshape(1, 1, 3))
    pred = forward(p, img)

    # hand-unrolled: with a 1x1 input, zero padding means only each
    # kernel's center tap sees data
    t = p.tensors
    relu = lambda v: np.maximum(v, 0.0)
    a = relu(t["stem_w"][:, :, 1, 1] @ x + t["stem_b"])
    for bi in (1, 2, 3):
        d = relu(t[f"dw{bi}_w"][:, 1, 1] * a + t[f"dw{bi}_b"])
        a = relu(t[f"pw{bi}_w"] @ d + t[f"pw{bi}_b"])
    logits_o = t["head_object_w"] @ a + t["head_object_b"]
    logits_m = t["head_material_w"] @ a + t["head_material_b"]
    soft = lambda z: np.exp(z - z.max()) / np.exp(z - z.max()).sum()
    assert np.allclose(pred.p_object, soft(logits_o), atol=1e-12)
    assert np.allclose(pred.p_material, soft(logits_m), atol=1e-12)


def test_uniform_prediction_loss_is_ln6_plus_ln9():
    p = init_params(seed=0, dtype=np.float64)
    for name in list(p.tensors):
        if name.startswith("head"):
            p.tensors[name][:] = 0
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (3, 3, 8, 8))
    loss, _ = loss_and_grad(p, (x, np.array([1, 2, 3]), np.array([4, 5, 6])))
    assert loss == pytest.approx(np.log(6) + np.log(9), abs=1e-9)


def test_empty_batch_rejected():
    p = init_params(seed=0)
    with pytest.raises(ValueError, match="empty training set"):
        train(p, [], TrainConfig())


def grad_check_point():
    """Generic seeded check point: weights scaled up and biases offset so
    every ReLU pre-activation sits well away from its kink."""
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
    return p, x, y, rng


def test_gradient_matches_central_differences():
    p, x, (yo, ym), rng = grad_check_point()
    h = 1e-4
    assert relu_kink_margin(p, x) > 50 * h  # step cannot flip a mask
    _, grads = loss_and_grad(p, (x, yo, ym))
    worst = 0.0
    checked = 0
    for name in p.tensor_names():
        flat = p.tensors[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(p, (x, yo, ym))
            flat[i] = orig - h
            lm, _ = loss_and_grad(p, (x, yo, ym))
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
            checked += 1
    assert checked >= 100
    assert worst < 1e-4


def test_duplicated_sample_doubles_its_gradient_share():
    p = init_params(seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 1, (1, 3, 8, 8))
    b = rng.uniform(0, 1, (1, 3, 8, 8))
    ya, yb = (np.array([1]), np.array([2])), (np.array([3]), np.array([4]))
    _, g_a = loss_and_grad(p, (a, *ya))
    _, g_b = loss_and_grad(p, (b, *yb))
    x = np.concatenate([a, a, b])
    _, g = loss_and_grad(
        p, (x, np.array([1, 1, 3]), np.array([2, 2, 4]))
    )
    for name in g:
        want = (2 * g_a[name] + g_b[name]) / 3
        assert np.allclose(g[name], want, atol=1e-12), name


def test_argmax_invariant_to_constant_logit_shift():
    p = init_params(seed=7)
    img = rand_image(8)
    base = forward(p, img)
    q = p.copy()
    q.tensors["head_object_b"] += 3.5
    shifted = forward(q, img)
    assert shifted.top1_object == base.top1_object


def test_argmax_ties_break_to_lowest_index():
    p = init_params(seed=0)
    pred = C.PredictionPair(
        p_object=np.full(6, 1 / 6),
        p_material=np.full(9, 1 / 9),
        object_classes=tuple(range(1, 7)),
        material_classes=tuple(range(1, 10)),
    )
    assert pred.top1_object == 1
    assert pred.top1_material == 1


# --- reference NCHW trunk ---
#
# The kernels and loss gradient as they were before activations moved to
# channel-major buffers: every activation a C-ordered (N, C, H, W) array
# padded with ``np.pad``, strided taps, one GEMM per sample.  The library's
# trunk must match them bit for bit on the shapes the workloads run, except
# for the depthwise weight gradients: the library sums each tap's products
# as one flat dot product, so those must lie within ``dw_error_bound`` of
# the exact sums.


def _ref_tap_slice(k, ho, wo):
    ki, kj = divmod(k, 3)
    return np.s_[:, :, ki : ki + 2 * ho - 1 : 2, kj : kj + 2 * wo - 1 : 2]


def _ref_pad1(x):
    return np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))


def ref_conv3x3s2_forward(x, w, b):
    n, c, h, wd = x.shape
    ho, wo = (h + 1) // 2, (wd + 1) // 2
    xp = _ref_pad1(x)
    cols = np.empty((n, 9 * c, ho * wo), dtype=xp.dtype)
    for k in range(9):
        cols[:, k * c : (k + 1) * c, :] = xp[_ref_tap_slice(k, ho, wo)].reshape(n, c, -1)
    w2 = w.transpose(0, 2, 3, 1).reshape(w.shape[0], 9 * c)
    out = (w2 @ cols).reshape(n, w.shape[0], ho, wo)
    out += b[None, :, None, None]
    return out, cols


def ref_conv3x3s2_backward(dout, cols, w):
    n, o = dout.shape[:2]
    c = w.shape[1]
    p = dout.shape[2] * dout.shape[3]
    dflat = dout.reshape(n, o, p).transpose(1, 0, 2).reshape(o, n * p)
    cflat = cols.transpose(1, 0, 2).reshape(9 * c, n * p)
    dw = (dflat @ cflat.T).reshape(o, 3, 3, c).transpose(0, 3, 1, 2)
    return dw, dout.sum(axis=(0, 2, 3))


def ref_depthwise3x3s2_forward(x, w, b):
    n, c, h, wd = x.shape
    ho, wo = (h + 1) // 2, (wd + 1) // 2
    xp = _ref_pad1(x)
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for k in range(9):
        ki, kj = divmod(k, 3)
        out += w[None, :, ki, kj, None, None] * xp[_ref_tap_slice(k, ho, wo)]
    out += b[None, :, None, None]
    return out, xp


def ref_depthwise3x3s2_backward(dout, xp, w, x_shape):
    n, c, h, wd = x_shape
    ho, wo = dout.shape[2], dout.shape[3]
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for k in range(9):
        ki, kj = divmod(k, 3)
        sl = _ref_tap_slice(k, ho, wo)
        dw[:, ki, kj] = (dout * xp[sl]).sum(axis=(0, 2, 3))
        dxp[sl] += w[None, :, ki, kj, None, None] * dout
    return dxp[:, :, 1 : h + 1, 1 : wd + 1], dw, dout.sum(axis=(0, 2, 3))


def ref_depthwise_dw_f64(dout, xp):
    """Depthwise weight gradient summed in float64: the exact sums of the
    products of float32 inputs, up to float64 rounding."""
    d64, x64 = dout.astype(np.float64), xp.astype(np.float64)
    ho, wo = dout.shape[2], dout.shape[3]
    taps = [(d64 * x64[_ref_tap_slice(k, ho, wo)]).sum(axis=(0, 2, 3)) for k in range(9)]
    return np.stack(taps, axis=1).reshape(-1, 3, 3)


def dw_error_bound(dw, dout, xp):
    """Whether a float32 depthwise weight gradient is within 4 * eps32 *
    sum|dout * x| of the exact sum, weight by weight."""
    exact = ref_depthwise_dw_f64(dout, xp)
    scale = ref_depthwise_dw_f64(np.abs(dout), np.abs(xp))
    err = np.abs(dw.astype(np.float64) - exact)
    return dw.dtype == np.float32 and bool(np.all(err <= 4 * np.finfo(np.float32).eps * scale))


def ref_pointwise_forward(x, w, b):
    n, c, h, wd = x.shape
    out = np.matmul(w, x.reshape(n, c, h * wd)).reshape(n, w.shape[0], h, wd)
    return out + b[None, :, None, None]


def ref_pointwise_backward(dout, x, w):
    n, c, h, wd = x.shape
    o, p = w.shape[0], h * wd
    dout2 = dout.reshape(n, o, p)
    x2 = x.reshape(n, c, p)
    dw = np.matmul(
        dout2.transpose(1, 0, 2).reshape(o, n * p), x2.transpose(1, 0, 2).reshape(c, n * p).T
    )
    dx = np.matmul(w.T, dout2).reshape(n, c, h, wd)
    return dx, dw, dout.sum(axis=(0, 2, 3))


def ref_forward_trunk(params, x):
    """Pooled features, the cache for the backward pass and the smallest
    |pre-activation| over all seven ReLUs."""
    t = params.tensors
    a, cols = ref_conv3x3s2_forward(x, t["stem_w"], t["stem_b"])
    margin = float(np.abs(a).min())
    mask = a > 0
    cache = {"stem": (cols, mask)}
    a = a * mask
    for bi in (1, 2, 3):
        pre_shape = a.shape
        d, xp = ref_depthwise3x3s2_forward(a, t[f"dw{bi}_w"], t[f"dw{bi}_b"])
        dmask = d > 0
        margin = min(margin, float(np.abs(d).min()))
        d = d * dmask
        p = ref_pointwise_forward(d, t[f"pw{bi}_w"], t[f"pw{bi}_b"])
        pmask = p > 0
        margin = min(margin, float(np.abs(p).min()))
        a = p * pmask
        cache[f"block{bi}"] = (pre_shape, xp, dmask, d, pmask)
    cache["gap"] = (a.shape, a.shape[2] * a.shape[3])
    return a.mean(axis=(2, 3)), cache, margin


def relu_kink_margin(params, x):
    """Smallest |pre-activation| across all ReLUs for this input.  Finite-difference
    gradient checks are only meaningful when the step stays well below it (no
    activation mask flips).  The trunk matches this reference bit for bit on the
    workload shapes and within rounding on the others (the trunk tests below)."""
    return ref_forward_trunk(params, np.ascontiguousarray(x, dtype=params.dtype))[2]


def ref_loss_grad(params, x, y_obj, y_mat):
    """Loss, gradients, per-sample losses, both heads' logits, and each
    depthwise layer's (dout, padded input) by weight name."""
    n = x.shape[0]
    t = params.tensors
    feat, cache, _ = ref_forward_trunk(params, x)
    logits_o = feat @ t["head_object_w"].T + t["head_object_b"]
    logits_m = feat @ t["head_material_w"].T + t["head_material_b"]
    p_o, p_m = C.softmax(logits_o), C.softmax(logits_m)
    uo = C._unit_index(params.object_classes, y_obj)
    um = C._unit_index(params.material_classes, y_mat)
    per_sample = C._joint_ce(p_o, p_m, uo, um)
    grads = {}
    dlogits_o = p_o.copy()
    dlogits_o[np.arange(n), uo] -= 1.0
    dlogits_o /= n
    dlogits_m = p_m.copy()
    dlogits_m[np.arange(n), um] -= 1.0
    dlogits_m /= n
    grads["head_object_w"] = dlogits_o.T @ feat
    grads["head_object_b"] = dlogits_o.sum(axis=0)
    grads["head_material_w"] = dlogits_m.T @ feat
    grads["head_material_b"] = dlogits_m.sum(axis=0)
    dfeat = dlogits_o @ t["head_object_w"] + dlogits_m @ t["head_material_w"]
    a_shape, hw = cache["gap"]
    da = np.broadcast_to(dfeat[:, :, None, None] / hw, a_shape).astype(params.dtype)
    dw_terms = {}
    for bi in (3, 2, 1):
        pre_shape, xp, dmask, d, pmask = cache[f"block{bi}"]
        dd, grads[f"pw{bi}_w"], grads[f"pw{bi}_b"] = ref_pointwise_backward(
            da * pmask, d, t[f"pw{bi}_w"]
        )
        dw_terms[f"dw{bi}_w"] = (dd * dmask, xp)
        da, grads[f"dw{bi}_w"], grads[f"dw{bi}_b"] = ref_depthwise3x3s2_backward(
            dd * dmask, xp, t[f"dw{bi}_w"], pre_shape
        )
    cols, mask = cache["stem"]
    grads["stem_w"], grads["stem_b"] = ref_conv3x3s2_backward(da * mask, cols, t["stem_w"])
    return float(per_sample.mean()), grads, per_sample, (logits_o, logits_m), dw_terms


def trunk_case(n, side, dtype=np.float32, seed=0):
    """Seeded params with biases offset so every ReLU sees both signs, a
    batch held channel-major as training holds it, and labels."""
    rng = np.random.default_rng((seed, n, side))
    p = init_params(seed=seed, dtype=dtype)
    for name in p.tensor_names():
        if name.endswith("_b"):
            p.tensors[name] += rng.normal(0.0, 0.05, p.tensors[name].shape).astype(dtype)
    x = rng.uniform(0.0, 1.0, (3, n, side, side)).astype(dtype).transpose(1, 0, 2, 3)
    return p, x, rng.integers(1, 7, n), rng.integers(1, 10, n)


def trunk_outputs(p, x, yo, ym):
    loss, grads, per_sample = C._loss_grad(p, x, yo, ym)
    return loss, grads, per_sample, C.head_logits_batch(p, x)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (N, side) of every batch the workloads train or predict on: 64-px
# training steps of 1, 16 and 32 images, 64-image prediction chunks and a
# short last chunk, the 224-px capture, and the 32-px CLI runs.
WORKLOAD_SHAPES = [(1, 64), (16, 64), (32, 64), (64, 64), (23, 64), (1, 224), (16, 32)]


@pytest.mark.parametrize("n,side", WORKLOAD_SHAPES)
def test_trunk_matches_nchw_reference_bit_for_bit(n, side):
    p, x, yo, ym = trunk_case(n, side)
    want = ref_loss_grad(p, np.ascontiguousarray(x), yo, ym)
    for batch in (x, np.ascontiguousarray(x)):  # channel-major and C-ordered input
        loss, grads, per_sample, logits = trunk_outputs(p, batch, yo, ym)
        assert loss == want[0]
        assert same_bits(per_sample, want[2])
        assert grads.keys() == want[1].keys()
        for name in grads:
            if name in want[4]:  # dw{1,2,3}_w
                assert grads[name].shape == want[1][name].shape, name
                assert dw_error_bound(grads[name], *want[4][name]), name
            else:
                assert same_bits(grads[name], want[1][name]), name
        assert same_bits(logits[0], want[3][0]) and same_bits(logits[1], want[3][1])


# Other shapes agree within float rounding.  With OpenBLAS 0.3.31 on
# Haswell kernels, the float32 shapes whose last map is 1x1 (side <= 16)
# differ in the last bits: one (C, N) GEMM for pw3's input gradient rounds
# differently from N matrix-vector products.  So does the float64 stem
# GEMM at 12 px.  N = 3 at 17, 32 and 224 px matches bit for bit.
@pytest.mark.parametrize(
    "n,side,dtype",
    [
        (3, 17, np.float32),
        (3, 32, np.float32),
        (3, 224, np.float32),
        (5, 9, np.float32),
        (6, 16, np.float32),
        (4, 3, np.float32),
        (2, 1, np.float32),
        (2, 12, np.float64),
    ],
)
def test_trunk_matches_nchw_reference_on_other_shapes(n, side, dtype):
    p, x, yo, ym = trunk_case(n, side, dtype)
    want = ref_loss_grad(p, np.ascontiguousarray(x), yo, ym)
    loss, grads, per_sample, logits = trunk_outputs(p, x, yo, ym)
    tol = dict(rtol=1e-4, atol=1e-6) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-13)
    assert np.isclose(loss, want[0], **tol)
    assert np.allclose(per_sample, want[2], **tol)
    for name in grads:
        assert np.allclose(grads[name], want[1][name], **tol), name
    assert np.allclose(logits[0], want[3][0], **tol) and np.allclose(logits[1], want[3][1], **tol)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 9),
    c=st.sampled_from([8, 16, 32]),
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_depthwise_forward_and_input_gradient_match_strided_reference(n, c, h, w, dtype, seed):
    rng = np.random.default_rng(seed)
    ho, wo = (h + 1) // 2, (w + 1) // 2
    # channel-major buffers, passed as (N, C, H, W) views as the trunk does
    x = rng.normal(size=(c, n, h, w)).astype(dtype).transpose(1, 0, 2, 3)
    dout = rng.normal(size=(c, n, ho, wo)).astype(dtype).transpose(1, 0, 2, 3)
    wt = rng.normal(size=(c, 3, 3)).astype(dtype)
    b = rng.normal(size=c).astype(dtype)
    out, planes = C.depthwise3x3s2_forward(x, wt, b)
    want, xp = ref_depthwise3x3s2_forward(np.ascontiguousarray(x), wt, b)
    assert same_bits(np.ascontiguousarray(out), want)
    dx, dw, db = C.depthwise3x3s2_backward(dout, planes, wt, x.shape)
    want_dx, want_dw, want_db = ref_depthwise3x3s2_backward(
        np.ascontiguousarray(dout), xp, wt, x.shape
    )
    assert same_bits(np.ascontiguousarray(dx), want_dx)
    assert same_bits(db, want_db)
    tol = 4 * np.finfo(dtype).eps * ref_depthwise_dw_f64(np.abs(dout), np.abs(xp))
    assert np.all(np.abs(dw - ref_depthwise_dw_f64(dout, xp)) <= tol)


def test_depthwise_weight_gradient_within_four_eps_of_exact_sum():
    # the three layers of a 32-image 64-px step, then random shapes
    shapes = [(32, 8, 32, 32), (32, 16, 16, 16), (32, 32, 8, 8)]
    rng = np.random.default_rng(11)
    for _ in range(20):
        shapes.append(
            (int(rng.integers(1, 33)), int(rng.choice([8, 16, 32])), int(rng.integers(1, 41)),
             int(rng.integers(1, 41)))
        )  # fmt: skip
    for n, c, h, w in shapes:
        ho, wo = (h + 1) // 2, (w + 1) // 2
        # post-ReLU inputs and mixed-sign output gradients, as in training
        x = np.maximum(rng.normal(size=(c, n, h, w)), 0).astype(np.float32).transpose(1, 0, 2, 3)
        dout = rng.normal(size=(c, n, ho, wo)).astype(np.float32).transpose(1, 0, 2, 3)
        wt = rng.normal(size=(c, 3, 3)).astype(np.float32)
        _, planes = C.depthwise3x3s2_forward(x, wt, np.zeros(c, np.float32))
        _, dw, _ = C.depthwise3x3s2_backward(dout, planes, wt, x.shape)
        xp = np.pad(np.ascontiguousarray(x), ((0, 0), (0, 0), (1, 1), (1, 1)))
        assert dw_error_bound(dw, np.ascontiguousarray(dout), xp), (n, c, h, w)


# --- training ---


def separable_records(n_per_class=24, side=16):
    """Two trivially separable texture classes (dark red vs bright blue)."""
    rng = np.random.default_rng(0)
    recs = []
    for i in range(n_per_class):
        red = np.clip(rng.normal(0.0, 0.03, (side, side, 3)) + [0.8, 0.2, 0.2], 0, 1)
        blue = np.clip(rng.normal(0.0, 0.03, (side, side, 3)) + [0.2, 0.3, 0.9], 0, 1)
        recs.append(SampleRecord(1, 1, 1, Image(red.astype(np.float32)), float(2 * i)))
        recs.append(SampleRecord(1, 3, 3, Image(blue.astype(np.float32)), float(2 * i + 1)))
    return recs


def test_separable_toy_reaches_full_train_accuracy():
    recs = separable_records()
    cfg = TrainConfig(lr0=3e-3, batch=8, epochs=5, seed=0, augment=False)
    p = init_params(seed=0)
    res = train(p, recs, cfg)
    pred_o, pred_m = C.predict_records(res.params, recs)
    assert np.mean(pred_o == np.array([r.object for r in recs])) == 1.0
    assert np.mean(pred_m == np.array([r.material for r in recs])) == 1.0


def test_predict_records_over_several_chunks_matches_single_image_forward():
    p = init_params(seed=2)
    n = 2 * C.PREDICT_CHUNK + 5
    recs = records_from_arrays([rand_image(i, side=8) for i in range(n)], [1] * n, [1] * n)
    logits_o, logits_m = C.predict_logits(p, recs)
    assert logits_o.shape == (n, 6) and logits_m.shape == (n, 9)
    pred_o, pred_m = C.predict_records(p, recs)
    for i, rec in enumerate(recs):
        single = forward(p, rec.image)
        assert np.allclose(C.softmax(logits_o[i : i + 1])[0], single.p_object, atol=1e-6)
        assert (pred_o[i], pred_m[i]) == (single.top1_object, single.top1_material)
    empty_o, empty_m = C.predict_records(p, [])
    assert empty_o.shape == empty_m.shape == (0,)


def test_predict_records_under_a_bias_is_the_argmax_after_apply_bias():
    p = grow_heads(init_params(seed=3), [7], [10, 11], seed=3)
    n = C.PREDICT_CHUNK + 9
    recs = records_from_arrays([rand_image(i, side=8) for i in range(n)], [1] * n, [1] * n)
    bias = C.BiasParams(
        object_head=C.HeadBias(scale=1.5, offset=0.5, new_units=(6,)),
        material_head=C.HeadBias(scale=0.5, offset=0.25, new_units=(9, 10)),
    )
    # The reference: replay's former predict_with_bias.
    logits_o, logits_m = C.predict_logits(p, recs)
    want_o = C.top1(p.object_classes, C.apply_bias(logits_o, bias.object_head))
    want_m = C.top1(p.material_classes, C.apply_bias(logits_m, bias.material_head))
    got_o, got_m = C.predict_records(p, recs, bias)
    assert np.array_equal(got_o, want_o) and np.array_equal(got_m, want_m)
    plain_o, plain_m = C.predict_records(p, recs)
    assert not np.array_equal(plain_o, got_o) and not np.array_equal(plain_m, got_m)


def test_zero_learning_rate_leaves_weights_unchanged():
    recs = separable_records(n_per_class=4)
    cfg = TrainConfig(lr0=0.0, batch=4, epochs=2, seed=0)
    p = init_params(seed=0)
    res = train(p, recs, cfg)
    for name in p.tensors:
        assert np.array_equal(res.params.tensors[name], p.tensors[name])


def test_training_deterministic_for_fixed_seed():
    recs = separable_records(n_per_class=6)
    cfg = TrainConfig(lr0=1e-3, batch=4, epochs=2, seed=11)
    a = train(init_params(seed=2), recs, cfg)
    b = train(init_params(seed=2), recs, cfg)
    for name in a.params.tensors:
        assert np.array_equal(a.params.tensors[name], b.params.tensors[name])
    assert a.epoch_losses == b.epoch_losses


def test_training_loss_trends_down_across_seeds():
    # non-increasing epoch-over-epoch in >= 90% of seeded runs
    recs = separable_records(n_per_class=8)
    ok = 0
    runs = 10
    for seed in range(runs):
        cfg = TrainConfig(lr0=1e-3, batch=8, epochs=4, seed=seed, augment=False)
        res = train(init_params(seed=seed), recs, cfg)
        diffs = np.diff(res.epoch_losses)
        if np.all(diffs <= 1e-6):
            ok += 1
    assert ok >= 0.9 * runs


def test_divergence_raises_with_diagnostics():
    recs = separable_records(n_per_class=4)
    p = init_params(seed=0)
    p.tensors["stem_w"][0, 0, 0, 0] = np.nan  # poisons the loss
    cfg = TrainConfig(lr0=1e-3, batch=4, epochs=1, seed=0)
    with pytest.raises(TrainingDiverged) as exc:
        train(p, recs, cfg)
    assert exc.value.epoch == 0 and exc.value.step == 0


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        train(init_params(seed=0), [], TrainConfig())


def test_lr_schedule_is_honored():
    recs = separable_records(n_per_class=4)
    cfg = TrainConfig(lr0=5.0, batch=4, epochs=1, seed=0)
    # a schedule pinning lr to 0 must override lr0
    res = train(init_params(seed=1), recs, cfg, lr_schedule=lambda e: 0.0)
    for name, v in res.params.tensors.items():
        assert np.array_equal(v, init_params(seed=1).tensors[name])


# --- head growth ---


def test_grow_heads_appends_units():
    p = init_params(seed=0, object_classes=[1, 2], material_classes=[1, 2, 3])
    q = grow_heads(p, [5], [7, 8], seed=4)
    assert q.object_classes == (1, 2, 5)
    assert q.material_classes == (1, 2, 3, 7, 8)
    assert q.tensors["head_object_w"].shape == (3, 64)
    assert q.tensors["head_material_w"].shape == (5, 64)
    # existing rows unchanged
    assert np.array_equal(
        q.tensors["head_object_w"][:2], p.tensors["head_object_w"]
    )


def test_grow_heads_draws_each_heads_rows_from_its_own_seed():
    p = init_params(seed=2)
    q = grow_heads(p, [3, 7, 8], [10], seed=9)  # object 3 is not new
    limit = np.sqrt(6.0 / 64)
    for head, tag, n_old, n_new in (("object", 51, 6, 2), ("material", 52, 9, 1)):
        rng = np.random.default_rng(np.random.SeedSequence((9, tag, n_old)))
        want = rng.uniform(-limit, limit, size=(n_new, 64)).astype(np.float32)
        w, b = q.tensors[f"head_{head}_w"], q.tensors[f"head_{head}_b"]
        assert np.array_equal(w[:n_old], p.tensors[f"head_{head}_w"])
        assert np.array_equal(w[n_old:], want)
        assert w.dtype == b.dtype == np.float32
        assert np.array_equal(b, np.concatenate([p.tensors[f"head_{head}_b"], np.zeros(n_new)]))
    assert q.object_classes == (1, 2, 3, 4, 5, 6, 7, 8)
    assert q.material_classes == tuple(range(1, 11))
    assert list(q.tensors) == list(p.tensors)
    # One head alone: the other keeps its tensors and its class map.
    r = grow_heads(p, [], [10], seed=9)
    assert r.object_classes == p.object_classes
    assert np.array_equal(r.tensors["head_object_w"], p.tensors["head_object_w"])
    assert np.array_equal(r.tensors["head_material_w"], q.tensors["head_material_w"])


def test_loss_grad_keys_come_in_adams_layout_order():
    p = init_params(seed=0)
    x = np.random.default_rng(0).uniform(0, 1, (2, 3, 16, 16))
    _, grads, _ = C._loss_grad(p, x, np.array([1, 2]), np.array([3, 4]))
    blocks = [f"{kind}{b}_{t}" for b in (3, 2, 1) for kind in ("pw", "dw") for t in "wb"]
    assert list(grads) == [
        "head_object_w", "head_object_b", "head_material_w", "head_material_b",
        *blocks, "stem_w", "stem_b",
    ]  # fmt: skip


def test_grown_model_predicts_taxonomy_indices():
    p = init_params(seed=0, object_classes=[1, 2], material_classes=[1, 2])
    q = grow_heads(p, [6], [9], seed=1)
    pred = forward(q, rand_image(3))
    assert pred.top1_object in (1, 2, 6)
    assert pred.top1_material in (1, 2, 9)


# --- checkpoints ---


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    p = init_params(seed=13)
    path = tmp_path / "model.bin"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    img = rand_image(5, side=32)
    a = forward(p, img)
    b = forward(q, img)
    assert np.array_equal(a.p_object, b.p_object)
    assert np.array_equal(a.p_material, b.p_material)
    # a second roundtrip writes identical bytes
    path2 = tmp_path / "model2.bin"
    save_checkpoint(q, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_preserves_class_maps(tmp_path):
    p = init_params(seed=1, object_classes=[2, 4, 6], material_classes=[1, 9])
    path = tmp_path / "m.bin"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.object_classes == (2, 4, 6)
    assert q.material_classes == (1, 9)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_cut_anywhere_names_file_and_field(tmp_path):
    p = C.ModelParams(
        {"stem_w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(2, np.float32)},
        (1, 4),
        (2,),
    )
    path = tmp_path / "small.bin"
    save_checkpoint(p, path)
    full = path.read_bytes()
    cut_path = tmp_path / "cut.bin"
    fields = set()
    for offset in range(len(full)):
        cut_path.write_bytes(full[:offset])
        with pytest.raises(ValueError) as exc:
            load_checkpoint(cut_path)
        prefix = f"{cut_path}: truncated in "
        assert str(exc.value).startswith(prefix), (offset, str(exc.value))
        fields.add(str(exc.value)[len(prefix) :])
    assert {"magic", "version", "object classes", "tensor count", "data of b"} <= fields
    cut_path.write_bytes(full + b"\0")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        load_checkpoint(cut_path)
    name_at = full.index(b"stem_w")
    cut_path.write_bytes(full[:name_at] + b"\xff" + full[name_at + 1 :])
    with pytest.raises(ValueError, match="name of tensor 0 is not ASCII"):
        load_checkpoint(cut_path)
    cut_path.write_bytes(full)
    back = load_checkpoint(cut_path)
    assert back.object_classes == (1, 4) and back.material_classes == (2,)
    assert np.array_equal(back.tensors["stem_w"], p.tensors["stem_w"])


# --- optimizer ---


class AdamReference:
    """Per-tensor Adam: one moment pair per gradient key, updated tensor by tensor."""

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.t = 0

    def step(self, params, grads, lr):
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            params.tensors[k] -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def _model(kind, dtype):
    p = init_params(seed=3, dtype=dtype)
    if kind == "standardize":
        p.tensors["norm_mean"] = np.array([0.4, 0.5, 0.6], dtype=dtype)
        p.tensors["norm_std"] = np.array([0.2, 0.3, 0.25], dtype=dtype)
    elif kind == "grown":
        p = grow_heads(p, [7], [10, 11], seed=5)
    return p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["plain", "standardize", "grown"])
def test_flat_adam_matches_per_tensor_reference_bit_for_bit(kind, dtype):
    flat, ref = _model(kind, dtype), _model(kind, dtype)
    frozen = {k: v.copy() for k, v in flat.tensors.items() if k.startswith("norm_")}
    cfg = TrainConfig(lr0=3e-3)
    opt, opt_ref = C.Adam(flat, cfg), AdamReference(ref, cfg)
    rng = np.random.default_rng(9)
    for step in range(24):
        x = rng.uniform(0.0, 1.0, (4, 3, 16, 16)).astype(dtype)
        y_obj = rng.choice(flat.object_classes, 4)
        y_mat = rng.choice(flat.material_classes, 4)
        _, grads = loss_and_grad(flat, (x, y_obj, y_mat))
        lr = cfg.lr0 * 0.9**step
        opt.step(flat, grads, lr)
        opt_ref.step(ref, grads, lr)
        for k, v in flat.tensors.items():
            assert v.dtype == ref.tensors[k].dtype
            assert np.array_equal(v, ref.tensors[k]), (step, k)
    assert frozen.keys() == ({"norm_mean", "norm_std"} if kind == "standardize" else set())
    for k, v in frozen.items():
        assert np.array_equal(flat.tensors[k], v)


def test_adam_rejects_gradients_with_other_keys():
    p = init_params(seed=0)
    opt = C.Adam(p, TrainConfig())
    grads = {k: np.zeros_like(v) for k, v in p.tensors.items()}
    opt.step(p, grads, 1e-3)
    del grads["stem_b"]
    with pytest.raises(ValueError, match="gradient keys"):
        opt.step(p, grads, 1e-3)


# --- training settings ---


@pytest.mark.parametrize(
    "field, value",
    [
        ("lr0", float("nan")),
        ("lr0", float("inf")),
        ("lr0", -1e-3),
        ("batch", 0),
        ("epochs", 0),
        ("beta1", 1.0),
        ("beta1", -0.1),
        ("beta1", float("nan")),
        ("beta2", 1.0),
        ("beta2", float("nan")),
        ("eps", 0.0),
        ("eps", float("inf")),
        ("eps", float("nan")),
    ],
)
def test_train_config_names_the_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_standardize_option_trains_and_roundtrips(tmp_path):
    recs = separable_records(n_per_class=6)
    cfg = TrainConfig(lr0=2e-3, batch=8, epochs=2, seed=0, augment=False, standardize=True)
    res = train(init_params(seed=0), recs, cfg)
    assert "norm_mean" in res.params.tensors
    path = tmp_path / "m.bin"
    save_checkpoint(res.params, path)
    back = load_checkpoint(path)
    img = recs[0].image
    assert np.array_equal(forward(res.params, img).p_object, forward(back, img).p_object)
    # normalization is actually applied: dropping the stats changes outputs
    stripped = res.params.copy()
    del stripped.tensors["norm_mean"], stripped.tensors["norm_std"]
    assert not np.array_equal(
        forward(res.params, img).p_object, forward(stripped, img).p_object
    )
