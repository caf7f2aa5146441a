import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfsense import imaging
from surfsense.harness import DEGRADATION_COMBOS, degrade
from surfsense.imaging import (
    AugmentPolicy,
    IDENTITY_POLICY,
    Image,
    add_gaussian_noise,
    adjust_brightness,
    augment,
    augment_batch,
    center_crop_resize,
    gaussian_blur,
    gaussian_kernel_1d,
    log_sharpness,
    read_ppm,
    to_luminance,
    write_ppm,
)


def gray(h, w, value=0.5):
    return Image(np.full((h, w, 1), value, dtype=np.float64))


def random_texture(seed, side=64, channels=3, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Image(rng.uniform(lo, hi, (side, side, channels)))


# --- independent dense-convolution oracle for the LoG score ---


def oracle_log_variance(img, sigma):
    """Brute-force 2-D convolutions with reflective padding; no
    separability shortcut."""
    plane = to_luminance(img).astype(np.float64)
    radius = int(np.ceil(3.0 * sigma))
    k1 = gaussian_kernel_1d(sigma)
    kernel2d = np.outer(k1, k1)
    padded = np.pad(plane, radius, mode="reflect")
    h, w = plane.shape
    blurred = np.zeros_like(plane)
    for i in range(h):
        for j in range(w):
            blurred[i, j] = np.sum(padded[i : i + 2 * radius + 1, j : j + 2 * radius + 1] * kernel2d)
    lap_kernel = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
    padded = np.pad(blurred, 1, mode="reflect")
    resp = np.zeros_like(plane)
    for i in range(h):
        for j in range(w):
            resp[i, j] = np.sum(padded[i : i + 3, j : j + 3] * lap_kernel)
    return float(np.var(resp))


# --- np.pad references for the gate: the fast path must match them bit for bit ---


def convolve_reflect_1d_reference(plane, kernel, axis):
    radius = (len(kernel) - 1) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(plane, pad, mode="reflect")
    out = np.zeros_like(plane)
    for i, w in enumerate(kernel):
        sl = [slice(None), slice(None)]
        sl[axis] = slice(i, i + plane.shape[axis])
        out += w * padded[tuple(sl)]
    return out


def gaussian_blur_plane_reference(plane, sigma):
    k = gaussian_kernel_1d(sigma)
    return convolve_reflect_1d_reference(convolve_reflect_1d_reference(plane, k, 0), k, 1)


def laplacian_plane_reference(plane):
    padded = np.pad(plane, 1, mode="reflect")
    return (
        padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
        - 4.0 * padded[1:-1, 1:-1]
    )


def log_variance_reference(img, sigma):
    plane = to_luminance(img).astype(np.float64, copy=False)
    return float(np.var(laplacian_plane_reference(gaussian_blur_plane_reference(plane, sigma))))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_gate_matches_reference(img, sigma):
    for c in range(img.channels):
        plane = img.pixels[:, :, c]  # a strided view for RGB
        want = gaussian_blur_plane_reference(plane, sigma)
        _assert_same_bits(imaging.gaussian_blur_plane(plane, sigma), want)
        lap = imaging.laplacian_plane(plane)
        _assert_same_bits(lap, laplacian_plane_reference(plane))
        assert lap.flags.c_contiguous  # np.var sums a strided view in another order
    got = log_sharpness(img, sigma).log_variance
    assert got.hex() == log_variance_reference(img, sigma).hex()


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    channels=st.sampled_from([1, 3]),
    dtype=st.sampled_from([np.float32, np.float64]),
    sigma=st.floats(0.3, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gate_matches_np_pad_reference_property(h, w, channels, dtype, sigma, seed):
    # sigma up to 5 puts the radius (up to 15) at or past a side of up to 40 px
    px = np.random.default_rng(seed).uniform(0.0, 1.0, (h, w, channels)).astype(dtype)
    _assert_gate_matches_reference(Image(px), sigma)


def _bowl_224(seed):
    """A smooth 224-px paraboloid with 1e-4 noise: its LoG response is nearly
    constant, so the variance's last bits follow the rounding of its mean."""
    y, x = np.mgrid[0:224, 0:224] / 223.0
    bowl = 1.8 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)[:, :, None]
    noise = np.random.default_rng(seed).uniform(0.0, 1e-4, (224, 224, 3))
    return np.clip(bowl + noise, 0.0, 1.0).astype(np.float32)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_gate_matches_np_pad_reference_at_224_px(sigma):
    texture = np.random.default_rng(224).uniform(0.0, 1.0, (224, 224, 3)).astype(np.float32)
    # With numpy 2.4, np.var of the strided Laplacian interior of the seed-9
    # bowl at sigma 1 differs in its last bit from np.var of a C-ordered copy.
    for px in (texture, _bowl_224(9)):
        img = Image(px)
        _assert_gate_matches_reference(img, sigma)
        want = np.stack([gaussian_blur_plane_reference(px[:, :, c], sigma) for c in range(3)], 2)
        _assert_same_bits(gaussian_blur(img, sigma).pixels, np.clip(want, 0.0, 1.0))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_gaussian_kernel_rejects_non_positive_or_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        gaussian_kernel_1d(sigma)


@pytest.mark.parametrize("sigma", [1e-200, 1e-163, 5e-324])
def test_gaussian_kernel_rejects_sigma_whose_square_underflows(sigma):
    assert 2.0 * sigma**2 == 0.0  # the exponent's divisor
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        gaussian_kernel_1d(sigma)
    # a tiny sigma that passes gives a finite, unit kernel
    assert np.array_equal(gaussian_kernel_1d(1e-154), [0.0, 1.0, 0.0])


def test_constant_image_scores_zero():
    score = log_sharpness(gray(32, 32, 0.4), sigma=1.0)
    assert score.log_variance == 0.0
    assert not score.passed or score.blur_threshold == 0.0


def test_constant_image_fails_positive_threshold():
    score = log_sharpness(gray(32, 32, 0.4), sigma=1.0, blur_threshold=1e-9)
    assert not score.passed


def test_single_impulse_matches_dense_oracle():
    px = np.zeros((64, 64, 1))
    px[20, 31, 0] = 1.0
    img = Image(px)
    got = log_sharpness(img, sigma=1.0).log_variance
    want = oracle_log_variance(img, sigma=1.0)
    assert abs(got - want) < 1e-9


def test_random_texture_matches_dense_oracle():
    img = random_texture(3, side=24)
    got = log_sharpness(img, sigma=1.5).log_variance
    want = oracle_log_variance(img, sigma=1.5)
    assert abs(got - want) < 1e-9


def test_blur_monotonicity_twenty_textures():
    for seed in range(20):
        img = random_texture(seed, side=48)
        sharp = log_sharpness(img, sigma=1.0).log_variance
        blurred = log_sharpness(gaussian_blur(img, 2.0), sigma=1.0).log_variance
        assert blurred < sharp, f"seed {seed}"


def test_offset_invariance():
    img = random_texture(7, side=32, lo=0.0, hi=0.5)
    shifted = Image(img.pixels + 0.3)
    a = log_sharpness(img, 1.0).log_variance
    b = log_sharpness(shifted, 1.0).log_variance
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_quadratic_scaling():
    img = random_texture(9, side=32, lo=0.0, hi=0.5)
    scaled = Image(img.pixels * 2.0)
    a = log_sharpness(img, 1.0).log_variance
    b = log_sharpness(scaled, 1.0).log_variance
    assert b == pytest.approx(4.0 * a, rel=1e-6)


def test_sigma_must_be_positive():
    with pytest.raises(ValueError):
        log_sharpness(gray(8, 8), sigma=0.0)


def test_empty_image_rejected():
    with pytest.raises(ValueError):
        Image(np.zeros((0, 4, 1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.nan, "non-finite pixel values"),
        (np.inf, "non-finite pixel values"),
        (-np.inf, "non-finite pixel values"),
        (-0.01, r"pixel values must lie in \[0, 1\]"),
        (1.01, r"pixel values must lie in \[0, 1\]"),
    ],
)
def test_image_rejects_bad_pixel_with_its_message(bad, message, dtype):
    for where in ((0, 0, 0), (3, 2, 1)):  # first pixel and an interior one
        px = np.full((4, 5, 3), 0.5, dtype=dtype)
        px[where] = bad
        with pytest.raises(ValueError, match=message):
            Image(px)


def test_image_rejects_nan_beside_out_of_range_as_non_finite():
    px = np.full((4, 4, 1), 0.5)
    px[0, 0, 0], px[1, 1, 0] = -2.0, np.nan
    with pytest.raises(ValueError, match="non-finite pixel values"):
        Image(px)


def test_image_accepts_the_closed_unit_interval():
    px = np.full((2, 2, 1), 0.5, dtype=np.float32)
    px[0, 0, 0], px[1, 1, 0] = 0.0, 1.0
    assert Image(px).pixels is px


# --- crop / resize ---


def test_resize_identity_at_native_side():
    img = random_texture(1, side=224 // 4)  # keep it quick; identity is exact
    out = center_crop_resize(img, img.width)
    assert np.array_equal(out.pixels, img.pixels)


def test_wide_input_crops_centered_square():
    px = np.zeros((10, 30, 1))
    px[:, 10:20, 0] = 1.0  # centered 10x10 block of ones
    out = center_crop_resize(Image(px), 10)
    assert np.array_equal(out.pixels, np.ones((10, 10, 1)))


def test_1080p_to_224():
    rng = np.random.default_rng(0)
    img = Image(rng.uniform(0, 1, (108, 192, 3)))  # 1920x1080 scaled down 10x
    out = center_crop_resize(img, 22)
    assert out.width == out.height == 22
    # source region is the centered square: outside columns never sampled
    img2 = Image(np.concatenate([rng.uniform(0, 1, (108, 42, 3)), img.pixels[:, 42:150], rng.uniform(0, 1, (108, 42, 3))], axis=1))
    out2 = center_crop_resize(img2, 22)
    assert np.array_equal(out.pixels, out2.pixels)


def test_bilinear_upsample_matches_hand_computed():
    # 2x2 checkerboard to 4x4; half-pixel centers with edge clamping:
    # sample coords (i + 0.5)/2 - 0.5 = [-0.25, 0.25, 0.75, 1.25]
    px = np.array([[1.0, 0.0], [0.0, 1.0]])[:, :, None]
    out = center_crop_resize(Image(px), 4)
    c = [-0.25, 0.25, 0.75, 1.25]

    def sample(y, x):
        y0 = int(np.floor(y))
        x0 = int(np.floor(x))
        fy, fx = y - y0, x - x0
        def at(i, j):
            return px[min(max(i, 0), 1), min(max(j, 0), 1), 0]
        top = at(y0, x0) * (1 - fx) + at(y0, x0 + 1) * fx
        bot = at(y0 + 1, x0) * (1 - fx) + at(y0 + 1, x0 + 1) * fx
        return top * (1 - fy) + bot * fy

    want = np.array([[sample(y, x) for x in c] for y in c])
    assert np.allclose(out.pixels[:, :, 0], np.clip(want, 0, 1), atol=1e-12)


def test_resize_idempotent_at_target():
    img = random_texture(5, side=37)
    once = center_crop_resize(img, 16)
    twice = center_crop_resize(once, 16)
    assert np.array_equal(once.pixels, twice.pixels)


def test_resize_float32_is_float64_result_rounded():
    px = random_texture(6, side=23).pixels
    want = center_crop_resize(Image(px.astype(np.float32).astype(np.float64)), 10)
    got = center_crop_resize(Image(px.astype(np.float32)), 10)
    assert np.array_equal(got.pixels, want.pixels.astype(np.float32))


def test_zero_side_rejected():
    with pytest.raises(ValueError):
        center_crop_resize(gray(8, 8), 0)


# --- augmentation ---


def test_identity_policy_passthrough():
    img = random_texture(2, side=32)
    out = augment(img, 0, IDENTITY_POLICY)
    assert np.array_equal(out.pixels, img.pixels)


def test_flip_only_exact_mirror():
    img = random_texture(3, side=32)
    policy = AugmentPolicy(flip_p=1.0, max_rotation_deg=0.0, max_shift_frac=0.0)
    out = augment(img, 7, policy)
    assert np.array_equal(out.pixels, img.pixels[:, ::-1, :])


def test_same_seed_bit_identical():
    img = random_texture(4, side=32)
    a = augment(img, 1234)
    b = augment(img, 1234)
    assert np.array_equal(a.pixels, b.pixels)


def test_different_seeds_differ():
    img = random_texture(4, side=32)
    a = augment(img, 1)
    b = augment(img, 2)
    assert not np.array_equal(a.pixels, b.pixels)


def test_augment_batch_equals_per_image():
    rng = np.random.default_rng(0)
    imgs = [Image(rng.uniform(0, 1, (16, 16, 3)).astype(np.float32)) for _ in range(8)]
    seeds = list(range(8))
    batch = augment_batch(imgs, seeds)
    for i in range(8):
        assert np.array_equal(batch[i], augment(imgs[i], seeds[i]).pixels)


def test_augment_requires_square():
    with pytest.raises(ValueError):
        augment(gray(8, 10), 0)


def test_outputs_stay_in_range():
    img = random_texture(11, side=24)
    for seed in range(10):
        out = augment(img, seed)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


# --- augment_batch vs. the per-pixel reflection reference ---


def _reflect_indices(idx, n):
    # Mirror without repeating the edge sample (period 2n - 2):
    # reflect(i) = min(i mod p, p - i mod p).
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    np.mod(idx, period, out=idx)
    np.minimum(idx, period - idx, out=idx)
    return idx


def _warp_bilinear_reflect_reference(flat, n, side, ch, ysrc, xsrc):
    ysrc = ysrc.reshape(n, -1)
    xsrc = xsrc.reshape(n, -1)
    y0 = np.floor(ysrc).astype(np.intp)
    x0 = np.floor(xsrc).astype(np.intp)
    fy = (ysrc - y0).astype(flat.dtype)[..., None]
    fx = (xsrc - x0).astype(flat.dtype)[..., None]
    y1 = _reflect_indices(y0 + 1, side)
    y0 = _reflect_indices(y0, side)
    x1 = _reflect_indices(x0 + 1, side)
    x0 = _reflect_indices(x0, side)
    offsets = (np.arange(n, dtype=np.intp) * side * side)[:, None]
    y0 *= side
    y0 += offsets
    y1 *= side
    y1 += offsets

    g00 = flat.take((y0 + x0).ravel(), axis=0).reshape(n, -1, ch)
    g01 = flat.take((y0 + x1).ravel(), axis=0).reshape(n, -1, ch)
    g10 = flat.take((y1 + x0).ravel(), axis=0).reshape(n, -1, ch)
    g11 = flat.take((y1 + x1).ravel(), axis=0).reshape(n, -1, ch)
    g01 -= g00
    g01 *= fx
    g01 += g00
    g11 -= g10
    g11 *= fx
    g11 += g10
    g11 -= g01
    g11 *= fy
    g11 += g01
    return g11.reshape(n, side, side, ch)


def _draw_augment_params(rng_seeds, policy, side):
    """Each image's flip, angle (radians) and shifts, drawn by scalar
    ``Generator`` calls in that order."""
    n = len(rng_seeds)
    flips = np.zeros(n, dtype=bool)
    angles = np.zeros(n)
    dys = np.zeros(n)
    dxs = np.zeros(n)
    shift_px = policy.max_shift_frac * side
    for i, seed in enumerate(rng_seeds):
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        flips[i] = rng.random() < policy.flip_p
        angles[i] = np.deg2rad(rng.uniform(-policy.max_rotation_deg, policy.max_rotation_deg))
        dys[i] = rng.uniform(-shift_px, shift_px)
        dxs[i] = rng.uniform(-shift_px, shift_px)
    return flips, angles, dys, dxs


def augment_batch_reference(images, rng_seeds, policy=AugmentPolicy()):
    """``augment_batch`` with a reflected index per corner and pixel: a
    full-size coordinate grid, four mod/min reflection passes and four
    gathers over the (N*H*W, C) stack.  The fast path must match it bit
    for bit."""
    side = images[0].width
    ch = images[0].channels
    n = len(images)
    flips, angles, dys, dxs = _draw_augment_params(rng_seeds, policy, side)
    noop = ~flips & (angles == 0.0) & (dys == 0.0) & (dxs == 0.0)

    c = (side - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float), indexing="ij")
    yr = ys[None, :, :] - c - dys[:, None, None]
    xr = xs[None, :, :] - c - dxs[:, None, None]
    cos_a = np.cos(angles)[:, None, None]
    sin_a = np.sin(angles)[:, None, None]
    ysrc = cos_a * yr + sin_a * xr + c
    xsrc = -sin_a * yr + cos_a * xr + c
    xsrc[flips] = (side - 1) - xsrc[flips]

    stacked = np.stack([img.pixels for img in images])
    out = _warp_bilinear_reflect_reference(
        stacked.reshape(n * side * side, ch), n, side, ch, ysrc, xsrc
    )
    np.clip(out, 0.0, 1.0, out=out)
    for i in np.nonzero(noop)[0]:
        out[i] = images[i].pixels
    return out


REFERENCE_POLICIES = {
    "default": AugmentPolicy(),
    "identity": IDENTITY_POLICY,
    "never_flip": AugmentPolicy(flip_p=0.0),
    "always_flip": AugmentPolicy(flip_p=1.0),
    "rotate_180": AugmentPolicy(max_rotation_deg=180.0),
    # Shifts of up to 2.5 sides: the reflection wraps several times.
    "wide_shift": AugmentPolicy(max_rotation_deg=180.0, max_shift_frac=2.5),
}


def _random_batch(rng, n, side, channels, dtype):
    return [Image(rng.uniform(0.0, 1.0, (side, side, channels)).astype(dtype)) for _ in range(n)]


def _assert_matches_reference(images, seeds, policy):
    got = augment_batch(images, seeds, policy)
    want = augment_batch_reference(images, seeds, policy)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("side", [1, 2, 3, 17, 64])
@pytest.mark.parametrize("policy", list(REFERENCE_POLICIES.values()), ids=list(REFERENCE_POLICIES))
def test_augment_batch_matches_reference(policy, side):
    rng = np.random.default_rng(side)
    for channels in (1, 3):
        for dtype in (np.float32, np.float64):
            for n in (1, 16):
                images = _random_batch(rng, n, side, channels, dtype)
                seeds = [int(s) for s in rng.integers(0, 2**32, n)]
                _assert_matches_reference(images, seeds, policy)


@settings(max_examples=50, deadline=None)
@given(
    side=st.integers(1, 40),
    channels=st.sampled_from([1, 3]),
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.integers(1, 9),
    flip_p=st.floats(0.0, 1.0),
    max_rotation_deg=st.floats(0.0, 180.0),
    max_shift_frac=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_augment_batch_matches_reference_property(
    side, channels, dtype, n, flip_p, max_rotation_deg, max_shift_frac, seed
):
    rng = np.random.default_rng(seed)
    images = _random_batch(rng, n, side, channels, dtype)
    seeds = [np.random.SeedSequence((seed, i)) for i in range(n)]
    _assert_matches_reference(
        images, seeds, AugmentPolicy(flip_p, max_rotation_deg, max_shift_frac)
    )


def test_augment_advances_a_generator_by_four_doubles():
    img = random_texture(5, side=16)
    for policy in (AugmentPolicy(), IDENTITY_POLICY):
        g, twin = np.random.default_rng(12), np.random.default_rng(12)
        augment(img, g, policy)
        twin.random(4)
        assert g.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize(
    "field, value",
    [
        ("flip_p", -0.1),
        ("flip_p", 1.5),
        ("flip_p", float("nan")),
        ("max_rotation_deg", float("nan")),
        ("max_rotation_deg", float("inf")),
        ("max_rotation_deg", -1.0),
        ("max_shift_frac", float("nan")),
        ("max_shift_frac", float("inf")),
        ("max_shift_frac", -0.1),
    ],
)
def test_augment_policy_names_the_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        AugmentPolicy(**{field: value})


@settings(max_examples=200, deadline=None)
@given(
    lead=st.sampled_from([(), (2,), (3, 2)]),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    before=st.integers(0, 30),
    after=st.integers(0, 30),
)
def test_reflect_pad_matches_np_pad(lead, h, w, before, after):
    inner = np.random.default_rng(h * 13 + w).uniform(size=lead + (h, w))
    buf = np.full(lead + (h + before + after, w + before + after), np.nan)
    buf[..., before : before + h, before : before + w] = inner
    pad = [(0, 0)] * len(lead) + [(before, after)] * 2
    assert np.array_equal(imaging._reflect_pad(buf, before, after), np.pad(inner, pad, mode="reflect"))


def test_reflect_pad_after_reaching_the_last_interior_row():
    # before == 0, after == side - 1: the mirrored rows end at index 0.
    inner = np.arange(12.0).reshape(3, 4)[:, :3]
    buf = np.zeros((5, 5))
    buf[:3, :3] = inner
    assert np.array_equal(imaging._reflect_pad(buf, 0, 2), np.pad(inner, (0, 2), mode="reflect"))


def test_augment_returns_a_contiguous_image():
    # augment_batch returns a view of channel planes; augment copies its
    # one image out into an ordinary (H, W, C) raster.
    img = random_texture(0, side=16)
    assert augment(img, 0).pixels.flags.c_contiguous


def test_augment_batch_rejects_seed_count_mismatch():
    imgs = [random_texture(s, side=8) for s in range(3)]
    for seeds in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(ValueError, match="3 images but"):
            augment_batch(imgs, seeds)
    with pytest.raises(ValueError):
        augment_batch([], [0])


def test_augment_batch_rejects_mixed_channel_counts():
    imgs = [random_texture(0, side=8, channels=3), random_texture(1, side=8, channels=1)]
    with pytest.raises(ValueError):
        augment_batch(imgs, [0, 1])


# --- degradations ---


def test_brightness_clamps():
    img = random_texture(6, side=16)
    up = adjust_brightness(img, 1.4)
    assert up.pixels.max() <= 1.0
    down = adjust_brightness(img, 0.6)
    assert np.allclose(down.pixels, img.pixels * 0.6)


def test_noise_seeded():
    img = gray(16, 16, 0.5)
    a = add_gaussian_noise(img, 0.1, 5)
    b = add_gaussian_noise(img, 0.1, 5)
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, img.pixels)


def reference_noise_pixels(img, sigma, seed):
    """The former noise formula, in float64 whatever the input dtype; kept
    as the bit reference."""
    rng = np.random.default_rng(seed)
    return np.clip(img.pixels + rng.normal(0.0, sigma, size=img.pixels.shape), 0.0, 1.0)


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
@pytest.mark.parametrize("channels", [1, 3])
def test_noise_is_float64_formula_stored_in_input_dtype(seed, channels):
    px = random_texture(seed % 97, side=24, channels=channels).pixels
    img64, img32 = Image(px), Image(px.astype(np.float32))
    # float64: the former bits exactly
    got64 = add_gaussian_noise(img64, 0.1, seed).pixels
    assert got64.dtype == np.float64
    assert got64.tobytes() == reference_noise_pixels(img64, 0.1, seed).tobytes()
    # float32: the former float64 result, rounded once
    got32 = add_gaussian_noise(img32, 0.1, seed).pixels
    want32 = reference_noise_pixels(img32, 0.1, seed).astype(np.float32)
    assert got32.dtype == np.float32
    assert got32.tobytes() == want32.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_degradation_returns_its_input_dtype(dtype):
    img = Image(random_texture(7, side=20).pixels.astype(dtype))
    kinds = sorted({kind for combo in DEGRADATION_COMBOS for kind in combo})
    assert kinds == ["blur2", "blur4", "bright_down", "bright_up", "noise"]
    outs = [degrade(img, kind, np.random.SeedSequence(i)) for i, kind in enumerate(kinds)]
    outs += [
        gaussian_blur(img, 1.5),
        adjust_brightness(img, 0.8),
        center_crop_resize(img, 20),
        center_crop_resize(img, 13),
        center_crop_resize(img, 31),
    ]
    assert [out.pixels.dtype for out in outs] == [np.dtype(dtype)] * len(outs)


# --- PPM / PGM I/O ---


def test_ppm_roundtrip_rgb():
    img = random_texture(8, side=9)
    # quantize first so the roundtrip is exact
    q = Image(np.rint(img.pixels * 255) / np.float32(255.0))
    buf = io.BytesIO()
    write_ppm(q, buf)
    buf.seek(0)
    back = read_ppm(buf)
    assert np.allclose(back.pixels, q.pixels, atol=1e-7)


def test_pgm_roundtrip_gray():
    img = gray(5, 7, 0.25)
    buf = io.BytesIO()
    write_ppm(img, buf)
    buf.seek(0)
    back = read_ppm(buf)
    assert back.channels == 1
    assert np.allclose(back.pixels, img.pixels, atol=1 / 255)


def test_ppm_header_comments():
    buf = io.BytesIO(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = read_ppm(buf)
    assert img.width == 2 and img.height == 2
    assert img.pixels[0, 1, 0] == pytest.approx(128 / 255, abs=1e-6)


def test_truncated_raster_rejected():
    buf = io.BytesIO(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(ValueError):
        read_ppm(buf)


def test_luminance_weights():
    px = np.zeros((1, 1, 3))
    px[0, 0] = [1.0, 0.0, 0.0]
    assert to_luminance(Image(px))[0, 0] == pytest.approx(0.299)
