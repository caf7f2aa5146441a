"""Image quality gating, geometry, augmentation, and raster I/O.

Images are float rasters in [0, 1], shape (height, width, channels) with
1 or 3 channels.  The sharpness gate is the variance of a
Laplacian-of-Gaussian response; blurrier images score lower.  All
operations here are pure functions over value data and safe to run in
parallel across images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Sequence, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]

# Rec. 601 luminance weights for the 3->1 channel conversion.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

# 3x3 Laplacian stencil applied after the Gaussian blur.
LAPLACIAN_3X3 = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


@dataclass(frozen=True)
class Image:
    """Float raster in [0, 1]; ``pixels`` has shape (height, width, channels)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = self.pixels
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ValueError(f"expected (H, W, 1|3) array, got shape {px.shape}")
        if px.shape[0] == 0 or px.shape[1] == 0:
            raise ValueError("empty image")
        if not np.all(np.isfinite(px)):
            raise ValueError("non-finite pixel values")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class QualityScore:
    log_variance: float
    blur_threshold: float

    @property
    def passed(self) -> bool:
        return self.log_variance >= self.blur_threshold


@dataclass(frozen=True)
class AugmentPolicy:
    """Training-time augmentation: flip, then rotate, then shift.

    Rotation and shift magnitudes are mild, texture-preserving defaults;
    out-of-frame pixels are filled by reflection.
    """

    flip_p: float = 0.5
    max_rotation_deg: float = 15.0
    max_shift_frac: float = 0.10


IDENTITY_POLICY = AugmentPolicy(flip_p=0.0, max_rotation_deg=0.0, max_shift_frac=0.0)


def to_luminance(img: Image) -> np.ndarray:
    """(H, W) luminance plane: 0.299 R + 0.587 G + 0.114 B for RGB input."""
    if img.channels == 1:
        return img.pixels[:, :, 0]
    return img.pixels @ LUMA_WEIGHTS


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Sampled Gaussian, radius ceil(3*sigma), normalized to sum 1."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


def _convolve_reflect_1d(plane: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
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


def gaussian_blur_plane(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflected borders."""
    k = gaussian_kernel_1d(sigma)
    return _convolve_reflect_1d(_convolve_reflect_1d(plane, k, 0), k, 1)


def laplacian_plane(plane: np.ndarray) -> np.ndarray:
    """3x3 Laplacian stencil with reflected borders."""
    padded = np.pad(plane, 1, mode="reflect")
    return (
        padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
        - 4.0 * padded[1:-1, 1:-1]
    )


def log_response(img: Image, sigma: float = 1.0) -> np.ndarray:
    """LoG response plane: Gaussian blur (std sigma) then the 3x3 Laplacian.

    Computed in float64 regardless of the raster's storage dtype.
    """
    plane = to_luminance(img).astype(np.float64, copy=False)
    return laplacian_plane(gaussian_blur_plane(plane, sigma))


def log_sharpness(img: Image, sigma: float = 1.0, blur_threshold: float = 0.0) -> QualityScore:
    """Sharpness score: variance of the LoG response.

    A constant image scores exactly 0.  The score is invariant to adding
    a constant to all pixels and scales quadratically with pixel scale.
    """
    variance = float(np.var(log_response(img, sigma)))
    return QualityScore(log_variance=variance, blur_threshold=blur_threshold)


def gaussian_blur(img: Image, sigma: float) -> Image:
    """Per-channel Gaussian blur (defocus degradation)."""
    out = np.stack(
        [gaussian_blur_plane(img.pixels[:, :, c], sigma) for c in range(img.channels)],
        axis=2,
    )
    return Image(np.clip(out, 0.0, 1.0))


def adjust_brightness(img: Image, factor: float) -> Image:
    """Scale all pixels by ``factor`` and clamp to [0, 1]."""
    return Image(np.clip(img.pixels * factor, 0.0, 1.0))


def add_gaussian_noise(img: Image, sigma: float, rng_seed: SeedLike) -> Image:
    rng = _as_generator(rng_seed)
    noisy = img.pixels + rng.normal(0.0, sigma, size=img.pixels.shape)
    return Image(np.clip(noisy, 0.0, 1.0))


def center_crop_resize(img: Image, side: int) -> Image:
    """Crop the largest centered square, then bilinearly resample to side x side.

    Sampling uses half-pixel centers (src = (dst + 0.5) * scale - 0.5)
    with edge clamping, so resampling at the native side is the identity.
    """
    if side <= 0:
        raise ValueError("side must be positive")
    s = min(img.height, img.width)
    top = (img.height - s) // 2
    left = (img.width - s) // 2
    square = img.pixels[top : top + s, left : left + s, :]
    if s == side:
        return Image(square.copy())
    out = _bilinear_resize(square, side)
    return Image(np.clip(out, 0.0, 1.0))


def _bilinear_resize(square: np.ndarray, side: int) -> np.ndarray:
    s = square.shape[0]
    scale = s / side
    coords = (np.arange(side) + 0.5) * scale - 0.5
    lo = np.floor(coords).astype(int)
    frac = coords - lo
    i0 = np.clip(lo, 0, s - 1)
    i1 = np.clip(lo + 1, 0, s - 1)

    rows = square[i0, :, :] * (1.0 - frac)[:, None, None] + square[i1, :, :] * frac[:, None, None]
    out = (
        rows[:, i0, :] * (1.0 - frac)[None, :, None]
        + rows[:, i1, :] * frac[None, :, None]
    )
    return out


def _reflect_indices(idx: np.ndarray, n: int) -> np.ndarray:
    # Mirror without repeating the edge sample (period 2n - 2):
    # reflect(i) = min(i mod p, p - i mod p).
    if n == 1:
        return np.zeros_like(idx)
    period = 2 * (n - 1)
    np.mod(idx, period, out=idx)
    np.minimum(idx, period - idx, out=idx)
    return idx


def _warp_bilinear_reflect(
    flat: np.ndarray, n: int, side: int, ch: int, ysrc: np.ndarray, xsrc: np.ndarray
) -> np.ndarray:
    """Gather (n, side, side, ch) output from per-image source coordinates.

    ``flat`` is the stacked source, shape (n*side*side, ch); blending is
    fused in-place to keep temporary traffic low.
    """
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
    g01 += g00  # top row blend
    g11 -= g10
    g11 *= fx
    g11 += g10  # bottom row blend
    g11 -= g01
    g11 *= fy
    g11 += g01
    return g11.reshape(n, side, side, ch)


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


_GRID_CACHE: dict = {}


def _pixel_grid(side: int):
    grid = _GRID_CACHE.get(side)
    if grid is None:
        grid = np.meshgrid(
            np.arange(side, dtype=float), np.arange(side, dtype=float), indexing="ij"
        )
        _GRID_CACHE[side] = grid
    return grid


def _draw_augment_params(
    rng_seeds: Sequence[SeedLike], policy: AugmentPolicy, side: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n = len(rng_seeds)
    flips = np.zeros(n, dtype=bool)
    angles = np.zeros(n)
    dys = np.zeros(n)
    dxs = np.zeros(n)
    shift_px = policy.max_shift_frac * side
    for i, seed in enumerate(rng_seeds):
        rng = _as_generator(seed)
        flips[i] = rng.random() < policy.flip_p
        angles[i] = np.deg2rad(rng.uniform(-policy.max_rotation_deg, policy.max_rotation_deg))
        dys[i] = rng.uniform(-shift_px, shift_px)
        dxs[i] = rng.uniform(-shift_px, shift_px)
    return flips, angles, dys, dxs


def augment_batch(
    images: Sequence[Image],
    rng_seeds: Sequence[SeedLike],
    policy: AugmentPolicy = AugmentPolicy(),
) -> np.ndarray:
    """Vectorized augmentation over same-sized square images.

    Returns an (N, H, W, C) stack (dtype follows the inputs) identical
    to calling :func:`augment` per image with the matching seed; the
    loop over images is fused so training batches stay cheap.
    """
    if not images:
        return np.zeros((0, 0, 0, 0), dtype=np.float32)
    side = images[0].width
    ch = images[0].channels
    for img in images:
        if img.height != side or img.width != side:
            raise ValueError("augment_batch expects uniform square images")

    n = len(images)
    flips, angles, dys, dxs = _draw_augment_params(rng_seeds, policy, side)
    noop = ~flips & (angles == 0.0) & (dys == 0.0) & (dxs == 0.0)

    # Output pixel (y, x) pulls from flip -> rotate -> shift applied to
    # the input; sample at the inverse map about the image center.
    c = (side - 1) / 2.0
    ys, xs = _pixel_grid(side)
    yr = ys[None, :, :] - c - dys[:, None, None]
    xr = xs[None, :, :] - c - dxs[:, None, None]
    cos_a = np.cos(angles)[:, None, None]
    sin_a = np.sin(angles)[:, None, None]
    ysrc = cos_a * yr + sin_a * xr + c
    xsrc = -sin_a * yr + cos_a * xr + c
    xsrc[flips] = (side - 1) - xsrc[flips]

    stacked = np.stack([img.pixels for img in images])
    out = _warp_bilinear_reflect(
        stacked.reshape(n * side * side, ch), n, side, ch, ysrc, xsrc
    )
    np.clip(out, 0.0, 1.0, out=out)
    for i in np.nonzero(noop)[0]:
        out[i] = images[i].pixels
    return out


def augment(img: Image, rng_seed: SeedLike, policy: AugmentPolicy = AugmentPolicy()) -> Image:
    """Seeded augmentation: horizontal flip (p), rotation, shift, in that order.

    Square input only.  The same seed always reproduces the same output
    bit for bit.  With the identity policy the image passes through
    unchanged; out-of-frame pixels are filled by reflection.
    """
    if img.height != img.width:
        raise ValueError("augment expects a square image")
    return Image(augment_batch([img], [rng_seed], policy)[0])


# --- PPM (P6) / PGM (P5) --------------------------------------------------


def write_ppm(img: Image, fp: BinaryIO) -> None:
    """8-bit binary PPM (RGB) or PGM (gray) depending on channel count."""
    data = np.clip(np.rint(img.pixels * 255.0), 0, 255).astype(np.uint8)
    if img.channels == 3:
        fp.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        fp.write(data.tobytes())
    else:
        fp.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fp.write(data[:, :, 0].tobytes())


def read_ppm(fp: BinaryIO) -> Image:
    magic = _read_token(fp)
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"unsupported raster magic {magic!r}")
    width = int(_read_token(fp))
    height = int(_read_token(fp))
    maxval = int(_read_token(fp))
    if maxval != 255:
        raise ValueError(f"only 8-bit rasters supported, maxval={maxval}")
    channels = 3 if magic == b"P6" else 1
    count = width * height * channels
    raw = fp.read(count)
    if len(raw) != count:
        raise ValueError("truncated raster data")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, channels)
    return Image(arr.astype(np.float32) / np.float32(255.0))


def _read_token(fp: BinaryIO) -> bytes:
    # Skip whitespace and '#' comment lines between header tokens.
    token = b""
    while True:
        ch = fp.read(1)
        if ch == b"":
            raise ValueError("unexpected end of header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fp.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def load_image(path) -> Image:
    with open(path, "rb") as fp:
        return read_ppm(fp)


def save_image(img: Image, path) -> None:
    with open(path, "wb") as fp:
        write_ppm(img, fp)
