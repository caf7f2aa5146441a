"""Image quality gating, geometry, augmentation, and raster I/O.

Images are float rasters in [0, 1], shape (height, width, channels) with
1 or 3 channels.  Every operation that returns an image returns one of
its input's dtype, so a float32 corpus stays float32 through
degradation, resizing and augmentation.  The sharpness gate is the
variance of a Laplacian-of-Gaussian response; blurrier images score
lower.  Augmentation flips, rotates and shifts each image by four
doubles drawn from its own seed and fills out-of-frame pixels by
reflection; the gate and augmentation reflect-pad through one in-place
helper.  The module keeps no state between calls, so concurrent calls
on different inputs do not interact; a ``Generator`` passed as a seed
is advanced by exactly four doubles per image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]

# Rec. 601 luminance weights for the 3->1 channel conversion.
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


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
        # min and max propagate nan, and +-inf is one of them if present.
        lo, hi = px.min(), px.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("non-finite pixel values")
        if lo < 0.0 or hi > 1.0:
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

    def __post_init__(self) -> None:
        # Each check names its field; a comparison with nan is false.
        if not 0 <= self.flip_p <= 1:
            raise ValueError(f"flip_p must be in [0, 1], got {self.flip_p!r}")
        for name in ("max_rotation_deg", "max_shift_frac"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")


IDENTITY_POLICY = AugmentPolicy(flip_p=0.0, max_rotation_deg=0.0, max_shift_frac=0.0)


def to_luminance(img: Image) -> np.ndarray:
    """(H, W) luminance plane: 0.299 R + 0.587 G + 0.114 B for RGB input."""
    if img.channels == 1:
        return img.pixels[:, :, 0]
    return img.pixels @ LUMA_WEIGHTS


SIGMA_RULE = "must be positive and finite, with 2*sigma**2 > 0"


def sigma_ok(sigma: float) -> bool:
    """Whether :func:`gaussian_kernel_1d` takes ``sigma``: positive, finite
    and not so small that ``2.0 * sigma**2`` underflows to 0, which would
    make the kernel nan."""
    return 0 < sigma < np.inf and 2.0 * sigma**2 > 0


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Sampled Gaussian, radius ceil(3*sigma), normalized to sum 1."""
    if not sigma_ok(sigma):
        raise ValueError(f"sigma {SIGMA_RULE}")
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(xs**2) / (2.0 * sigma**2))
    return k / k.sum()


def _reflect_pad(buf: np.ndarray, before: int, after: int) -> np.ndarray:
    """Fill in place, and return, the reflected border of the last two axes of
    ``buf``: ``before`` cells ahead of and ``after`` cells behind an interior that is
    already written, the values ``np.pad(interior, (before, after), mode="reflect")``
    gives on those axes.  The columns of the interior rows come first, then whole
    rows.  A pad that reaches a side reflects more than once and goes through
    ``np.pad``."""
    h = buf.shape[-2] - before - after
    w = buf.shape[-1] - before - after
    if max(before, after) >= min(h, w):
        inner = buf[..., before : before + h, before : before + w]
        pad = [(0, 0)] * (buf.ndim - 2) + [(before, after)] * 2
        buf[...] = np.pad(inner, pad, mode="reflect")
        return buf
    # Each pass reflects axis -2 of ``a``; the mirrored cells are sliced
    # forward and then reversed, as ``[n - 2 : n - 2 - after : -1]`` would
    # end at -1, and come out empty, for before == 0 and after == side - 1.
    for a in (buf[..., before : before + h, :].swapaxes(-1, -2), buf):
        n = a.shape[-2] - after
        a[..., :before, :] = a[..., before + 1 : 2 * before + 1, :][..., ::-1, :]
        a[..., n:, :] = a[..., n - after - 1 : n - 1, :][..., ::-1, :]
    return buf


def gaussian_blur_plane(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflected borders, as a strided view.  Vertical tap i
    reads the plane reflect-padded by r, flat, at offset i*(w+2r); horizontal tap i reads
    that pass's flat (h, w+2r) result at offset i.  Each element adds its taps from zero,
    in order, each product made in ``np.result_type(kernel, plane)``."""
    k = gaussian_kernel_1d(sigma)
    r = len(k) // 2
    h, w = plane.shape
    wp = w + 2 * r
    out = np.empty((h + 2 * r, wp), dtype=plane.dtype)
    out[r : r + h, r : r + w] = plane
    out = _reflect_pad(out, r, r).reshape(-1)
    tmp = np.empty(h * wp, dtype=np.result_type(k, plane))
    for step, n in ((wp, h * wp), (1, h * wp - 2 * r)):  # vertical, then horizontal
        src, out = out, np.zeros(h * wp, dtype=plane.dtype)
        for i, ki in enumerate(k):
            np.multiply(ki, src[i * step : i * step + n], out=tmp[:n])
            out[:n] += tmp[:n]
    return out.reshape(h, wp)[:, :w]


def laplacian_plane(plane: np.ndarray) -> np.ndarray:
    """3x3 Laplacian stencil with reflected borders: on the plane reflect-padded by
    one, flat offsets -(w+2), +(w+2), -1 and +1 summed in that order, less 4 * centre.
    The result is C-ordered: ``np.var`` sums a strided view in another order."""
    h, w = plane.shape
    n, wp = h * (w + 2), w + 2
    flat = np.empty((h + 2, wp), dtype=plane.dtype)
    flat[1:-1, 1:-1] = plane
    flat = _reflect_pad(flat, 1, 1).reshape(-1)
    centre = flat[wp : wp + n]  # rows 1..h, padding columns included
    out = flat[:n] + flat[2 * wp :]
    out += flat[wp - 1 : wp - 1 + n]
    out += flat[wp + 1 : wp + 1 + n]
    out -= np.multiply(centre, 4.0, out=centre)  # the padded copy is ours
    return np.ascontiguousarray(out.reshape(h, wp)[:, 1 : w + 1])


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
    """Add zero-mean Gaussian noise of std ``sigma`` and clamp to [0, 1].

    The sum and the clamp run in float64 and the result is stored in the
    input's dtype: a float32 image comes back float32, the float64 result
    rounded once.
    """
    rng = _as_generator(rng_seed)
    noisy = img.pixels + rng.normal(0.0, sigma, size=img.pixels.shape)
    return Image(np.clip(noisy, 0.0, 1.0).astype(img.pixels.dtype, copy=False))


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
    return out.astype(square.dtype, copy=False)


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def augment_batch(
    images: Sequence[Image],
    rng_seeds: Sequence[SeedLike],
    policy: AugmentPolicy = AugmentPolicy(),
) -> np.ndarray:
    """Vectorized augmentation over same-sized square images.

    Returns an (N, H, W, C) array (dtype follows the inputs) identical
    to calling :func:`augment` per image with the matching seed; the
    loop over images is fused so training batches stay cheap.  Each
    seed gives four doubles: the flip, the angle and the two shifts.
    The images are copied into channel planes of (N, S, S) and
    reflect-padded once for the whole batch, so the four corners of a
    bilinear sample are one flat index ``base`` into four offset views
    of its plane: ``plane``, ``plane[1:]``, ``plane[S:]`` and
    ``plane[S + 1:]``.  The array is a view of a channel-planar
    (C, N, H, W) buffer.
    """
    if len(rng_seeds) != len(images):
        raise ValueError(f"{len(images)} images but {len(rng_seeds)} augmentation seeds")
    if not images:
        return np.zeros((0, 0, 0, 0), dtype=np.float32)
    side, ch = images[0].width, images[0].channels
    for img in images:
        if img.height != side or img.width != side:
            raise ValueError("augment_batch expects uniform square images")
        if img.channels != ch:
            raise ValueError("augment_batch expects one channel count")
    n = len(images)
    dtype = np.result_type(*{img.pixels.dtype for img in images})

    u = np.empty((4, n))
    for i, seed in enumerate(rng_seeds):
        u[:, i] = _as_generator(seed).random(4)
    # ``Generator.uniform(low, high)`` is low + (high - low) * random().
    flips = u[0] < policy.flip_p
    rot, shift = policy.max_rotation_deg, policy.max_shift_frac * side
    angles = np.deg2rad(-rot + (rot - -rot) * u[1])
    dys, dxs = -shift + (shift - -shift) * u[2:]
    noop = ~flips & (angles == 0.0) & (dys == 0.0) & (dxs == 0.0)

    # Output pixel (y, x) pulls from flip -> rotate -> shift applied to
    # the input; sample at the inverse map about the image center.  Each
    # source coordinate is the sum of a row term and a column term, both
    # (N, side) products.
    c = (side - 1) / 2.0
    grid = np.arange(side, dtype=float) - c
    yr = grid - dys[:, None]
    xr = grid - dxs[:, None]
    cos_a = np.cos(angles)[:, None]
    sin_a = np.sin(angles)[:, None]
    src = np.empty((2, n, side, side))
    np.add((cos_a * yr)[:, :, None], (sin_a * xr)[:, None, :], out=src[0])
    np.add((-sin_a * yr)[:, :, None], (cos_a * xr)[:, None, :], out=src[1])
    src += c
    np.subtract(side - 1, src[1], out=src[1], where=flips[:, None, None])
    lo = np.floor(src)
    fy, fx = np.subtract(src, lo, out=np.empty(src.shape, dtype), casting="same_kind").reshape(2, -1)

    # Reflect-pad the batch once, wide enough for every sample.  Each
    # coordinate is a rounded sum of a row term and a column term, each
    # monotonic along its axis, so its extremes lie at the grid's corners.
    corners = lo[:, :, :: side - 1 or 1, :: side - 1 or 1]
    before = max(0, -int(corners.min()))
    after = max(0, int(corners.max()) + 2 - side)
    s = side + before + after
    planes = np.empty((ch, n, s, s), dtype=dtype)
    inner = planes[:, :, before : before + side, before : before + side]
    for i, img in enumerate(images):
        inner[:, i] = img.pixels.transpose(2, 0, 1)
    planes = _reflect_pad(planes, before, after).reshape(ch, -1)
    y0, x0 = lo
    y0 *= s
    y0 += x0
    y0 += (np.arange(n) * (s * s) + before * (s + 1))[:, None, None]
    base = y0.astype(np.intp).reshape(-1)

    # The corners are ``base`` of four offset views of each plane; every
    # index is in range, so mode="clip" changes nothing but lets take
    # write straight into its output.
    out = np.empty((ch, base.size), dtype=dtype)
    g00, g01, g10 = (np.empty(base.size, dtype=dtype) for _ in range(3))
    for plane, g11 in zip(planes, out):
        plane.take(base, out=g00, mode="clip")
        plane[1:].take(base, out=g01, mode="clip")
        plane[s:].take(base, out=g10, mode="clip")
        plane[s + 1 :].take(base, out=g11, mode="clip")
        g01 -= g00
        g01 *= fx
        g01 += g00  # top row blend
        g11 -= g10
        g11 *= fx
        g11 += g10  # bottom row blend
        g11 -= g01
        g11 *= fy
        g11 += g01
    np.clip(out, 0.0, 1.0, out=out)
    out = out.reshape(ch, n, side, side).transpose(1, 2, 3, 0)
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
    return Image(np.ascontiguousarray(augment_batch([img], [rng_seed], policy)[0]))


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
