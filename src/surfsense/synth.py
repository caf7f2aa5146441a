"""Procedural surface-texture generator for desk-scale experiments.

Stands in for a real microscopic-image corpus: each material class gets
a distinctive texture family (weave gratings for fabrics, ridge noise
for wood grain, cellular speckle for fiberboard, vein fields for marble,
anisotropic streaks for steel, gradients plus specks for ceramic, fiber
noise for plush, creased patches for leather), and per-person hue/phase
jitter simulates distinct households.  Materials shared by two objects
carry an object-conditioned tint signature so both labels stay
learnable.

Corpora are bit-reproducible from (spec, seed) alone; pixels are
quantized to 8-bit levels at generation time so PPM round-trips are
lossless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .corpus import Corpus, SampleRecord
from .imaging import Image
from .semantics import DEFAULT_MAPPING, LabelTaxonomy, MappingTable


@dataclass(frozen=True)
class MaterialStyle:
    """Generator parameters for one material class."""

    kind: str
    base_color: Tuple[float, float, float]
    thread_count: float = 0.0  # fabrics: threads per inch
    grain_wavelength: float = 0.18  # wood: stripe period as a fraction of the side
    vein_density: float = 0.55  # marble
    noise_amplitude: float = 0.12


DEFAULT_STYLES: Dict[str, MaterialStyle] = {
    "plush": MaterialStyle("plush", (0.85, 0.55, 0.35), noise_amplitude=0.30),
    "fabric_hi": MaterialStyle("weave", (0.42, 0.50, 0.78), thread_count=150.0, noise_amplitude=0.10),
    "fabric_lo": MaterialStyle("weave", (0.72, 0.38, 0.36), thread_count=60.0, noise_amplitude=0.10),
    "leather": MaterialStyle("leather", (0.50, 0.26, 0.32), noise_amplitude=0.10),
    "fiberboard": MaterialStyle("speckle", (0.74, 0.70, 0.54), noise_amplitude=0.22),
    "wood": MaterialStyle("grain", (0.62, 0.42, 0.16), grain_wavelength=0.16, noise_amplitude=0.14),
    "ceramic": MaterialStyle("ceramic", (0.86, 0.91, 0.94), noise_amplitude=0.05),
    "steel": MaterialStyle("streaks", (0.56, 0.62, 0.70), noise_amplitude=0.16),
    "marble": MaterialStyle("marble", (0.92, 0.88, 0.78), vein_density=0.55, noise_amplitude=0.06),
    # Deployment-time novelties used by the continual-learning benchmarks.
    "skin": MaterialStyle("skin", (0.88, 0.66, 0.58), noise_amplitude=0.08),
    "paper": MaterialStyle("paper", (0.95, 0.94, 0.92), noise_amplitude=0.05),
}

# Tint signature distinguishing objects that share a material: cabinet
# surfaces read darker and cooler than desk surfaces.  A per-channel
# ratio survives uniform brightness changes, unlike a plain darkening.
OBJECT_TINT: Dict[str, Tuple[float, float, float]] = {
    "cabinet": (0.60, 0.74, 0.95),
}


# Side of the imaged patch: the image covers ~3 mm^2.
PHYSICAL_SIDE_MM = 1.73


def object_tint(slug: str) -> np.ndarray:
    return np.asarray(OBJECT_TINT.get(slug, (1.0, 1.0, 1.0)))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a reproducible synthetic corpus.

    ``images_per_class`` counts images per material class in total,
    spread round-robin over the persons possessing that class.
    ``absences`` lists (person_id, material_slug) cells to leave empty,
    mirroring households that simply lack a material.  Every image
    covers ``PHYSICAL_SIDE_MM`` per side and renders its material with
    the ``DEFAULT_STYLES`` entry of its slug.
    """

    rng_seed: int
    images_per_class: int
    side: int = 64
    persons: int = 12
    materials: Optional[Tuple[str, ...]] = None
    absences: FrozenSet[Tuple[int, str]] = frozenset()
    taxonomy: LabelTaxonomy = DEFAULT_MAPPING.taxonomy
    mapping: MappingTable = DEFAULT_MAPPING


_SAMPLES: Dict[Tuple[int, int], Tuple[np.ndarray, ...]] = {}  # (side, cells) -> _samples(...)


def _samples(side: int, cells: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice index, cosine weight and 1 - weight of ``side`` samples over ``cells`` cells,
    cached read-only: a few kB an entry, 12-14 for a 64- or 224-px corpus, 128 at most."""
    if (side, cells) not in _SAMPLES:
        pos = np.linspace(0.0, cells, side, endpoint=False)
        i = np.floor(pos).astype(int)
        f = 0.5 - 0.5 * np.cos(np.pi * (pos - i))
        out = (i, f, 1 - f)
        for a in out:
            a.flags.writeable = False  # cached: no caller may change a later call's grid
        if len(_SAMPLES) >= 128:  # drop the oldest
            del _SAMPLES[next(iter(_SAMPLES))]
        _SAMPLES[(side, cells)] = out
    return _SAMPLES[(side, cells)]


def value_noise(side: int, cells_y: int, cells_x: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth value noise in [0, 1]: random lattice, cosine interpolation.

    Each lattice row is interpolated along x once; each output row then
    blends its two interpolated lattice rows along y.  The sample grids of
    a (side, cells) pair are computed once and cached read-only."""
    grid = rng.random((cells_y + 1, cells_x + 1))
    iy, fy, gy = _samples(side, cells_y)
    ix, fx, gx = _samples(side, cells_x)
    rows = grid[:, ix] * gx + grid[:, ix + 1] * fx
    return rows[iy] * gy[:, None] + rows[iy + 1] * fy[:, None]


def fbm_noise(side: int, base_cells: int, octaves: int, rng: np.random.Generator) -> np.ndarray:
    """Octave-summed value noise, normalized to [0, 1]."""
    out = np.zeros((side, side))
    amp, total = 1.0, 0.0
    cells = base_cells
    for _ in range(octaves):
        out += amp * value_noise(side, cells, cells, rng)
        total += amp
        amp *= 0.5
        cells = min(cells * 2, side)
    return out / total


def _texture_field(style: MaterialStyle, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Scalar luminance modulation field in roughly [-1, 1]."""
    side = spec.side
    xs = np.arange(side, dtype=float) / side  # positions in [0, 1); broadcast as a grid
    ys = xs[:, None]
    kind = style.kind

    if kind == "weave":
        # Crossed sinusoidal grating; period set by the thread count and
        # the physical size the raster represents.
        cycles = style.thread_count * PHYSICAL_SIDE_MM / 25.4
        px, py = rng.uniform(0, 2 * np.pi, size=2)
        warp = 0.6 * value_noise(side, 4, 4, rng)
        gx = np.sin(2 * np.pi * cycles * xs + px + warp)
        gy = np.sin(2 * np.pi * cycles * ys + py + warp)
        return 0.75 * gx * gy + 0.25 * (2 * value_noise(side, 8, 8, rng) - 1)

    if kind == "grain":
        # Band-limited ridges: stripes warped by low-frequency noise.
        k = 1.0 / style.grain_wavelength
        phase = rng.uniform(0, 2 * np.pi)
        warp = 2.2 * fbm_noise(side, 3, 3, rng)
        g = np.sin(2 * np.pi * k * xs + 2 * np.pi * warp + phase)
        ridges = 2.0 * np.abs(g) - 1.0
        return 0.8 * ridges + 0.2 * (2 * value_noise(side, 16, 16, rng) - 1)

    if kind == "speckle":
        # Cellular chips: thresholded mid-frequency noise.
        n = value_noise(side, 12, 12, rng)
        chips = np.where(n > 0.62, -1.0, np.where(n < 0.30, 0.6, 0.1))
        return chips + 0.35 * (2 * value_noise(side, 24, 24, rng) - 1)

    if kind == "marble":
        turb = fbm_noise(side, 3, 4, rng)
        phase = rng.uniform(0, 2 * np.pi)
        m = np.abs(np.sin(2 * np.pi * (1.2 * xs + 1.8 * turb) + phase))
        veins = -(1.0 - m) ** 6 * (4.0 * style.vein_density)
        return veins + 0.2 * (2 * value_noise(side, 6, 6, rng) - 1)

    if kind == "streaks":
        # Brushed-metal anisotropy: fine variation across rows, smooth
        # along each row.
        streak = value_noise(side, side // 2, 3, rng)
        return 1.6 * (streak - 0.5) + 0.2 * (2 * value_noise(side, 8, 8, rng) - 1)

    if kind == "ceramic":
        grad = value_noise(side, 2, 2, rng)
        specks = (value_noise(side, side // 2, side // 2, rng) > 0.985).astype(float)
        return 1.2 * (grad - 0.5) - 0.9 * specks

    if kind == "plush":
        # Dense fiber noise, slightly elongated.
        fibers = value_noise(side, side // 2, side // 4, rng)
        return 2.0 * (fibers - 0.5)

    if kind == "leather":
        n = fbm_noise(side, 5, 3, rng)
        creases = np.exp(-(((n - 0.5) / 0.035) ** 2))
        return 0.4 * (2 * n - 1) - 1.8 * creases

    if kind == "skin":
        base = value_noise(side, 3, 3, rng)
        pores = (value_noise(side, side // 3, side // 3, rng) > 0.97).astype(float)
        return 0.8 * (base - 0.5) - 0.7 * pores

    if kind == "paper":
        fibers = value_noise(side, side, side // 2, rng)
        return 0.8 * (fibers - 0.5)

    raise ValueError(f"unknown texture kind {style.kind!r}")


def render_texture(
    style: MaterialStyle,
    spec: SynthSpec,
    rng: np.random.Generator,
    color_jitter: np.ndarray,
    brightness: float,
    tint: Optional[np.ndarray] = None,
) -> Image:
    field_ = _texture_field(style, spec, rng)
    lum = 1.0 + style.noise_amplitude * field_ * 2.0
    base = np.asarray(style.base_color) + color_jitter
    if tint is not None:
        base = base * tint
    px = base[None, None, :] * lum[:, :, None]
    px *= brightness
    np.clip(px, 0.0, 1.0, out=px)
    # Quantize through uint8 exactly as the PPM writer/reader pair does,
    # so in-memory corpora match their disk round-trip bit for bit.
    q = np.rint(np.multiply(px, 255.0, out=px), out=px).astype(np.uint8).astype(np.float32)
    return Image(np.divide(q, np.float32(255.0), out=q))


def _person_assignments(
    spec: SynthSpec, mat_slug: str
) -> List[int]:
    present = [
        p
        for p in range(1, spec.persons + 1)
        if (p, mat_slug) not in spec.absences
    ]
    if not present:
        return []
    return [present[j % len(present)] for j in range(spec.images_per_class)]


def _person_jitter(spec: SynthSpec, mi: int, person: int) -> Tuple[np.ndarray, float]:
    """Colour jitter and brightness shared by every image of one (material, person) cell."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed, 23, mi, person)))
    return rng.uniform(-0.035, 0.035, size=3), 1.0 + rng.uniform(-0.05, 0.05)


def synth_generate(spec: SynthSpec) -> Corpus:
    """Deterministic procedural corpus per the spec recipe.

    Object labels follow the mapping table: materials valid for a single
    object get that object; materials shared by two objects alternate
    between them per person round, with the object brightness signature
    applied.  Timestamps interleave materials and persons so contiguous
    time blocks cover every class.
    """
    tax = spec.taxonomy
    mapping = spec.mapping
    mat_slugs = list(spec.materials) if spec.materials is not None else tax.material_slugs()

    mat_objects: Dict[str, List[str]] = {}
    for m in mat_slugs:
        objs = sorted(o for (o, mm) in mapping.valid_pairs if mm == m)
        if not objs:
            raise ValueError(f"material {m!r} has no valid object in the mapping table")
        mat_objects[m] = objs

    pending: List[Tuple[int, int, int, SampleRecord]] = []  # (round j, mat order, person, record)
    for mi, m in enumerate(mat_slugs):
        style = DEFAULT_STYLES[m]
        persons = _person_assignments(spec, m)
        objs = mat_objects[m]
        jitters = {p: _person_jitter(spec, mi, p) for p in set(persons)}
        n_present = len(jitters)
        for j, person in enumerate(persons):
            obj_slug = objs[(j // max(n_present, 1)) % len(objs)]
            rng = np.random.default_rng(np.random.SeedSequence((spec.rng_seed, 11, mi, j)))
            img = render_texture(style, spec, rng, *jitters[person], tint=object_tint(obj_slug))
            rec = SampleRecord(
                person_id=person,
                object=tax.object_index(obj_slug),
                material=tax.material_index(m),
                image=img,
                t=0.0,  # assigned after interleaving
                path="",
            )
            pending.append((j, mi, person, rec))

    pending.sort(key=lambda item: (item[0], item[1], item[2]))
    records = [replace(rec, t=float(t)) for t, (_, _, _, rec) in enumerate(pending)]
    return Corpus(records, tax, mapping)


# --- extended taxonomy for deployment-time novel classes -------------------

NOVEL_OBJECTS = (("skin", "Skin"), ("white_paper", "White Paper"))
NOVEL_MATERIALS = (("skin", "Skin"), ("paper", "Paper"))
NOVEL_PAIRS = (("skin", "skin"), ("white_paper", "paper"))


def extended_mapping() -> MappingTable:
    """Base taxonomy grown with the novel deployment classes."""
    tax = DEFAULT_MAPPING.taxonomy.extended(NOVEL_OBJECTS, NOVEL_MATERIALS)
    return MappingTable(tax, DEFAULT_MAPPING.valid_pairs | frozenset(NOVEL_PAIRS))


def novel_spec(rng_seed: int, images_per_class: int, side: int = 64, persons: int = 4) -> SynthSpec:
    """Spec generating only the novel-class shard."""
    mapping = extended_mapping()
    return SynthSpec(
        rng_seed=rng_seed,
        images_per_class=images_per_class,
        side=side,
        persons=persons,
        materials=("skin", "paper"),
        taxonomy=mapping.taxonomy,
        mapping=mapping,
    )
