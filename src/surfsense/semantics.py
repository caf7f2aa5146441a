"""Label taxonomy and object/material consistency semantics.

Six household object classes map to nine surface-material classes; only
11 of the 54 (object, material) pairs occur in practice.  Predictions
whose top-1 pair falls outside the table are either repaired to the most
probable consistent pair or rejected.  The mapping is keyed on class
names, never on indices: the built-in table ships as a constant and can
be overridden from a pair-list file.

All label indices exposed here are 1-based to line up with the
confusion-matrix conventions used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

# Canonical single-token slugs (used in directory layouts, manifests,
# and override files) paired with display names.
OBJECT_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("bed", "Bed"),
    ("desk", "Desk/Table"),
    ("sofa", "Sofa"),
    ("cabinet", "Cabinet/Shelf/Closet"),
    ("sink", "Sink/Pool/Bath"),
    ("counter", "Counter"),
)

MATERIAL_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("plush", "Plush"),
    ("fabric_hi", "Fabric (TC>100)"),
    ("fabric_lo", "Fabric (TC<100)"),
    ("leather", "Leather"),
    ("fiberboard", "Fiberboard/Particleboard"),
    ("wood", "Wood/Wood-like Grain"),
    ("ceramic", "Ceramic"),
    ("steel", "Stainless Steel"),
    ("marble", "Marble/Quartz"),
)

# Threads per square inch separating the two fabric classes.
TC_THRESHOLD = 100

# The 11 pairs observed in households, keyed by slug.
DEFAULT_VALID_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("bed", "plush"),
    ("bed", "fabric_hi"),
    ("desk", "fiberboard"),
    ("desk", "wood"),
    ("sofa", "fabric_lo"),
    ("sofa", "leather"),
    ("cabinet", "fiberboard"),
    ("cabinet", "wood"),
    ("sink", "ceramic"),
    ("sink", "steel"),
    ("counter", "marble"),
)

CONTEXT_HINTS: Dict[str, Tuple[str, ...]] = {
    "bed": ("bedroom",),
    "desk": ("study", "office"),
    "sofa": ("living room",),
    "cabinet": ("storage room", "study"),
    "sink": ("bathroom", "kitchen"),
    "counter": ("kitchen",),
}


class RecognitionFailed(Exception):
    """No consistent (object, material) pair cleared the confidence floor."""

    def __init__(self, p_object: np.ndarray, p_material: np.ndarray):
        super().__init__("recognition failed: no consistent pair above the floor")
        self.p_object = p_object
        self.p_material = p_material


@dataclass(frozen=True)
class LabelTaxonomy:
    """Ordered object and material class lists; indices are 1-based."""

    objects: Tuple[Tuple[str, str], ...] = OBJECT_CLASSES
    materials: Tuple[Tuple[str, str], ...] = MATERIAL_CLASSES

    def __post_init__(self) -> None:
        for classes in (self.objects, self.materials):
            slugs = [s for s, _ in classes]
            if len(set(slugs)) != len(slugs):
                raise ValueError("duplicate class slugs")

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_materials(self) -> int:
        return len(self.materials)

    def object_slugs(self) -> List[str]:
        return [s for s, _ in self.objects]

    def material_slugs(self) -> List[str]:
        return [s for s, _ in self.materials]

    def object_index(self, slug: str) -> int:
        """1-based index of an object slug."""
        return self.object_slugs().index(slug) + 1

    def material_index(self, slug: str) -> int:
        return self.material_slugs().index(slug) + 1

    def object_slug(self, index: int) -> str:
        return _slug_at(self.objects, "object", index)

    def material_slug(self, index: int) -> str:
        return _slug_at(self.materials, "material", index)

    def extended(
        self,
        new_objects: Sequence[Tuple[str, str]],
        new_materials: Sequence[Tuple[str, str]],
    ) -> "LabelTaxonomy":
        """Taxonomy grown with classes first seen in deployment."""
        return LabelTaxonomy(
            self.objects + tuple(new_objects), self.materials + tuple(new_materials)
        )


def _slug_at(classes: Tuple[Tuple[str, str], ...], head: str, index: int) -> str:
    """The slug at 1-based ``index`` of one head's class list."""
    if not 1 <= index <= len(classes):
        raise IndexError(f"{head} index {index} out of range 1..{len(classes)}")
    return classes[index - 1][0]


DEFAULT_TAXONOMY = LabelTaxonomy()


@dataclass(frozen=True)
class MappingTable:
    """Valid (object, material) pairs, keyed by slug."""

    taxonomy: LabelTaxonomy = DEFAULT_TAXONOMY
    valid_pairs: FrozenSet[Tuple[str, str]] = frozenset(DEFAULT_VALID_PAIRS)

    def __post_init__(self) -> None:
        objs = set(self.taxonomy.object_slugs())
        mats = set(self.taxonomy.material_slugs())
        for o, m in self.valid_pairs:
            if o not in objs or m not in mats:
                raise ValueError(f"pair ({o}, {m}) names unknown classes")

    def is_valid(self, object_slug: str, material_slug: str) -> bool:
        return (object_slug, material_slug) in self.valid_pairs

    def valid_index_pairs(self) -> List[Tuple[int, int]]:
        """All valid pairs as 1-based (object, material) index tuples."""
        tax = self.taxonomy
        return sorted(
            (tax.object_index(o), tax.material_index(m)) for o, m in self.valid_pairs
        )

    @staticmethod
    def from_file(path, taxonomy: LabelTaxonomy = DEFAULT_TAXONOMY) -> "MappingTable":
        """Override table from lines of `object_slug material_slug`.  A line
        with another field count or an unknown slug raises ``ValueError``
        naming ``path:line``."""
        pairs = []
        with open(path, "r", encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                where = f"{path}:{lineno}"
                if len(parts) != 2:
                    raise ValueError(f"{where}: expected 'object material', got {line.strip()!r}")
                o, m = parts
                if o not in taxonomy.object_slugs() or m not in taxonomy.material_slugs():
                    raise ValueError(f"{where}: pair ({o}, {m}) names unknown classes")
                pairs.append((o, m))
        return MappingTable(taxonomy, frozenset(pairs))


DEFAULT_MAPPING = MappingTable()


def validate_pair(
    object_index: int, material_index: int, table: MappingTable = DEFAULT_MAPPING
) -> bool:
    """True iff the 1-based (object, material) index pair is in the table.

    Raises ``IndexError`` for out-of-range indices.
    """
    tax = table.taxonomy
    return table.is_valid(tax.object_slug(object_index), tax.material_slug(material_index))


@dataclass(frozen=True)
class ValidatedPrediction:
    """A consistent prediction; ``repaired`` marks a corrected top-1 pair."""

    object_index: int
    material_index: int
    p_object: np.ndarray
    p_material: np.ndarray
    repaired: bool = False


def validate_and_repair(
    p_object: np.ndarray,
    p_material: np.ndarray,
    table: MappingTable = DEFAULT_MAPPING,
    max_retries: int = 1,
    consistency_floor: float = 0.05,
) -> ValidatedPrediction:
    """Consistency check over raw head distributions.

    The top-1 pair is accepted when it is in the table and its joint
    probability clears ``consistency_floor``.  Otherwise (and given a
    retry budget) the repair step finds the exact argmax of
    p_object[o] * p_material[m] over the valid pairs by brute force; a
    repaired pair below the floor fails.  The result is never an invalid
    pair.
    """
    top_o = int(np.argmax(p_object)) + 1
    top_m = int(np.argmax(p_material)) + 1
    joint = float(p_object[top_o - 1] * p_material[top_m - 1])
    if validate_pair(top_o, top_m, table) and joint > consistency_floor:
        return ValidatedPrediction(top_o, top_m, p_object, p_material, repaired=False)

    if max_retries < 1:
        raise RecognitionFailed(p_object, p_material)

    best: Tuple[float, int, int] | None = None
    for o_idx, m_idx in table.valid_index_pairs():
        j = float(p_object[o_idx - 1] * p_material[m_idx - 1])
        if best is None or j > best[0]:
            best = (j, o_idx, m_idx)
    assert best is not None
    if best[0] > consistency_floor:
        return ValidatedPrediction(best[1], best[2], p_object, p_material, repaired=True)
    raise RecognitionFailed(p_object, p_material)


def context_lookup(object_index: int, taxonomy: LabelTaxonomy = DEFAULT_TAXONOMY) -> Tuple[str, ...]:
    """Scene hints for an object class (e.g. counter -> kitchen)."""
    slug = taxonomy.object_slug(object_index)
    return CONTEXT_HINTS.get(slug, ("unknown scene",))
