"""Dataset model: person/object/material records, ingestion, splits.

A corpus is an immutable list of labeled samples plus its taxonomy.
Directory layout for ingestion is ``root/person<k>/<object>/<material>/``
with PPM/PGM images inside; the line-oriented manifest format is
``person object material path timestamp``.  Records whose
(object, material) pair violates the mapping table are rejected and
reported, never silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .imaging import Image, load_image
from .semantics import DEFAULT_MAPPING, LabelTaxonomy, MappingTable


@dataclass(frozen=True)
class SampleRecord:
    """One labeled image; ``object`` and ``material`` are 1-based indices."""

    person_id: int
    object: int
    material: int
    image: Image
    t: float
    path: str = ""


@dataclass
class Corpus:
    records: List[SampleRecord]
    taxonomy: LabelTaxonomy
    mapping: MappingTable

    def __len__(self) -> int:
        return len(self.records)

    def persons(self) -> List[int]:
        return sorted({r.person_id for r in self.records})


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: List[Tuple[str, str]] = field(default_factory=list)  # (path, reason)


SPLIT_KINDS = ("time_kfold", "leave_one_person_out")


@dataclass(frozen=True)
class SplitPlan:
    """Train/test partition; folds are (train indices, test indices) into records."""

    kind: str  # one of SPLIT_KINDS
    folds: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    fold_persons: Tuple[int, ...] = ()  # LOPO: test person per fold


def ingest_directory(
    root,
    taxonomy: Optional[LabelTaxonomy] = None,
    mapping: Optional[MappingTable] = None,
) -> Tuple[Corpus, IngestReport]:
    """Walk ``root/person<k>/<object>/<material>/*.ppm|pgm`` into a corpus.

    Timestamps are assigned by sorted path order so re-ingestion is
    deterministic regardless of filesystem enumeration order.
    """
    mapping = mapping if mapping is not None else DEFAULT_MAPPING
    taxonomy = taxonomy if taxonomy is not None else mapping.taxonomy
    root = Path(root)
    report = IngestReport()
    records: List[SampleRecord] = []

    paths = sorted(root.glob("person*/*/*/*")) if root.exists() else []
    t = 0.0
    for p in paths:
        if p.suffix.lower() not in (".ppm", ".pgm"):
            continue
        mat_slug = p.parent.name
        obj_slug = p.parent.parent.name
        person_part = p.parent.parent.parent.name
        try:
            person_id = int(person_part.removeprefix("person"))
        except ValueError:
            report.rejected.append((str(p), f"bad person directory {person_part!r}"))
            continue
        if obj_slug not in taxonomy.object_slugs():
            report.rejected.append((str(p), f"unknown object {obj_slug!r}"))
            continue
        if mat_slug not in taxonomy.material_slugs():
            report.rejected.append((str(p), f"unknown material {mat_slug!r}"))
            continue
        if not mapping.is_valid(obj_slug, mat_slug):
            report.rejected.append((str(p), f"invalid pair ({obj_slug}, {mat_slug})"))
            continue
        records.append(
            SampleRecord(
                person_id=person_id,
                object=taxonomy.object_index(obj_slug),
                material=taxonomy.material_index(mat_slug),
                image=load_image(p),
                t=t,
                path=str(p.relative_to(root)),
            )
        )
        report.accepted += 1
        t += 1.0
    return Corpus(records, taxonomy, mapping), report


def frame_sample(frames: Sequence[Tuple[float, Image]], rate: float) -> List[Image]:
    """Greedy temporal subsampling: keep the first frame of each 1/rate window.

    Windows form a fixed grid anchored at the first frame's timestamp.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    kept: List[Image] = []
    next_start: Optional[float] = None
    t0 = 0.0
    prev_t: Optional[float] = None
    for t, img in frames:
        if prev_t is not None and t < prev_t:
            raise ValueError("timestamps must be non-decreasing")
        prev_t = t
        if next_start is None:
            t0 = t
            kept.append(img)
            next_start = t0 + 1.0 / rate
            continue
        if t >= next_start:
            kept.append(img)
            next_start = t0 + (np.floor((t - t0) * rate) + 1.0) / rate
    return kept


def make_split(corpus: Corpus, kind: str, k: Optional[int] = None) -> SplitPlan:
    """Build a time-contiguous k-fold plan or a leave-one-person-out plan.

    Both plans are deterministic, with no random choice.  Time folds are
    ``k`` contiguous blocks of the records ordered by timestamp (ties
    broken by record index), so ingestion order never changes the plan;
    leave-one-person-out has one fold per person, in ascending person id.
    """
    n = len(corpus.records)
    if n == 0:
        raise ValueError("cannot split an empty corpus")

    if kind == "time_kfold":
        if k is None or k < 2:
            raise ValueError("time_kfold requires k >= 2")
        if k > n:
            raise ValueError(f"k={k} exceeds corpus size {n}")
        order = sorted(range(n), key=lambda i: (corpus.records[i].t, i))
        bounds = np.linspace(0, n, k + 1).astype(int)
        folds = []
        for f in range(k):
            test = tuple(order[bounds[f] : bounds[f + 1]])
            train = tuple(order[: bounds[f]] + order[bounds[f + 1] :])
            folds.append((train, test))
        return SplitPlan(kind="time_kfold", folds=tuple(folds))

    if kind == "leave_one_person_out":
        persons = corpus.persons()
        if len(persons) < 2:
            raise ValueError("leave_one_person_out requires >= 2 persons")
        folds = []
        for p in persons:
            test = tuple(i for i, r in enumerate(corpus.records) if r.person_id == p)
            train = tuple(i for i, r in enumerate(corpus.records) if r.person_id != p)
            folds.append((train, test))
        return SplitPlan(
            kind="leave_one_person_out", folds=tuple(folds), fold_persons=tuple(persons)
        )

    raise ValueError(f"unknown split kind {kind!r}")


# --- manifest I/O -----------------------------------------------------------


def write_manifest(corpus: Corpus, root, manifest_path) -> None:
    """Write images under ``root`` and the index file listing them.

    Lines are `person object material path timestamp`; paths are
    relative to ``root``.
    """
    from .imaging import save_image

    root = Path(root)
    lines = []
    for i, r in enumerate(corpus.records):
        obj = corpus.taxonomy.object_slug(r.object)
        mat = corpus.taxonomy.material_slug(r.material)
        rel = r.path or f"person{r.person_id}/{obj}/{mat}/{i:06d}.ppm"
        out = root / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        save_image(r.image, out)
        lines.append(f"{r.person_id} {obj} {mat} {rel} {r.t:.6f}")
    with open(manifest_path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + ("\n" if lines else ""))


def read_manifest(
    manifest_path,
    root,
    taxonomy: Optional[LabelTaxonomy] = None,
    mapping: Optional[MappingTable] = None,
) -> Corpus:
    """Load the corpus a manifest lists; image paths are relative to ``root``.

    A line with the wrong field count, a non-numeric person, a timestamp
    that is not a finite number, an unknown class slug, a pair the
    mapping table forbids, or an image file that does not parse raises
    ``ValueError`` naming ``manifest:line``.
    """
    mapping = mapping if mapping is not None else DEFAULT_MAPPING
    taxonomy = taxonomy if taxonomy is not None else mapping.taxonomy
    root = Path(root)
    records: List[SampleRecord] = []
    with open(manifest_path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            fields = line.split()
            if not fields:
                continue
            where = f"{manifest_path}:{lineno}"
            if len(fields) != 5:
                raise ValueError(
                    f"{where}: expected 'person object material path timestamp', "
                    f"got {len(fields)} fields"
                )
            person, obj, mat, rel, t = fields
            try:
                person_id, t_value = int(person), float(t)
                if not np.isfinite(t_value):
                    raise ValueError  # a nan or inf time has no place in time folds
            except ValueError:
                raise ValueError(
                    f"{where}: person and timestamp must be (finite) numbers, "
                    f"got {person!r} and {t!r}"
                ) from None
            if obj not in taxonomy.object_slugs():
                raise ValueError(f"{where}: unknown object {obj!r}")
            if mat not in taxonomy.material_slugs():
                raise ValueError(f"{where}: unknown material {mat!r}")
            if not mapping.is_valid(obj, mat):
                raise ValueError(f"{where}: invalid pair ({obj}, {mat})")
            try:
                image = load_image(root / rel)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            records.append(
                SampleRecord(
                    person_id=person_id,
                    object=taxonomy.object_index(obj),
                    material=taxonomy.material_index(mat),
                    image=image,
                    t=t_value,
                    path=rel,
                )
            )
    return Corpus(records, taxonomy, mapping)
