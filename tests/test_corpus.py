import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfsense import harness, synth
from surfsense.corpus import (
    Corpus,
    frame_sample,
    ingest_directory,
    make_split,
    read_manifest,
    write_manifest,
)
from surfsense.imaging import Image, save_image, to_luminance
from surfsense.semantics import DEFAULT_TAXONOMY
from surfsense.synth import MaterialStyle, SynthSpec, synth_generate
from test_imaging import gaussian_blur_plane_reference, reference_noise_pixels


def tiny_spec(seed=3, per_class=6, persons=3, side=32, **kw):
    return SynthSpec(
        rng_seed=seed, images_per_class=per_class, persons=persons, side=side, **kw
    )


def check_split(corpus, plan):
    """Assert the plan partitions the corpus with disjoint train/test folds."""
    covered = set()
    for train, test in plan.folds:
        assert not set(train) & set(test), "train/test overlap within a fold"
        covered.update(test)
    assert covered == set(range(len(corpus.records))), "test folds do not partition the corpus"


def flat_image(value=0.5, side=8):
    return Image(np.full((side, side, 3), value, dtype=np.float32))


# --- directory ingestion ---


def _put(root, person, obj, mat, name):
    d = root / f"person{person}" / obj / mat
    d.mkdir(parents=True, exist_ok=True)
    save_image(flat_image(), d / name)


def test_ingest_example_layout(tmp_path):
    _put(tmp_path, 2, "sofa", "leather", "a.ppm")
    corpus, report = ingest_directory(tmp_path)
    assert report.accepted == 1 and not report.rejected
    rec = corpus.records[0]
    assert rec.person_id == 2
    assert rec.object == DEFAULT_TAXONOMY.object_index("sofa") == 3
    assert rec.material == DEFAULT_TAXONOMY.material_index("leather") == 4


def test_ingest_empty_root(tmp_path):
    corpus, report = ingest_directory(tmp_path / "nothing")
    assert len(corpus) == 0 and not report.rejected


def test_ingest_rejects_invalid_pair(tmp_path):
    _put(tmp_path, 1, "bed", "ceramic", "x.ppm")
    corpus, report = ingest_directory(tmp_path)
    assert len(corpus) == 0
    assert len(report.rejected) == 1
    assert "invalid pair" in report.rejected[0][1]


def test_ingest_reports_unknown_names(tmp_path):
    _put(tmp_path, 1, "hammock", "plush", "x.ppm")
    corpus, report = ingest_directory(tmp_path)
    assert len(corpus) == 0
    assert "unknown object" in report.rejected[0][1]


def test_ingest_deterministic_timestamps(tmp_path):
    _put(tmp_path, 1, "bed", "plush", "b.ppm")
    _put(tmp_path, 1, "bed", "plush", "a.ppm")
    corpus, _ = ingest_directory(tmp_path)
    assert [r.path for r in corpus.records] == sorted(r.path for r in corpus.records)
    assert [r.t for r in corpus.records] == [0.0, 1.0]


# --- frame sampling ---


def _frames(ts):
    return [(t, flat_image()) for t in ts]


def test_frame_sample_30fps_to_3fps():
    ts = [i / 30 for i in range(30)]
    kept = frame_sample(_frames(ts), 3.0)
    assert len(kept) == 3


def test_frame_sample_keeps_all_when_rate_high():
    ts = [i / 5 for i in range(10)]
    kept = frame_sample(_frames(ts), 100.0)
    assert len(kept) == 10


def test_frame_sample_irregular_oracle():
    kept = frame_sample(_frames([0.0, 0.5, 0.9, 1.2]), 1.0)
    assert len(kept) == 2  # frames at t=0 and t=1.2


def test_frame_sample_rate_must_be_positive():
    with pytest.raises(ValueError):
        frame_sample(_frames([0.0]), 0.0)


def test_frame_sample_rejects_decreasing_timestamps():
    with pytest.raises(ValueError):
        frame_sample(_frames([0.0, 1.0, 0.5]), 1.0)


def test_frame_sample_window_walk_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ts = np.sort(rng.uniform(0, 10, size=40))
        rate = float(rng.uniform(0.5, 5.0))
        kept = frame_sample(_frames(ts), rate)
        # oracle: walk fixed windows anchored at ts[0]
        expect = 0
        next_start = None
        for t in ts:
            if next_start is None or t >= next_start:
                expect += 1
                k = int(np.floor((t - ts[0]) * rate))
                next_start = ts[0] + (k + 1) / rate
        assert len(kept) == expect


# --- splits ---


def test_lopo_folds_per_person():
    corpus = synth_generate(tiny_spec(persons=5, per_class=10))
    plan = make_split(corpus, "leave_one_person_out")
    assert len(plan.folds) == 5
    check_split(corpus, plan)
    for person, (train, test) in zip(plan.fold_persons, plan.folds):
        assert all(corpus.records[i].person_id == person for i in test)
        assert all(corpus.records[i].person_id != person for i in train)


def test_time_kfold_each_record_once():
    corpus = synth_generate(tiny_spec(per_class=2, persons=2))
    n = len(corpus)
    plan = make_split(corpus, "time_kfold", n)
    assert len(plan.folds) == n
    for train, test in plan.folds:
        assert len(test) == 1
    check_split(corpus, plan)


def test_time_kfold_contiguous_in_time():
    corpus = synth_generate(tiny_spec(per_class=12, persons=3))
    plan = make_split(corpus, "time_kfold", 4)
    last_end = -1.0
    for _, test in plan.folds:
        ts = [corpus.records[i].t for i in test]
        assert min(ts) > last_end
        last_end = max(ts)


def test_time_split_invariant_to_record_order():
    corpus = synth_generate(tiny_spec(per_class=8, persons=2))
    plan1 = make_split(corpus, "time_kfold", 4)
    shuffled_ids = list(range(len(corpus)))
    rng = np.random.default_rng(1)
    rng.shuffle(shuffled_ids)
    shuffled = Corpus(
        [corpus.records[i] for i in shuffled_ids], corpus.taxonomy, corpus.mapping
    )
    plan2 = make_split(shuffled, "time_kfold", 4)
    # same records (by timestamp identity) per fold
    for (_, t1), (_, t2) in zip(plan1.folds, plan2.folds):
        times1 = sorted(corpus.records[i].t for i in t1)
        times2 = sorted(shuffled.records[i].t for i in t2)
        assert times1 == times2


def test_lopo_needs_two_persons():
    corpus = synth_generate(tiny_spec(persons=1, per_class=4))
    with pytest.raises(ValueError):
        make_split(corpus, "leave_one_person_out")


def test_kfold_needs_k_at_least_two():
    corpus = synth_generate(tiny_spec())
    with pytest.raises(ValueError):
        make_split(corpus, "time_kfold", 1)


# --- synthetic generator ---


def test_empty_spec_gives_empty_corpus():
    corpus = synth_generate(tiny_spec(per_class=0))
    assert len(corpus) == 0


def test_generation_deterministic():
    a = synth_generate(tiny_spec(seed=42))
    b = synth_generate(tiny_spec(seed=42))
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        assert (ra.person_id, ra.object, ra.material, ra.t) == (
            rb.person_id,
            rb.object,
            rb.material,
            rb.t,
        )
        assert np.array_equal(ra.image.pixels, rb.image.pixels)


def test_different_seeds_differ():
    a = synth_generate(tiny_spec(seed=1, per_class=2))
    b = synth_generate(tiny_spec(seed=2, per_class=2))
    assert any(
        not np.array_equal(ra.image.pixels, rb.image.pixels)
        for ra, rb in zip(a.records, b.records)
    )


def test_every_record_satisfies_mapping():
    corpus = synth_generate(tiny_spec(per_class=12, persons=4))
    for r in corpus.records:
        obj = corpus.taxonomy.object_slug(r.object)
        mat = corpus.taxonomy.material_slug(r.material)
        assert corpus.mapping.is_valid(obj, mat)


def test_absences_respected():
    spec = tiny_spec(per_class=9, persons=3, absences=frozenset({(2, "plush")}))
    corpus = synth_generate(spec)
    assert not any(
        r.person_id == 2 and corpus.taxonomy.material_slug(r.material) == "plush"
        for r in corpus.records
    )
    # other persons still have plush
    assert any(
        corpus.taxonomy.material_slug(r.material) == "plush" for r in corpus.records
    )


def mean_spatial_frequency(img):
    plane = to_luminance(img)
    plane = plane - plane.mean()
    spec = np.abs(np.fft.rfft2(plane))
    h, w = plane.shape
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    radius = np.sqrt(fy**2 + fx**2)
    return float((radius * spec).sum() / spec.sum())


def test_fabric_thread_count_sets_spatial_frequency():
    hi_style = MaterialStyle("weave", (0.5, 0.5, 0.7), thread_count=150.0)
    lo_style = MaterialStyle("weave", (0.7, 0.4, 0.4), thread_count=60.0)
    spec = tiny_spec(side=64)
    freqs_hi = []
    freqs_lo = []
    for i in range(10):
        hi = synth.render_texture(hi_style, spec, np.random.default_rng((1, i)), np.zeros(3), 1.0)
        lo = synth.render_texture(lo_style, spec, np.random.default_rng((1, i)), np.zeros(3), 1.0)
        freqs_hi.append(mean_spatial_frequency(hi))
        freqs_lo.append(mean_spatial_frequency(lo))
    assert min(freqs_hi) > max(freqs_lo)


def test_object_assignment_splits_shared_materials():
    corpus = synth_generate(tiny_spec(per_class=24, persons=3))
    wood = DEFAULT_TAXONOMY.material_index("wood")
    objs = {r.object for r in corpus.records if r.material == wood}
    assert objs == {
        DEFAULT_TAXONOMY.object_index("desk"),
        DEFAULT_TAXONOMY.object_index("cabinet"),
    }


def test_images_quantized_to_8bit_levels():
    corpus = synth_generate(tiny_spec(per_class=2))
    px = corpus.records[0].image.pixels
    assert np.allclose(px * 255.0, np.rint(px * 255.0), atol=1e-4)


# --- manifest roundtrip ---


def test_manifest_roundtrip(tmp_path):
    corpus = synth_generate(tiny_spec(per_class=4, persons=2))
    manifest = tmp_path / "manifest.txt"
    write_manifest(corpus, tmp_path, manifest)
    back = read_manifest(manifest, tmp_path)
    assert len(back) == len(corpus)
    for ra, rb in zip(corpus.records, back.records):
        assert (ra.person_id, ra.object, ra.material) == (
            rb.person_id,
            rb.object,
            rb.material,
        )
        assert ra.t == pytest.approx(rb.t, abs=1e-6)
        assert np.array_equal(ra.image.pixels, rb.image.pixels)


def _manifest_with(tmp_path, bad_line):
    """A valid two-record manifest with ``bad_line`` inserted as line 2;
    ``{rel}`` in it names an image that exists."""
    corpus = synth_generate(tiny_spec(per_class=2, persons=1, side=8))
    manifest = tmp_path / "manifest.txt"
    write_manifest(corpus, tmp_path, manifest)
    lines = manifest.read_text().splitlines()
    lines.insert(1, bad_line.format(rel=lines[0].split()[3]))
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


@pytest.mark.parametrize("line", ["1 bed plush", "1 bed plush {rel} 0.5 extra"])
def test_manifest_wrong_field_count_names_the_line(tmp_path, line):
    manifest = _manifest_with(tmp_path, line)
    with pytest.raises(ValueError, match=f"{manifest}:2: expected .* got [36] fields"):
        read_manifest(manifest, tmp_path)


@pytest.mark.parametrize(
    "line, message",
    [("1 bed granite {rel} 0.5", "unknown material 'granite'"),
     ("1 throne plush {rel} 0.5", "unknown object 'throne'")],
)
def test_manifest_unknown_slug_names_the_line(tmp_path, line, message):
    manifest = _manifest_with(tmp_path, line)
    with pytest.raises(ValueError, match=f"{manifest}:2: {message}"):
        read_manifest(manifest, tmp_path)


@pytest.mark.parametrize(
    "line", ["alice bed plush {rel} 0.5", "1 bed plush {rel} noon", "1 bed plush {rel} nan"]
)
def test_manifest_non_numeric_person_or_time_names_the_line(tmp_path, line):
    manifest = _manifest_with(tmp_path, line)
    with pytest.raises(ValueError, match=rf"{manifest}:2: person and timestamp must be \(finite\)"):
        read_manifest(manifest, tmp_path)


def test_manifest_truncated_image_names_the_line_and_file(tmp_path):
    manifest = _manifest_with(tmp_path, "1 bed plush cut.ppm 0.5")
    (tmp_path / "cut.ppm").write_bytes(b"P6\n2 2\n255\n\x00\x01")
    match = f"^{manifest}:2: {tmp_path / 'cut.ppm'}: truncated raster data$"
    with pytest.raises(ValueError, match=match):
        read_manifest(manifest, tmp_path)


def test_manifest_invalid_pair_names_the_line(tmp_path):
    # both slugs are known, but no bed is ceramic in the mapping table
    manifest = _manifest_with(tmp_path, "1 bed ceramic {rel} 0.5")
    with pytest.raises(ValueError, match=rf"{manifest}:2: invalid pair \(bed, ceramic\)"):
        read_manifest(manifest, tmp_path)


def test_novel_spec_generates_extended_classes():
    corpus = synth_generate(synth.novel_spec(5, images_per_class=4, side=32))
    tax = corpus.taxonomy
    assert tax.n_objects == 8 and tax.n_materials == 11
    mats = {tax.material_slug(r.material) for r in corpus.records}
    assert mats == {"skin", "paper"}
    for r in corpus.records:
        assert corpus.mapping.is_valid(
            tax.object_slug(r.object), tax.material_slug(r.material)
        )


# --- value noise and golden corpus digests ---


def reference_value_noise(side, cells_y, cells_x, rng):
    """The former formulation: four (side, side) lattice gathers, each
    output row interpolated along x on its own.  Kept as the bit reference."""
    grid = rng.random((cells_y + 1, cells_x + 1))
    ys = np.linspace(0.0, cells_y, side, endpoint=False)
    xs = np.linspace(0.0, cells_x, side, endpoint=False)
    iy = np.floor(ys).astype(int)
    ix = np.floor(xs).astype(int)
    fy = 0.5 - 0.5 * np.cos(np.pi * (ys - iy))
    fx = 0.5 - 0.5 * np.cos(np.pi * (xs - ix))
    g00 = grid[np.ix_(iy, ix)]
    g01 = grid[np.ix_(iy, ix + 1)]
    g10 = grid[np.ix_(iy + 1, ix)]
    g11 = grid[np.ix_(iy + 1, ix + 1)]
    top = g00 * (1 - fx)[None, :] + g01 * fx[None, :]
    bot = g10 * (1 - fx)[None, :] + g11 * fx[None, :]
    return top * (1 - fy)[:, None] + bot * fy[:, None]


@st.composite
def noise_shapes(draw):
    side = draw(st.integers(1, 96))
    cells = st.one_of(st.just(side), st.just(max(side // 2, 1)), st.integers(1, side))
    return side, draw(cells), draw(cells), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(noise_shapes())
@example((1, 1, 1, 0))
@example((96, 96, 48, 1))
@example((33, 16, 3, 2))
def test_value_noise_bit_equal_to_reference(shape):
    side, cells_y, cells_x, seed = shape
    got = synth.value_noise(side, cells_y, cells_x, np.random.default_rng(seed))
    want = reference_value_noise(side, cells_y, cells_x, np.random.default_rng(seed))
    assert got.shape == want.shape == (side, side)
    assert got.tobytes() == want.tobytes()


def test_value_noise_cache_does_not_leak_between_calls():
    want = reference_value_noise(40, 5, 20, np.random.default_rng(8))
    first = synth.value_noise(40, 5, 20, np.random.default_rng(8))
    first[:] = -1.0
    again = synth.value_noise(40, 5, 20, np.random.default_rng(8))
    assert again.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        synth._samples(40, 5)[1][0] = 0.5


def test_value_noise_cache_is_bounded_and_unwrapped():
    for side in range(2, 202):
        synth._samples(side, 1)
    assert len(synth._SAMPLES) == 128
    assert (201, 1) in synth._SAMPLES and (2, 1) not in synth._SAMPLES
    # a plain function: nothing for a tracer to mistake for its own wrapper
    assert not hasattr(synth._samples, "__wrapped__")


def _pixel_digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.image.pixels.tobytes())
    return h.hexdigest()


# Every material style (the nine base ones, then skin and paper) at 64 px,
# 224 px and an odd side; any change that moves one pixel bit fails here.
GOLDEN_CORPORA = {
    "base_64": (
        lambda: SynthSpec(rng_seed=5, images_per_class=2, side=64, persons=2),
        "836ef0bc10578c4d28a1dd153b9463947f580bc63fb366cedab020cf9a066c6b",
    ),
    "novel_64": (
        lambda: synth.novel_spec(5, 2, side=64, persons=2),
        "3dd3a503c2a564729a7e420e0fdad5a5a8c45c1eeef087171731782b046a6763",
    ),
    "base_224": (
        lambda: SynthSpec(rng_seed=6, images_per_class=1, side=224, persons=1),
        "129be1e6bc9dd178b73fcdab41f9b31b32b2f75346250731b159b4d95af363cf",
    ),
    "novel_224": (
        lambda: synth.novel_spec(6, 1, side=224, persons=1),
        "79e31acae5a8ee055e4decdf2a29024e67509a299d97d29893badcf9e39cba31",
    ),
    "base_33": (
        lambda: SynthSpec(rng_seed=7, images_per_class=2, side=33, persons=2),
        "0aaf3c340534c6b634ac3d8b11ecc66e6daa439ec7f8c600f5997fcfe376bd21",
    ),
    "novel_33": (
        lambda: synth.novel_spec(7, 2, side=33, persons=2),
        "d98d50232bc4282d442cac91ca2fa9a91108d907848559a68c8e4165e55e67d2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CORPORA))
def test_corpus_pixels_match_golden_digest(name):
    spec, digest = GOLDEN_CORPORA[name]
    assert _pixel_digest(synth_generate(spec()).records) == digest


HARDENED_DIGEST = "7d7cb918ce862d5ed0e60ee045616ed25094edbee7fd149fbb5a0d2f26b985e1"


def test_hardened_corpus_matches_golden_digest():
    records = synth_generate(GOLDEN_CORPORA["base_64"][0]()).records
    assert _pixel_digest(harness.harden_records(records, 9)) == HARDENED_DIGEST


def _harden_with_blur(monkeypatch, records, blur_plane):
    """``harden_records`` with ``gaussian_blur`` replaced by ``blur_plane`` per channel."""

    def blur(img, sigma):
        px = img.pixels
        planes = [blur_plane(px[:, :, c], sigma) for c in range(img.channels)]
        return Image(np.clip(np.stack(planes, 2), 0.0, 1.0).astype(px.dtype))

    with monkeypatch.context() as m:
        m.setattr(harness, "gaussian_blur", blur)
        return harness.harden_records(records, 9)


def test_hardened_corpus_is_within_ulps_of_per_tap_blurs(monkeypatch):
    """The band-matrix blur against two per-tap blurs of the same set: the exact
    one, which sums in float64 and rounds once, and the former one, which rounded
    every partial sum to float32 and so carried up to 2.8 eps32 of error at blur4
    (the band-matrix blur carries at most eps32 / 4)."""
    records = synth_generate(GOLDEN_CORPORA["base_64"][0]()).records
    new = harness.harden_records(records, 9)
    exact = _harden_with_blur(
        monkeypatch, records, lambda p, s: gaussian_blur_plane_reference(p.astype(np.float64), s)
    )
    former = _harden_with_blur(monkeypatch, records, gaussian_blur_plane_reference)
    assert _pixel_digest(former) == "d1fb2adf0b36ea4b0f078a39af6498c07e313c2bef5f9288f74d08bac10c6bce"
    eps = np.finfo(np.float32).eps
    for a, b, c in zip(new, exact, former):
        assert a.image.pixels.dtype == b.image.pixels.dtype == c.image.pixels.dtype == np.float32
        assert np.max(np.abs(a.image.pixels - b.image.pixels)) <= eps
        assert np.max(np.abs(a.image.pixels - c.image.pixels)) <= 4 * eps


HARDEN_DIGEST_SCRIPT = """
import hashlib
from surfsense import harness
from surfsense.synth import SynthSpec, synth_generate

records = synth_generate(SynthSpec(rng_seed=5, images_per_class=2, side=64, persons=2)).records
h = hashlib.sha256()
for rec in harness.harden_records(records, 9):
    h.update(rec.image.pixels.tobytes())
print(h.hexdigest())
"""


def test_hardened_pixels_do_not_depend_on_blas_threads():
    """The defocus blur is a GEMM, which OpenBLAS may split over threads; the
    hardened pixels must not depend on how many it uses (criterion 09)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", HARDEN_DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests == [HARDENED_DIGEST, HARDENED_DIGEST]


def test_hardened_corpus_is_float32_within_eps_of_float64_noise(monkeypatch):
    records = synth_generate(GOLDEN_CORPORA["base_64"][0]()).records
    new = harness.harden_records(records, 9)

    def former_noise(img, sigma, seed):  # a float32 image came back float64
        return Image(reference_noise_pixels(img, sigma, seed))

    monkeypatch.setattr(harness, "add_gaussian_noise", former_noise)
    old = harness.harden_records(records, 9)
    assert {r.image.pixels.dtype for r in records} == {np.dtype(np.float32)}
    assert {r.image.pixels.dtype for r in new} == {np.dtype(np.float32)}
    # the former set held float64 images wherever noise was applied
    assert np.dtype(np.float64) in {r.image.pixels.dtype for r in old}
    eps = np.finfo(np.float32).eps
    for a, b in zip(new, old):
        assert np.max(np.abs(a.image.pixels - b.image.pixels)) <= eps
