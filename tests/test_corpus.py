import numpy as np
import pytest

from surfsense import synth
from surfsense.corpus import (
    Corpus,
    frame_sample,
    ingest_directory,
    make_split,
    check_split,
    read_manifest,
    write_manifest,
)
from surfsense.imaging import Image, save_image, to_luminance
from surfsense.semantics import DEFAULT_TAXONOMY
from surfsense.synth import MaterialStyle, SynthSpec, synth_generate


def tiny_spec(seed=3, per_class=6, persons=3, side=32, **kw):
    return SynthSpec(
        rng_seed=seed, images_per_class=per_class, persons=persons, side=side, **kw
    )


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
