import numpy as np
import pytest

from surfsense.semantics import (
    DEFAULT_MAPPING,
    DEFAULT_TAXONOMY,
    TC_THRESHOLD,
    MappingTable,
    RecognitionFailed,
    context_lookup,
    validate_and_repair,
    validate_pair,
)


def joint_probability(res):
    """p(object) * p(material) of a validated prediction's pair."""
    return float(res.p_object[res.object_index - 1] * res.p_material[res.material_index - 1])


def simplex(rng, n):
    v = rng.random(n)
    return v / v.sum()


def peaked(n, idx, mass=0.9):
    v = np.full(n, (1 - mass) / (n - 1))
    v[idx - 1] = mass
    return v


def test_taxonomy_sizes():
    assert DEFAULT_TAXONOMY.n_objects == 6
    assert DEFAULT_TAXONOMY.n_materials == 9
    assert TC_THRESHOLD == 100


def test_desk_wood_valid():
    desk = DEFAULT_TAXONOMY.object_index("desk")
    wood = DEFAULT_TAXONOMY.material_index("wood")
    assert validate_pair(desk, wood)


def test_bed_ceramic_invalid():
    bed = DEFAULT_TAXONOMY.object_index("bed")
    ceramic = DEFAULT_TAXONOMY.material_index("ceramic")
    assert not validate_pair(bed, ceramic)


def test_counter_maps_to_marble_by_name():
    counter = DEFAULT_TAXONOMY.object_index("counter")
    marble = DEFAULT_TAXONOMY.material_index("marble")
    steel = DEFAULT_TAXONOMY.material_index("steel")
    assert validate_pair(counter, marble)
    assert not validate_pair(counter, steel)


def test_full_sweep_exactly_eleven():
    hits = [
        (o, m)
        for o in range(1, 7)
        for m in range(1, 10)
        if validate_pair(o, m)
    ]
    assert len(hits) == 11


def test_every_object_and_material_covered():
    objs = {o for o, _ in DEFAULT_MAPPING.valid_pairs}
    mats = {m for _, m in DEFAULT_MAPPING.valid_pairs}
    assert objs == set(DEFAULT_TAXONOMY.object_slugs())
    assert mats == set(DEFAULT_TAXONOMY.material_slugs())


def test_out_of_range_index_rejected():
    with pytest.raises(IndexError):
        validate_pair(0, 1)
    with pytest.raises(IndexError):
        validate_pair(1, 10)


def test_valid_confident_top1_returned_unmodified():
    counter = DEFAULT_TAXONOMY.object_index("counter")
    marble = DEFAULT_TAXONOMY.material_index("marble")
    res = validate_and_repair(peaked(6, counter), peaked(9, marble))
    assert (res.object_index, res.material_index) == (counter, marble)
    assert not res.repaired


def test_invalid_top1_repaired_to_consistent_pair():
    desk = DEFAULT_TAXONOMY.object_index("desk")
    leather = DEFAULT_TAXONOMY.material_index("leather")
    wood = DEFAULT_TAXONOMY.material_index("wood")
    p_obj = peaked(6, desk)
    p_mat = np.full(9, 0.02)
    p_mat[leather - 1] = 0.48  # top-1 but (desk, leather) is invalid
    p_mat[wood - 1] = 0.38  # runner-up consistent with desk
    p_mat /= p_mat.sum()
    res = validate_and_repair(p_obj, p_mat)
    assert res.repaired
    assert (res.object_index, res.material_index) == (desk, wood)


def test_uniform_with_high_floor_fails():
    with pytest.raises(RecognitionFailed):
        validate_and_repair(np.full(6, 1 / 6), np.full(9, 1 / 9), consistency_floor=0.5)


def test_failure_carries_distributions():
    p_o, p_m = np.full(6, 1 / 6), np.full(9, 1 / 9)
    with pytest.raises(RecognitionFailed) as exc:
        validate_and_repair(p_o, p_m, consistency_floor=0.5)
    assert np.array_equal(exc.value.p_object, p_o)
    assert np.array_equal(exc.value.p_material, p_m)


def test_zero_retries_fails_on_invalid_top1():
    bed = DEFAULT_TAXONOMY.object_index("bed")
    ceramic = DEFAULT_TAXONOMY.material_index("ceramic")
    with pytest.raises(RecognitionFailed):
        validate_and_repair(peaked(6, bed), peaked(9, ceramic), max_retries=0)


def test_repair_never_emits_invalid_pair():
    rng = np.random.default_rng(0)
    pairs = set(DEFAULT_MAPPING.valid_index_pairs())
    returned = failed = 0
    for _ in range(2000):
        try:
            res = validate_and_repair(simplex(rng, 6), simplex(rng, 9))
            assert (res.object_index, res.material_index) in pairs
            returned += 1
        except RecognitionFailed:
            failed += 1
    assert returned > 0


def test_repair_is_exact_argmax_over_valid_pairs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p_o = simplex(rng, 6)
        p_m = simplex(rng, 9)
        try:
            res = validate_and_repair(p_o, p_m, consistency_floor=0.0)
        except RecognitionFailed:
            continue
        best = max(
            DEFAULT_MAPPING.valid_index_pairs(),
            key=lambda om: p_o[om[0] - 1] * p_m[om[1] - 1],
        )
        assert joint_probability(res) == pytest.approx(
            p_o[best[0] - 1] * p_m[best[1] - 1]
        )


def test_context_counter_kitchen():
    counter = DEFAULT_TAXONOMY.object_index("counter")
    assert "kitchen" in context_lookup(counter)


def test_context_bed_bedroom():
    bed = DEFAULT_TAXONOMY.object_index("bed")
    assert "bedroom" in context_lookup(bed)


def test_context_total_over_objects():
    for o in range(1, 7):
        assert len(context_lookup(o)) > 0


def test_mapping_override_file(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("# custom\nbed plush\ncounter ceramic\n")
    table = MappingTable.from_file(path)
    assert table.is_valid("bed", "plush")
    assert table.is_valid("counter", "ceramic")
    assert not table.is_valid("bed", "fabric_hi")


def test_mapping_override_rejects_unknown_names(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("bed granite\n")
    with pytest.raises(ValueError):
        MappingTable.from_file(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("bed plush extra", r"expected 'object material', got 'bed plush extra'"),
        ("bed granite", r"pair \(bed, granite\) names unknown classes"),
        ("throne plush", r"pair \(throne, plush\) names unknown classes"),
    ],
)
def test_mapping_override_errors_name_file_and_line(tmp_path, line, message):
    path = tmp_path / "pairs.txt"
    path.write_text(f"# custom\nbed plush\n{line}\n")
    with pytest.raises(ValueError, match=f"^{path}:3: {message}$"):
        MappingTable.from_file(path)


def test_validate_and_repair_on_model_output_stays_consistent():
    from surfsense.classifier import forward, init_params
    from surfsense.imaging import Image

    params = init_params(seed=0)
    img = Image(np.random.default_rng(0).uniform(0, 1, (32, 32, 3)))
    pred = forward(params, img)
    res = validate_and_repair(
        pred.p_object, pred.p_material, DEFAULT_MAPPING, max_retries=2, consistency_floor=0.0
    )
    pairs = set(DEFAULT_MAPPING.valid_index_pairs())
    assert (res.object_index, res.material_index) in pairs
