import copy
import json

import pytest
from hypothesis import given, strategies as st

from pefcoh.dumpio import (
    FormatError,
    annotations_to_json,
    cross_validate,
    derive_category_universe,
    dump_to_json,
    dumps_canonical,
    lexicon_to_json,
    load_annotations,
    parse_annotations,
    parse_dump,
    parse_lexicon,
    total_categories,
)
from pefcoh.records import CategoryId, canonical_token, categories_for_roi
from pefcoh.synth import SynthSpec, generate

from helpers import (
    MAMMO_LEXICON,
    category_roi,
    make_ann_image,
    make_annotations,
    make_roi,
)


class TestParseDump:
    def test_minimal_dump(self, write_file, minimal_dump_obj):
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        assert dump.model_name == "m"
        assert len(dump.prototypes) == 1
        assert dump.images[0].entries[0].score == 1.5

    def test_unknown_prototype(self, write_file, minimal_dump_obj):
        minimal_dump_obj["images"][0]["entries"][0]["prototype_id"] = "p9"
        with pytest.raises(FormatError, match="unknown prototype"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_location_out_of_feature_map(self, write_file, minimal_dump_obj):
        minimal_dump_obj["images"][0]["entries"][0]["row"] = 2  # == feature_h
        with pytest.raises(FormatError, match="activation location out of feature map"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_duplicate_prototype_id(self, write_file, minimal_dump_obj):
        minimal_dump_obj["prototypes"].append({"id": "p0", "class_weights": [0.0, 0.0]})
        with pytest.raises(FormatError, match="duplicate prototype id"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_duplicate_entry_for_prototype(self, write_file, minimal_dump_obj):
        minimal_dump_obj["images"][0]["entries"].append(
            {"prototype_id": "p0", "score": 0.5, "row": 1, "col": 1}
        )
        with pytest.raises(FormatError, match="duplicate entry"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_weight_length_mismatch(self, write_file, minimal_dump_obj):
        minimal_dump_obj["prototypes"][0]["class_weights"] = [1.0]
        with pytest.raises(FormatError, match="class_weights length"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_nonfinite_weight(self, write_file, minimal_dump_obj):
        minimal_dump_obj["prototypes"][0]["class_weights"] = [1.0, float("nan")]
        path = write_file("d.json", json.loads(
            json.dumps(minimal_dump_obj).replace("NaN", "1e999")))
        with pytest.raises(FormatError, match="finite"):
            parse_dump(path)

    def test_negative_score(self, write_file, minimal_dump_obj):
        minimal_dump_obj["images"][0]["entries"][0]["score"] = -0.1
        with pytest.raises(FormatError, match="score"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_bad_split(self, write_file, minimal_dump_obj):
        minimal_dump_obj["images"][0]["split"] = "validation"
        with pytest.raises(FormatError, match="split"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_wrong_format_field(self, write_file, minimal_dump_obj):
        minimal_dump_obj["format"] = "pefcoh-dump/2"
        with pytest.raises(FormatError, match="expected format"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_error_names_record_index(self, write_file, minimal_dump_obj):
        minimal_dump_obj["images"][0]["entries"][0]["row"] = 7
        with pytest.raises(FormatError, match=r"images\[0\].entries\[0\]"):
            parse_dump(write_file("d.json", minimal_dump_obj))


class TestParseAnnotations:
    def test_combined_category(self, write_file, minimal_ann_obj, lexicon_obj):
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        ann = parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)
        roi = ann.images[0].rois[0]
        cats = categories_for_roi(lexicon, roi)
        assert cats["combined"] == CategoryId("combined", "mass-oval-circumscribed")

    def test_degenerate_bbox(self, write_file, minimal_ann_obj, lexicon_obj):
        minimal_ann_obj["images"][0]["rois"][0]["bbox"] = [10, 10, 10, 30]
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        with pytest.raises(FormatError, match="degenerate bbox"):
            parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)

    def test_axis_not_declared_for_type(self, write_file, minimal_ann_obj, lexicon_obj):
        roi = minimal_ann_obj["images"][0]["rois"][0]
        roi["type"] = "calcification"
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        with pytest.raises(FormatError, match="not declared for type"):
            parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)

    def test_unknown_type(self, write_file, minimal_ann_obj, lexicon_obj):
        minimal_ann_obj["images"][0]["rois"][0]["type"] = "asymmetry"
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        with pytest.raises(FormatError, match="unknown abnormality type"):
            parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)

    def test_bbox_outside_image(self, write_file, minimal_ann_obj, lexicon_obj):
        minimal_ann_obj["images"][0]["rois"][0]["bbox"] = [10, 10, 130, 30]
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        with pytest.raises(FormatError, match="outside image"):
            parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)

    def test_missing_descriptor_becomes_na(self, write_file, minimal_ann_obj, lexicon_obj):
        del minimal_ann_obj["images"][0]["rois"][0]["descriptors"]["margin"]
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        ann = parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)
        cats = categories_for_roi(lexicon, ann.images[0].rois[0])
        assert cats["combined"].value == "mass-oval-na"

    def test_values_canonicalized(self, write_file, minimal_ann_obj, lexicon_obj):
        minimal_ann_obj["images"][0]["rois"][0]["descriptors"]["shape"] = "  OVAL "
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        ann = parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)
        assert ann.images[0].rois[0].descriptors["shape"] == "oval"

    def test_derived_lexicon_first_seen_order(self, write_file, minimal_ann_obj):
        ann, lexicon = load_annotations(write_file("a.json", minimal_ann_obj))
        assert lexicon.type_names() == ("mass",)
        assert lexicon.axes_for("mass") == ("shape", "margin")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"images": 3},
            {"images": [{"rois": 7}]},
            {"images": [{"image_id": "x", "rois": [5]}]},
            {"class_names": "benign"},
        ],
    )
    def test_malformed_structures_raise_format_error(
        self, write_file, minimal_ann_obj, mutation
    ):
        minimal_ann_obj.update(mutation)
        with pytest.raises(FormatError):
            load_annotations(write_file("a.json", minimal_ann_obj))

    @pytest.mark.parametrize("with_lexicon", [True, False])
    def test_axes_colliding_after_canonicalization(
        self, write_file, minimal_ann_obj, lexicon_obj, with_lexicon
    ):
        minimal_ann_obj["images"][0]["rois"][0]["descriptors"] = {
            "SHAPE": "zzz", "shape": "oval", "margin": "circumscribed"
        }
        lexicon_path = write_file("lex.json", lexicon_obj) if with_lexicon else None
        with pytest.raises(FormatError, match=r"images\[0\]\.rois\[0\]: duplicate axis 'shape'"):
            load_annotations(write_file("a.json", minimal_ann_obj), lexicon_path)


class TestDuplicateKeys:
    @pytest.mark.parametrize(
        "fixture, parse, old, new",
        [
            ("minimal_dump_obj", parse_dump, '"seed": 1,', '"seed": 1, "seed": 9,'),
            ("minimal_dump_obj", parse_dump, '"row": 0,', '"row": 0, "row": 1,'),
            ("minimal_ann_obj", load_annotations, '"type": "mass",',
             '"type": "mass", "type": "calcification",'),
        ],
        ids=["dump-top-level", "dump-entry", "annotation-roi"],
    )
    def test_duplicate_key_rejected(self, tmp_path, request, fixture, parse, old, new):
        text = dumps_canonical(request.getfixturevalue(fixture))
        assert text.count(old) == 1
        path = tmp_path / "f.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        key = old.split('"')[1]
        with pytest.raises(FormatError, match=f"duplicate key '{key}'"):
            parse(path)


@given(st.text(min_size=1, max_size=20))
def test_canonical_token_idempotent(raw):
    assert canonical_token(canonical_token(raw)) == canonical_token(raw)


class TestCategoryUniverse:
    def test_planted_distinct_categories(self):
        images = [
            make_ann_image(f"img{i}", [category_roi(i, "mass")]) for i in range(5)
        ]
        ann = make_annotations(images)
        universe = derive_category_universe(ann, MAMMO_LEXICON, "combined")
        assert len(universe) == 5

    def test_identical_categories_counted(self):
        images = [
            make_ann_image("img0", [make_roi((10, 10, 30, 30), roi_class=0)]),
            make_ann_image("img1", [make_roi((10, 10, 30, 30), roi_class=1)]),
        ]
        ann = make_annotations(images)
        universe = derive_category_universe(ann, MAMMO_LEXICON, "combined")
        assert len(universe) == 1
        assert list(universe.values()) == [(1, 1)]

    def test_type_level_never_larger_than_combined(self):
        images = [
            make_ann_image(f"img{i}", [category_roi(i % 3, "mass"), category_roi(i, "calcification")])
            for i in range(6)
        ]
        ann = make_annotations(images)
        by_type = derive_category_universe(ann, MAMMO_LEXICON, "type")
        combined = derive_category_universe(ann, MAMMO_LEXICON, "combined")
        assert len(by_type) <= len(combined)

    def test_split_filter(self):
        images = [
            make_ann_image("tr", [category_roi(0, "mass")], split="train"),
            make_ann_image("te", [category_roi(1, "mass")], split="test"),
        ]
        ann = make_annotations(images)
        assert total_categories(ann, MAMMO_LEXICON) == 2
        assert total_categories(ann, MAMMO_LEXICON, split="train") == 1

    def test_empty_annotations_empty_universe(self):
        ann = make_annotations([make_ann_image("img0", [])])
        assert derive_category_universe(ann, MAMMO_LEXICON, "combined") == {}

    def test_cross_type_levels_disjoint(self):
        # calcification ROIs contribute nothing at mass-shape level
        images = [make_ann_image("img0", [category_roi(0, "calcification")])]
        ann = make_annotations(images)
        assert derive_category_universe(ann, MAMMO_LEXICON, "mass-shape") == {}
        assert len(derive_category_universe(ann, MAMMO_LEXICON, "calcification-morphology")) == 1

    def test_two_type_universe_at_scale(self):
        # 70 mass + 62 calcification categories, one ROI each
        images = [
            make_ann_image(f"m{i:03d}", [category_roi(i, "mass", roi_class=i % 2)])
            for i in range(70)
        ] + [
            make_ann_image(f"c{i:03d}", [category_roi(i, "calcification", roi_class=i % 2)])
            for i in range(62)
        ]
        ann = make_annotations(images)
        universe = derive_category_universe(ann, MAMMO_LEXICON, "combined")
        assert len(universe) == 132
        by_type = derive_category_universe(ann, MAMMO_LEXICON, "type")
        assert by_type[CategoryId("type", "mass")] == (35, 35)


class TestRoundTrip:
    def test_dump_round_trip(self, tmp_path):
        dump, annotations, lexicon, _ = generate(SynthSpec(rng_seed=3))
        path = tmp_path / "dump.json"
        path.write_text(dumps_canonical(dump_to_json(dump)), encoding="utf-8")
        assert parse_dump(path) == dump

        ann_path = tmp_path / "ann.json"
        ann_path.write_text(dumps_canonical(annotations_to_json(annotations)), encoding="utf-8")
        assert parse_annotations(ann_path, lexicon) == annotations

        lex_path = tmp_path / "lex.json"
        lex_path.write_text(dumps_canonical(lexicon_to_json(lexicon)), encoding="utf-8")
        assert parse_lexicon(lex_path) == lexicon

    def test_serialize_parse_serialize_stable(self, write_file, minimal_dump_obj):
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        text = dumps_canonical(dump_to_json(dump))
        reparsed = parse_dump(write_file("d2.json", json.loads(text)))
        assert dumps_canonical(dump_to_json(reparsed)) == text


class TestCrossValidate:
    def test_consistent_pair_no_errors(self, write_file, minimal_dump_obj, minimal_ann_obj):
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        ann, _ = load_annotations(write_file("a.json", minimal_ann_obj))
        assert [d for d in cross_validate(dump, ann) if d.severity == "error"] == []

    def test_class_names_mismatch(self, write_file, minimal_dump_obj, minimal_ann_obj):
        minimal_ann_obj["class_names"] = ["normal", "abnormal"]
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        ann, _ = load_annotations(write_file("a.json", minimal_ann_obj))
        messages = [d.message for d in cross_validate(dump, ann) if d.severity == "error"]
        assert any("class_names mismatch" in m and "normal" in m for m in messages)

    def test_split_disagreement(self, write_file, minimal_dump_obj, minimal_ann_obj):
        minimal_ann_obj["images"][0]["split"] = "test"
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        ann, _ = load_annotations(write_file("a.json", minimal_ann_obj))
        messages = [d.message for d in cross_validate(dump, ann) if d.severity == "error"]
        assert any("split disagrees" in m for m in messages)

    def test_dump_only_image_is_warning(self, write_file, minimal_dump_obj, minimal_ann_obj):
        extra = copy.deepcopy(minimal_dump_obj["images"][0])
        extra["image_id"] = "only-in-dump"
        minimal_dump_obj["images"].append(extra)
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        ann, _ = load_annotations(write_file("a.json", minimal_ann_obj))
        diags = cross_validate(dump, ann)
        assert [d for d in diags if d.severity == "error"] == []
        assert any("only-in-dump" in d.message for d in diags if d.severity == "warning")
