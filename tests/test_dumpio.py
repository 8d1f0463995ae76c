import copy
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pefcoh import columns, dumpio
from pefcoh.dumpio import (
    FormatError,
    annotations_to_json,
    cross_validate,
    derive_category_universe,
    dumps_canonical,
    lexicon_to_json,
    load_annotations,
    parse_annotations,
    parse_dump,
    parse_lexicon,
    read_dataclass,
    to_json,
    total_categories,
    write_dump,
)
from pefcoh.records import (
    ActivationTable,
    ActivationView,
    CategoryId,
    EvidenceDump,
    ImageActivationRecord,
    PrototypeRecord,
    ROIAnnotation,
    canonical_token,
    categories_for_roi,
)
from pefcoh.report import load_report
from pefcoh.synth import SynthSpec, generate, parse_ledger, parse_synth_spec

import helpers
from helpers import (
    MAMMO_LEXICON,
    category_roi,
    make_ann_image,
    make_annotations,
    make_dump,
    make_image,
    make_roi,
)


class TestParseDump:
    def test_minimal_dump(self, write_file, minimal_dump_obj):
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        assert dump.model_name == "m"
        assert len(dump.prototypes) == 1
        assert dump.activations.score[0] == 1.5

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

    @pytest.mark.parametrize("field, value, message", [
        ("type", "asymmetry", "unknown abnormality type 'asymmetry'"),
        ("descriptors", {"shape": "oval", "density": "high"},
         "axis 'density' not declared for type 'mass'"),
    ], ids=["type", "axis"])
    def test_first_fault_in_file_order_named(
        self, write_file, minimal_ann_obj, lexicon_obj, field, value, message
    ):
        # a lexicon fault in images[0] wins over a structural fault in images[1]
        first = minimal_ann_obj["images"][0]
        second = copy.deepcopy(first)
        second["image_id"] = "img1"
        second["rois"][0]["bbox"] = [10, 10, 10, 30]
        first["rois"][0][field] = value
        minimal_ann_obj["images"].append(second)
        lexicon = parse_lexicon(write_file("lex.json", lexicon_obj))
        with pytest.raises(FormatError) as info:
            parse_annotations(write_file("a.json", minimal_ann_obj), lexicon)
        assert str(info.value).endswith(f"a.json: images[0].rois[0]: {message}")

    def test_derived_lexicon_first_seen_order(self, write_file, minimal_ann_obj):
        ann, lexicon = load_annotations(write_file("a.json", minimal_ann_obj))
        assert tuple(t.name for t in lexicon.types) == ("mass",)
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
        write_dump(path, dump)
        assert parse_dump(path) == dump

        ann_path = tmp_path / "ann.json"
        ann_path.write_text(dumps_canonical(annotations_to_json(annotations)), encoding="utf-8")
        assert parse_annotations(ann_path, lexicon) == annotations

        lex_path = tmp_path / "lex.json"
        lex_path.write_text(dumps_canonical(lexicon_to_json(lexicon)), encoding="utf-8")
        assert parse_lexicon(lex_path) == lexicon

    def test_serialize_parse_serialize_stable(self, write_file, minimal_dump_obj):
        dump = parse_dump(write_file("d.json", minimal_dump_obj))
        text = helpers.dump_text(dump)
        reparsed = parse_dump(write_file("d2.json", json.loads(text)))
        assert helpers.dump_text(reparsed) == text


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


def wide_dump_obj(n_images=4, n_prototypes=80, seed=5):
    """A valid dump with an entry for every prototype on every image of a
    4x4 feature map, in shuffled prototype order."""
    rng = random.Random(seed)
    images = []
    for i in range(n_images):
        order = rng.sample(range(n_prototypes), n_prototypes)
        images.append({
            "image_id": f"img{i}", "split": "train", "width": 100, "height": 100,
            "class_label": i % 2, "feature_h": 4, "feature_w": 4,
            "entries": [
                {"prototype_id": f"p{j:02d}", "score": rng.choice([0, 2, 0.5, 1.25]),
                 "row": rng.randrange(4), "col": rng.randrange(4)}
                for j in order
            ],
        })
    return {
        "format": "pefcoh-dump/1", "model_name": "m", "seed": 1,
        "class_names": ["benign", "malignant"],
        "prototypes": [{"id": f"p{j:02d}", "class_weights": [1.0, -0.5]}
                       for j in range(n_prototypes)],
        "images": images,
    }


def _set(field, value):
    def fault(entry, first_pid):
        entry[field] = value
        return entry
    return fault


def _drop(field):
    def fault(entry, first_pid):
        del entry[field]
        return entry
    return fault


# one fault per entry-level check of parse_dump; the fault function gets the
# entry and the prototype id of the image's first entry, and returns the
# value to put in the entry's place
ENTRY_FAULTS = {
    "not-an-object": lambda entry, first_pid: [entry["prototype_id"], 1.0, 0, 0],
    "missing-prototype-id": _drop("prototype_id"),
    "prototype-id-not-string": _set("prototype_id", 7),
    "unknown-prototype": _set("prototype_id", "zz"),
    "duplicate-entry": lambda entry, first_pid: {**entry, "prototype_id": first_pid},
    "missing-score": _drop("score"),
    "score-string": _set("score", "1.0"),
    "score-bool": _set("score", True),
    "score-nan": _set("score", float("nan")),
    "score-infinite": _set("score", float("inf")),
    "score-negative": _set("score", -0.5),
    "missing-row": _drop("row"),
    "row-float": _set("row", 1.0),
    "row-bool": _set("row", True),
    "missing-col": _drop("col"),
    "col-bool": _set("col", False),
    "row-out-of-map": _set("row", 4),
    "col-out-of-map": _set("col", 4),
    "col-negative": _set("col", -1),
    "row-beyond-int64": _set("row", 2**63),
    "col-below-int64": _set("col", -(2**63) - 1),
}


def _fault_message(parse, path):
    with pytest.raises(FormatError) as info:
        parse(path)
    return str(info.value)


class TestEntryFaults:
    """Every entry-level message names the first bad entry, exactly as the
    per-entry loop of the reference parser does."""

    @staticmethod
    def place(obj, i, j, name):
        entries = obj["images"][i]["entries"]
        entries[j] = ENTRY_FAULTS[name](entries[j], entries[0]["prototype_id"])

    @pytest.mark.parametrize("name", sorted(ENTRY_FAULTS))
    def test_late_fault_message_matches_reference(self, write_file, name):
        obj = wide_dump_obj()
        self.place(obj, 2, 57, name)
        path = write_file("d.json", obj)
        message = _fault_message(parse_dump, path)
        assert message == _fault_message(helpers.parse_dump, path)
        assert "images[2].entries[57]: " in message

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 79),
                      st.sampled_from(sorted(ENTRY_FAULTS))),
            min_size=2, max_size=2, unique_by=lambda f: f[:2],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_first_of_two_faults_named(self, tmp_path_factory, faults):
        obj = wide_dump_obj()
        for i, j, name in faults:
            self.place(obj, i, j, name)
        path = tmp_path_factory.mktemp("faults") / "d.json"
        path.write_text(dumps_canonical(obj), encoding="utf-8")
        message = _fault_message(parse_dump, path)
        assert message == _fault_message(helpers.parse_dump, path)
        i, j, _ = min(faults)
        assert f"images[{i}].entries[{j}]: " in message

    def test_entry_fault_before_later_image_header(self, write_file):
        obj = wide_dump_obj()
        self.place(obj, 1, 40, "score-negative")
        obj["images"][2]["split"] = "validation"
        assert "images[1].entries[40]: score" in _fault_message(
            parse_dump, write_file("d.json", obj))

    def test_image_header_before_later_entry_fault(self, write_file):
        obj = wide_dump_obj()
        obj["images"][1]["feature_h"] = 0
        self.place(obj, 2, 3, "unknown-prototype")
        assert "images[1]: feature-map dimensions" in _fault_message(
            parse_dump, write_file("d.json", obj))

    def test_score_too_large_for_a_float(self, write_file):
        obj = wide_dump_obj()
        obj["images"][3]["entries"][60]["score"] = 10**400
        assert _fault_message(parse_dump, write_file("d.json", obj)).endswith(
            "images[3].entries[60]: score must be a finite number >= 0")

    def test_class_weight_too_large_for_a_float(self, write_file):
        obj = wide_dump_obj()
        obj["prototypes"][5]["class_weights"] = [1.0, -(10**400)]
        assert _fault_message(parse_dump, write_file("d.json", obj)).endswith(
            "prototypes[5]: class_weights[1] must be a finite number")

    def test_large_finite_integers_read_as_floats(self, write_file):
        obj = wide_dump_obj(n_images=1)
        obj["images"][0]["entries"][1]["score"] = 10**300
        obj["prototypes"][0]["class_weights"] = [2**70, 0]
        dump = parse_dump(write_file("d.json", obj))
        assert dump.activations.score[1] == 1e300
        assert dump.prototypes[0].class_weights == (float(2**70), 0.0)

    def test_feature_map_beyond_int64_rejected(self, write_file, minimal_dump_obj):
        minimal_dump_obj["images"][0]["feature_h"] = 2**63
        with pytest.raises(FormatError, match=r"images\[0\]: feature-map dimensions"):
            parse_dump(write_file("d.json", minimal_dump_obj))

    def test_valid_dump_matches_reference(self, write_file):
        path = write_file("d.json", wide_dump_obj())
        assert parse_dump(path) == helpers.parse_dump(path)


def _outcome(parse, path):
    """What ``parse`` gives for ``path``: its result, or its FormatError's message."""
    try:
        return parse(path)
    except FormatError as exc:
        return str(exc)


# a fault in the JSON text itself, which wins over any record fault before it
TEXT_FAULTS = {
    "truncated-end": lambda text: text[:-40],
    "repeated-key-in-images-4": lambda text: text.replace(
        '"image_id": "img4",', '"image_id": "img4", "image_id": "img4",'),
    "trailing-data": lambda text: text + "x",
    "missing-top-level-comma": lambda text: text.replace('],\n  "notes"', ']\n  "notes"'),
}


# a dump's key order and layout, with an entry fault and a cut end or not
LAYOUTS = dict(
    order=st.permutations(
        ["format", "model_name", "seed", "class_names", "prototypes", "images", "notes"]),
    indent=st.sampled_from([None, 2]),
    gap=st.sampled_from(["", " ", "\n", " \t\r\n "]),
    fault=st.none() | st.tuples(st.integers(0, 3), st.integers(1, 79),
                                st.sampled_from(sorted(ENTRY_FAULTS))),
    cut=st.none() | st.integers(1, 300),
)


def _layout_file(tmp_path_factory, order, indent, gap, fault, cut):
    """The path of a dump file drawn from LAYOUTS."""
    obj = wide_dump_obj()
    obj["notes"] = {"run": [1, 2]}
    if fault is not None:
        TestEntryFaults.place(obj, *fault)
    text = gap + json.dumps(
        {key: obj[key] for key in order},
        indent=indent, separators=(f"{gap},{gap}", f"{gap}:{gap}"),
    ) + gap
    path = tmp_path_factory.mktemp("order") / "d.json"
    path.write_text(text if cut is None else text[:-cut], encoding="utf-8")
    return path


class TestStreamedParse:
    """parse_dump reads the file through a window and packs each image's
    entries as the image is read; the reference decodes the whole tree
    first and checks it after. Both must agree on every input: the same
    dump, or the same message."""

    @given(**LAYOUTS)
    @settings(max_examples=60, deadline=None)
    def test_key_order_and_layout_match_reference(
        self, tmp_path_factory, order, indent, gap, fault, cut
    ):
        path = _layout_file(tmp_path_factory, order, indent, gap, fault, cut)
        assert _outcome(parse_dump, path) == _outcome(helpers.parse_dump, path)

    @pytest.mark.parametrize("name", sorted(TEXT_FAULTS))
    def test_text_fault_after_entry_fault_wins(self, tmp_path, name):
        obj = wide_dump_obj(n_images=6)
        obj["notes"] = "x"
        TestEntryFaults.place(obj, 1, 3, "score-negative")
        text = dumps_canonical(obj)
        faulty = TEXT_FAULTS[name](text)
        assert faulty != text
        path = tmp_path / "d.json"
        path.write_text(faulty, encoding="utf-8")
        message = _fault_message(parse_dump, path)
        assert message == _fault_message(helpers.parse_dump, path)
        assert "entries[" not in message

    def test_header_fault_waits_for_the_text(self, tmp_path):
        obj = wide_dump_obj()
        obj["prototypes"][2]["class_weights"] = [1.0]
        path = tmp_path / "d.json"
        path.write_text(dumps_canonical(obj) + "x", encoding="utf-8")
        assert "Extra data" in _fault_message(parse_dump, path)
        path.write_text(dumps_canonical(obj), encoding="utf-8")
        assert _fault_message(parse_dump, path).endswith(
            "prototypes[2]: class_weights length 1 != 2 classes")

    def test_peak_memory_bounded_by_the_text(self, tmp_path):
        # 3.8 MB, written as pefcoh writes dumps; the window reads 64k
        # characters at a time here (four times its longest value, an image
        # of 9.5 kB, is less)
        path = tmp_path / "d.json"
        path.write_text(dumps_canonical(wide_dump_obj(n_images=400)), encoding="utf-8")
        tracemalloc.start()
        try:
            parse_dump(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole text alone would take all of it; the table (32 bytes an
        # entry) and the image headers take a third
        assert peak <= 0.75 * path.stat().st_size

    @pytest.mark.parametrize(
        "read",
        [parse_dump, parse_lexicon, load_annotations, load_report, parse_synth_spec,
         parse_ledger],
    )
    def test_invalid_utf8_names_the_file(self, tmp_path, read):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not valid UTF-8: "):
            read(path)


def _written(tmp_path, obj, order=None):
    path = tmp_path / "d.json"
    keys = order or list(obj)
    path.write_text(json.dumps({key: obj[key] for key in keys}), encoding="utf-8")
    return path


class TestEntryPacking:
    """An image's entries are packed as the image is read, before the
    prototypes may be known, and entries outside the images are not; the
    result must not depend on where they are."""

    def test_peak_memory_bounded_with_images_first(self, tmp_path):
        obj = wide_dump_obj(n_images=400)
        path = _written(tmp_path, obj, ["images", *(key for key in obj if key != "images")])
        tracemalloc.start()
        try:
            parse_dump(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * path.stat().st_size

    @pytest.mark.parametrize("where", ["notes", "prototypes"])
    @pytest.mark.parametrize("dims", [True, False], ids=["with-dims", "no-dims"])
    @pytest.mark.parametrize("fault", [None, "unknown-prototype", "score-negative"])
    @pytest.mark.parametrize("image_fault", [False, True], ids=["", "image-fault"])
    def test_entries_outside_images_are_ignored(
        self, tmp_path, where, dims, fault, image_fault
    ):
        obj = wide_dump_obj()
        carrier = {"entries": copy.deepcopy(obj["images"][1]["entries"])}
        if dims:
            carrier.update(feature_h=4, feature_w=4)
        if fault is not None:
            entries = carrier["entries"]
            entries[5] = ENTRY_FAULTS[fault](entries[5], entries[0]["prototype_id"])
        if where == "notes":
            obj["notes"] = carrier
        else:  # extra keys of one prototype
            obj["prototypes"][3].update(carrier)
        if image_fault:
            TestEntryFaults.place(obj, 2, 9, "unknown-prototype")
        for order in (list(obj), sorted(obj, key=lambda key: key != where)):
            path = _written(tmp_path, obj, order)
            outcome = _outcome(parse_dump, path)
            assert outcome == _outcome(helpers.parse_dump, path)
            assert isinstance(outcome, str) == image_fault

    @pytest.mark.parametrize("seen_first", [False, True], ids=["after", "before"])
    def test_unknown_prototype_in_packed_image(self, tmp_path, seen_first):
        obj = wide_dump_obj()
        obj["notes"] = {"feature_h": 4, "feature_w": 4,
                        "entries": [{"prototype_id": "zz", "score": 1, "row": 0, "col": 0}]}
        TestEntryFaults.place(obj, 2, 57, "unknown-prototype")
        TestEntryFaults.place(obj, 3, 4, "unknown-prototype")
        order = ["notes", "images", "format", "model_name", "seed", "class_names",
                 "prototypes"] if seen_first else list(obj)
        path = _written(tmp_path, obj, order)
        message = _fault_message(parse_dump, path)
        assert message == _fault_message(helpers.parse_dump, path)
        assert message.endswith("images[2].entries[57]: unknown prototype 'zz'")


def _gapped_dump_obj():
    """A valid dump of seven images holding 7, 0, 5, 0, 0, 3 and 0 entries:
    beside each image with entries, on a 4x4 feature map, lies one without,
    on a 1x1 map."""
    obj = wide_dump_obj(n_images=7, n_prototypes=7)
    for image, count in zip(obj["images"], [7, 0, 5, 0, 0, 3, 0]):
        del image["entries"][count:]
        if not count:
            image.update(feature_h=1, feature_w=1)
    return obj


# the (image, entry) sites of ENTRY_FAULTS in _gapped_dump_obj(): the first
# and the last entry of each image with entries; (5, 2) is the table's last row
GAPPED_FAULT_SITES = [(0, 0), (0, 6), (2, 0), (2, 4), (5, 0), (5, 2)]
# the values of columns._CHUNK: runs of one image each (every image here
# with entries holds three or more), and one run
CHUNKS = [1, 2, 3, 2**62]


def _chunked_outcomes(path):
    """parse_dump's outcome for ``path`` with each of CHUNKS."""
    outcomes = []
    for chunk in CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columns, "_CHUNK", chunk)
            outcomes.append(_outcome(parse_dump, path))
    return outcomes


class TestChunkedResolve:
    """Columns.resolve checks the packed rows in runs of whole images of
    about ``_CHUNK`` rows, from per-image minima and maxima, and recodes each
    run that passes; whatever the runs, parse_dump names the reference
    parser's first bad entry, or gives its dump."""

    @pytest.mark.parametrize("site", GAPPED_FAULT_SITES, ids=str)
    @pytest.mark.parametrize("name", sorted(ENTRY_FAULTS))
    def test_fault_matches_reference(self, tmp_path, name, site):
        obj = _gapped_dump_obj()
        TestEntryFaults.place(obj, *site, name)
        path = _written(tmp_path, obj)
        expected = _outcome(helpers.parse_dump, path)
        assert _chunked_outcomes(path) == [expected] * len(CHUNKS)
        if name == "duplicate-entry" and site[1] == 0:  # the first entry is its own duplicate
            assert isinstance(expected, EvidenceDump)
        else:
            assert f"images[{site[0]}].entries[{site[1]}]: " in expected

    def test_clean_dump_matches_reference(self, tmp_path):
        path = _written(tmp_path, _gapped_dump_obj())
        assert _chunked_outcomes(path) == [helpers.parse_dump(path)] * len(CHUNKS)

    @given(st.lists(st.tuples(st.sampled_from(GAPPED_FAULT_SITES + [(2, 2), (0, 3)]),
                              st.sampled_from(sorted(ENTRY_FAULTS))),
                    min_size=1, max_size=3, unique_by=lambda f: f[0]))
    @settings(max_examples=helpers.examples(40), deadline=None)
    def test_first_of_drawn_faults_named(self, tmp_path_factory, faults):
        obj = _gapped_dump_obj()
        for site, name in sorted(faults, reverse=True):  # an image's first entry last
            TestEntryFaults.place(obj, *site, name)
        path = _written(tmp_path_factory.mktemp("chunked"), obj)
        assert _chunked_outcomes(path) == [_outcome(helpers.parse_dump, path)] * len(CHUNKS)


def _text(obj):
    """The JSON text of ``obj``, except that a key starting with NUL is
    written without it, so it repeats a key, and the character U+0001 is
    written as the escape ``\\u003a``, which decodes to ``:``."""
    return dumps_canonical(obj).replace('"\\u0000', '"').replace("\\u0001", "\\u003a")


def _repeat(obj, key, value=1, at=None):
    """Write ``key`` of ``obj`` a second time in its text, with ``value``,
    at position ``at`` among its keys (last by default)."""
    items = list(obj.items())
    items.insert(len(items) if at is None else at, ("\0" + key, value))
    obj.clear()
    obj.update(items)


def _rename_prototype(obj, old, new):
    for proto in obj["prototypes"]:
        if proto["id"] == old:
            proto["id"] = new
    for image in obj["images"]:
        for entry in image["entries"]:
            if entry["prototype_id"] == old:
                entry["prototype_id"] = new


def _nested_in_entry(obj, repeated):
    extra = obj["images"][0]["entries"][5]["extra"] = {"a": 1, "b": [2]}
    if repeated:
        _repeat(extra, "a", 2, at=0)


def _prototypes_last(obj):
    """Move the prototypes after the images in the text of ``obj``."""
    obj["prototypes"] = obj.pop("prototypes")


def _colon_in_nested_key(obj, repeated):
    obj["notes"] = {"a:b": {"c:d": ["e:f", 1]}, "g": "h:"}
    if repeated:
        _repeat(obj["images"][3], "image_id", "img9")


def _colon_in_prototype_id_and_repeated_key(obj):
    _rename_prototype(obj, "p03", "p:03")
    _repeat(obj["images"][2]["entries"][40], "col", 0, at=0)


# name: (edit of the dump object, characters cut from the end of its text,
# the end of parse_dump's message or None for a dump)
COUNTED_CASES = {
    "clean": (lambda obj: None, 0, None),
    "repeated-key-in-an-entry": (
        lambda obj: _repeat(obj["images"][2]["entries"][7], "row"), 0, "duplicate key 'row'"),
    "extra-key-in-an-entry": (
        lambda obj: obj["images"][2]["entries"][7].update(rank=3), 0, None),
    "repeated-key-in-an-image": (
        lambda obj: _repeat(obj["images"][1], "split", "test", at=0), 0,
        "duplicate key 'split'"),
    "repeated-key-at-the-top-level": (
        lambda obj: _repeat(obj, "seed", 9), 0, "duplicate key 'seed'"),
    "colon-in-model-name": (lambda obj: obj.update(model_name="m:x"), 0, None),
    "escaped-colon-in-model-name": (lambda obj: obj.update(model_name="m\x01x"), 0, None),
    "colon-in-a-prototype-id": (lambda obj: _rename_prototype(obj, "p03", "p:03"), 0, None),
    "colon-in-a-prototype-id-and-a-repeated-key": (
        _colon_in_prototype_id_and_repeated_key, 0, "duplicate key 'col'"),
    "colon-in-a-nested-key": (lambda obj: _colon_in_nested_key(obj, False), 0, None),
    "colon-in-a-nested-key-and-a-repeated-key": (
        lambda obj: _colon_in_nested_key(obj, True), 0, "duplicate key 'image_id'"),
    "object-nested-in-an-entry": (lambda obj: _nested_in_entry(obj, False), 0, None),
    "repeated-key-nested-in-an-entry": (
        lambda obj: _nested_in_entry(obj, True), 0, "duplicate key 'a'"),
    "lone-surrogate-in-a-prototype-id": (
        lambda obj: _rename_prototype(obj, "p05", "p\ud800"), 0,
        "prototypes[5].id: 'p\\ud800' is not valid Unicode (a lone surrogate)"),
    "syntax-error-after-a-repeated-key": (
        lambda obj: _repeat(obj["images"][0], "width", 50), 40, "duplicate key 'width'"),
    "lone-surrogate-in-an-entry-field": (
        lambda obj: obj["images"][0]["entries"][0].update(note="\ud800"), 0,
        "images[0].entries[0].note: '\\ud800' is not valid Unicode (a lone surrogate)"),
    "lone-surrogate-in-a-key-in-an-entry": (
        lambda obj: obj["images"][0]["entries"][0].update(extra={"k\ud800": 1}), 0,
        "images[0].entries[0].extra: key 'k\\ud800' is not valid Unicode (a lone surrogate)"),
    "lone-surrogate-in-an-unknown-entry-prototype-id": (
        lambda obj: obj["images"][0]["entries"][0].update(prototype_id="zz\ud800"), 0,
        "images[0].entries[0].prototype_id: 'zz\\ud800' is not valid Unicode "
        "(a lone surrogate)"),
    "lone-surrogate-in-a-top-level-key": (
        lambda obj: obj.update({"z\ud800": 1}), 0,
        "top level: key 'z\\ud800' is not valid Unicode (a lone surrogate)"),
    "lone-surrogate-in-a-prototype-id-after-the-images": (
        lambda obj: (_rename_prototype(obj, "p05", "p\ud800"), _prototypes_last(obj)), 0,
        "images[0].entries[53].prototype_id: 'p\\ud800' is not valid Unicode "
        "(a lone surrogate)"),
}

# name: edit of a clean dump object, whose text is written as json.dumps
# writes it by default, with every non-ASCII character as a \u escape
ESCAPED_CLEAN_CASES = {
    "colon-in-a-prototype-id": lambda obj: _rename_prototype(obj, "p03", "p:03"),
    "escaped-e-acute-and-a-colon-timestamp": lambda obj: obj.update(
        model_name="protopnet-é", exported="2024-03-01T12:00:00"),
    "escaped-quote-in-an-image-id": lambda obj: obj["images"][1].update(image_id='img"1'),
    "key-ending-in-an-escaped-backslash": lambda obj: obj.update(notes={"k\\": "v\\"}),
    "extra-field-in-an-entry": lambda obj: obj["images"][2]["entries"][7].update(note="a:b"),
    "object-nested-in-an-entry": lambda obj: _nested_in_entry(obj, False),
    # an escaped backslash, then the text ud800: no surrogate escape
    "escaped-backslash-before-ud800-in-a-prototype-id": lambda obj: _rename_prototype(
        obj, "p03", "a\\ud800"),
}


def _counted_case(tmp_path, name):
    """The path of the dump file of case ``name`` of COUNTED_CASES."""
    edit, cut, _ = COUNTED_CASES[name]
    obj = wide_dump_obj()
    edit(obj)
    text = _text(obj)
    path = tmp_path / "d.json"
    path.write_bytes(text[:len(text) - cut].encode("utf-8", "backslashreplace"))
    return path


# a surrogate's JSON escape, \uD800 to \uDFFF: a backslash that no odd run of
# backslashes escapes, then u and the escape's first two hex digits
SURROGATE_ESCAPE = re.compile(rb"(?<!\\)(?:\\\\)*\\u[dD][89a-fA-F]")


def _strict_decode_expected(path, expected):
    """Whether parse_dump must reach the strict decode for ``path``, whose
    reference outcome is ``expected``: to name a repeated key or invalid
    JSON, or to read a text that holds a surrogate escape, unless the file
    is not UTF-8 and so fails before any decode."""
    if isinstance(expected, str):
        fault = expected.removeprefix(f"{path}: ")
        if fault.startswith("not valid UTF-8"):
            return False
        if fault.startswith(("duplicate key", "not valid JSON")):
            return True
    return bool(SURROGATE_ESCAPE.search(path.read_bytes()))


class TestCountedDecode:
    """parse_dump keeps each value of a plain decode only when its
    string-token count proves that no key repeats and its text holds no
    surrogate escape, and decodes the text again strictly when it cannot:
    either way it gives the reference parser's dump or message."""

    @pytest.mark.parametrize("name", sorted(COUNTED_CASES))
    def test_case_matches_reference(self, tmp_path, name):
        path = _counted_case(tmp_path, name)
        outcome = _outcome(parse_dump, path)
        assert outcome == _outcome(helpers.parse_dump, path)
        expected = COUNTED_CASES[name][2]
        if expected is None:
            assert isinstance(outcome, EvidenceDump)
        else:
            assert outcome == f"{path}: {expected}"

    @pytest.mark.parametrize(
        "name", ["clean", "colon-in-model-name", "escaped-colon-in-model-name",
                 "colon-in-a-nested-key"])
    def test_clean_dump_skips_the_strict_decode(self, tmp_path, monkeypatch, name):
        path = _counted_case(tmp_path, name)
        expected = helpers.parse_dump(path)

        def strict(*args, **kwargs):
            raise AssertionError("strict decode reached")

        monkeypatch.setattr(dumpio, "_loads", strict)
        assert parse_dump(path) == expected

    def test_colon_in_a_prototype_id_skips_the_strict_decode(self, tmp_path, monkeypatch):
        path = _counted_case(tmp_path, "colon-in-a-prototype-id")
        calls = []
        strict = dumpio._loads

        def counted(*args, **kwargs):
            calls.append(args[1])
            return strict(*args, **kwargs)

        monkeypatch.setattr(dumpio, "_loads", counted)
        dump = parse_dump(path)
        assert calls == []
        assert dump == helpers.parse_dump(path)
        assert "p:03" in dump.activations.prototype_ids

    def test_surrogate_pair_escape_takes_the_strict_decode(self, tmp_path, monkeypatch):
        obj = wide_dump_obj()
        _rename_prototype(obj, "p03", "p\U0001F600")
        path = tmp_path / "d.json"
        path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
        assert '"p\\ud83d\\ude00"' in path.read_text(encoding="utf-8")
        calls = []
        strict = dumpio._loads

        def counted(*args, **kwargs):
            calls.append(args[1])
            return strict(*args, **kwargs)

        monkeypatch.setattr(dumpio, "_loads", counted)
        dump = parse_dump(path)
        assert calls == [path]
        assert dump == helpers.parse_dump(path)
        assert "p\U0001F600" in dump.activations.prototype_ids

    @pytest.mark.parametrize("name", sorted(ESCAPED_CLEAN_CASES))
    def test_escaped_clean_dump_skips_the_strict_decode(self, tmp_path, monkeypatch, name):
        obj = wide_dump_obj()
        ESCAPED_CLEAN_CASES[name](obj)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
        expected = helpers.parse_dump(path)

        def strict(*args, **kwargs):
            raise AssertionError("strict decode reached")

        monkeypatch.setattr(dumpio, "_loads", strict)
        assert parse_dump(path) == expected

    @given(data=st.data())
    @settings(max_examples=helpers.examples(60), deadline=None)
    def test_drawn_dump_matches_reference(self, tmp_path_factory, data):
        obj = wide_dump_obj(n_images=3, n_prototypes=12)
        suffix = st.sampled_from(["", ":", "\x01", "\ud800", ":\x01"])
        obj["model_name"] += data.draw(suffix, label="model_name")
        obj["images"][1]["image_id"] += data.draw(suffix, label="image_id")
        _rename_prototype(obj, "p04", "p04" + data.draw(suffix, label="prototype_id"))
        if data.draw(st.booleans(), label="unknown prototype in an entry"):
            entry = obj["images"][data.draw(st.integers(0, 2), label="image")]["entries"][
                data.draw(st.integers(0, 11), label="entry")]
            entry["prototype_id"] = data.draw(st.sampled_from(["zz", "zz\ud800"]),
                                              label="unknown prototype_id")
        if data.draw(st.booleans(), label="prototypes after the images"):
            _prototypes_last(obj)
        if data.draw(st.booleans(), label="notes"):
            obj["notes"] = {"k" + data.draw(suffix, label="notes key"): ["x:y", {}]}
        if data.draw(st.booleans(), label="nested in an entry"):
            _nested_in_entry(obj, False)
        objects = [node for node in _dicts(obj) if node]
        for _ in range(data.draw(st.integers(0, 2), label="repeats")):
            target = data.draw(st.sampled_from(objects), label="object")
            key = data.draw(st.sampled_from([k for k in target if k[0] != "\0"]), label="key")
            value = data.draw(st.sampled_from([target[key], 1, "x:y", "z\x01"]), label="value")
            _repeat(target, key, value, at=data.draw(st.integers(0, len(target)), label="at"))
        text = _text(obj)
        cut = data.draw(st.none() | st.integers(1, 200), label="cut")
        path = tmp_path_factory.mktemp("counted") / "d.json"
        text = text if cut is None else text[:-cut]
        path.write_bytes(text.encode("utf-8", "backslashreplace"))
        assert _outcome(parse_dump, path) == _outcome(helpers.parse_dump, path)

    @given(data=st.data())
    @settings(max_examples=helpers.examples(60), deadline=None)
    def test_strict_decode_only_names_faults(self, tmp_path_factory, data):
        obj = wide_dump_obj(n_images=3, n_prototypes=12)
        names = ["", ":", "\x01", "\ud800", ":\x01", '"', "\\"]
        suffix = st.sampled_from(names)
        # check_run_id rejects a backslash in model_name, and the reference does not
        obj["model_name"] += data.draw(st.sampled_from(names[:-1]), label="model_name")
        obj["images"][1]["image_id"] += data.draw(suffix, label="image_id")
        _rename_prototype(obj, "p04", "p04" + data.draw(suffix, label="prototype_id"))
        if data.draw(st.booleans(), label="notes"):
            obj["notes"] = {"k" + data.draw(suffix, label="notes key"): ["x:y", {}]}
        if data.draw(st.booleans(), label="nested in an entry"):
            _nested_in_entry(obj, False)
        if data.draw(st.booleans(), label="string field in an entry"):
            entry = obj["images"][2]["entries"][data.draw(st.integers(0, 11), label="entry")]
            entry["note"] = "n" + data.draw(suffix, label="note")
        objects = [node for node in _dicts(obj) if node]
        for _ in range(data.draw(st.integers(0, 2), label="repeats")):
            target = data.draw(st.sampled_from(objects), label="object")
            key = data.draw(st.sampled_from([k for k in target if k[0] != "\0"]), label="key")
            value = data.draw(st.sampled_from([target[key], 1, "x:y", "z\x01"]), label="value")
            _repeat(target, key, value, at=data.draw(st.integers(0, len(target)), label="at"))
        text = _text(obj)
        cut = data.draw(st.none() | st.integers(1, 200), label="cut")
        path = tmp_path_factory.mktemp("counted") / "d.json"
        text = text if cut is None else text[:-cut]
        path.write_bytes(text.encode("utf-8", "backslashreplace"))

        calls = []
        strict = dumpio._loads

        def counted(*args, **kwargs):
            calls.append(args[1])
            return strict(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dumpio, "_loads", counted)
            outcome = _outcome(parse_dump, path)
        expected = _outcome(helpers.parse_dump, path)
        assert outcome == expected
        assert bool(calls) == _strict_decode_expected(path, expected)


# the window sizes, in characters, of TestWindowBoundaries: the small ones
# put a window boundary inside every token of the first values read
WINDOWS = [1, 2, 3, 7, dumpio._WINDOW]


def _window_outcomes(path):
    """parse_dump's outcome for ``path`` with each of WINDOWS, and whether
    it reached the strict decode."""
    outcomes = []
    strict = dumpio._loads
    for window in WINDOWS:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return strict(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dumpio, "_WINDOW", window)
            patch.setattr(dumpio, "_loads", counted)
            outcomes.append((_outcome(parse_dump, path), bool(calls)))
    return outcomes


def _reference_outcomes(path):
    """What _window_outcomes must give for ``path``: the reference parser's
    outcome, and the strict decode reached only to name a fault in the JSON
    or to read a surrogate escape (see _strict_decode_expected)."""
    expected = _outcome(helpers.parse_dump, path)
    return [(expected, _strict_decode_expected(path, expected))] * len(WINDOWS)


def _canonical(edit=None):
    """The text of wide_dump_obj(), edited by ``edit``, as pefcoh writes it."""
    obj = wide_dump_obj()
    if edit is not None:
        edit(obj)
    return dumps_canonical(obj)


def _replaced(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def _escape_runs(k):
    """Escaped quotes and backslash runs ``k`` characters into the first
    value and into an image id."""
    def edit(obj):
        items = list(obj.items())
        obj.clear()
        obj.update([("notes", {"a" * k + '"\\"\\\\': "b" * k + '\\\\"\\'}), *items])
        obj["images"][2]["image_id"] = "c" * k + '\\"\\\\"'
    return _canonical(edit).encode()


def _long_first_string(k, tail):
    """A dump whose first value is a string that ends ``tail`` (bytes)
    near byte 8192 + ``k``, where the file reader decodes its next block."""
    head = '{\n  "notes": "'
    text = _canonical()
    return (head.encode() + b"x" * (8190 - len(head) + k) + tail + b'",'
            + text[1:].encode())


def _cut_in_number(k, first):
    """A dump whose seed, a long number, is its first or last value, with
    the file cut ``k`` digits into it."""
    def edit(obj):
        seed = obj.pop("seed")
        items = list(obj.items())
        obj.clear()
        obj.update([("seed", seed), *items] if first else [*items, ("seed", seed)])
    text = _replaced(_canonical(edit), '"seed": 1', '"seed": 123456789')
    return text[:text.index("123456789") + k].encode()


def _long_first_number(k, tail):
    """A dump whose first value is a number of 20 + ``k`` digits and then
    ``tail``, longer than the window the parse starts with."""
    return ('{\n  "notes": ' + "1" * (20 + k) + tail + "," + _canonical()[1:]).encode()


def _surrogate_pair(k):
    """A dump written as json.dumps writes it by default, whose first value
    is a string that ends, ``k`` characters in, with a non-BMP character,
    written as a surrogate pair's two escapes."""
    obj = wide_dump_obj()
    items = list(obj.items())
    obj.clear()
    obj.update([("notes", "x" * k + "\U0001F600"), *items])
    text = json.dumps(obj, indent=2)
    assert "\\ud83d\\ude00" in text
    return text.encode()


def _lone_surrogates(obj):
    """A lone surrogate in an image id and in the last top-level key."""
    obj["images"][1]["image_id"] = "img\ud800"
    obj["z\ud800"] = 1


# name: the bytes of a dump file, given an offset k in 0-8 that moves the
# fault against the window's boundaries
WINDOW_FAULTS = {
    "escaped-quote-and-backslash-runs": _escape_runs,
    "crlf-between-tokens": lambda k: (" " * k + _canonical()).replace("\n", "\r\n").encode(),
    "crlf-in-a-string": lambda k: (" " * k + _replaced(
        _canonical(), '"model_name": "m"', '"model_name": "m\r\n"')).encode(),
    "invalid-utf-8-at-the-start": lambda k: b" " * k + b"\xff" + _canonical().encode(),
    "invalid-utf-8-after-a-block": lambda k: _long_first_string(k, b"\xff"),
    "multibyte-characters-across-a-block": lambda k: _long_first_string(k, "éé€".encode()),
    "invalid-utf-8-in-an-image": lambda k: _replaced(
        _canonical(), '"img2"', '"img2' + "x" * k + '\udcc3"').encode("utf-8", "surrogateescape"),
    "bom": lambda k: b"\xef\xbb\xbf" + b" " * k + _canonical().encode(),
    "repeated-top-level-key": lambda k: _replaced(
        _canonical(), '"seed": 1,', '"seed": 1,' + " " * k + '"seed": 1,').encode(),
    "repeated-images": lambda k: _replaced(
        _canonical(), '"images": [', '"images": [],' + " " * k + '"images": [').encode(),
    "file-cut-in-the-first-number": lambda k: _cut_in_number(k, first=True),
    "file-cut-in-the-last-number": lambda k: _cut_in_number(k, first=False),
    "number-at-the-end": lambda k: _cut_in_number(9, first=False) + b" " * k + b"}",
    "long-first-integer": lambda k: _long_first_number(k, ""),
    "long-first-number-with-a-fraction-and-an-exponent": lambda k: _long_first_number(
        k, ".5e+3"),
    "data-after-the-object": lambda k: (_canonical() + " " * k + "{}").encode(),
    "lone-surrogates-in-a-value-and-a-later-key": lambda k: (" " * k + _canonical(
        _lone_surrogates)).encode("utf-8", "backslashreplace"),
    "surrogate-pair-escape-in-the-first-value": _surrogate_pair,
    "numbers-with-fractions-and-exponents": lambda k: (" " * k + _canonical()).replace(
        '"score": 2,', '"score": 2.0e+0,').replace('"score": 0.5,', '"score": 5E-1,').encode(),
}


class TestWindowBoundaries:
    """parse_dump decodes the file through a window of a few characters as
    through its default one, and either way gives the reference parser's
    dump or message: wherever a window boundary falls in a token, a
    character or a fault."""

    @given(**LAYOUTS)
    @settings(max_examples=helpers.examples(30), deadline=None)
    def test_drawn_layout_matches_reference(
        self, tmp_path_factory, order, indent, gap, fault, cut
    ):
        path = _layout_file(tmp_path_factory, order, indent, gap, fault, cut)
        assert _window_outcomes(path) == _reference_outcomes(path)

    @pytest.mark.parametrize("name", sorted(COUNTED_CASES))
    def test_counted_case_matches_reference(self, tmp_path, name):
        path = _counted_case(tmp_path, name)
        assert _window_outcomes(path) == _reference_outcomes(path)

    @pytest.mark.parametrize("name", sorted(ESCAPED_CLEAN_CASES))
    def test_escaped_clean_case_matches_reference(self, tmp_path, name):
        obj = wide_dump_obj()
        ESCAPED_CLEAN_CASES[name](obj)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
        expected = _reference_outcomes(path)
        assert isinstance(expected[0][0], EvidenceDump)
        assert _window_outcomes(path) == expected

    @pytest.mark.parametrize("name", sorted(WINDOW_FAULTS))
    def test_fault_at_a_boundary_matches_reference(self, tmp_path, name):
        path = tmp_path / "d.json"
        for k in range(9):
            path.write_bytes(WINDOW_FAULTS[name](k))
            assert _window_outcomes(path) == _reference_outcomes(path), k

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("name", ["clean", "repeated-key-at-the-top-level",
                                      "syntax-error-after-a-repeated-key",
                                      "lone-surrogate-in-a-prototype-id"])
    def test_pipe_is_read_once(self, tmp_path, name):
        # a pipe cannot be read again for the strict decode, so it is read
        # whole, by the strict decode, from the first
        path = _counted_case(tmp_path, name)
        expected = _outcome(helpers.parse_dump, path)
        if isinstance(expected, str):
            expected = expected.replace(str(path), "/dev/stdin", 1)
        else:
            expected = helpers.dump_text(expected)
        script = (
            "import sys\n"
            "from pefcoh.dumpio import FormatError, parse_dump, write_dump\n"
            "try:\n"
            "    write_dump(sys.argv[1], parse_dump('/dev/stdin'))\n"
            "    print(open(sys.argv[1], encoding='utf-8').read(), end='')\n"
            "except FormatError as exc:\n"
            "    print(exc, end='')\n"
        )
        src = str(Path(dumpio.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", script, tmp_path / "out.json"],
                              input=path.read_bytes(),
                              capture_output=True, env=env, timeout=120, check=True)
        assert proc.stdout.decode() == expected

    def test_values_are_decoded_about_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.json"
        path.write_text(dumps_canonical(wide_dump_obj(n_images=40)), encoding="utf-8")
        decoded = []

        class Decoder(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                try:
                    obj, end = super().raw_decode(s, idx)
                except ValueError:
                    decoded.append(len(s) - idx)
                    raise
                decoded.append(end - idx)
                return obj, end

        monkeypatch.setattr(dumpio, "_DECODER", Decoder())
        assert parse_dump(path) == helpers.parse_dump(path)
        assert sum(decoded) <= 1.02 * path.stat().st_size


def _dicts(node):
    """Every object in ``node``, ``node`` itself included."""
    if isinstance(node, dict):
        yield node
        children = list(node.values())
    elif isinstance(node, list):
        children = node
    else:
        children = []
    for child in children:
        yield from _dicts(child)


class TestActivationTable:
    def test_parsed_entries_are_views_of_one_table(self, write_file):
        obj = wide_dump_obj(n_images=3)
        dump = parse_dump(write_file("d.json", obj))
        table = dump.activations
        assert list(table.offsets) == [0, 80, 160, 240]
        for i, (img, rows) in enumerate(zip(dump.images, helpers.image_rows(dump))):
            assert isinstance(img.entries, ActivationView) and img.entries.table is table
            expected = [(e["prototype_id"], float(e["score"]), e["row"], e["col"])
                        for e in obj["images"][i]["entries"]]
            assert len(img.entries) == 80
            read = [(e.prototype_id, e.score, e.row, e.col) for e in img.entries]
            assert read == expected == rows
            assert {type(score) for _, score, _, _ in read} == {float}
        assert [table.prototype_ids[p] for p in table.proto[80:83]] == [
            e["prototype_id"] for e in obj["images"][1]["entries"][:3]
        ]
        assert list(table.image_of(np.arange(79, 81))) == [0, 1]

    def test_built_and_written_dumps_equal_the_parsed(self, write_file, tmp_path):
        obj = wide_dump_obj(n_images=3)
        parsed = parse_dump(write_file("d.json", obj))
        image_rows = helpers.image_rows(parsed)
        built = make_dump(
            [(p.prototype_id, p.class_weights) for p in parsed.prototypes],
            [make_image(img.image_id, entries, class_label=img.class_label, width=100,
                        height=100, feature_h=4, feature_w=4)
             for img, entries in zip(parsed.images, image_rows)],
            model_name="m", seed=1,
        )
        assert built.activations is not parsed.activations and built == parsed
        write_dump(tmp_path / "d2.json", built)
        assert parse_dump(tmp_path / "d2.json") == built
        assert built.activations.prototype_ids == parsed.activations.prototype_ids
        for column in ("weights", "offsets", "proto", "score", "row", "col"):
            built_column = getattr(built.activations, column)
            assert built_column.dtype == getattr(parsed.activations, column).dtype
            assert (built_column == getattr(parsed.activations, column)).all()
        assert parsed.activations.weights.shape == (80, 2)
        assert (parsed.activations.weights
                == [p["class_weights"] for p in obj["prototypes"]]).all()
        rows = np.arange(240)
        assert (built.activations.image_of(rows) == parsed.activations.image_of(rows)).all()
        reordered = helpers.build_dump(
            parsed.model_name, parsed.seed, parsed.class_names, parsed.prototypes,
            [dataclasses.replace(img, entries=entries)
             for img, entries in zip(parsed.images[::-1], image_rows[::-1])])
        assert list(reordered.activations.offsets) == [0, 80, 160, 240]
        assert reordered.images == parsed.images[::-1]  # image records compare by header
        assert helpers.image_rows(reordered) == image_rows[::-1]

    def test_dumps_compare_by_their_table(self):
        base = [[("p0", 1.0, 0, 0), ("p1", 2.0, 1, 1)], [("p2", 0.5, 0, 1)]]
        one_score = [[("p0", 1.0, 0, 0), ("p1", 2.5, 1, 1)], [("p2", 0.5, 0, 1)]]
        one_prototype = [[("p0", 1.0, 0, 0), ("p2", 2.0, 1, 1)], [("p2", 0.5, 0, 1)]]
        one_split = [[("p0", 1.0, 0, 0), ("p1", 2.0, 1, 1), ("p2", 0.5, 0, 1)], []]

        def dump(entries):
            return make_dump(
                [("p0", (1.0, 0.0)), ("p1", (0.0, 1.0)), ("p2", (0.5, 0.5))],
                [make_image(f"img{i}", rows, feature_h=2, feature_w=2)
                 for i, rows in enumerate(entries)])

        first = dump(base)
        assert dump(base) == first
        for entries in (one_score, one_prototype, one_split):
            other = dump(entries)
            assert other.images == first.images  # image records compare by header
            assert other != first and first != other
        split = dump(one_split).activations
        assert split.proto.tolist() == first.activations.proto.tolist()
        assert split.score.tolist() == first.activations.score.tolist()
        assert split.offsets.tolist() != first.activations.offsets.tolist()
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
        assert "activations" not in helpers.dump_tree(first)
        assert "entries" not in repr(first) and "activations" not in repr(first)

    def test_images_must_view_their_own_rows(self, write_file):
        parsed = parse_dump(write_file("d.json", wide_dump_obj(n_images=3)))
        other = parse_dump(write_file("d2.json", wide_dump_obj(n_images=3)))
        with pytest.raises(ValueError, match=r"^images\[0\] \('img0'\): "):
            dataclasses.replace(parsed, activations=other.activations)
        with pytest.raises(ValueError, match=r"^images\[0\] \('img2'\): its entries are not "
                                             r"image 0 of the dump's table$"):
            dataclasses.replace(parsed, images=parsed.images[::-1])
        swapped = (parsed.images[0], parsed.images[2], parsed.images[1])
        with pytest.raises(ValueError, match=r"^images\[1\] \('img2'\)"):
            dataclasses.replace(parsed, images=swapped)
        entries = helpers.image_rows(parsed)[1]  # its entries, but not a view
        with pytest.raises(ValueError, match=r"^images\[1\] \('img1'\)"):
            dataclasses.replace(parsed, images=(
                parsed.images[0], dataclasses.replace(parsed.images[1], entries=entries),
                parsed.images[2]))
        with pytest.raises(ValueError, match="^the dump's table holds 3 images, not 2$"):
            dataclasses.replace(parsed, images=parsed.images[:2])
        assert dataclasses.replace(parsed, images=parsed.images) == parsed

    @pytest.mark.parametrize("counts", [[3, 0, 2], [0, 0, 4, 1, 0], [1], [0, 5], [2, 2, 0, 0]])
    def test_image_of_each_row(self, counts):
        n = sum(counts)
        table = ActivationTable.from_columns(
            (PrototypeRecord("p", (1.0, 0.0)),), 2, counts, [0] * n, [1.0] * n, [0] * n, [0] * n)
        image = np.repeat(np.arange(len(counts)), counts)
        assert (table.image_of(np.arange(n)) == image).all()
        assert list(table.image_of(np.arange(n)[::-1])) == list(image[::-1])

    def test_written_parsed_dump_round_trips(self, write_file, tmp_path):
        dump = parse_dump(write_file("d.json", wide_dump_obj(n_images=2)))
        write_dump(tmp_path / "d2.json", dump)
        assert parse_dump(tmp_path / "d2.json") == dump


# scores at the float boundaries: negative zero, the largest finite decades,
# the smallest normal, subnormals
BOUNDARY_FLOATS = [0, 0.0, -0.0, 1e308, 1.7976931348623157e308, 2.2250738585072014e-308,
                   1e-310, 5e-324]


@st.composite
def drawn_dumps(draw):
    """A dump built in code (helpers.build_dump) that the parser accepts:
    ids of any text but a lone surrogate, weights and scores often at the
    float boundaries, images often with no entries."""
    number = st.sampled_from(BOUNDARY_FLOATS) | st.floats(0, allow_infinity=False)
    class_names = draw(st.lists(st.text(max_size=3), min_size=2, max_size=3))
    pids = draw(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True))
    weight = number | number.map(lambda w: -w)
    prototypes = [(pid, tuple(draw(weight) for _ in class_names)) for pid in pids]
    images = []
    image_ids = draw(st.lists(st.text(max_size=4), max_size=6, unique=True))
    for image_id in image_ids:
        feature_h, feature_w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        chosen = draw(st.permutations(pids))[:draw(st.integers(0, len(pids)) | st.just(0))]
        entries = [(pid, draw(number), draw(st.integers(0, feature_h - 1)),
                    draw(st.integers(0, feature_w - 1))) for pid in chosen]
        images.append(make_image(
            image_id, entries, draw(st.sampled_from(["train", "test"])),
            draw(st.integers(1, 2**20)), draw(st.integers(1, 2**20)),
            draw(st.integers(0, len(class_names) - 1)), feature_h, feature_w))
    return make_dump(prototypes, images, draw(st.sampled_from(["m", "é 1", "a\"b"])),
                     draw(st.integers(-2**63, 2**63 - 1)), tuple(class_names))


def _dense_dump(n_images, n_prototypes=128):
    """A dump with an entry for every prototype on every image, its table
    built from arrays."""
    prototypes = tuple(PrototypeRecord(f"p{j:03d}", (1.0, -0.5)) for j in range(n_prototypes))
    n = n_images * n_prototypes
    rng = np.random.default_rng(0)
    table = ActivationTable.from_columns(
        prototypes, 2, [n_prototypes] * n_images, np.tile(np.arange(n_prototypes), n_images),
        rng.random(n), rng.integers(0, 4, n), rng.integers(0, 4, n))
    images = [ImageActivationRecord(f"img{i}", "train", 100, 100, i % 2, 4, 4, ())
              for i in range(n_images)]
    return helpers.table_dump("m", 1, ("benign", "malignant"), prototypes, images, table)


class TestWriteDumpRoundTrip:
    @staticmethod
    def _assert_round_trip(dump, tmp_path):
        path = tmp_path / "d.json"
        write_dump(path, dump)
        parsed = parse_dump(path)
        assert parsed == dump
        assert parsed.activations.prototype_ids == dump.activations.prototype_ids
        for column in ("weights", "offsets", "proto", "score", "row", "col"):
            got, expected = getattr(parsed.activations, column), getattr(dump.activations, column)
            assert got.dtype == expected.dtype and got.shape == expected.shape, column
            assert got.tobytes() == expected.tobytes(), column  # -0.0 keeps its sign
        text = path.read_bytes()
        write_dump(path, dump)
        assert path.read_bytes() == text

    @given(drawn_dumps())
    @settings(max_examples=helpers.examples(100), deadline=None)
    def test_drawn_dump_round_trips(self, tmp_path_factory, dump):
        self._assert_round_trip(dump, tmp_path_factory.mktemp("d"))

    def test_wide_dump_round_trips(self, write_file, tmp_path):
        self._assert_round_trip(parse_dump(write_file("w.json", wide_dump_obj())), tmp_path)


class TestWriteDump:
    def test_layout_header_then_one_row_per_line(self, write_file, tmp_path):
        obj = wide_dump_obj(n_images=3)
        dump = parse_dump(write_file("d.json", obj))
        write_dump(tmp_path / "out.json", dump)
        lines = (tmp_path / "out.json").read_text(encoding="utf-8").split("\n")
        assert lines[:5] == ["{", '  "format": "pefcoh-dump/1",', '  "model_name": "m",',
                             '  "seed": 1,', '  "class_names": ["benign", "malignant"],']
        assert lines[5] == '  "prototypes": ['
        assert json.loads(lines[6].rstrip(",")) == obj["prototypes"][0]
        at = 6 + len(obj["prototypes"])
        assert lines[at:at + 2] == ["  ],", '  "images": [']
        images = [json.loads(line.rstrip(",")) for line in lines[at + 2:at + 5]]
        assert lines[at + 5:] == ["  ]", "}", ""]
        for image, expected in zip(images, obj["images"]):
            assert list(image) == list(expected)
            assert image["entries"] == [{**e, "score": float(e["score"])}
                                        for e in expected["entries"]]

    def test_writes_without_the_pure_python_encoder(self, write_file, tmp_path, monkeypatch):
        dump = parse_dump(write_file("d.json", wide_dump_obj()))

        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("the dump went through the pure-Python JSON encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        write_dump(tmp_path / "out.json", dump)
        assert parse_dump(tmp_path / "out.json") == dump

    def test_peak_memory_does_not_grow_with_the_images(self, tmp_path):
        peaks = []
        for n_images in (128, 256):
            dump = _dense_dump(n_images)
            tracemalloc.start()
            try:
                write_dump(tmp_path / "d.json", dump)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one image's entries (128 objects and their encoded line) set the
        # peak; a second copy of every entry, as dicts or as encoded lines,
        # would double it, already at these sizes
        assert peaks[1] <= 1.05 * peaks[0], peaks


class TestFailedWrite:
    """A write that fails leaves the file it was to replace as it was, and no
    temporary file beside it."""

    OLD = b"the file before\n"

    def _failing_encoder(self, monkeypatch, after):
        encode, calls = dumpio._encode, []

        def failing(value):
            calls.append(value)
            if len(calls) > after:
                raise RuntimeError("encoder failed")
            return encode(value)

        monkeypatch.setattr(dumpio, "_encode", failing)

    def _assert_untouched(self, path):
        assert path.read_bytes() == self.OLD
        assert os.listdir(path.parent) == [path.name]

    @pytest.mark.parametrize("after", [0, 3, 6, 20])
    def test_dump_encoder_fails(self, tmp_path, monkeypatch, after):
        dump = _dense_dump(16, n_prototypes=4)
        path = tmp_path / "out" / "dump.json"
        path.parent.mkdir()
        path.write_bytes(self.OLD)
        self._failing_encoder(monkeypatch, after)
        with pytest.raises(RuntimeError, match="encoder failed"):
            write_dump(path, dump)
        self._assert_untouched(path)

    @pytest.mark.parametrize("where", [0, 2])
    def test_dump_with_a_lone_surrogate(self, tmp_path, where):
        images = [make_image(f"img{i}", [("p0", 1.0, 0, 0)]) for i in range(3)]
        images[where] = make_image("img\ud800", [("p0", 1.0, 0, 0)])
        dump = make_dump([("p0", (1.0, -0.5))], images)
        path = tmp_path / "out" / "dump.json"
        path.parent.mkdir()
        path.write_bytes(self.OLD)
        with pytest.raises(UnicodeEncodeError):
            write_dump(path, dump)
        self._assert_untouched(path)

    def test_missing_directory_is_named_by_the_target(self, tmp_path):
        path = tmp_path / "missing" / "dump.json"
        with pytest.raises(FileNotFoundError) as info:
            write_dump(path, _dense_dump(2, n_prototypes=2))
        assert info.value.filename == str(path)
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("after", [0, 7, 9])
    def test_report_encoder_fails(self, tmp_path, monkeypatch, after):
        from pefcoh.metrics import evaluate
        from pefcoh.report import write_report

        dump, annotations, lexicon, _ = generate(SynthSpec(rng_seed=3))
        result = evaluate(dump, annotations, lexicon)
        path = tmp_path / "out" / "r.json"
        path.parent.mkdir()
        path.write_bytes(self.OLD)
        self._failing_encoder(monkeypatch, after)
        with pytest.raises(RuntimeError, match="encoder failed"):
            write_report(path, result)
        self._assert_untouched(path)


class TestEmptyLexiconNames:
    """An ROI's empty type or axis name is rejected whether the lexicon is
    given or derived, as parse_lexicon rejects it in a lexicon."""

    @pytest.mark.parametrize("with_lexicon", [True, False])
    def test_empty_type_name(self, write_file, minimal_ann_obj, lexicon_obj, with_lexicon):
        minimal_ann_obj["images"][0]["rois"][0]["type"] = "  "
        lexicon_path = write_file("lex.json", lexicon_obj) if with_lexicon else None
        with pytest.raises(FormatError, match=r"images\[0\]\.rois\[0\]: empty type name"):
            load_annotations(write_file("a.json", minimal_ann_obj), lexicon_path)

    @pytest.mark.parametrize("with_lexicon", [True, False])
    def test_empty_axis_name(self, write_file, minimal_ann_obj, lexicon_obj, with_lexicon):
        minimal_ann_obj["images"][0]["rois"][0]["descriptors"][" "] = "x"
        lexicon_path = write_file("lex.json", lexicon_obj) if with_lexicon else None
        with pytest.raises(FormatError, match=r"images\[0\]\.rois\[0\]: empty axis name"):
            load_annotations(write_file("a.json", minimal_ann_obj), lexicon_path)

    def test_lexicon_rejects_empty_axis_name(self, write_file, lexicon_obj):
        lexicon_obj["types"][1]["axes"].append("  ")
        with pytest.raises(FormatError, match=r"types\[1\]: empty axis name"):
            parse_lexicon(write_file("lex.json", lexicon_obj))

    def test_derived_lexicon_parses_once_written(self, write_file, minimal_ann_obj):
        _, lexicon = load_annotations(write_file("a.json", minimal_ann_obj))
        assert parse_lexicon(write_file("lex.json", lexicon_to_json(lexicon))) == lexicon


class TestReadDataclassJsonKeys:
    @pytest.mark.parametrize(
        "record",
        [
            PrototypeRecord("p0", (1.0,)),
            ROIAnnotation((1, 2, 3, 4), "mass", {"shape": "oval"}, 1),
        ],
        ids=["prototype", "roi"],
    )
    def test_round_trip(self, record):
        raw = json.loads(json.dumps(to_json(record)))
        assert read_dataclass(type(record), raw, "f.json", "record") == record

    def test_field_named_by_json_key(self):
        with pytest.raises(FormatError, match="missing prototype field 'id'"):
            read_dataclass(PrototypeRecord, {"class_weights": [1.0]}, "f.json", "prototype")
        with pytest.raises(FormatError, match="unknown prototype field 'prototype_id'"):
            read_dataclass(PrototypeRecord, {"prototype_id": "p0", "class_weights": [1.0]},
                           "f.json", "prototype")
        with pytest.raises(FormatError, match=r"prototype\.id must be str"):
            read_dataclass(PrototypeRecord, {"id": 3, "class_weights": [1.0]},
                           "f.json", "prototype")
