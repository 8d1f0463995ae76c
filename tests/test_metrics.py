import json
import math
import random
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pefcoh import columns, metrics
from pefcoh.dumpio import (
    ConsistencyError,
    derive_category_universe,
    parse_dump,
    write_dump,
)
from pefcoh.metrics import (
    GROUND_TRUTH,
    MAX_WEIGHT,
    EvidenceItem,
    LocalizationScore,
    RunConfig,
    TopKEvidence,
    _localization_detail,
    _match_rois,
    aggregate,
    aggregate_flat,
    build_verdicts,
    evaluate,
    flatten_scores,
    global_prototypes,
    local_prototypes,
    relevance,
    specialization,
    top_k_evidence,
    uniqueness,
)
from pefcoh.records import (
    COMBINED_LEVEL,
    ActivationTable,
    AnnotationSet,
    CategoryId,
    ImageActivationRecord,
    PrototypeRecord,
    AnnotatedImage,
)
from pefcoh.synth import SynthSpec, generate

import helpers
from helpers import (
    MAMMO_LEXICON,
    category_roi,
    make_ann_image,
    make_annotations,
    make_dump,
    make_image,
    make_roi,
    ratio_fixture,
)

CONFIG = RunConfig(k=10, patch_size=130)


class TestGlobalPrototypes:
    def test_all_nonzero(self):
        dump = make_dump([(f"p{i}", (1.0, -0.5)) for i in range(400)], [])
        assert global_prototypes(dump, 1e-8) == (400, 0.0)

    def test_one_of_eight(self):
        protos = [("p0", (0.7, 0.0))] + [(f"p{i}", (0.0, 0.0)) for i in range(1, 8)]
        count, sparsity = global_prototypes(make_dump(protos, []), 1e-8)
        assert count == 1
        assert sparsity == 0.875

    def test_all_zero(self):
        dump = make_dump([(f"p{i}", (0.0, 0.0)) for i in range(4)], [])
        assert global_prototypes(dump, 1e-8) == (0, 1.0)

    def test_eps_threshold(self):
        dump = make_dump([("p0", (1e-9, 0.0)), ("p1", (1e-3, 0.0))], [])
        assert global_prototypes(dump, 1e-8)[0] == 1


class TestLocalPrototypes:
    def test_single_positive(self):
        dump = make_dump(
            [("p0", (1.0, 0.0))],
            [make_image("t0", [("p0", 0.5, 0, 0)], split="test", class_label=0)],
        )
        assert local_prototypes(dump, 1e-8) == (1.0, 0.0)

    def test_positive_and_negative(self):
        dump = make_dump(
            [("p0", (1.0, 0.0)), ("p1", (-0.5, 0.0))],
            [make_image("t0", [("p0", 0.5, 0, 0), ("p1", 0.2, 0, 0)],
                        split="test", class_label=0)],
        )
        assert local_prototypes(dump, 1e-8) == (1.0, 1.0)

    def test_zero_score_contributes_nothing(self):
        dump = make_dump(
            [("p0", (1.0, 0.0))],
            [make_image("t0", [("p0", 0.0, 0, 0)], split="test", class_label=0)],
        )
        assert local_prototypes(dump, 1e-8) == (0.0, 0.0)

    def test_empty_test_split(self):
        dump = make_dump([("p0", (1.0, 0.0))], [make_image("tr", [], split="train")])
        with pytest.raises(ValueError, match="empty test split"):
            local_prototypes(dump, 1e-8)

    def test_max_weight_convention(self):
        # weight toward label 0 is negative, but the strongest weight is positive
        dump = make_dump(
            [("p0", (-0.5, 0.2))],
            [make_image("t0", [("p0", 0.5, 0, 0)], split="test", class_label=0)],
        )
        assert local_prototypes(dump, 1e-8, "ground_truth") == (0.0, 1.0)
        assert local_prototypes(dump, 1e-8, "max_weight") == (1.0, 0.0)


class TestTopKEvidence:
    def test_shortfall_recorded(self):
        images = [
            make_image(f"tr{i}", [("p0", float(3 - i), 0, 0)]) for i in range(3)
        ]
        dump = make_dump([("p0", (1.0, -0.5))], images)
        ann = make_annotations([make_ann_image(f"tr{i}", []) for i in range(3)])
        (ev,) = top_k_evidence(dump, ann, MAMMO_LEXICON, CONFIG)
        assert len(ev.items) == 3
        assert ev.shortfall == 7
        assert [item.score for item in ev.items] == [3.0, 2.0, 1.0]

    def test_score_ties_break_by_image_id(self):
        images = [make_image(name, [("p0", 1.0, 0, 0)]) for name in ("b", "a", "c")]
        dump = make_dump([("p0", (1.0, -0.5))], images)
        ann = make_annotations([make_ann_image(n, []) for n in ("a", "b", "c")])
        (ev,) = top_k_evidence(dump, ann, MAMMO_LEXICON, RunConfig(k=2, patch_size=130))
        assert [item.image_id for item in ev.items] == ["a", "b"]

    def test_two_roi_centers_nearest_wins(self):
        # patch covers the whole 100x100 image; center (50, 50)
        dump = make_dump(
            [("p0", (1.0, -0.5))],
            [make_image("tr0", [("p0", 1.0, 0, 0)], width=100, height=100)],
        )
        far = make_roi((20, 20, 40, 40))            # center (30, 30)
        near = make_roi((45, 45, 59, 59),
                        descriptors={"shape": "round", "margin": "obscured"})
        ann = make_annotations(
            [make_ann_image("tr0", [far, near], width=100, height=100)]
        )
        (ev,) = top_k_evidence(dump, ann, MAMMO_LEXICON, RunConfig(k=1, patch_size=100))
        assert ev.items[0].roi_index == 1
        assert ev.items[0].categories["combined"].value == "mass-round-obscured"

    def test_equidistant_centers_take_smallest_index(self):
        dump = make_dump(
            [("p0", (1.0, -0.5))],
            [make_image("tr0", [("p0", 1.0, 0, 0)], width=100, height=100)],
        )
        left = make_roi((30, 40, 50, 60))    # center (40, 50)
        right = make_roi((50, 40, 70, 60))   # center (60, 50), same distance to (50, 50)
        ann = make_annotations(
            [make_ann_image("tr0", [left, right], width=100, height=100)]
        )
        (ev,) = top_k_evidence(dump, ann, MAMMO_LEXICON, RunConfig(k=1, patch_size=100))
        assert ev.items[0].roi_index == 0

    def test_no_center_unmatched(self):
        dump = make_dump(
            [("p0", (1.0, -0.5))],
            [make_image("tr0", [("p0", 1.0, 0, 0)], width=100, height=100,
                        feature_h=2, feature_w=2)],
        )
        # patch around cell (0,0) center (25,25) with size 20 misses center (80,80)
        ann = make_annotations(
            [make_ann_image("tr0", [make_roi((70, 70, 90, 90))], width=100, height=100)]
        )
        (ev,) = top_k_evidence(dump, ann, MAMMO_LEXICON, RunConfig(k=1, patch_size=20))
        assert ev.items[0].roi_index is None

    def test_non_global_prototypes_excluded(self):
        dump = make_dump(
            [("p0", (0.0, 0.0)), ("p1", (1.0, 0.0))],
            [make_image("tr0", [("p0", 9.0, 0, 0), ("p1", 1.0, 0, 0)])],
        )
        ann = make_annotations([make_ann_image("tr0", [])])
        evidence = top_k_evidence(dump, ann, MAMMO_LEXICON, CONFIG)
        assert [ev.prototype_id for ev in evidence] == ["p1"]


def _purity_fixture(n_matched, n_unmatched):
    """One prototype, k=10; n_matched train images have a centered mass ROI."""
    n = n_matched + n_unmatched
    images = [make_image(f"tr{i:02d}", [("p0", float(n - i), 0, 0)]) for i in range(n)]
    ann_images = []
    for i in range(n):
        rois = [make_roi((48, 48, 80, 80))] if i < n_matched else []
        ann_images.append(make_ann_image(f"tr{i:02d}", rois))
    dump = make_dump([("p0", (1.0, -0.5))], images)
    return dump, make_annotations(ann_images)


class TestSpecialization:
    def test_fully_pure(self):
        dump, ann = _purity_fixture(10, 0)
        ev = top_k_evidence(dump, ann, MAMMO_LEXICON, CONFIG)
        rep_verdicts = evaluate_verdicts(dump, ann)
        assert specialization(rep_verdicts, "type") == 1.0

    def test_six_matched_four_unmatched(self):
        dump, ann = _purity_fixture(6, 4)
        rep_verdicts = evaluate_verdicts(dump, ann)
        assert specialization(rep_verdicts, "type") == 0.6

    def test_no_relevant_prototypes_absent(self):
        dump, ann = _purity_fixture(0, 10)
        rep_verdicts = evaluate_verdicts(dump, ann)
        assert specialization(rep_verdicts, "type") is None

    def test_purity_counts_other_types_in_denominator_only(self):
        # 4 mass + 3 calcification matches out of k=10: mass purity 0.4 at type level
        images = [make_image(f"tr{i:02d}", [("p0", float(10 - i), 0, 0)]) for i in range(7)]
        ann_images = []
        for i in range(7):
            roi = (category_roi(0, "mass", bbox=(48, 48, 80, 80)) if i < 4
                   else category_roi(0, "calcification", bbox=(48, 48, 80, 80)))
            ann_images.append(make_ann_image(f"tr{i:02d}", [roi]))
        dump = make_dump([("p0", (1.0, -0.5))], images)
        ann = make_annotations(ann_images)
        verdicts = evaluate_verdicts(dump, ann)
        assert specialization(verdicts, "type") == 0.4
        assert specialization(verdicts, "mass-shape") == 0.4
        assert specialization(verdicts, "calcification-morphology") == pytest.approx(0.3)


def evaluate_verdicts(dump, ann, config=CONFIG):
    from pefcoh.dumpio import derive_category_universe
    from pefcoh.metrics import build_verdicts

    evidence = top_k_evidence(dump, ann, MAMMO_LEXICON, config)
    counts = derive_category_universe(ann, MAMMO_LEXICON, config.class_specific_level)
    return build_verdicts(dump, evidence, MAMMO_LEXICON.levels(),
                          config.class_specific_level, counts)


class TestRatios:
    def test_relevance_requires_global(self):
        dump = make_dump([("p0", (0.0, 0.0))], [])
        ann = make_annotations([make_ann_image("x", [])])
        verdicts = evaluate_verdicts(dump, ann)
        with pytest.raises(ValueError, match="no global prototypes"):
            relevance(verdicts)

    def test_all_relevant_share_category(self):
        dump, ann, lexicon = ratio_fixture(8, 4, 1, 2, 2)
        report = evaluate(dump, ann, lexicon, CONFIG)
        assert report.scores.uniqueness == 0.25  # 1 unique / 4 relevant

    def test_worked_ratios(self):
        dump, ann, lexicon = ratio_fixture(48, 16, 10, 8, 8)
        report = evaluate(dump, ann, lexicon, CONFIG)
        assert report.scores.relevance == pytest.approx(16 / 48, abs=1e-15)
        assert report.scores.uniqueness == 0.625
        assert report.scores.unique_categories == 10


class TestClassSpecific:
    def _fixture(self, weights, benign_count, malignant_count, extra_cat=None):
        """One relevant prototype matched to one category with planted counts."""
        images = [make_image("tr0", [("p0", 5.0, 0, 0)])]
        rois = [make_roi((48, 48, 80, 80), roi_class=0)] if benign_count else []
        ann_images = [make_ann_image("tr0", rois or [make_roi((48, 48, 80, 80), roi_class=1)])]
        # top-up images carry the remaining class counts for the same category
        needed = [(0, benign_count - (1 if rois else 0)),
                  (1, malignant_count - (0 if rois else 1))]
        n = 0
        for cls, count in needed:
            for _ in range(max(count, 0)):
                ann_images.append(
                    make_ann_image(f"fill{n}", [make_roi((48, 48, 80, 80), roi_class=cls)])
                )
                n += 1
        dump = make_dump([("p0", weights)], images)
        return dump, make_annotations(ann_images)

    def test_aligned(self):
        dump, ann = self._fixture((0.2, 0.9), benign_count=1, malignant_count=3)
        verdicts = evaluate_verdicts(dump, ann)
        assert verdicts[0].align == 1

    def test_misaligned(self):
        dump, ann = self._fixture((0.9, 0.2), benign_count=1, malignant_count=3)
        verdicts = evaluate_verdicts(dump, ann)
        assert verdicts[0].align == 0

    def test_single_class_category_excluded(self):
        dump, ann = self._fixture((0.9, 0.2), benign_count=0, malignant_count=3)
        verdicts = evaluate_verdicts(dump, ann)
        assert verdicts[0].align is None

    def test_tied_counts_excluded(self):
        dump, ann = self._fixture((0.9, 0.2), benign_count=2, malignant_count=2)
        verdicts = evaluate_verdicts(dump, ann)
        assert verdicts[0].align is None


class TestLocalization:
    def test_exact_match(self):
        dump = make_dump(
            [("p0", (1.0, -0.5))],
            [make_image("t0", [("p0", 1.0, 0, 0)], split="test",
                        width=130, height=130, class_label=0)],
        )
        ann = make_annotations(
            [make_ann_image("t0", [make_roi((0, 0, 130, 130))],
                            split="test", width=130, height=130)]
        )
        assert _localization_detail(dump, ann, CONFIG)[1]["top1"] == LocalizationScore(1.0, 1.0)

    def test_partial_overlap(self):
        # patch (5,0,15,10) vs ROI (0,0,10,10): IoU 1/3, DSC 1/2
        dump = make_dump(
            [("p0", (1.0, -0.5))],
            [make_image("t0", [("p0", 1.0, 0, 0)], split="test",
                        width=20, height=10, class_label=0)],
        )
        ann = make_annotations(
            [make_ann_image("t0", [make_roi((0, 0, 10, 10))],
                            split="test", width=20, height=10)]
        )
        config = RunConfig(k=10, patch_size=10)
        top1 = _localization_detail(dump, ann, config)[1]["top1"]
        assert top1.iou == pytest.approx(1 / 3, abs=1e-15)
        assert top1.dsc == pytest.approx(0.5, abs=1e-15)

    def test_zero_contribution_prototypes_not_activated(self):
        # weight toward the image's class is zero: selection empty, image scores 0
        dump = make_dump(
            [("p0", (0.0, 1.0))],
            [make_image("t0", [("p0", 1.0, 0, 0)], split="test",
                        width=130, height=130, class_label=0)],
        )
        ann = make_annotations(
            [make_ann_image("t0", [make_roi((0, 0, 130, 130))],
                            split="test", width=130, height=130)]
        )
        means = _localization_detail(dump, ann, CONFIG)[1]
        assert means["top1"] == means["all"] == LocalizationScore(0.0, 0.0)

    def test_images_without_rois_excluded(self):
        dump = make_dump(
            [("p0", (1.0, -0.5))],
            [
                make_image("t0", [("p0", 1.0, 0, 0)], split="test",
                           width=130, height=130, class_label=0),
                make_image("t1", [("p0", 1.0, 0, 0)], split="test",
                           width=130, height=130, class_label=0),
            ],
        )
        ann = make_annotations(
            [
                make_ann_image("t0", [make_roi((0, 0, 130, 130))],
                               split="test", width=130, height=130),
                make_ann_image("t1", [], split="test", width=130, height=130),
            ]
        )
        # t1 has no ROI: mean over the single participating image
        assert _localization_detail(dump, ann, CONFIG)[1]["top1"] == LocalizationScore(1.0, 1.0)

    def test_no_localizable_instances(self):
        dump = make_dump(
            [("p0", (1.0, -0.5))],
            [make_image("t0", [("p0", 1.0, 0, 0)], split="test")],
        )
        ann = make_annotations([make_ann_image("t0", [], split="test")])
        with pytest.raises(ValueError, match="no localizable instances"):
            _localization_detail(dump, ann, CONFIG)

    def test_variant_ordering_on_dense_roi_benchmark(self):
        # with ROI-dense test images and every activation on an ROI, adding
        # patches raises IoU/DSC, reproducing mean top1 < top10 < all
        bench = dict(feature_w=8, feature_h=8, patch_size=32, n_prototypes=20,
                     zero_weight_fraction=0.0, test_hit_rate=1.0,
                     min_test_rois=20, max_test_rois=28,
                     n_test_images=12, n_train_images=24)
        for seed in (0, 1, 2, 3, 4):
            spec = SynthSpec(rng_seed=seed, **bench)
            dump, ann, lexicon, _ = generate(spec)
            loc = evaluate(dump, ann, lexicon, spec.config()).scores.localization
            assert loc["top1"].iou < loc["top10"].iou < loc["all"].iou
            assert loc["top1"].dsc < loc["top10"].dsc < loc["all"].dsc

    def test_ranking_by_contribution_magnitude(self):
        # p1 has the larger |score x weight|; top1 must pick it
        dump = make_dump(
            [("p0", (1.0, 0.0)), ("p1", (-2.0, 0.0))],
            [make_image("t0", [("p0", 1.0, 0, 0), ("p1", 1.0, 1, 1)], split="test",
                        width=100, height=100, feature_h=2, feature_w=2, class_label=0)],
        )
        ann = make_annotations(
            [make_ann_image("t0", [make_roi((65, 65, 85, 85))],
                            split="test", width=100, height=100)]
        )
        config = RunConfig(k=10, patch_size=50)
        # p1's patch is the bottom-right cell, overlapping the ROI
        assert _localization_detail(dump, ann, config)[1]["top1"].iou > 0


class TestEvaluate:
    def test_no_relevant_prototypes(self):
        dump, ann = _purity_fixture(0, 10)
        # needs a test image with an ROI for localization to be defined
        dump = helpers.build_dump(
            dump.model_name, dump.seed, dump.class_names, dump.prototypes,
            [replace(img, entries=rows) for img, rows in zip(dump.images, helpers.image_rows(dump))]
            + [make_image("te0", [("p0", 1.0, 0, 0)], split="test")],
        )
        ann = AnnotationSet(
            ann.class_names,
            ann.images + (
                make_ann_image("te0", [make_roi((48, 48, 80, 80))], split="test"),
            ),
        )
        report = evaluate(dump, ann, MAMMO_LEXICON, CONFIG)
        assert report.scores.relevance == 0.0
        assert report.scores.uniqueness is None
        assert report.scores.class_specific is None
        assert all(v is None for v in report.scores.specialization.values())
        assert report.scores.coverage == 0.0

    def test_relabeling_invariance(self):
        spec = SynthSpec(rng_seed=9)
        dump, ann, lexicon, _ = generate(spec)
        base = flatten_scores(evaluate(dump, ann, lexicon, spec.config()).scores)

        proto_map = {p.prototype_id: f"z{900 - i:03d}" for i, p in enumerate(dump.prototypes)}
        image_map = {img.image_id: f"im{950 - i:03d}" for i, img in enumerate(dump.images)}
        renamed_dump = helpers.build_dump(
            dump.model_name, dump.seed, dump.class_names,
            tuple(PrototypeRecord(proto_map[p.prototype_id], p.class_weights)
                  for p in dump.prototypes),
            [replace(img, image_id=image_map[img.image_id],
                     entries=[(proto_map[pid], score, row, col) for pid, score, row, col in rows])
             for img, rows in zip(dump.images, helpers.image_rows(dump))],
        )
        renamed_ann = AnnotationSet(
            ann.class_names,
            tuple(
                AnnotatedImage(image_map[img.image_id], img.width, img.height,
                               img.split, img.class_label, img.rois)
                for img in ann.images
            ),
        )
        renamed = flatten_scores(evaluate(renamed_dump, renamed_ann, lexicon, spec.config()).scores)
        assert renamed == base

    def test_scale_invariance(self):
        spec = SynthSpec(rng_seed=21)
        dump, ann, lexicon, _ = generate(spec)
        base = flatten_scores(evaluate(dump, ann, lexicon, spec.config()).scores)
        for c in (0.5, 3.0, 1000.0):
            scaled = helpers.build_dump(
                dump.model_name, dump.seed, dump.class_names, dump.prototypes,
                [replace(img, entries=[(pid, score * c, row, col)
                                       for pid, score, row, col in rows])
                 for img, rows in zip(dump.images, helpers.image_rows(dump))],
            )
            assert flatten_scores(evaluate(scaled, ann, lexicon, spec.config()).scores) == base

    def test_matching_an_unmatched_patch_is_monotone(self):
        dump, ann = _purity_fixture(6, 4)
        base = evaluate_verdicts(dump, ann)
        base_purity = base[0].purity_per_level["type"][1]
        # give one previously-ROI-free image an ROI at the patch center
        improved_images = list(ann.images)
        improved_images[8] = make_ann_image("tr08", [make_roi((48, 48, 80, 80))])
        improved = evaluate_verdicts(dump, make_annotations(improved_images))
        assert improved[0].is_relevant
        assert improved[0].purity_per_level["type"][1] >= base_purity

    def test_deterministic_reports(self, tmp_path):
        from pefcoh.report import write_report

        spec = SynthSpec(rng_seed=4)
        dump, ann, lexicon, _ = generate(spec)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(a, evaluate(dump, ann, lexicon, spec.config()), fixed_timestamp=True)
        write_report(b, evaluate(dump, ann, lexicon, spec.config()), fixed_timestamp=True)
        assert a.read_bytes() == b.read_bytes()


class TestRunConfig:
    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be a finite number >= 0"):
            RunConfig(eps=eps)

    @pytest.mark.parametrize("field, value, message", [
        ("tc_override", 0, "tc_override must be None or >= 1, got 0"),
        ("tc_override", -4, "tc_override must be None or >= 1, got -4"),
        ("tc_split", "nonsense",
         "tc_split must be None or one of ('train', 'test'), got 'nonsense'"),
        ("tc_split", "all", "tc_split must be None or one of ('train', 'test'), got 'all'"),
    ], ids=["tc_override-0", "tc_override-negative", "tc_split-nonsense", "tc_split-all"])
    def test_bad_category_universe_setting_rejected(self, field, value, message):
        with pytest.raises(ValueError) as info:
            RunConfig(**{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("field, value", [
        ("tc_override", None), ("tc_override", 1), ("tc_split", None),
        ("tc_split", "train"), ("tc_split", "test"),
    ])
    def test_category_universe_settings_accepted(self, field, value):
        assert getattr(RunConfig(**{field: value}), field) == value

    def test_unknown_class_specific_level_named_first(self):
        # checked with the reported levels, before any property is computed
        dump, ann = make_dump([], []), make_annotations([])
        with pytest.raises(ValueError) as info:
            evaluate(dump, ann, MAMMO_LEXICON, RunConfig(class_specific_level="nope"))
        assert str(info.value) == "configured level 'nope' not declared by lexicon"


class TestAggregate:
    def test_closed_form(self):
        result = aggregate_flat([{"relevance": 0.2}, {"relevance": 0.3}, {"relevance": 0.4}])
        prop = result["relevance"]
        assert prop.mean == pytest.approx(0.3)
        assert prop.std == pytest.approx(0.1)
        assert prop.n == 3

    def test_identical_runs_zero_std(self):
        result = aggregate_flat([{"coverage": 0.25}] * 3)
        assert result["coverage"].std == 0.0

    def test_single_run_no_std(self):
        result = aggregate_flat([{"coverage": 0.25}])
        assert result["coverage"].std is None
        assert result["coverage"].n == 1

    def test_absent_values_counted(self):
        result = aggregate_flat([{"uniqueness": None}, {"uniqueness": 0.5}, {"uniqueness": 0.7}])
        assert result["uniqueness"].n == 2
        assert result["uniqueness"].mean == pytest.approx(0.6)

    def test_absent_everywhere_is_none(self):
        assert aggregate_flat([{"uniqueness": None}] * 2)["uniqueness"] is None

    def test_mixed_configs_rejected(self):
        spec = SynthSpec(rng_seed=1)
        dump, ann, lexicon, _ = generate(spec)
        r1 = evaluate(dump, ann, lexicon, spec.config())
        r2 = evaluate(dump, ann, lexicon, RunConfig(k=5, patch_size=spec.patch_size))
        with pytest.raises(ValueError, match="mixed configs.*k"):
            aggregate([r1, r2])

    def test_two_models_rejected(self):
        reports = []
        for seed, model in ((1, "m1"), (2, "m2")):
            spec = SynthSpec(rng_seed=seed, model_name=model)
            dump, ann, lexicon, _ = generate(spec)
            reports.append(evaluate(dump, ann, lexicon, spec.config()))
        with pytest.raises(ConsistencyError, match="different models.*'m1'.*'m2'.*compare"):
            aggregate(reports)

    def test_multi_seed_aggregate(self):
        reports = []
        for seed in (1, 2, 3):
            spec = SynthSpec(rng_seed=seed)
            dump, ann, lexicon, _ = generate(spec)
            reports.append(evaluate(dump, ann, lexicon, spec.config()))
        result = aggregate(reports)
        assert result["global_prototypes"].n == 3
        assert result["relevance"].std is not None


# ---------------------------------------------------------------------------
# the columnar paths against the per-entry reference loops in helpers


def _roi_side(draw, lo, hi, limit):
    """One ROI side with whole-pixel ends in [0, limit]: centered anywhere,
    or on or next to the patch edge ``lo`` or ``hi``."""
    doubled = draw(st.sampled_from([math.floor(2 * lo), math.ceil(2 * lo),
                                    math.floor(2 * hi), math.ceil(2 * hi)])
                   | st.integers(1, 2 * limit - 1))  # twice the center
    size = 2 * draw(st.integers(1, 20)) - doubled % 2  # whole-pixel ends
    start = min(max(0, (doubled - size) // 2), limit - 1)
    return start, min(limit, start + size)


def _rois_around(draw, patch, width, height):
    """An ROI box placed around ``patch``, then nothing, a duplicate, or
    its mirror image about the patch center (equidistant from it) when that
    has whole-pixel ends inside the image."""
    x0, x1 = _roi_side(draw, patch.x_min, patch.x_max, width)
    y0, y1 = _roi_side(draw, patch.y_min, patch.y_max, height)
    boxes = [(x0, y0, x1, y1)]
    copy = draw(st.sampled_from(["none", "duplicate", "mirror x", "mirror y"]))
    if copy == "duplicate":
        boxes.append((x0, y0, x1, y1))
    elif copy == "mirror x" and (x := _mirrored(x0, x1, patch.x_min + patch.x_max, width)):
        boxes.append((x[0], y0, x[1], y1))
    elif copy == "mirror y" and (y := _mirrored(y0, y1, patch.y_min + patch.y_max, height)):
        boxes.append((x0, y[0], x1, y[1]))
    return boxes


def _mirrored(lo, hi, twice_center, limit):
    """The side ``[lo, hi)`` mirrored about ``twice_center / 2``, or None when
    its ends are not whole pixels in ``[0, limit]``."""
    if twice_center.denominator == 1 and 0 <= twice_center - hi and twice_center - lo <= limit:
        return int(twice_center) - hi, int(twice_center) - lo
    return None


# odd sides, sides at or past every image side drawn below, and one past int64
PATCH_SIZES = [1, 7, 30, 63, 64, 161, 200, 2**70]


@st.composite
def evidence_cases(draw):
    """A small dump with its annotations and a patch size. Prototype and
    image ids are random strings, so their sorted order differs from file
    order; scores mix integers and floats from a short list, so equal scores
    recur across images; about half the scores are 1e308, which times a
    weight of 2.0 or -2.0 overflows, so contributions reach inf or -inf and
    tie at an infinite magnitude; some prototypes weigh zero, -0.0 or
    exactly +-eps of the differentials below, and some weigh both classes
    alike, so globalness, contributions and alignment meet their boundaries
    and ties; some train images are unannotated; pools are often shorter
    than k. Image sides are
    often odd and feature maps up to 7x7, so patch edges are fractional; some
    ROIs are centered on or next to an entry's patch edge, duplicated or
    mirrored about its patch center. The first image is a test image with an
    ROI, so localization has an image to score."""
    pids = draw(st.lists(st.text("abAB0_", min_size=1, max_size=3),
                         min_size=1, max_size=7, unique=True))
    weight = st.sampled_from([0, 0.0, -0.0, 1, -1, 0.5, -0.25, 2.0, -2.0, 1e-9,
                              1e-8, -1e-8, 0.6, -0.6])
    prototypes = []
    for pid in pids:
        w = draw(weight)
        prototypes.append((pid, (w, w if draw(st.booleans()) else draw(weight))))
    image_ids = draw(st.lists(st.text("xyXY9", min_size=1, max_size=3),
                              min_size=1, max_size=10, unique=True))
    score = st.sampled_from([0, 1, 2, 0.5, 2.0, 1e-9]) | st.just(1e308)
    patch_size = draw(st.sampled_from(PATCH_SIZES))
    images, ann_images = [], []
    for i, image_id in enumerate(image_ids):
        split = "test" if i == 0 else draw(st.sampled_from(["train", "test"]))
        label = draw(st.integers(0, 1))
        feature_h, feature_w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        width, height = draw(st.integers(9, 160)), draw(st.integers(9, 160))
        n_entries = draw(st.integers(0, len(pids)) | st.just(len(pids)))
        chosen = draw(st.permutations(pids))[:n_entries]
        entries = [
            (pid, draw(score), draw(st.integers(0, feature_h - 1)),
             draw(st.integers(0, feature_w - 1)))
            for pid in chosen
        ]
        images.append(make_image(image_id, entries, split, width, height, label,
                                 feature_h, feature_w))
        if i and draw(st.integers(0, 3)) == 0:
            continue  # unannotated
        boxes = []
        for _ in range(draw(st.integers(0 if i else 1, 3))):
            if entries and draw(st.booleans()):
                _, _, row, col = draw(st.sampled_from(entries))
                patch = helpers.resolve_patch_box(row, col, feature_h, feature_w,
                                                  width, height, patch_size)
                boxes.extend(_rois_around(draw, patch, width, height))
                continue
            x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
            boxes.append((x0, y0, draw(st.integers(x0 + 1, width)),
                          draw(st.integers(y0 + 1, height))))
        rois = [category_roi(draw(st.integers(0, 2)),
                             draw(st.sampled_from(["mass", "calcification"])),
                             roi_class=draw(st.integers(0, 1)), bbox=bbox)
                for bbox in boxes]
        ann_images.append(make_ann_image(image_id, rois, split, width, height, label))
    return make_dump(prototypes, images), make_annotations(ann_images), patch_size


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _parsed(dump):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.json"
        write_dump(path, dump)
        return parse_dump(path)


@given(evidence_cases(), st.integers(1, 4), st.sampled_from([0.0, 1e-8, 0.6]))
@settings(max_examples=helpers.examples(250), deadline=None)
def test_table_paths_match_reference_loops(case, k, eps):
    dump, annotations, patch_size = case
    config = RunConfig(k=k, patch_size=patch_size, eps=eps)
    for d in (dump, _parsed(dump)):
        for convention in (GROUND_TRUTH, MAX_WEIGHT):
            assert _outcome(local_prototypes, d, config.eps, convention) == _outcome(
                helpers.local_prototypes, d, config.eps, convention)
        evidence = top_k_evidence(d, annotations, MAMMO_LEXICON, config)
        assert evidence == helpers.top_k_evidence(d, annotations, MAMMO_LEXICON, config)
        assert all(type(item.roi_index) in (int, type(None))
                   for ev in evidence for item in ev.items)
        detail = _outcome(_localization_detail, d, annotations, config)
        assert detail == _outcome(helpers._localization_detail, d, annotations, config)
        if detail[0] == "value":
            assert all(type(row.n_candidates) is int for row in detail[1][0])


@pytest.mark.parametrize("pb, pa", [
    # equal |score x weight|, 2.0 and 2.0
    (((1.0, 1.0), 2.0), ((2.0, 2.0), 1.0)),
    # 1e308 x 2.0 and 1e308 x -2.0 overflow to inf and -inf, equal in magnitude
    (((2.0, 2.0), 1e308), ((-2.0, -2.0), 1e308)),
], ids=["finite", "infinite"])
def test_localization_ties_break_by_prototype_id_not_file_order(pb, pa):
    # "pb" comes first in the file, "pa" sorts first and its patch, cell
    # (1, 1) of a 2x2 map, is exactly the ROI; each is (weights, score)
    dump = make_dump(
        [("pb", pb[0]), ("pa", pa[0])],
        [make_image("te", [("pb", pb[1], 0, 0), ("pa", pa[1], 1, 1)], split="test",
                    width=100, height=100, feature_h=2, feature_w=2)],
    )
    ann = make_annotations(
        [make_ann_image("te", [make_roi((50, 50, 100, 100))], split="test",
                        width=100, height=100)]
    )
    config = RunConfig(patch_size=50)
    for d in (dump, _parsed(dump)):
        detail = _localization_detail(d, ann, config)
        assert detail[0][0].per_variant["top1"] == LocalizationScore(1.0, 1.0)
        assert detail == helpers._localization_detail(d, ann, config)


def _reference_candidates(dump, annotations, k, eps):
    """The table rows of the pool (entries of global prototypes on annotated
    train images) at or above their prototype's k-th highest pool score, or
    every pool row of a prototype with fewer: one pass in plain Python."""
    annotated = {img.image_id for img in annotations.images}
    weights = {p.prototype_id: p.class_weights for p in dump.prototypes}
    pool, row = {}, 0
    for img, rows in zip(dump.images, helpers.image_rows(dump)):
        for pid, score, _, _ in rows:
            if (img.split == "train" and img.image_id in annotated
                    and any(abs(w) > eps for w in weights[pid])):
                pool.setdefault(pid, []).append((score, row))
            row += 1
    rows = []
    for scored in pool.values():
        scores = sorted((score for score, _ in scored), reverse=True)
        threshold = scores[k - 1] if len(scores) >= k else -math.inf
        rows.extend(r for score, r in scored if score >= threshold)
    return sorted(rows)


def _runs_of(chunk):
    """Runs of whole images of about ``chunk`` entries, for every stage that
    reads the table in pieces (``columns._image_runs``)."""
    return mock.patch.object(columns, "_CHUNK", chunk)


# the values of columns._CHUNK: runs of one entry, a few entries, and one run
CHUNKS = [1, 2, 3, 2**62]


def _chunked_candidates(dump, annotations, k, eps, chunk):
    """``metrics._pool_candidates`` as ``top_k_evidence`` calls it, picking
    from runs of about ``chunk`` entries."""
    annotated = {img.image_id for img in annotations.images}
    mask = np.array([img.split == "train" and img.image_id in annotated
                     for img in dump.images], dtype=bool)
    with _runs_of(chunk):
        return metrics._pool_candidates(
            dump.activations, mask, metrics._global_mask(dump, eps), k).tolist()


@given(evidence_cases(), st.integers(1, 4), st.sampled_from([0.0, 1e-8, 0.6]))
@settings(max_examples=helpers.examples(150), deadline=None)
def test_chunked_top_k_candidates_match_reference(case, k, eps):
    dump, annotations, patch_size = case
    config = RunConfig(k=k, patch_size=patch_size, eps=eps)
    expected = _reference_candidates(dump, annotations, k, eps)
    whole = _chunked_candidates(dump, annotations, k, eps, CHUNKS[-1])  # one run
    assert whole == expected
    evidence = helpers.top_k_evidence(dump, annotations, MAMMO_LEXICON, config)
    for chunk in (1, 2, 3):
        assert _chunked_candidates(dump, annotations, k, eps, chunk) == expected
        with _runs_of(chunk):
            assert top_k_evidence(dump, annotations, MAMMO_LEXICON, config) == evidence


def test_chunked_top_k_candidates_pinned_case_matches_reference():
    # k = 2. "g" scores 2.0 on "c", "a" and "k", three ties of its 2nd score
    # in images apart, and less on "h"; "s" has fewer than k pool entries
    # until "n", the first alone in the pool so far; "t" has one; "z" weighs
    # zero, alone on "e" and "b"; "d" and "f" hold no entries; "i" is
    # unannotated and "j" a test image, both outside the pool
    g, s, t, z = "g", "s", "t", "z"
    images = [("e", [(z, 5.0)]), ("m", [(s, 1.0)]), ("d", []), ("n", [(s, 0.5)]),
              ("c", [(g, 2.0), (t, 1.0)]), ("b", [(z, 9.0)]), ("a", [(g, 2.0)]), ("f", []),
              ("h", [(g, 1.0), (s, 0.25), (z, 1.0)]), ("i", [(g, 2.0)]), ("j", [(g, 3.0)]),
              ("k", [(z, 3.0), (g, 2.0)])]
    dump = make_dump(
        [(g, (1.0, 0.0)), (s, (0.5, 0.5)), (t, (0.0, -0.25)), (z, (0.0, 0.0))],
        [make_image(image_id, [(pid, score, 0, 0) for pid, score in entries],
                    "test" if image_id == "j" else "train", 64, 64, 0, 2, 2)
         for image_id, entries in images],
    )
    annotations = make_annotations(
        [make_ann_image(image_id, [category_roi(n, bbox=(0, 0, 20, 20))], "train", 64, 64)
         for n, (image_id, _) in enumerate(images) if image_id not in ("i", "j")]
        + [make_ann_image("j", [make_roi((0, 0, 8, 8))], "test", 64, 64)]
    )
    expected = _reference_candidates(dump, annotations, 2, 1e-8)
    assert expected == [1, 2, 3, 4, 6, 13]  # s's top 2, g's three ties, t
    config = RunConfig(k=2, patch_size=16)
    evidence = top_k_evidence(dump, annotations, MAMMO_LEXICON, config)
    assert [[item.image_id for item in ev.items] for ev in evidence] == [
        ["a", "c"], ["m", "n"], ["c"]]
    assert evidence == helpers.top_k_evidence(dump, annotations, MAMMO_LEXICON, config)
    table, is_global = dump.activations, metrics._global_mask(dump, 1e-8)
    for chunk in (1, 2, 3):
        assert _chunked_candidates(dump, annotations, 2, 1e-8, chunk) == expected
        with _runs_of(chunk):
            assert top_k_evidence(dump, annotations, MAMMO_LEXICON, config) == evidence
            assert len(columns._image_runs(table.offsets)) > 2
    # with runs of one entry, "e" and "b" each make a run that holds entries
    # but no global prototype
    with _runs_of(1):
        runs = columns._image_runs(table.offsets)
    assert [(a, b) for a, b in runs
            if table.offsets[a] < table.offsets[b]
            and not is_global[table.proto[table.offsets[a]:table.offsets[b]]].any()
            ] == [(0, 1), (5, 6)]


@given(evidence_cases(), st.sampled_from([0.0, 1e-8, 0.6]))
@settings(max_examples=helpers.examples(100), deadline=None)
def test_chunked_test_split_stages_match_reference(case, eps):
    dump, annotations, patch_size = case
    stages = [(local_prototypes, helpers.local_prototypes, (dump, eps, convention))
              for convention in (GROUND_TRUTH, MAX_WEIGHT)]
    stages.append((_localization_detail, helpers._localization_detail,
                   (dump, annotations, RunConfig(patch_size=patch_size, eps=eps))))
    for stage, reference, args in stages:
        expected = _outcome(reference, *args)
        for chunk in CHUNKS:
            with _runs_of(chunk):
                assert _outcome(stage, *args) == expected


def _dense_dump_obj(n_images, n_prototypes, seed=3):
    """A valid dump with an entry for every prototype on every train image,
    distinct random scores, and every tenth prototype of zero weight."""
    rng = random.Random(seed)
    return {
        "format": "pefcoh-dump/1", "model_name": "m", "seed": 1,
        "class_names": ["benign", "malignant"],
        "prototypes": [{"id": f"p{j}", "class_weights": [0.0, 0.0] if j % 10 == 0 else [1.0, -0.5]}
                       for j in range(n_prototypes)],
        "images": [
            {"image_id": f"img{i}", "split": "train", "width": 100, "height": 100,
             "class_label": i % 2, "feature_h": 4, "feature_w": 4,
             "entries": [{"prototype_id": f"p{j}", "score": rng.random(),
                          "row": rng.randrange(4), "col": rng.randrange(4)}
                         for j in range(n_prototypes)]}
            for i in range(n_images)
        ],
    }


def test_top_k_peak_memory_bounded_by_the_chunk(tmp_path):
    # 131072 and 262144 entries, 4 and 8 runs of 2**15 entries (the chunk
    # these bounds were set at); one pass over the whole pool took 1.44x the
    # table's bytes on both
    peaks = []
    for n_images in (1024, 2048):
        path = tmp_path / f"d{n_images}.json"
        path.write_text(json.dumps(_dense_dump_obj(n_images, 128)), encoding="utf-8")
        dump = parse_dump(path)
        annotations = make_annotations(
            [make_ann_image(f"img{i}", [category_roi(i % 3, bbox=(10, 10, 40, 40))], "train",
                            100, 100, i % 2) for i in range(n_images)])
        t = dump.activations
        table_bytes = sum(a.nbytes for a in (t.offsets, t.proto, t.score, t.row, t.col))
        tracemalloc.start()
        try:
            top_k_evidence(dump, annotations, MAMMO_LEXICON, RunConfig(k=10, patch_size=30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * table_bytes
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0]


def _dense_test_case(n_images, n_prototypes=1024):
    """A dump, built from arrays, with an entry for every prototype on every
    test image, each image annotated with one ROI; one prototype in 64 has
    a non-zero weight, so each image has 16 localization candidates. Also
    the bytes of the dump's table."""
    prototypes = tuple(PrototypeRecord(f"p{j:04d}", (1.0, -0.5) if j % 64 == 0 else (0.0, 0.0))
                       for j in range(n_prototypes))
    n = n_images * n_prototypes
    rng = np.random.default_rng(0)
    table = ActivationTable.from_columns(
        prototypes, 2, [n_prototypes] * n_images, np.tile(np.arange(n_prototypes), n_images),
        rng.random(n), rng.integers(0, 4, n), rng.integers(0, 4, n))
    images = [ImageActivationRecord(f"img{i}", "test", 100, 100, i % 2, 4, 4, ())
              for i in range(n_images)]
    dump = helpers.table_dump("m", 1, ("benign", "malignant"), prototypes, images, table)
    annotations = make_annotations(
        [make_ann_image(f"img{i}", [make_roi((10, 10, 40, 40))], "test", 100, 100, i % 2)
         for i in range(n_images)])
    return dump, annotations, sum(a.nbytes for a in (table.offsets, table.proto, table.score,
                                                     table.row, table.col))


@pytest.mark.parametrize("stage", ["local_prototypes", "localization"])
def test_test_split_peak_memory_bounded_by_the_chunk(stage):
    # 131072 and 262144 entries, 4 and 8 runs of 2**15 entries (the chunk
    # these bounds were set at), in 128 and 256 images as wide as a
    # paper-scale dump's (fewer, wider images keep the traced per-image work
    # short). The peak above the result read 0.31 (local_prototypes) and
    # 0.51 (localization) of the table's bytes at 128 images; read over the
    # whole test split at once, it was 1.00 and 1.03-1.06 on both sizes
    peaks = []
    for n_images in (128, 256):
        dump, annotations, table_bytes = _dense_test_case(n_images)
        tracemalloc.start()
        try:
            if stage == "local_prototypes":
                result = local_prototypes(dump, 1e-8)
            else:
                result = _localization_detail(dump, annotations, RunConfig(patch_size=30))
            held, peak = tracemalloc.get_traced_memory()  # held: the result, still alive
        finally:
            tracemalloc.stop()
        assert peak - held <= 0.6 * table_bytes
        peaks.append(peak - held)
    assert peaks[1] <= 1.1 * peaks[0], peaks


@st.composite
def cells_and_rois(draw):
    """Up to three images, each with a few feature-map cells and ROIs placed
    around their patches (see :func:`_rois_around`); odd image sides,
    feature maps up to 7x7 and odd patch sides give fractional edges."""
    patch_size = draw(st.sampled_from(PATCH_SIZES) | st.integers(1, 160))
    images, cells = [], []
    for index in range(draw(st.integers(1, 3))):
        width, height = draw(st.integers(9, 151)), draw(st.integers(9, 151))
        feature_h, feature_w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        image_cells = draw(st.lists(st.tuples(st.integers(0, feature_h - 1),
                                              st.integers(0, feature_w - 1)),
                                    min_size=1, max_size=4))
        boxes = []
        for _ in range(draw(st.integers(0, 4))):
            row, col = draw(st.sampled_from(image_cells))
            patch = helpers.resolve_patch_box(row, col, feature_h, feature_w,
                                              width, height, patch_size)
            boxes.extend(_rois_around(draw, patch, width, height))
        ann = make_ann_image(f"img{index}", [make_roi(b) for b in boxes],
                             width=width, height=height)
        images.append((feature_h, feature_w, ann))
        cells.extend((index, row, col) for row, col in image_cells)
    order = draw(st.permutations(range(len(cells))))
    return images, [cells[j] for j in order], patch_size


@given(cells_and_rois())
@settings(max_examples=helpers.examples(300), deadline=None)
def test_match_roi_matches_reference(case):
    images, cells, patch_size = case
    image, rows, cols = (np.array(column, dtype=np.int64) for column in zip(*cells))
    expected = []
    for i, row, col in cells:
        feature_h, feature_w, ann = images[i]
        patch = helpers.resolve_patch_box(row, col, feature_h, feature_w,
                                          ann.width, ann.height, patch_size)
        expected.append(helpers._match_roi(patch, ann))
    got = _match_rois(images, image, rows, cols, patch_size)
    assert got == expected
    assert all(type(r) in (int, type(None)) for r in got)


# ROI-center containment is half-open: a center on a patch's low edge is in
# it, one on its high edge is not. Each case is (image width, height, feature
# map, cell, patch size, ROI boxes, matched ROI index).
CONTAINMENT_CASES = {
    "inside": (10, 10, (1, 1), (0, 0), 10, [(4, 4, 6, 6)], 0),
    # patches [0, 10) and [10, 20) on x; the ROI center is (10, 5)
    "on-high-edge": (20, 10, (1, 2), (0, 0), 10, [(9, 4, 11, 6)], None),
    "on-low-edge": (20, 10, (1, 2), (0, 1), 10, [(9, 4, 11, 6)], 0),
    # the cell center (384, 768) of a 768x1536 image
    "resolved-patch": (768, 1536, (1, 1), (0, 0), 130, [(374, 758, 394, 778)], 0),
    # the patch is [1/2, 5/2) on both axes; ROI centers (1/2, 1/2) and (5/2, 5/2)
    "fractional-low-edge": (3, 3, (1, 1), (0, 0), 2, [(2, 2, 3, 3), (0, 0, 1, 1)], 1),
    "fractional-high-edge": (3, 3, (1, 1), (0, 0), 2, [(2, 2, 3, 3)], None),
}


@pytest.mark.parametrize("case", CONTAINMENT_CASES.values(), ids=CONTAINMENT_CASES)
def test_match_roi_half_open_containment(case):
    width, height, (feature_h, feature_w), (row, col), patch_size, boxes, expected = case
    ann = make_ann_image("img", [make_roi(b) for b in boxes], width=width, height=height)
    got = _match_rois([(feature_h, feature_w, ann)], np.array([0]), np.array([row]),
                      np.array([col]), patch_size)
    patch = helpers.resolve_patch_box(row, col, feature_h, feature_w, width, height, patch_size)
    assert got == [expected] == [helpers._match_roi(patch, ann)]


@st.composite
def verdict_cases(draw):
    """Top-k evidence built directly: per level, category values whose string
    order differs from the order the items first name them in, equal counts
    included; unmatched items; prototypes without evidence."""
    levels = ("type", "mass-shape", "combined")
    values = st.sampled_from(["b", "a", "ab", "B", "é", "a-b", "_"])
    weight = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
    k = draw(st.integers(1, 6))
    prototypes, evidence = [], []
    for n in range(draw(st.integers(1, 5))):
        pid = f"p{n}"
        prototypes.append((pid, (draw(weight), draw(weight))))
        if draw(st.integers(0, 3)) == 0:
            continue  # not global: no evidence
        items = []
        for _ in range(draw(st.integers(0, k))):
            named = draw(st.lists(st.sampled_from(levels), unique=True))
            if named:
                categories = {level: CategoryId(level, draw(values)) for level in named}
                items.append(EvidenceItem("img", 1.0, (0.0, 0.0, 1.0, 1.0), 0, categories))
            else:
                items.append(EvidenceItem("img", 1.0, (0.0, 0.0, 1.0, 1.0), None, None))
        evidence.append(TopKEvidence(pid, k, tuple(items), k - len(items)))
    class_counts = {
        CategoryId(level, value): (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        for level in levels for value in draw(st.lists(values, unique=True))
    }
    wanted = tuple(draw(st.lists(st.sampled_from(levels), unique=True)))
    return make_dump(prototypes, []), evidence, wanted, draw(st.sampled_from(levels)), class_counts


@given(verdict_cases())
@settings(max_examples=helpers.examples(300), deadline=None)
def test_verdicts_match_reference(case):
    assert build_verdicts(*case) == helpers.build_verdicts(*case)


@given(evidence_cases(), st.integers(1, 4))
@settings(max_examples=helpers.examples(100), deadline=None)
def test_evaluated_verdicts_match_reference(case, k):
    dump, annotations, patch_size = case
    config = RunConfig(k=k, patch_size=patch_size)
    evidence = top_k_evidence(dump, annotations, MAMMO_LEXICON, config)
    counts = derive_category_universe(annotations, MAMMO_LEXICON, COMBINED_LEVEL)
    args = (dump, evidence, MAMMO_LEXICON.levels(), COMBINED_LEVEL, counts)
    assert build_verdicts(*args) == helpers.build_verdicts(*args)


class TestExactGridBound:
    """A dump built in code can hold an image too large for the int64
    lattice, which the dump parser rejects; the metrics raise OverflowError
    rather than wrap."""

    @staticmethod
    def _case(side):
        dump = make_dump(
            [("p0", (1.0, 1.0))],
            [make_image("tr", [("p0", 1.0, 0, 0)], "train", side, 8),
             make_image("te", [("p0", 1.0, 0, 0)], "test", side, 8)],
        )
        rois = [make_roi((0, 0, 5, 5)), make_roi((side - 9, 0, side, 5))]
        ann = make_annotations([make_ann_image("tr", rois, "train", side, 8),
                                make_ann_image("te", rois, "test", side, 8)])
        return dump, ann

    def test_largest_side_matches_reference(self):
        dump, ann = self._case(2**62 - 1)
        config = RunConfig(patch_size=2**70)
        evidence = top_k_evidence(dump, ann, MAMMO_LEXICON, config)
        assert evidence == helpers.top_k_evidence(dump, ann, MAMMO_LEXICON, config)
        assert evidence[0].items[0].roi_index == 1  # both centers inside; the far one nearer
        assert (_localization_detail(dump, ann, config)
                == helpers._localization_detail(dump, ann, config))

    def test_side_past_int64_raises(self):
        dump, ann = self._case(2**62)
        with pytest.raises(OverflowError):
            top_k_evidence(dump, ann, MAMMO_LEXICON, CONFIG)
        with pytest.raises(OverflowError):
            _localization_detail(dump, ann, CONFIG)
