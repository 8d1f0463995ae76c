import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from pefcoh.dumpio import parse_dump, total_categories, write_dump, write_json
from pefcoh.metrics import GROUND_TRUTH, MAX_WEIGHT, RunConfig, evaluate, flatten_scores
from pefcoh.oracle import MAX_IMAGES, MAX_PROTOTYPES, MAX_SIDE, brute_force_scores
from pefcoh.synth import (
    InfeasibleSpecError,
    SynthSpec,
    generate,
    ledger_to_json,
    parse_ledger,
    parse_synth_spec,
)

import helpers
from helpers import (
    MAMMO_LEXICON,
    category_roi,
    make_ann_image,
    make_annotations,
    make_dump,
    make_image,
)


def assert_scores_match(got, expected, context="", localization=True):
    flat_got, flat_expected = flatten_scores(got), flatten_scores(expected)
    assert flat_got.keys() == flat_expected.keys()
    for key in flat_got:
        if not localization and key.startswith("localization."):
            continue
        a, b = flat_got[key], flat_expected[key]
        if a is None or b is None:
            assert a is None and b is None, f"{context} {key}: {a} != {b}"
        elif isinstance(a, int) and isinstance(b, int):
            assert a == b, f"{context} {key}: {a} != {b}"
        else:
            assert abs(a - b) <= 1e-9, f"{context} {key}: {a} != {b}"


class TestGenerate:
    def test_same_seed_identical_bytes(self):
        spec = SynthSpec(rng_seed=13)
        texts = []
        for _ in range(2):
            dump, ann, lexicon, ledger = generate(spec)
            texts.append(helpers.dump_text(dump))
        assert texts[0] == texts[1]

    def test_distinct_seeds_distinct_files(self):
        seen = set()
        for seed in range(40):
            dump, _, _, _ = generate(SynthSpec(rng_seed=seed))
            seen.add(helpers.dump_text(dump))
        assert len(seen) == 40

    def test_generated_dump_passes_parser(self, tmp_path):
        dump, _, _, _ = generate(SynthSpec(rng_seed=2))
        path = tmp_path / "dump.json"
        write_dump(path, dump)
        assert parse_dump(path) == dump

    def test_relevance_target_exact(self):
        spec = SynthSpec(rng_seed=5, n_prototypes=10, zero_weight_fraction=0.0,
                         relevance_target=0.5)
        dump, ann, lexicon, ledger = generate(spec)
        assert ledger.scores.relevance == 0.5
        report = evaluate(dump, ann, lexicon, spec.config())
        assert report.scores.relevance == 0.5

    def test_purity_target_one_fully_pure(self):
        spec = SynthSpec(rng_seed=6, purity_target=1.0)
        dump, ann, lexicon, ledger = generate(spec)
        report = evaluate(dump, ann, lexicon, spec.config())
        assert report.scores.specialization["combined"] == 1.0
        assert ledger.scores.specialization["combined"] == 1.0

    def test_ledger_integer_identities(self):
        for seed in range(10):
            _, _, _, ledger = generate(SynthSpec(rng_seed=seed))
            s = ledger.scores
            if s.relevant_prototypes:
                assert round(s.uniqueness * s.relevant_prototypes) == s.unique_categories
            assert round(s.coverage * s.total_categories) == s.unique_categories

    def test_ledger_verdict_flags_consistent(self):
        _, _, _, ledger = generate(SynthSpec(rng_seed=11))
        for verdict in ledger.prototypes:
            if verdict.is_relevant:
                assert verdict.is_global
                assert verdict.combined_category is not None
            else:
                assert verdict.combined_category is None

    @pytest.mark.parametrize(
        "kwargs, excerpt",
        [
            (dict(uniqueness_target=1.0, n_mass_categories=1, n_calc_categories=1),
             "unique categories"),
            (dict(purity_target=0.0), "purity_target"),
            (dict(image_width=510), "divisible"),
            (dict(image_width=500), "even pixel sides"),
            (dict(patch_size=200), "fit in one feature cell"),
            (dict(patch_size=7), "even"),
            (dict(zero_weight_fraction=1.0), "global prototypes"),
            (dict(n_train_images=5), "n_train_images"),
            (dict(relevance_target=1.5), "relevance_target"),
        ],
    )
    def test_infeasible_specs(self, kwargs, excerpt):
        with pytest.raises(InfeasibleSpecError, match=excerpt):
            generate(SynthSpec(rng_seed=0, **kwargs))

    def test_spec_round_trip(self, tmp_path):
        spec = SynthSpec(rng_seed=42, purity_target=0.9, model_name="x")
        path = tmp_path / "spec.json"
        write_json(path, spec.to_dict())
        assert parse_synth_spec(path) == spec

    def test_spec_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        write_json(path, {"format": "pefcoh-synthspec/1", "n_protos": 4})
        from pefcoh.dumpio import FormatError

        with pytest.raises(FormatError, match="unknown synth-spec field"):
            parse_synth_spec(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_prototypes", True),
            ("k", "10"),
            ("relevance_target", "0.5"),
            ("noise_level", False),
            ("model_name", 3),
            ("structure_seed", 2.5),
        ],
    )
    def test_spec_mistyped_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "spec.json"
        write_json(path, {"format": "pefcoh-synthspec/1", field: value})
        from pefcoh.dumpio import FormatError

        with pytest.raises(FormatError, match=f"synth-spec.{field} must be"):
            parse_synth_spec(path)

    def test_spec_float_field_accepts_integer(self, tmp_path):
        path = tmp_path / "spec.json"
        write_json(path, {"format": "pefcoh-synthspec/1", "noise_level": 1,
                          "structure_seed": None})
        assert parse_synth_spec(path) == SynthSpec(noise_level=1.0)

    def test_ledger_round_trip(self, tmp_path):
        _, _, _, ledger = generate(SynthSpec(rng_seed=3))
        path = tmp_path / "ledger.json"
        write_json(path, ledger_to_json(ledger))
        loaded = parse_ledger(path)
        assert loaded.config == ledger.config
        assert_scores_match(loaded.scores, ledger.scores, "ledger round trip")
        assert loaded.prototypes == ledger.prototypes


    def test_ledger_score_out_of_range_rejected(self, tmp_path):
        _, _, _, ledger = generate(SynthSpec(rng_seed=3))
        raw = ledger_to_json(ledger)
        raw["scores"]["relevance"] = -5.0
        path = tmp_path / "ledger.json"
        write_json(path, raw)
        from pefcoh.dumpio import FormatError

        with pytest.raises(FormatError) as info:
            parse_ledger(path)
        assert str(info.value) == (
            f"{path}: bad ledger.scores: relevance must be in [0, 1], got -5.0")

    @pytest.mark.parametrize("section, key, value, message", [
        ("config", "tc_split", "nonsense",
         "config: tc_split must be None or one of ('train', 'test'), got 'nonsense'"),
        ("config", "tc_override", 0, "config: tc_override must be None or >= 1, got 0"),
        ("scores", "localization", {"bogus": {"iou": 0.5, "dsc": 0.5}},
         "scores: localization must hold exactly the variants ('top1', 'top10', 'all'), "
         "got ('bogus',)"),
    ], ids=["tc_split", "tc_override", "localization"])
    def test_ledger_header_rule_rejected(self, tmp_path, section, key, value, message):
        _, _, _, ledger = generate(SynthSpec(rng_seed=3))
        raw = ledger_to_json(ledger)
        raw[section][key] = value
        path = tmp_path / "ledger.json"
        write_json(path, raw)
        from pefcoh.dumpio import FormatError

        with pytest.raises(FormatError) as info:
            parse_ledger(path)
        assert str(info.value) == f"{path}: bad ledger.{message}"

    def test_category_top_up_linear_in_categories(self):
        # Lines of synth.py run by generate, a deterministic cost: each
        # doubling of the category count may at most double the extra work
        # (the top-up once recounted every ROI for each category).
        import sys
        from pefcoh import synth

        def lines(n):
            spec = SynthSpec(n_mass_categories=n, n_calc_categories=n, n_train_images=120)
            count = 0

            def count_lines(frame, event, arg):
                nonlocal count
                count += event == "line"
                return count_lines

            def trace(frame, event, arg):
                return count_lines if frame.f_code.co_filename == synth.__file__ else None

            sys.settrace(trace)
            try:
                generate(spec)
            finally:
                sys.settrace(None)
            return count

        small, medium, large = lines(50), lines(100), lines(200)
        assert large - medium <= 2.5 * (medium - small)


class TestEquivalence:
    def test_three_way_small_sweep(self):
        for seed in range(12):
            spec = SynthSpec(rng_seed=seed)
            dump, ann, lexicon, ledger = generate(spec)
            report = evaluate(dump, ann, lexicon, spec.config())
            assert_scores_match(report.scores, ledger.scores, f"ledger seed={seed}")
            oracle = brute_force_scores(dump, ann, lexicon, spec.config())
            assert_scores_match(report.scores, oracle, f"oracle seed={seed}")

    def test_type_level_total_categories_match_oracle(self):
        # a class-specific level other than combined, and no --tc: evaluate
        # walks the combined universe on its own to count TC
        spec = SynthSpec(rng_seed=3)
        dump, ann, lexicon, _ = generate(spec)
        config = dataclasses.replace(spec.config(), class_specific_level="type")
        report = evaluate(dump, ann, lexicon, config)
        assert_scores_match(report.scores, brute_force_scores(dump, ann, lexicon, config))
        assert report.scores.total_categories == total_categories(ann, lexicon)

    def test_verdicts_match_ledger(self):
        spec = SynthSpec(rng_seed=8)
        dump, ann, lexicon, ledger = generate(spec)
        report = evaluate(dump, ann, lexicon, spec.config())
        expected = {v.prototype_id: v for v in ledger.prototypes}
        for verdict in report.verdicts:
            want = expected[verdict.prototype_id]
            assert verdict.is_global == want.is_global
            assert verdict.is_relevant == want.is_relevant
            assert verdict.align == want.align
            assert verdict.combined_category == want.combined_category
            for level, purity in want.purity.items():
                assert float(verdict.purity_per_level[level][1]) == pytest.approx(
                    purity, abs=1e-12
                )

    def test_hand_fixture_relevance(self):
        # 2 global prototypes, one relevant: brute force agrees at 0.5
        from helpers import make_ann_image, make_annotations, make_roi, MAMMO_LEXICON

        dump = make_dump(
            [("p0", (1.0, -0.5)), ("p1", (1.0, -0.5))],
            [
                make_image("tr0", [("p0", 2.0, 0, 0)]),
                make_image("tr1", [("p1", 2.0, 0, 0)]),
                make_image("te0", [("p0", 1.0, 0, 0)], split="test"),
            ],
        )
        ann = make_annotations(
            [
                make_ann_image("tr0", [make_roi((48, 48, 80, 80))]),
                make_ann_image("tr1", []),
                make_ann_image("te0", [make_roi((48, 48, 80, 80))], split="test"),
            ]
        )
        config = RunConfig(k=10, patch_size=128)
        report = evaluate(dump, ann, MAMMO_LEXICON, config)
        oracle = brute_force_scores(dump, ann, MAMMO_LEXICON, config)
        assert report.scores.relevance == 0.5
        assert oracle.relevance == 0.5


class TestOracleGuard:
    def test_refuses_many_prototypes(self):
        dump = make_dump(
            [(f"p{i}", (1.0, 0.0)) for i in range(21)],
            [make_image("t0", [], split="test")],
        )
        from helpers import make_ann_image, make_annotations, MAMMO_LEXICON

        ann = make_annotations([make_ann_image("t0", [], split="test")])
        with pytest.raises(ValueError, match="too large"):
            brute_force_scores(dump, ann, MAMMO_LEXICON, RunConfig())

    def test_refuses_large_images(self):
        dump = make_dump(
            [("p0", (1.0, 0.0))],
            [make_image("t0", [], split="test", width=600, height=600)],
        )
        from helpers import make_ann_image, make_annotations, MAMMO_LEXICON

        ann = make_annotations(
            [make_ann_image("t0", [], split="test", width=600, height=600)]
        )
        with pytest.raises(ValueError, match="too large"):
            brute_force_scores(dump, ann, MAMMO_LEXICON, RunConfig())


@st.composite
def oracle_cases(draw):
    """A dump within the oracle's guard with its annotations and a run
    config, and whether every patch edge is a whole pixel. Prototype and
    image ids are random strings, so their sorted order differs from file
    order; scores come from a short list, so a prototype's scores tie across
    images; some prototypes weigh zero or both classes alike; two entries of
    an image often share a cell; some train images are unannotated; k is
    often above a prototype's pool; ROIs are often placed on an entry's
    cell; the class-specific level, the TC split and the TC override are
    drawn too, so alignment is read at every level and TC from either split
    or the override. Usually the first prototype is global and the first
    image is a test image with an ROI; other draws may have no global
    prototype, no test image or no ROI, where both sides must raise. In an
    aligned draw each side is a multiple of twice its cells and the patch
    side is even, so every patch edge is a whole pixel."""
    aligned = draw(st.booleans())
    # one draw in ten may lack a global prototype or a test image with an ROI
    usual = draw(st.sampled_from([True] * 9 + [False]))
    pids = draw(st.lists(st.text("abAB0_", min_size=1, max_size=3),
                         min_size=1, max_size=MAX_PROTOTYPES, unique=True))
    weight = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 2.0, 1e-9])
    prototypes = []
    for pid in pids:
        w = draw(st.sampled_from([1.0, -1.0, 2.0]) if usual and not prototypes else weight)
        prototypes.append((pid, (w, w if draw(st.booleans()) else draw(weight))))
    if aligned:
        patch_size = 2 * draw(st.integers(1, 100))
    else:
        patch_size = draw(st.sampled_from([1, 7, 30, 63, 161]) | st.integers(1, 300))
    image_ids = draw(st.lists(st.text("xyXY9", min_size=1, max_size=3),
                              min_size=1, max_size=min(MAX_IMAGES, 12), unique=True))
    score = st.sampled_from([0, 0.5, 1, 2.0, 3.5, 1e308])
    images, ann_images = [], []
    for i, image_id in enumerate(image_ids):
        split = "test" if i == 0 and usual else draw(st.sampled_from(["train", "test"]))
        label = draw(st.integers(0, 1))
        feature_h, feature_w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        if aligned:
            width = 2 * feature_w * draw(st.integers(1, MAX_SIDE // (2 * feature_w)))
            height = 2 * feature_h * draw(st.integers(1, MAX_SIDE // (2 * feature_h)))
        else:
            width, height = draw(st.integers(9, MAX_SIDE)), draw(st.integers(9, MAX_SIDE))
        entries = []
        for pid in draw(st.permutations(pids))[:draw(st.integers(0, len(pids)))]:
            if entries and draw(st.booleans()):
                cell = entries[-1][2:]  # a cell shared with the entry before
            else:
                cell = (draw(st.integers(0, feature_h - 1)), draw(st.integers(0, feature_w - 1)))
            entries.append((pid, draw(score), *cell))
        images.append(make_image(image_id, entries, split, width, height, label,
                                 feature_h, feature_w))
        if split == "train" and draw(st.integers(0, 3)) == 0:
            continue  # unannotated
        boxes = []
        for _ in range(draw(st.integers(1 if i == 0 and usual else 0, 3))):
            if entries and draw(st.booleans()):  # around an entry's cell center
                _, _, row, col = draw(st.sampled_from(entries))
                cx = (2 * col + 1) * width // (2 * feature_w)
                cy = (2 * row + 1) * height // (2 * feature_h)
                a, b = draw(st.integers(1, 40)), draw(st.integers(1, 40))
                boxes.append((max(0, cx - a), max(0, cy - b),
                              min(width, cx + a), min(height, cy + b)))
            else:
                x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
                boxes.append((x0, y0, draw(st.integers(x0 + 1, width)),
                              draw(st.integers(y0 + 1, height))))
        rois = [category_roi(draw(st.integers(0, 2)),
                             draw(st.sampled_from(["mass", "calcification"])),
                             roi_class=draw(st.integers(0, 1)), bbox=bbox)
                for bbox in boxes]
        ann_images.append(make_ann_image(image_id, rois, split, width, height, label))
    config = RunConfig(
        k=draw(st.integers(1, 5) | st.just(50)), patch_size=patch_size,
        eps=draw(st.sampled_from([0.0, 1e-8, 0.5])),
        lp_weight_class=draw(st.sampled_from([GROUND_TRUTH, MAX_WEIGHT])),
        class_specific_level=draw(st.sampled_from(MAMMO_LEXICON.levels())),
        tc_split=draw(st.sampled_from([None, "train", "test"])),
        tc_override=draw(st.none() | st.integers(1, 20)),
    )
    return make_dump(prototypes, images), make_annotations(ann_images), config, aligned


@given(oracle_cases())
@settings(max_examples=helpers.examples(200), deadline=None)
def test_scores_match_oracle_reference(case):
    # the oracle rasterizes boxes at whole pixels, so localization is
    # compared only when every edge is one
    dump, annotations, config, aligned = case
    try:
        expected = brute_force_scores(dump, annotations, MAMMO_LEXICON, config)
    except (ValueError, ArithmeticError):
        with pytest.raises((ValueError, ArithmeticError)):
            evaluate(dump, annotations, MAMMO_LEXICON, config)
        return
    got = evaluate(dump, annotations, MAMMO_LEXICON, config).scores
    assert_scores_match(got, expected, localization=aligned)
