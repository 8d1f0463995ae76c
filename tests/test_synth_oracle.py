import pytest

from pefcoh.dumpio import dump_to_json, dumps_canonical, parse_dump, write_json
from pefcoh.metrics import RunConfig, evaluate, flatten_scores
from pefcoh.oracle import brute_force_scores
from pefcoh.synth import (
    InfeasibleSpecError,
    SynthSpec,
    generate,
    ledger_to_json,
    parse_ledger,
    parse_synth_spec,
)

from helpers import make_dump, make_image


def assert_scores_match(got, expected, context=""):
    flat_got, flat_expected = flatten_scores(got), flatten_scores(expected)
    assert flat_got.keys() == flat_expected.keys()
    for key in flat_got:
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
            texts.append(dumps_canonical(dump_to_json(dump)))
        assert texts[0] == texts[1]

    def test_distinct_seeds_distinct_files(self):
        seen = set()
        for seed in range(40):
            dump, _, _, _ = generate(SynthSpec(rng_seed=seed))
            seen.add(dumps_canonical(dump_to_json(dump)))
        assert len(seen) == 40

    def test_generated_dump_passes_parser(self, tmp_path):
        dump, _, _, _ = generate(SynthSpec(rng_seed=2))
        path = tmp_path / "dump.json"
        write_json(path, dump_to_json(dump))
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
            got_combined = (verdict.combined_category.value
                            if verdict.combined_category else None)
            assert got_combined == want.combined_category
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
