import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pefcoh.cli import _build_parser, _config_from_args, main
from pefcoh.dumpio import FormatError, dumps_canonical, write_json
from pefcoh.metrics import RunConfig
from pefcoh.report import build_comparison, render_csv, render_markdown
from pefcoh.synth import SynthSpec, parse_ledger

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert run_cli("synth", "--out", out, "--seed", 11, "--model-name", "m1") == 0
    return out


class TestValidate:
    def test_valid_triple(self, synth_dir, capsys):
        code = run_cli(
            "validate",
            "--dump", synth_dir / "dump.json",
            "--annotations", synth_dir / "annotations.json",
            "--lexicon", synth_dir / "lexicon.json",
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_without_lexicon_derives_one(self, synth_dir, capsys):
        code = run_cli(
            "validate",
            "--dump", synth_dir / "dump.json",
            "--annotations", synth_dir / "annotations.json",
        )
        assert code == 0
        assert "lexicon: OK" in capsys.readouterr().out

    def test_class_mismatch_exit_2(self, synth_dir, capsys):
        ann = json.loads((synth_dir / "annotations.json").read_text())
        ann["class_names"] = ["normal", "abnormal"]
        write_json(synth_dir / "bad.json", ann)
        code = run_cli(
            "validate",
            "--dump", synth_dir / "dump.json",
            "--annotations", synth_dir / "bad.json",
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "normal" in out and "benign" in out

    def test_dump_only_image_warns_exit_0(self, synth_dir, capsys):
        ann = json.loads((synth_dir / "annotations.json").read_text())
        dropped = ann["images"][0]["image_id"]
        ann["images"] = ann["images"][1:]
        write_json(synth_dir / "partial.json", ann)
        code = run_cli(
            "validate",
            "--dump", synth_dir / "dump.json",
            "--annotations", synth_dir / "partial.json",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warning" in out and dropped in out

    def test_broken_file_exit_2(self, tmp_path, synth_dir, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        code = run_cli(
            "validate", "--dump", bad, "--annotations", synth_dir / "annotations.json"
        )
        assert code == 2


class TestEvaluate:
    def test_writes_reports_and_aggregate(self, synth_dir, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate",
            "--dump", synth_dir / "dump.json",
            "--annotations", synth_dir / "annotations.json",
            "--lexicon", synth_dir / "lexicon.json",
            "--k", 10, "--patch-size", 64,
            "--out", out, "--fixed-timestamp",
        )
        assert code == 0
        report = json.loads((out / "m1-seed11.report.json").read_text())
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert report["config"]["k"] == 10
        assert report["config"]["patch_size"] == 64
        assert aggregate["n_runs"] == 1
        assert aggregate["properties"]["relevance"]["std"] is None

    def test_config_override_echoed(self, synth_dir, tmp_path):
        out = tmp_path / "eval"
        run_cli(
            "evaluate",
            "--dump", synth_dir / "dump.json",
            "--annotations", synth_dir / "annotations.json",
            "--k", 5, "--patch-size", 64, "--eps", 1e-6, "--tc", 500,
            "--out", out, "--fixed-timestamp",
        )
        report = json.loads((out / "m1-seed11.report.json").read_text())
        assert report["config"]["k"] == 5
        assert report["config"]["eps"] == 1e-6
        assert report["config"]["tc_override"] == 500
        assert report["scores"]["total_categories"] == 500

    def test_multiple_dumps_aggregate_std(self, tmp_path):
        dumps = []
        for seed in (1, 2, 3):
            out = tmp_path / f"s{seed}"
            run_cli("synth", "--out", out, "--seed", seed, "--model-name", "m")
            dumps.append(out / "dump.json")
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate",
            "--dump", dumps[0], "--dump", dumps[1], "--dump", dumps[2],
            "--annotations", tmp_path / "s1" / "annotations.json",
            "--lexicon", tmp_path / "s1" / "lexicon.json",
            "--k", 10, "--patch-size", 64,
            "--out", out, "--fixed-timestamp",
        )
        # dumps 2 and 3 reference images consistent with their own annotations,
        # which cross-validation against s1's annotations must reject
        assert code in (1, 2)

    def test_seed_family_shares_annotations(self, tmp_path):
        # --structure-seed pins the dataset: three seeds, one annotation set
        dirs = []
        for seed in (1, 2, 3):
            out = tmp_path / f"s{seed}"
            assert run_cli("synth", "--out", out, "--seed", seed,
                           "--structure-seed", 77, "--model-name", "m") == 0
            dirs.append(out)
        ann0 = (dirs[0] / "annotations.json").read_bytes()
        assert all((d / "annotations.json").read_bytes() == ann0 for d in dirs)
        assert len({(d / "dump.json").read_bytes() for d in dirs}) == 3

        out = tmp_path / "eval"
        code = run_cli(
            "evaluate",
            *sum((["--dump", d / "dump.json"] for d in dirs), []),
            "--annotations", dirs[0] / "annotations.json",
            "--lexicon", dirs[0] / "lexicon.json",
            "--k", 10, "--patch-size", 64,
            "--out", out, "--fixed-timestamp",
        )
        assert code == 0
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["n_runs"] == 3
        # planted structure is shared, so structural properties have zero spread
        assert aggregate["properties"]["relevance"]["std"] == 0.0
        assert aggregate["properties"]["coverage"]["std"] == 0.0

    def test_multi_seed_same_annotations(self, tmp_path):
        # same underlying data, three dumps differing only in seed/model metadata
        base = tmp_path / "base"
        run_cli("synth", "--out", base, "--seed", 7, "--model-name", "m")
        dump = json.loads((base / "dump.json").read_text())
        paths = []
        for seed in (7, 8, 9):
            dump["seed"] = seed
            path = tmp_path / f"dump{seed}.json"
            write_json(path, dump)
            paths.append(path)
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate",
            *sum((["--dump", p] for p in paths), []),
            "--annotations", base / "annotations.json",
            "--lexicon", base / "lexicon.json",
            "--k", 10, "--patch-size", 64,
            "--out", out, "--fixed-timestamp",
        )
        assert code == 0
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["n_runs"] == 3
        assert aggregate["properties"]["relevance"]["std"] == 0.0

    def test_markdown_summary(self, synth_dir, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate",
            "--dump", synth_dir / "dump.json",
            "--annotations", synth_dir / "annotations.json",
            "--k", 10, "--patch-size", 64,
            "--out", out, "--format", "markdown", "--fixed-timestamp",
        )
        assert code == 0
        text = (out / "summary.md").read_text()
        assert "| Property | m1 |" in text

    @pytest.mark.parametrize(
        "fmt, name", [("markdown", "summary.md"), ("csv", "summary.csv")]
    )
    def test_summary_matches_golden(self, tmp_path, fmt, name):
        # a three-seed family with an explicit level list, so the table has
        # spreads and the Config line shows the levels as a list
        dirs = []
        for seed in (1, 2, 3):
            out = tmp_path / f"s{seed}"
            assert run_cli("synth", "--out", out, "--seed", seed,
                           "--structure-seed", 77, "--model-name", "m") == 0
            dirs.append(out)
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate",
            *sum((["--dump", d / "dump.json"] for d in dirs), []),
            "--annotations", dirs[0] / "annotations.json",
            "--lexicon", dirs[0] / "lexicon.json",
            "--k", 10, "--patch-size", 64, "--levels", "type,mass-shape,mass-margin",
            "--out", out, "--format", fmt, "--fixed-timestamp",
        )
        assert code == 0
        golden = (DATA / f"golden_{name}").read_bytes()
        assert (out / name).read_bytes() == golden

    def _evaluate_copies(self, synth_dir, tmp_path, **changes):
        # the synth dump plus a copy with `changes` applied, evaluated together
        dump = json.loads((synth_dir / "dump.json").read_text())
        dump.update(changes)
        write_json(tmp_path / "copy.json", dump)
        return run_cli(
            "evaluate",
            "--dump", synth_dir / "dump.json", "--dump", tmp_path / "copy.json",
            "--annotations", synth_dir / "annotations.json",
            "--k", 10, "--patch-size", 64,
            "--out", tmp_path / "eval", "--format", "markdown", "--fixed-timestamp",
        )

    def test_annotations_without_rois_exit_1(self, synth_dir, tmp_path, capsys):
        # with a lexicon given, they load, but name no category to cover
        annotations = json.loads((synth_dir / "annotations.json").read_text())
        for image in annotations["images"]:
            image["rois"] = []
        write_json(synth_dir / "annotations.json", annotations)
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--dump", synth_dir / "dump.json",
                       "--annotations", synth_dir / "annotations.json",
                       "--lexicon", synth_dir / "lexicon.json", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: total category count must be >= 1 (empty annotation universe)\n")
        assert not out.exists()

    def test_different_models_rejected(self, synth_dir, tmp_path, capsys):
        code = self._evaluate_copies(synth_dir, tmp_path, model_name="zzz", seed=12)
        assert code == 2
        err = capsys.readouterr().err
        assert "'m1'" in err and "'zzz'" in err and "compare" in err
        assert not (tmp_path / "eval").exists()

    def test_duplicate_model_seed_rejected(self, synth_dir, tmp_path, capsys):
        code = self._evaluate_copies(synth_dir, tmp_path)
        assert code == 2
        assert "duplicate model/seed pair 'm1-seed11'" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_parse_error_single_line_exit(self, tmp_path, synth_dir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "pefcoh-dump/9"}', encoding="utf-8")
        code = run_cli(
            "evaluate",
            "--dump", bad,
            "--annotations", synth_dir / "annotations.json",
            "--out", tmp_path / "eval",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0


class TestConfigFlags:
    @pytest.mark.parametrize("flags, expected", [
        ([], RunConfig()),
        (["--levels", "", "--tc-split", "all"], RunConfig()),
        (["--levels", ","], RunConfig()),
        (["--levels", " "], RunConfig()),
        (["--levels", " type, combined ,", "--class-specific-level", "type"],
         RunConfig(levels=("type", "combined"), class_specific_level="type")),
        (["--k", "5", "--patch-size", "64", "--eps", "0.5", "--tc", "3",
          "--tc-split", "train", "--lp-class", "max_weight"],
         RunConfig(k=5, patch_size=64, eps=0.5, tc_override=3, tc_split="train",
                   lp_weight_class="max_weight")),
    ], ids=["none", "all-levels-all-splits", "only-separators", "only-spaces", "levels",
            "numbers-and-choices"])
    def test_flags_given_set_their_fields(self, flags, expected):
        args = _build_parser().parse_args(
            ["evaluate", "--dump", "d.json", "--annotations", "a.json", "--out", "o", *flags])
        assert _config_from_args(args) == expected

    @pytest.mark.parametrize("flag, message", [
        ("--tc", "tc_override must be None or >= 1, got 0"),
        ("--k", "k must be >= 1, got 0"),
        ("--patch-size", "patch_size must be >= 1, got 0"),
    ], ids=["tc", "k", "patch-size"])
    def test_bad_setting_fails_before_any_file_is_read(self, tmp_path, capsys, flag, message):
        missing = tmp_path / "missing.json"
        code = run_cli("evaluate", "--dump", missing, "--annotations", missing,
                       flag, 0, "--out", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestIntegerTooLargeForFloat:
    """An integer score or class weight past the float range is a format
    error (exit 2), not an uncaught OverflowError."""

    @pytest.fixture(params=["score", "class_weight"])
    def bad_dump(self, request, synth_dir, tmp_path):
        dump = json.loads((synth_dir / "dump.json").read_text())
        if request.param == "score":
            dump["images"][-1]["entries"][-1]["score"] = 10**400
            expected = "entries[{}]: score must be a finite number >= 0".format(
                len(dump["images"][-1]["entries"]) - 1)
        else:
            dump["prototypes"][-1]["class_weights"][0] = 10**400
            expected = "class_weights[0] must be a finite number"
        path = tmp_path / "big.json"
        write_json(path, dump)
        return path, expected

    def test_validate_exit_2(self, bad_dump, synth_dir, capsys):
        path, expected = bad_dump
        code = run_cli("validate", "--dump", path, "--annotations", synth_dir / "annotations.json")
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("dump: ERROR") and expected in out

    def test_evaluate_exit_2(self, bad_dump, synth_dir, tmp_path, capsys):
        path, expected = bad_dump
        code = run_cli(
            "evaluate", "--dump", path,
            "--annotations", synth_dir / "annotations.json",
            "--out", tmp_path / "eval",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and expected in err
        assert not (tmp_path / "eval").exists()


class TestInputFaultsExit2:
    """A file that is not UTF-8, or an image too large for exact geometry, is
    a format error naming the file (exit 2), not an uncaught error."""

    @pytest.fixture
    def not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        return path

    def test_validate_not_utf8(self, not_utf8, synth_dir, capsys):
        code = run_cli("validate", "--dump", not_utf8,
                       "--annotations", synth_dir / "annotations.json")
        assert code == 2
        assert capsys.readouterr().out.startswith(f"dump: ERROR {not_utf8}: not valid UTF-8: ")

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_integer_too_long_to_convert(self, command, synth_dir, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer of more digits
        # than int() converts (4300 by default); without that limit the
        # number is read and rejected as not finite
        if command == "compare":
            out = tmp_path / "eval"
            run_cli("evaluate", "--dump", synth_dir / "dump.json",
                    "--annotations", synth_dir / "annotations.json", "--out", out)
            raw = json.loads((out / "m1-seed11.report.json").read_text())
            raw["scores"]["relevance"] = 10**400
        else:
            raw = json.loads((synth_dir / "dump.json").read_text())
            raw["prototypes"][0]["class_weights"][0] = 10**400
        bad = tmp_path / "bad.json"
        text = dumps_canonical(raw).replace("1" + "0" * 400, "1" + "0" * 5000)
        bad.write_text(text, encoding="utf-8")
        capsys.readouterr()
        if command == "compare":
            code = run_cli("compare", bad, "--out", tmp_path / "cmp")
            assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        else:
            code = run_cli("validate", "--dump", bad,
                           "--annotations", synth_dir / "annotations.json")
            assert capsys.readouterr().out.startswith(f"dump: ERROR {bad}: ")
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_nesting_too_deep_to_decode(self, command, synth_dir, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        if command == "compare":
            code = run_cli("compare", bad, "--out", tmp_path / "cmp")
            message = capsys.readouterr().err
            assert message.startswith(f"error: {bad}: not valid JSON: ")
        else:
            code = run_cli("validate", "--dump", bad,
                           "--annotations", synth_dir / "annotations.json")
            message = capsys.readouterr().out
            assert message.startswith(f"dump: ERROR {bad}: not valid JSON: ")
        assert code == 2 and "recursion" in message

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_evaluate_and_compare_not_utf8(self, command, not_utf8, synth_dir, tmp_path, capsys):
        if command == "evaluate":
            argv = ["evaluate", "--dump", not_utf8,
                    "--annotations", synth_dir / "annotations.json"]
        else:
            argv = ["compare", not_utf8]
        assert run_cli(*argv, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {not_utf8}: not valid UTF-8: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("types, message", [
        ([{"name": "mass", "axes": ["sha\npe"]}],
         "types[0]: axis name 'sha\\npe' holds a control character"),
        ([{"name": "mass", "axes": ["shape-x", "margin"]},
          {"name": "mass-shape", "axes": ["x", "distribution"]}],
         "types[1]: type 'mass-shape' repeats level 'mass-shape-x'"),
    ], ids=["axis-newline", "repeated-level"])
    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    def test_lexicon_name_fault(self, synth_dir, tmp_path, capsys, command, types, message):
        # a level heads a row of the Markdown tables and keys specialization
        lexicon = tmp_path / "lex.json"
        write_json(lexicon, {"format": "pefcoh-lex/1", "types": types})
        argv = [command, "--dump", synth_dir / "dump.json",
                "--annotations", synth_dir / "annotations.json", "--lexicon", lexicon]
        if command == "evaluate":
            argv += ["--out", tmp_path / "eval"]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        if command == "evaluate":
            assert captured.err == f"error: {lexicon}: {message}\n"
        else:
            assert captured.out.endswith(f"annotations: ERROR {lexicon}: {message}\n")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("side, cells", [("width", "feature_w"), ("height", "feature_h")])
    def test_largest_image_for_exact_geometry_evaluates(
        self, synth_dir, tmp_path, capsys, side, cells
    ):
        dump = json.loads((synth_dir / "dump.json").read_text())
        annotations = json.loads((synth_dir / "annotations.json").read_text())
        largest = (2**62 - 1) // dump["images"][0][cells]  # 2 * side * cells < 2**63
        for size, expected in ((largest, 0), (largest + 1, 2)):
            for image in dump["images"] + annotations["images"]:
                image[side] = size
            write_json(tmp_path / "dump.json", dump)
            write_json(tmp_path / "annotations.json", annotations)
            code = run_cli("evaluate", "--dump", tmp_path / "dump.json",
                           "--annotations", tmp_path / "annotations.json",
                           "--out", tmp_path / f"eval-{size}")
            assert code == expected
        assert "images[0]: image too large for exact geometry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes, expected",
        [
            ({"n_prototypes": 10**300}, "n_prototypes must be at most 10**6"),
            ({"n_train_images": 10**300}, "n_train_images must be at most 10**6"),
            ({"n_test_images": 10**300}, "n_test_images must be at most 10**6"),
            ({"n_mass_categories": 10**300}, "n_mass_categories must be at most 10**6"),
            ({"n_calc_categories": 10**300}, "n_calc_categories must be at most 10**6"),
            ({"n_prototypes": 101, "n_train_images": 10**6 - 8},
             "n_prototypes * (n_train_images + n_test_images) must be at most 10**8"),
            ({"feature_w": 1001, "feature_h": 1000}, "feature_w * feature_h must be at most"),
            ({"feature_w": 0}, "feature_w and feature_h must be >= 1"),
            ({"image_width": 10**300}, "image too large for exact geometry"),
        ],
    )
    def test_synth_size_out_of_bounds(self, tmp_path, capsys, sizes, expected):
        spec = {**SynthSpec().to_dict(), **sizes}
        write_json(tmp_path / "spec.json", spec)
        assert run_cli("synth", "--spec", tmp_path / "spec.json", "--out", tmp_path / "out") == 2
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunNameRule:
    """A run's model name and seed name its report file, so the model name
    must be one file-name component and the seed must fit in int64; any
    other dump, synth spec or synth flag is rejected (exit 2) before any
    work is done."""

    # (field, value, message); the longest accepted model name below is 236
    # bytes, which makes "-seed11.report.json" 255 bytes in all
    FAULTS = [
        ("model_name", "../escape", "model_name must be one file-name component"),
        ("model_name", "a/b", "model_name must be one file-name component"),
        ("model_name", "a\\b", "model_name must be one file-name component"),
        ("model_name", "a\0b", "model_name must be one file-name component"),
        ("model_name", "a\nb", "model_name must be one file-name component"),
        ("model_name", "a\rb", "model_name must be one file-name component"),
        ("model_name", "a\tb", "model_name must be one file-name component"),
        ("model_name", "a\x7fb", "model_name must be one file-name component"),
        ("model_name", "a\x85b", "model_name must be one file-name component"),
        ("model_name", "\x9f", "model_name must be one file-name component"),
        ("model_name", "", "model_name must be one file-name component"),
        ("model_name", ".", "model_name must be one file-name component"),
        ("model_name", "..", "model_name must be one file-name component"),
        ("model_name", "m" * 237, "model_name too long: its report file name takes 256 bytes"),
        ("model_name", "é" * 119, "model_name too long: its report file name takes 257 bytes"),
        ("seed", 10**400, "seed must fit in int64"),
        ("seed", 2**63, "seed must fit in int64"),
        ("seed", -2**63 - 1, "seed must fit in int64"),
    ]
    IDS = ["escape", "slash", "backslash", "nul", "newline", "cr", "tab", "del", "c1-nel",
           "c1-last", "empty", "dot", "dotdot", "long",
           "long-utf8", "seed-huge", "seed-2**63", "seed-below-int64"]

    def _dump(self, synth_dir, tmp_path, field, value):
        dump = json.loads((synth_dir / "dump.json").read_text())
        dump[field] = value
        path = tmp_path / "named.json"
        write_json(path, dump)
        return path

    @pytest.mark.parametrize("field, value, message", FAULTS, ids=IDS)
    def test_validate_rejects(self, synth_dir, tmp_path, capsys, field, value, message):
        path = self._dump(synth_dir, tmp_path, field, value)
        assert run_cli("validate", "--dump", path,
                       "--annotations", synth_dir / "annotations.json") == 2
        assert capsys.readouterr().out.startswith(f"dump: ERROR {path}: {message}")

    @pytest.mark.parametrize("field, value, message", FAULTS, ids=IDS)
    def test_evaluate_rejects_before_writing(
        self, synth_dir, tmp_path, capsys, field, value, message
    ):
        path = self._dump(synth_dir, tmp_path, field, value)
        out = tmp_path / "deep" / "out"
        code = run_cli("evaluate", "--dump", path,
                       "--annotations", synth_dir / "annotations.json", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "deep").exists()
        assert not list(tmp_path.rglob("*.report.json"))

    @pytest.mark.parametrize("name, seed", [("m" * 236, 11), ("é" * 118, 11),
                                            ("m1", 2**63 - 1), ("m1", -2**63)],
                             ids=["longest", "longest-utf8", "seed-max", "seed-min"])
    def test_evaluate_accepts_the_limits(self, synth_dir, tmp_path, name, seed):
        path = self._dump(synth_dir, tmp_path, "model_name", name)
        dump = json.loads(path.read_text())
        dump["seed"] = seed
        write_json(path, dump)
        out = tmp_path / "out"
        assert run_cli("evaluate", "--dump", path,
                       "--annotations", synth_dir / "annotations.json", "--out", out) == 0
        assert (out / f"{name}-seed{seed}.report.json").is_file()

    @pytest.mark.parametrize("flag, value, message", [
        ("--model-name", "../escape", "model_name must be one file-name component"),
        ("--model-name", "a/b", "model_name must be one file-name component"),
        ("--model-name", "net\nv2", "model_name must be one file-name component"),
        ("--seed", 2**63, "seed must fit in int64"),
    ], ids=["escape", "slash", "newline", "seed"])
    def test_synth_flag_rejected(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "deep" / "out"
        assert run_cli("synth", flag, value, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: bad synth-spec override: {message}")
        assert not (tmp_path / "deep").exists()

    def test_synth_flag_not_utf8_rejected(self, tmp_path):
        """An argument that is not UTF-8 reaches the program as a lone
        surrogate (Python's surrogateescape), which no file name takes."""
        out = tmp_path / "deep" / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "pefcoh", "synth", "--model-name", b"\xff", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "error: bad synth-spec override: model_name must be valid Unicode text, "
            "got '\\udcff'")
        assert not (tmp_path / "deep").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("model_name", "a/b", "model_name must be one file-name component"),
        ("model_name", "..", "model_name must be one file-name component"),
        ("model_name", "net\r\nv2", "model_name must be one file-name component"),
        ("rng_seed", 2**63, "seed must fit in int64"),
    ], ids=["slash", "dotdot", "crlf", "seed"])
    def test_synth_spec_rejected(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "spec.json"
        write_json(path, {**SynthSpec().to_dict(), field: value})
        assert run_cli("synth", "--spec", path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: bad synth-spec: {message}")
        assert not (tmp_path / "out").exists()


# a score out of its range: the keys of the score under "scores", the value
# put there, and the message that names it
SCORE_RANGE_FAULTS = [
    (("relevance",), -5.0, "scores: relevance must be in [0, 1], got -5.0"),
    (("sparsity_ratio",), 1.5, "scores: sparsity_ratio must be in [0, 1], got 1.5"),
    (("specialization", "combined"), 2.0,
     "scores: specialization.combined must be in [0, 1], got 2.0"),
    (("uniqueness",), -0.25, "scores: uniqueness must be in [0, 1], got -0.25"),
    (("class_specific",), 1.01, "scores: class_specific must be in [0, 1], got 1.01"),
    (("localization", "top1", "iou"), 1.5,
     "scores.localization.top1: iou must be in [0, 1], got 1.5"),
    (("localization", "all", "dsc"), -0.5,
     "scores.localization.all: dsc must be in [0, 1], got -0.5"),
    (("total_prototypes",), -1, "scores: total_prototypes must be >= 0, got -1"),
    (("class_specific_eligible",), -3, "scores: class_specific_eligible must be >= 0, got -3"),
    (("local_negative",), -0.5, "scores: local_negative must be >= 0, got -0.5"),
    (("coverage",), -1.0, "scores: coverage must be >= 0, got -1.0"),
]


# a report header that breaks a config or localization rule: the keys of the
# value under the report, the value put there (DELETE removes the key), and
# the message that names it
DELETE = object()
VARIANTS_MESSAGE = "localization must hold exactly the variants ('top1', 'top10', 'all'), got"
HEADER_RULE_FAULTS = [
    (("config", "tc_split"), "nonsense",
     "config: tc_split must be None or one of ('train', 'test'), got 'nonsense'"),
    (("config", "tc_override"), -4, "config: tc_override must be None or >= 1, got -4"),
    (("config", "tc_override"), 0, "config: tc_override must be None or >= 1, got 0"),
    (("config", "lp_weight_class"), "min_weight", "config: unknown lp_weight_class 'min_weight'"),
    (("scores", "localization"), {"bogus": {"iou": 0.5, "dsc": 0.5}},
     f"scores: {VARIANTS_MESSAGE} ('bogus',)"),
    (("scores", "localization", "top10"), DELETE,
     f"scores: {VARIANTS_MESSAGE} ('top1', 'all')"),
    (("scores", "localization", "top5"), {"iou": 0.5, "dsc": 0.5},
     f"scores: {VARIANTS_MESSAGE} ('top1', 'top10', 'all', 'top5')"),
]


class TestCompare:
    def _reports(self, tmp_path, models=("m1", "m2"), seeds=(11, 22)):
        paths = []
        for model, seed in zip(models, seeds):
            synth = tmp_path / f"synth-{model}-{seed}"
            run_cli("synth", "--out", synth, "--seed", seed, "--model-name", model)
            out = tmp_path / f"eval-{model}-{seed}"
            run_cli(
                "evaluate",
                "--dump", synth / "dump.json",
                "--annotations", synth / "annotations.json",
                "--lexicon", synth / "lexicon.json",
                "--k", 10, "--patch-size", 64,
                "--out", out, "--fixed-timestamp",
            )
            paths.append(out / f"{model}-seed{seed}.report.json")
        return paths

    def test_two_models_table(self, tmp_path):
        paths = self._reports(tmp_path)
        out = tmp_path / "cmp"
        code = run_cli("compare", *paths, "--out", out, "--fixed-timestamp")
        assert code == 0
        text = (out / "comparison.md").read_text()
        assert "| Property | m1 | m2 |" in text
        assert "**" in text  # best-per-row highlighting
        assert (out / "comparison.csv").exists()
        assert (out / "comparison.json").exists()

    def test_single_model_no_highlight(self, tmp_path):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        out = tmp_path / "cmp"
        assert run_cli("compare", *paths, "--out", out, "--fixed-timestamp") == 0
        text = (out / "comparison.md").read_text()
        assert "**" not in text

    def test_round_trips_full_precision(self, tmp_path):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        out = tmp_path / "cmp"
        run_cli("compare", paths[0], "--out", out, "--fixed-timestamp")
        comparison = json.loads((out / "comparison.json").read_text())
        report = json.loads(paths[0].read_text())
        props = comparison["models"]["m1"]["properties"]
        assert props["relevance"]["mean"] == report["scores"]["relevance"]
        assert (props["localization.top1.iou"]["mean"]
                == report["scores"]["localization"]["top1"]["iou"])

    def test_config_mismatch_rejected(self, tmp_path):
        synth = tmp_path / "synth"
        run_cli("synth", "--out", synth, "--seed", 11, "--model-name", "m1")
        outs = []
        for k in (10, 5):
            out = tmp_path / f"eval-k{k}"
            run_cli(
                "evaluate",
                "--dump", synth / "dump.json",
                "--annotations", synth / "annotations.json",
                "--k", k, "--patch-size", 64,
                "--out", out, "--fixed-timestamp",
            )
            outs.append(out / "m1-seed11.report.json")
        code = run_cli("compare", *outs, "--out", tmp_path / "cmp")
        assert code == 2

    @pytest.mark.parametrize(
        "removed", ["model_name", "config", "scores", "scores.coverage"]
    )
    def test_malformed_report_exit_2(self, tmp_path, capsys, removed):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        *parents, key = removed.split(".")
        target = raw
        for part in parents:
            target = target[part]
        del target[key]
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.strip().count("\n") == 0
        assert repr(key) in err

    def test_duplicate_key_exit_2(self, tmp_path, capsys):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        text = paths[0].read_text(encoding="utf-8")
        bad = tmp_path / "bad.report.json"
        bad.write_text(text.replace('"seed": 11,', '"seed": 11,\n  "seed": 12,', 1),
                       encoding="utf-8")
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        assert "duplicate key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_same_report_twice_rejected(self, tmp_path, capsys):
        # one run counted twice would report n_runs 2 and std 0.0
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        capsys.readouterr()
        code = run_cli("compare", paths[0], paths[0], "--out", tmp_path / "cmp")
        assert code == 2
        assert "duplicate model/seed pair 'm1-seed11'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_non_int_seed_rejected(self, tmp_path, capsys):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        raw["seed"] = "x"
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("model_name", "syn\nthetic", "model_name must be one file-name component"),
        ("seed", 10**29, "seed must fit in int64"),
    ], ids=["model_name-newline", "seed-huge"])
    def test_run_name_fault_rejected(self, tmp_path, capsys, field, value, message):
        # the model name heads a column of the Markdown table
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        raw[field] = value
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "cmp").exists()

    def test_specialization_level_with_control_rejected(self, tmp_path, capsys):
        # a level heads a row of the Markdown table
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        raw["scores"]["specialization"]["mass-sha\npe"] = 0.5
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: scores.specialization key 'mass-sha\\npe' holds a control character\n"
        )
        assert not (tmp_path / "cmp").exists()

    def test_config_level_with_control_rejected(self, tmp_path, capsys):
        # the config is written on the Config line of the Markdown table
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        raw["config"]["class_specific_level"] = "combined\n| x |"
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp", "--format", "markdown")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: config.class_specific_level 'combined\\n| x |' "
            "holds a control character\n"
        )
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("field, value", [
        ("relevance", 10**400),
        ("relevance", float("nan")),
        ("relevance", float("inf")),
        ("relevance", float("-inf")),
        ("total_prototypes", 10**400),
    ], ids=["relevance-huge", "relevance-nan", "relevance-inf", "relevance-neg-inf",
            "total_prototypes-huge"])
    def test_non_finite_score_rejected(self, tmp_path, capsys, field, value):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        raw["scores"][field] = value
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)  # writes NaN / Infinity / -Infinity as such
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.strip().count("\n") == 0
        assert f"scores.{field} must be a finite number" in err
        assert not (tmp_path / "cmp").exists()

    def test_scores_too_large_to_pool_rejected(self, tmp_path, capsys):
        paths = self._reports(tmp_path, models=("m1", "m1"), seeds=(11, 22))
        for path in paths:
            raw = json.loads(path.read_text())
            raw["scores"]["coverage"] = 1e308  # finite, but two of them overflow a sum
            write_json(path, raw)
        capsys.readouterr()
        code = run_cli("compare", *paths, "--out", tmp_path / "cmp")
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: coverage: values too large to pool across runs\n"
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize(
        "keys, value, message", SCORE_RANGE_FAULTS,
        ids=[".".join(keys) for keys, _, _ in SCORE_RANGE_FAULTS],
    )
    def test_score_out_of_range_rejected(self, tmp_path, capsys, keys, value, message):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        *parents, last = keys
        scores = raw["scores"]
        for key in parents:
            scores = scores[key]
        assert scores[last] is not None
        scores[last] = value
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: bad {message}\n"
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize(
        "keys, value, message", HEADER_RULE_FAULTS,
        ids=["tc_split-nonsense", "tc_override-negative", "tc_override-zero",
             "lp_weight_class-unknown", "localization-bogus-only", "localization-missing-top10",
             "localization-extra-top5"],
    )
    def test_header_rule_fault_rejected(self, tmp_path, capsys, keys, value, message):
        paths = self._reports(tmp_path, models=("m1",), seeds=(11,))
        raw = json.loads(paths[0].read_text())
        *parents, last = keys
        target = raw
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        bad = tmp_path / "bad.report.json"
        write_json(bad, raw)
        capsys.readouterr()
        code = run_cli("compare", bad, "--out", tmp_path / "cmp")
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: bad {message}\n"
        assert not (tmp_path / "cmp").exists()

    def test_coverage_above_one_accepted(self, tmp_path):
        # a --tc below the unique-category count gives a coverage above 1
        synth = tmp_path / "synth"
        run_cli("synth", "--out", synth, "--seed", 1)
        out = tmp_path / "eval"
        assert run_cli(
            "evaluate", "--dump", synth / "dump.json",
            "--annotations", synth / "annotations.json",
            "--tc", 1, "--out", out, "--fixed-timestamp",
        ) == 0
        report = out / "synthetic-seed1.report.json"
        assert json.loads(report.read_text())["scores"]["coverage"] > 1
        assert run_cli("compare", report, "--out", tmp_path / "cmp") == 0

    def test_absent_property_rendered_as_dash(self, tmp_path):
        # a run with zero relevant prototypes reports uniqueness as absent
        synth = tmp_path / "synth"
        run_cli("synth", "--out", synth, "--seed", 11, "--model-name", "m1")
        spec_path = tmp_path / "spec.json"
        write_json(spec_path, {**SynthSpec(rng_seed=11, model_name="m0",
                                           relevance_target=0.0).to_dict()})
        synth0 = tmp_path / "synth0"
        run_cli("synth", "--spec", spec_path, "--out", synth0)
        out0 = tmp_path / "eval0"
        run_cli(
            "evaluate",
            "--dump", synth0 / "dump.json",
            "--annotations", synth0 / "annotations.json",
            "--k", 10, "--patch-size", 64,
            "--out", out0, "--fixed-timestamp",
        )
        cmp_out = tmp_path / "cmp"
        code = run_cli(
            "compare", out0 / "m0-seed11.report.json", "--out", cmp_out,
            "--fixed-timestamp",
        )
        assert code == 0
        assert "—" in (cmp_out / "comparison.md").read_text()


class TestSynthCommand:
    def test_writes_four_files(self, synth_dir):
        for name in ("dump.json", "annotations.json", "lexicon.json", "ledger.json"):
            assert (synth_dir / name).exists()

    def test_same_seed_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("synth", "--out", out, "--seed", 4)
            outs.append(out)
        for name in ("dump.json", "annotations.json", "lexicon.json", "ledger.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("spec, seeds, expected", [
        pytest.param(None, ["--seed", 7, "--structure-seed", 77], {
            "annotations.json": "85d3cfbd5e8e5226fc146349ccd0218e58c4700eedaef2cf5cfef58eb829772e",
            "dump.json": "a03b602002a874657381b6b48dac848a2792e7007e9b01467ce48938a1c22bb4",
            "ledger.json": "b77bee0490675ac28f2cf5819d363502316e9e573bde51223f2b4d894543c4d7",
            "lexicon.json": "dd8e9f9262265a271896327b583c112d530b1b8aa85034696375551b7e176575",
        }, id="default"),
        # more prototypes and images than the default, unequal category
        # counts, an 8x8 map, ROIs of 16 pixels and a structure seed
        pytest.param({
            "n_prototypes": 30, "n_train_images": 40, "n_mass_categories": 8,
            "n_calc_categories": 6, "feature_w": 8, "feature_h": 8, "patch_size": 32,
            "structure_seed": 11,
        }, ["--seed", 3], {
            "annotations.json": "7963138f2789e8f0fd9fff69d60c61ff292f075b51866d9367dbaf378ef8ee10",
            "dump.json": "87f19b95813c67616ce7a342de62d6da32bc688dfae2607c62159cb3fe0c376b",
            "ledger.json": "1f1758514b8df3ecfbb47c0503ca185b97168c8c464fddcfbfdcb759b98f02e0",
            "lexicon.json": "dd8e9f9262265a271896327b583c112d530b1b8aa85034696375551b7e176575",
        }, id="second-shape"),
    ])
    def test_bytes_pinned(self, tmp_path, spec, seeds, expected):
        # SHA-256 of what synth wrote before the writers were derived from the
        # records (the second shape: before one image layout built the dump's
        # records and the annotations); any change to a file format's bytes
        # shows here. dump.json is pinned in the streamed layout (one
        # prototype and one image per line), whose content is that of the
        # 2-space-indented dump before it.
        argv = []
        if spec is not None:
            write_json(tmp_path / "spec.json", {"format": "pefcoh-synthspec/1", **spec})
            argv = ["--spec", tmp_path / "spec.json"]
        out = tmp_path / "s"
        assert run_cli("synth", *argv, "--out", out, *seeds) == 0
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_report_bytes_pinned(self, tmp_path):
        # SHA-256 of the report written in its one-pass layout (header keys,
        # then one verdict or localization row per line); the content is the
        # pefcoh-report/1 content of the indented writer before it
        out = tmp_path / "s"
        assert run_cli("synth", "--out", out, "--seed", 7, "--structure-seed", 77) == 0
        assert run_cli("evaluate", "--dump", out / "dump.json",
                       "--annotations", out / "annotations.json",
                       "--lexicon", out / "lexicon.json",
                       "--out", tmp_path / "e", "--fixed-timestamp") == 0
        written = (tmp_path / "e" / "synthetic-seed7.report.json").read_bytes()
        assert (hashlib.sha256(written).hexdigest()
                == "189b87bd67c4812a18cd09b8917f3d3345d536e0974e0473bbc7b3ccacd54949")

    def test_infeasible_spec_exit_2(self, tmp_path, capsys):
        spec = SynthSpec(rng_seed=0, purity_target=0.0).to_dict()
        path = tmp_path / "spec.json"
        write_json(path, spec)
        code = run_cli("synth", "--spec", path, "--out", tmp_path / "out")
        assert code == 2
        assert "purity_target" in capsys.readouterr().err


class TestLoneSurrogate:
    """A JSON escape for a lone surrogate decodes to a string UTF-8 cannot
    hold, so no output could carry it: every reader rejects it as a format
    error naming the field (exit 2), before any work, and ``--out`` is left
    as it was."""

    @staticmethod
    def _plant(path, old, field_text):
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, field_text, 1), encoding="utf-8")

    @pytest.mark.parametrize("kind, old, field", [
        ("dump", '"p000"', "prototypes[0].id"),
        ("annotations", '"image_id": "train_000"', "images[0].image_id"),
        ("lexicon", '"mass"', "types[0].name"),
    ])
    def test_inputs(self, tmp_path, capsys, kind, old, field):
        synth_out = tmp_path / "s"
        assert run_cli("synth", "--out", synth_out, "--seed", 3) == 0
        new = old[:-1] + '\\ud800"'
        self._plant(synth_out / f"{kind}.json", old, new)
        inputs = ["--dump", synth_out / "dump.json",
                  "--annotations", synth_out / "annotations.json",
                  "--lexicon", synth_out / "lexicon.json"]
        capsys.readouterr()
        assert run_cli("validate", *inputs) == 2
        assert f"{synth_out / kind}.json: {field}: " in capsys.readouterr().out
        out = tmp_path / "e"
        out.mkdir()
        (out / "kept.txt").write_text("as it was", encoding="utf-8")
        assert run_cli("evaluate", *inputs, "--out", out, "--fixed-timestamp") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {synth_out / kind}.json: {field}: ")
        assert "lone surrogate" in err and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
        assert (out / "kept.txt").read_text(encoding="utf-8") == "as it was"

    def test_report(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "e"
        assert run_cli("evaluate", "--dump", synth_dir / "dump.json",
                       "--annotations", synth_dir / "annotations.json", "--out", out) == 0
        path = out / "m1-seed11.report.json"
        self._plant(path, '"model_name": "m1"', '"model_name": "m1\\udc00"')
        capsys.readouterr()
        assert run_cli("compare", path, "--out", tmp_path / "cmp") == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: model_name: ")
        assert not (tmp_path / "cmp").exists()

    def test_key(self, synth_dir, tmp_path, capsys):
        path = synth_dir / "lexicon.json"
        self._plant(path, '"types"', '"\\udfff": 1, "types"')
        capsys.readouterr()
        assert run_cli("validate", "--dump", synth_dir / "dump.json",
                       "--annotations", synth_dir / "annotations.json",
                       "--lexicon", path) == 2
        assert "key '\\udfff' is not valid Unicode" in capsys.readouterr().out

    def test_ledger(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path, "--seed", 3) == 0
        path = tmp_path / "ledger.json"
        self._plant(path, '"format": "pefcoh-ledger/1",',
                    '"format": "pefcoh-ledger/1", "x": "\\ud800",')
        with pytest.raises(FormatError, match="x: '\\\\ud800' is not valid Unicode"):
            parse_ledger(path)


    @pytest.mark.parametrize("field_text, field", [
        ('"note": "\\ud800", ', "note: '\\ud800' is not valid Unicode"),
        ('"extra": {"k\\ud800": 1}, ', "extra: key 'k\\ud800' is not valid Unicode"),
    ], ids=["value", "key"])
    def test_entry_field_that_packing_drops(self, tmp_path, capsys, field_text, field):
        assert run_cli("synth", "--out", tmp_path, "--seed", 3) == 0
        path = tmp_path / "dump.json"
        self._plant(path, '"prototype_id"', field_text + '"prototype_id"')
        capsys.readouterr()
        assert run_cli("validate", "--dump", path,
                       "--annotations", tmp_path / "annotations.json") == 2
        out = capsys.readouterr().out
        assert out.startswith(f"dump: ERROR {path}: images[0].entries[0].{field} (a lone ")


class TestKeyThatDoesNotPrint:
    """A field path writes a key that does not print as itself (here one
    holding a newline) as its repr, so the cause stays on one line."""

    def test_dump(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path, "--seed", 3) == 0
        path = tmp_path / "dump.json"
        TestLoneSurrogate._plant(path, '"format"', '"\\t\\n": [{"p\\ud800": 1}], "format"')
        capsys.readouterr()
        assert run_cli("evaluate", "--dump", path, "--annotations",
                       tmp_path / "annotations.json", "--out", tmp_path / "e") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: '\\t\\n'[0]: key 'p\\ud800' is not valid Unicode "
            "(a lone surrogate)\n")

    @pytest.mark.parametrize("value, message", [
        ("x", "scores.specialization.'a\\nb' must be float, got str"),
        (2.0, "bad scores: specialization.'a\\nb' must be in [0, 1], got 2.0"),
    ], ids=["type", "range"])
    def test_report(self, synth_dir, tmp_path, capsys, value, message):
        out = tmp_path / "e"
        assert run_cli("evaluate", "--dump", synth_dir / "dump.json",
                       "--annotations", synth_dir / "annotations.json", "--out", out) == 0
        path = out / "m1-seed11.report.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["scores"]["specialization"]["a\nb"] = value
        path.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("compare", path, "--out", tmp_path / "cmp") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestCliDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        def run_tree(root: Path):
            root.mkdir()
            env_cmds = [
                ["synth", "--out", root / "s", "--seed", 3, "--model-name", "m"],
                [
                    "evaluate",
                    "--dump", root / "s" / "dump.json",
                    "--annotations", root / "s" / "annotations.json",
                    "--lexicon", root / "s" / "lexicon.json",
                    "--k", "10", "--patch-size", "64",
                    "--out", root / "e", "--fixed-timestamp",
                ],
                [
                    "compare", root / "e" / "m-seed3.report.json",
                    "--out", root / "c", "--fixed-timestamp",
                ],
            ]
            for cmd in env_cmds:
                proc = subprocess.run(
                    [sys.executable, "-m", "pefcoh", *map(str, cmd)],
                    capture_output=True, text=True,
                )
                assert proc.returncode == 0, proc.stderr

        run_tree(tmp_path / "run1")
        run_tree(tmp_path / "run2")
        files1 = sorted(p.relative_to(tmp_path / "run1")
                        for p in (tmp_path / "run1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "run2")
                        for p in (tmp_path / "run2").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert ((tmp_path / "run1" / rel).read_bytes()
                    == (tmp_path / "run2" / rel).read_bytes()), rel

    @pytest.mark.parametrize("table", ["markdown", "csv"])
    def test_evaluate_byte_identical_across_blas_threads(self, tmp_path, table):
        """The program runs numpy with one OpenBLAS thread by default; a float
        BLAS call added later must not make the reports depend on that."""
        for seed in (3, 4):
            assert run_cli("synth", "--out", tmp_path / f"s{seed}", "--seed", seed,
                           "--structure-seed", 11) == 0

        def outputs(threads: str) -> dict:
            out = tmp_path / f"eval-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "pefcoh", "evaluate",
                 "--dump", tmp_path / "s3" / "dump.json", "--dump", tmp_path / "s4" / "dump.json",
                 "--annotations", tmp_path / "s3" / "annotations.json",
                 "--lexicon", tmp_path / "s3" / "lexicon.json",
                 "--format", table, "--fixed-timestamp", "--out", out],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            return {"stdout": proc.stdout.replace(str(out), "OUT"), **files}

        one = outputs("1")
        assert len(one) == 5  # stdout, two reports, aggregate.json, the table
        assert one == outputs("4")


class TestComparisonRendering:
    def test_markdown_and_csv_agree_on_cells(self, tmp_path):
        synth = tmp_path / "synth"
        run_cli("synth", "--out", synth, "--seed", 11, "--model-name", "m1")
        out = tmp_path / "eval"
        run_cli(
            "evaluate",
            "--dump", synth / "dump.json",
            "--annotations", synth / "annotations.json",
            "--k", 10, "--patch-size", 64,
            "--out", out, "--fixed-timestamp",
        )
        raw = json.loads((out / "m1-seed11.report.json").read_text())
        payload, table = build_comparison({"m1": [raw]})
        md = render_markdown(table, payload["config"])
        csv_text = render_csv(table)
        for row in table[1:]:
            assert row[1] in md
            assert row[1] in csv_text

    def test_pipe_in_a_cell_is_escaped(self, tmp_path):
        # a "|" in the model name and in a lexicon level: every row of both
        # Markdown tables keeps as many cell borders as the header
        synth = tmp_path / "synth"
        assert run_cli("synth", "--out", synth, "--seed", 3, "--model-name", "net|v2") == 0
        for name in ("lexicon.json", "annotations.json"):
            path = synth / name
            path.write_text(path.read_text().replace('"shape"', '"sh|ape"'))
        assert run_cli("evaluate", "--dump", synth / "dump.json",
                       "--annotations", synth / "annotations.json",
                       "--lexicon", synth / "lexicon.json", "--out", tmp_path / "eval",
                       "--format", "markdown", "--fixed-timestamp") == 0
        assert run_cli("compare", tmp_path / "eval" / "net|v2-seed3.report.json",
                       "--out", tmp_path / "cmp", "--fixed-timestamp") == 0
        for path in (tmp_path / "eval" / "summary.md", tmp_path / "cmp" / "comparison.md"):
            text = path.read_text(encoding="utf-8")
            assert "| Property | net\\|v2 |" in text
            assert "| Specialization: mass-sh\\|ape ↑ |" in text
            rows = [line for line in text.splitlines() if line.startswith("|")]
            assert len(rows) > 2
            assert {row.count("|") - row.count("\\|") for row in rows} == {3}
        # the backslashes right before a "|" are doubled, so none escapes it
        md = render_markdown([["Property", "a\\|b"], ["x", "1"]], {})
        assert "| Property | a\\\\\\|b |" in md
