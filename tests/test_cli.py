import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pefcoh.cli import main
from pefcoh.dumpio import write_json
from pefcoh.report import build_comparison, render_csv, render_markdown
from pefcoh.synth import SynthSpec

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

    def test_bytes_pinned(self, tmp_path):
        # SHA-256 of what synth wrote before the writers were derived from the
        # records; any change to a file format's bytes shows here.
        expected = {
            "annotations.json": "85d3cfbd5e8e5226fc146349ccd0218e58c4700eedaef2cf5cfef58eb829772e",
            "dump.json": "b0e744949d2345a916a5816fa67a8722be386a895ed846a373650279dcf2dab7",
            "ledger.json": "b77bee0490675ac28f2cf5819d363502316e9e573bde51223f2b4d894543c4d7",
            "lexicon.json": "dd8e9f9262265a271896327b583c112d530b1b8aa85034696375551b7e176575",
        }
        out = tmp_path / "s"
        assert run_cli("synth", "--out", out, "--seed", 7, "--structure-seed", 77) == 0
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_infeasible_spec_exit_2(self, tmp_path, capsys):
        spec = SynthSpec(rng_seed=0, purity_target=0.0).to_dict()
        path = tmp_path / "spec.json"
        write_json(path, spec)
        code = run_cli("synth", "--spec", path, "--out", tmp_path / "out")
        assert code == 2
        assert "purity_target" in capsys.readouterr().err


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
