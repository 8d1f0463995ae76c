"""Self-tests of the benchmark, on shapes small enough to run in seconds.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They are not part of the package's test suite (``tests/``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, plan  # noqa: E402

from pefcoh import dumpio, oracle  # noqa: E402
from pefcoh.metrics import RunConfig, evaluate, flatten_scores  # noqa: E402

# Inside the oracle's guard: <= 20 prototypes, <= 50 images, sides <= 512.
TINY = gen.Shape(
    n_prototypes=12, n_train=30, n_test=12, train_density=0.8, test_density=0.8,
    unannotated_fraction=0.2, annotation_only=3, width=256, height=512,
    feature_w=8, feature_h=16,
)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = gen.generate(TINY, 5, tmp_path / "a")
    b = gen.generate(TINY, 5, tmp_path / "b")
    c = gen.generate(TINY, 6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a.entries == b.entries
    other = _files(tmp_path / "c")
    for name, data in _files(tmp_path / "a").items():
        if name != "lexicon.json":
            assert other[name] != data, name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_shapes_pass_validate(tmp_path, name):
    inputs = gen.generate(WORKLOADS[name].shape, 1, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "pefcoh", "validate", "--dump", str(inputs.dump),
         "--annotations", str(inputs.annotations), "--lexicon", str(inputs.lexicon)],
        env=run.child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_evaluate_matches_oracle(tmp_path, seed):
    inputs = gen.generate(TINY, seed, tmp_path)
    dump = dumpio.parse_dump(inputs.dump)
    annotations, lexicon = dumpio.load_annotations(inputs.annotations, inputs.lexicon)
    config = RunConfig(k=10, patch_size=130)
    got = flatten_scores(evaluate(dump, annotations, lexicon, config).scores)
    want = flatten_scores(oracle.brute_force_scores(dump, annotations, lexicon, config))
    assert got.keys() == want.keys()
    for key, value in got.items():
        if value is None or want[key] is None:
            assert value is None and want[key] is None, key
        else:
            assert abs(value - want[key]) <= 1e-9, key


def test_raster_check_matches_reports_and_catches_a_corrupted_row(tmp_path):
    inputs = gen.generate(TINY, 4, tmp_path / "in")
    run_plan = plan(inputs, tmp_path / "out")
    assert run.cli_iteration(run_plan, tmp_path / "out", run.child_env()).failed == 0
    report = run_plan.eval_dir / gen.REPORT_NAME
    assert check.localization_errors(inputs.check, report) == []
    digest = check.output_digest(run_plan.eval_dir, run_plan.comparison)

    raw = json.loads(report.read_text())
    checked = {img["image_id"] for img in json.loads(inputs.check.read_text())["images"]}
    row = next(r for r in raw["localization_rows"] if r["image_id"] in checked)
    row["top10"]["iou"] += 1e-12
    report.write_text(json.dumps(raw))
    assert check.localization_errors(inputs.check, report)
    assert check.output_digest(run_plan.eval_dir, run_plan.comparison) != digest


def test_digest_ignores_warnings_and_timestamps(tmp_path):
    inputs = gen.generate(TINY, 4, tmp_path / "in")
    run_plan = plan(inputs, tmp_path / "out")
    run.cli_iteration(run_plan, tmp_path / "out", run.child_env())
    digest = check.output_digest(run_plan.eval_dir, run_plan.comparison)
    report = run_plan.eval_dir / gen.REPORT_NAME
    raw = json.loads(report.read_text())
    assert raw["warnings"], "the tiny shape must produce warnings"
    raw["warnings"] = [w.upper() for w in raw["warnings"]]
    raw["generated_at"] = "2000-01-01T00:00:00Z"
    report.write_text(json.dumps(raw))
    assert check.output_digest(run_plan.eval_dir, run_plan.comparison) == digest


def test_traced_run_gives_cli_digests_and_every_declared_metric(tmp_path):
    workload = Workload("tiny", TINY)
    inputs = gen.generate(TINY, 2, tmp_path / "in")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    metrics, _, cli_check, runs = run.run_cli(workload, inputs, 2, 0, tmp_path / "cli")
    assert cli_check.ok and not any(it.failed for it in runs)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in metrics.values())

    metrics, _, traced_check, runs = run.run_traced(workload, inputs, 2, 0, tmp_path / "traced")
    assert traced_check.ok and not any(it.failed for it in runs)
    assert traced_check.expected == cli_check.expected
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert all(value is not None for value in metrics.values())
    assert metrics["dumpio.load_annotations_calls"] == 1
    assert metrics["dumpio.warnings"] > 0


def test_instrument_restores_and_skips_missing_targets():
    modules = run.load_pefcoh()
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.HOOKS}
    fake = dict(modules, **{"pefcoh.report": object()})
    with tracing.instrument(tracing.Tracer(), fake) as skipped:
        assert "pefcoh.report.write_report" in skipped
        assert modules["pefcoh.dumpio"].parse_dump is not before[("pefcoh.dumpio", "parse_dump")]
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


def test_manifest_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(manifest["workloads"])
    mapped = [name for group in manifest["layer_map"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert all(set(group["moves"]) <= end_to_end for group in manifest["layer_map"])
