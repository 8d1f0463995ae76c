"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria:
1. worked-ratio fidelity on hand-built fixtures (< 1 s)
2. geometry identity + rasterization agreement on >= 1000 random pairs (< 10 s)
3. three-way oracle equivalence across >= 100 synthetic seeds (< 60 s)
4. invariance suite: scale, relabeling, unique-category identity (< 30 s)
5. byte-identical output trees for two full CLI runs
6. comparison-table shape against a golden file
"""

import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from pefcoh.geometry import _areas, iou_dsc_exact
from pefcoh.metrics import RunConfig, evaluate, flatten_scores
from pefcoh.oracle import brute_force_scores
from pefcoh.records import AnnotatedImage, AnnotationSet, PrototypeRecord
from pefcoh.synth import SynthSpec, generate
from pefcoh.cli import main as cli_main
from pefcoh.dumpio import write_json

import helpers
from helpers import ratio_fixture

DATA_DIR = Path(__file__).parent / "data"
CONFIG = RunConfig(k=10, patch_size=130)


def _report(criterion, elapsed, budget):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_worked_ratio_fidelity():
    start = time.monotonic()

    dump, ann, lexicon = ratio_fixture(48, 16, 10, 8, 8)
    scores = evaluate(dump, ann, lexicon, CONFIG).scores
    assert abs(scores.relevance - 16 / 48) <= 1e-12
    assert scores.uniqueness == 0.625

    dump, ann, lexicon = ratio_fixture(400, 135, 33, 70, 62)
    scores = evaluate(dump, ann, lexicon, CONFIG).scores
    assert abs(scores.relevance - 0.3375) <= 1e-12
    assert abs(scores.uniqueness - 33 / 135) <= 1e-12
    assert round(scores.uniqueness, 4) == 0.2444
    assert scores.total_categories == 132
    assert scores.coverage == 0.25

    _report("1 worked-ratio fidelity", time.monotonic() - start, 1.0)


def test_criterion_2_geometry_identity():
    start = time.monotonic()
    rng = random.Random(20240901)

    def rand_box(side=512):
        x0 = rng.randrange(0, side - 1)
        y0 = rng.randrange(0, side - 1)
        return (x0, y0, rng.randrange(x0 + 1, side + 1), rng.randrange(y0 + 1, side + 1))

    def pixel_count(boxes, side=512):
        mask = np.zeros((side, side), dtype=bool)
        for x0, y0, x1, y1 in boxes:
            mask[y0:y1, x0:x1] = True
        return int(mask.sum())

    def iou_dsc(a, b):
        return tuple(map(float, iou_dsc_exact(np.array(a, dtype=np.int64),
                                              np.array(b, dtype=np.int64))))

    checked_pairs = 0
    for _ in range(1000):  # single-rectangle pairs
        a, b = [rand_box()], [rand_box()]
        i, d = iou_dsc(a, b)
        assert abs(d - 2 * i / (1 + i)) <= 1e-12
        checked_pairs += 1
    for _ in range(250):  # multi-box region-set pairs, plus exact-area oracle
        a = [rand_box() for _ in range(rng.randint(1, 5))]
        b = [rand_box() for _ in range(rng.randint(1, 5))]
        i, d = iou_dsc(a, b)
        assert abs(d - 2 * i / (1 + i)) <= 1e-12
        area_a, area_b, _ = _areas(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        assert (area_a, area_b) == (pixel_count(a), pixel_count(b))
        checked_pairs += 1
    assert checked_pairs >= 1000

    _report("2 geometry identity", time.monotonic() - start, 10.0)


def _sweep_specs(n_seeds):
    variations = [
        {},
        dict(purity_target=1.0),
        dict(relevance_target=0.25, uniqueness_target=1.0),
        dict(zero_weight_fraction=0.0, class_specific_target=1.0),
        dict(n_prototypes=20, n_train_images=30, n_test_images=10, noise_level=1.0),
        dict(k=5, n_train_images=12, purity_target=0.4),
    ]
    for seed in range(n_seeds):
        yield SynthSpec(rng_seed=seed, **variations[seed % len(variations)])


def _assert_scores_equal(got, expected, context):
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


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    n_seeds = 0
    for spec in _sweep_specs(102):
        dump, ann, lexicon, ledger = generate(spec)
        assert len(dump.prototypes) <= 20 and len(dump.images) <= 50
        report = evaluate(dump, ann, lexicon, spec.config())
        _assert_scores_equal(report.scores, ledger.scores, f"ledger seed={spec.rng_seed}")
        oracle = brute_force_scores(dump, ann, lexicon, spec.config())
        _assert_scores_equal(report.scores, oracle, f"oracle seed={spec.rng_seed}")
        n_seeds += 1
    assert n_seeds >= 100
    _report("3 oracle equivalence", time.monotonic() - start, 60.0)


def test_criterion_4_invariance_suite():
    start = time.monotonic()
    for spec in _sweep_specs(18):
        dump, ann, lexicon, _ = generate(spec)
        base_scores = evaluate(dump, ann, lexicon, spec.config()).scores
        base = flatten_scores(base_scores)

        # unique categories via the uniqueness ratio equal those via coverage
        if base_scores.relevant_prototypes:
            uc_from_uniqueness = base_scores.uniqueness * base_scores.relevant_prototypes
            uc_from_coverage = base_scores.coverage * base_scores.total_categories
            assert abs(uc_from_uniqueness - base_scores.unique_categories) <= 1e-9
            assert abs(uc_from_coverage - base_scores.unique_categories) <= 1e-9

        for c in (0.5, 7.0):  # presence-score scale invariance
            scaled = helpers.build_dump(
                dump.model_name, dump.seed, dump.class_names, dump.prototypes,
                [replace(img, entries=[(pid, score * c, row, col)
                                       for pid, score, row, col in rows])
                 for img, rows in zip(dump.images, helpers.image_rows(dump))],
            )
            assert flatten_scores(evaluate(scaled, ann, lexicon, spec.config()).scores) == base

        # relabeling invariance
        proto_map = {p.prototype_id: f"q{500 - i:03d}" for i, p in enumerate(dump.prototypes)}
        image_map = {img.image_id: f"w{700 - i:03d}" for i, img in enumerate(dump.images)}
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
        assert flatten_scores(
            evaluate(renamed_dump, renamed_ann, lexicon, spec.config()).scores
        ) == base

    _report("4 invariance suite", time.monotonic() - start, 30.0)


GOLDEN_MODELS = (
    ("model-alpha", 101, {}),
    ("model-beta", 201, dict(relevance_target=0.75, purity_target=0.9,
                             uniqueness_target=0.5, class_specific_target=1.0,
                             zero_weight_fraction=0.5)),
    ("model-gamma", 301, dict(n_prototypes=16, relevance_target=0.25,
                              purity_target=0.4, uniqueness_target=1.0,
                              class_specific_target=0.5)),
)


def _run_pipeline(root: Path, use_subprocess: bool) -> Path:
    """synth + evaluate per model/seed, then compare; returns the compare dir."""

    def run(argv):
        argv = [str(a) for a in argv]
        if use_subprocess:
            proc = subprocess.run(
                [sys.executable, "-m", "pefcoh", *argv], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
        else:
            assert cli_main(argv) == 0

    report_paths = []
    for model, seed0, overrides in GOLDEN_MODELS:
        for seed in (seed0, seed0 + 1, seed0 + 2):
            spec = SynthSpec(rng_seed=seed, model_name=model, **overrides)
            spec_path = root / f"{model}-{seed}.spec.json"
            write_json(spec_path, spec.to_dict())
            synth_dir = root / f"synth-{model}-{seed}"
            run(["synth", "--spec", spec_path, "--out", synth_dir])
            eval_dir = root / f"eval-{model}-{seed}"
            run([
                "evaluate",
                "--dump", synth_dir / "dump.json",
                "--annotations", synth_dir / "annotations.json",
                "--lexicon", synth_dir / "lexicon.json",
                "--k", "10", "--patch-size", "64",
                "--out", eval_dir, "--fixed-timestamp",
            ])
            report_paths.append(eval_dir / f"{model}-seed{seed}.report.json")
    cmp_dir = root / "comparison"
    run(["compare", *report_paths, "--out", cmp_dir, "--fixed-timestamp"])
    return cmp_dir


def test_criterion_5_cli_determinism(tmp_path):
    start = time.monotonic()
    trees = []
    for name in ("run1", "run2"):
        root = tmp_path / name
        root.mkdir()
        _run_pipeline(root, use_subprocess=True)
        trees.append(root)
    files1 = sorted(p.relative_to(trees[0]) for p in trees[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(trees[1]) for p in trees[1].rglob("*") if p.is_file())
    assert files1 == files2 and files1
    for rel in files1:
        assert (trees[0] / rel).read_bytes() == (trees[1] / rel).read_bytes(), rel
    print(f"ACCEPTANCE 5 CLI determinism: PASS ({time.monotonic() - start:.2f}s, "
          f"{len(files1)} files byte-identical)")


def test_criterion_6_table_shape_golden(tmp_path):
    cmp_dir = _run_pipeline(tmp_path, use_subprocess=False)
    got = (cmp_dir / "comparison.md").read_text(encoding="utf-8")
    golden = (DATA_DIR / "golden_comparison.md").read_text(encoding="utf-8")
    assert got == golden
    # direction markers present on every property row
    rows = [line for line in got.splitlines() if line.startswith("| ")][2:]
    assert len(rows) == 19
    assert all(("↑" in row) or ("↓" in row) for row in rows)
    print("ACCEPTANCE 6 table shape vs golden: PASS")
