"""Correctness checks on the program's outputs.

Two checks, both independent of ``pefcoh``'s own code:

* :func:`output_digest` hashes the numbers a workload's outputs carry (the
  report's ``scores``, ``prototypes`` and ``localization_rows``,
  ``aggregate.json``'s ``properties``, and ``comparison.json`` without its
  ``generated_at``). Warning text and timestamps are left out, so rewording a
  warning keeps the digest. ``digests.json`` records the digest per workload
  and seed.
* :func:`localization_errors` recomputes the localization rows of the test
  images that the generator copied into ``check.json``, by rasterizing patch
  and ROI boxes to pixel masks, and compares them with the reports exactly.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

EPS = 1e-8  # the evaluate default, which the workloads use
PATCH_SIZE = 130  # passed to evaluate by workloads.plan
VARIANTS = (("top1", 1), ("top10", 10), ("all", None))


def _canonical(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def output_digest(eval_dir: Path, comparison: Path) -> str:
    """SHA-256 over the numeric content of one workload iteration's outputs."""
    h = hashlib.sha256()
    for path in sorted(eval_dir.glob("*.report.json")):
        raw = _load(path)
        h.update(path.name.encode("utf-8"))
        h.update(_canonical({k: raw[k] for k in ("scores", "prototypes", "localization_rows")}))
    h.update(_canonical(_load(eval_dir / "aggregate.json")["properties"]))
    raw = _load(comparison)
    raw.pop("generated_at")
    h.update(_canonical(raw))
    return h.hexdigest()


def _span(center2: int, denom2: int, limit: int) -> tuple[int, int]:
    """Patch span on one axis; the center is ``center2 / denom2`` pixels."""
    if limit <= PATCH_SIZE:
        return 0, limit
    if center2 % denom2 or PATCH_SIZE % 2:
        raise ValueError("patch edges off the pixel grid; the raster check needs integer edges")
    lo = center2 // denom2 - PATCH_SIZE // 2
    if lo < 0:
        return 0, PATCH_SIZE
    if lo + PATCH_SIZE > limit:
        return limit - PATCH_SIZE, limit
    return lo, lo + PATCH_SIZE


def _mask(boxes: list[tuple[int, int, int, int]], width: int, height: int) -> np.ndarray:
    mask = np.zeros((height, width), dtype=bool)
    for x0, y0, x1, y1 in boxes:
        mask[y0:y1, x0:x1] = True
    return mask


def expected_rows(check: dict) -> dict[str, dict]:
    """Localization rows (per variant IoU/DSC) for the checked images."""
    shape = check["shape"]
    width, height = shape["width"], shape["height"]
    fw, fh = shape["feature_w"], shape["feature_h"]
    weights = check["weights"]
    rows = {}
    for img in check["images"]:
        label = img["class_label"]
        candidates = []
        for e in img["entries"]:
            w = weights[e["prototype_id"]]
            if not any(abs(v) > EPS for v in w):
                continue
            contribution = abs(e["score"] * w[label])
            if contribution > EPS:
                candidates.append((-contribution, e["prototype_id"], e))
        candidates.sort(key=lambda t: (t[0], t[1]))
        roi_mask = _mask([tuple(b) for b in img["rois"]], width, height)
        roi_area = int(roi_mask.sum())
        row = {"n_candidates": len(candidates)}
        for variant, limit in VARIANTS:
            chosen = candidates[:limit]
            if not chosen:
                row[variant] = {"iou": 0.0, "dsc": 0.0}
                continue
            boxes = []
            for _, _, e in chosen:
                x0, x1 = _span((2 * e["col"] + 1) * width, 2 * fw, width)
                y0, y1 = _span((2 * e["row"] + 1) * height, 2 * fh, height)
                boxes.append((x0, y0, x1, y1))
            patch_mask = _mask(boxes, width, height)
            inter = int(np.logical_and(patch_mask, roi_mask).sum())
            union = int(np.logical_or(patch_mask, roi_mask).sum())
            row[variant] = {
                "iou": float(Fraction(inter, union)),
                "dsc": float(Fraction(2 * inter, int(patch_mask.sum()) + roi_area)),
            }
        rows[img["image_id"]] = row
    return rows


def localization_errors(check_path: Path, report: Path) -> list[str]:
    """Mismatches between the report and the raster recomputation."""
    if not report.exists():
        return [f"no report written at {report.name}"]
    got = {r["image_id"]: r for r in _load(report)["localization_rows"]}
    errors = []
    for image_id, want in expected_rows(_load(check_path)).items():
        row = got.get(image_id)
        if row is None:
            errors.append(f"no localization row for {image_id}")
            continue
        for key, value in want.items():
            if row.get(key) != value:
                errors.append(f"{image_id} {key}: report {row.get(key)} != {value}")
    return errors
