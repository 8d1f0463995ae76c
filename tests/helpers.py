"""Programmatic builders for small dumps/annotation sets used across tests."""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from hypothesis import settings

from pefcoh.dumpio import (
    DUMP_FORMAT,
    FormatError,
    _check_format,
    _class_names,
    _image_header,
    _load_json,
    _require,
    to_json,
)
from pefcoh.geometry import (
    PatchBox,
    RegionSet,
    contains_point,
    iou_dsc_exact,
    roi_center,
)
from pefcoh.metrics import (
    GROUND_TRUTH,
    VARIANTS,
    EvidenceItem,
    ImageLocalizationRow,
    LocalizationScore,
    RunConfig,
    PrototypeVerdict,
    TopKEvidence,
    _alignment,
    global_prototype_ids,
)
from pefcoh.records import (
    TEST,
    TRAIN,
    AnnotatedImage,
    AnnotationSet,
    ActivationEntry,
    EvidenceDump,
    ImageActivationRecord,
    Lexicon,
    LexiconType,
    PrototypeRecord,
    COMBINED_LEVEL,
    CategoryId,
    ROIAnnotation,
    categories_for_roi,
)
from pefcoh.report import REPORT_FORMAT, timestamp

CLASSES = ("benign", "malignant")


def examples(n: int) -> int:
    """``n`` examples for a differential test against a reference here, or
    the active hypothesis profile's count when that is larger (the ``fuzz``
    profile of conftest.py)."""
    return max(n, settings.default.max_examples)


MAMMO_LEXICON = Lexicon(
    (
        LexiconType("mass", ("shape", "margin")),
        LexiconType("calcification", ("morphology", "distribution")),
    )
)


def make_image(
    image_id,
    entries,
    split="train",
    width=128,
    height=128,
    class_label=0,
    feature_h=1,
    feature_w=1,
):
    return ImageActivationRecord(
        image_id,
        split,
        width,
        height,
        class_label,
        feature_h,
        feature_w,
        tuple(ActivationEntry(pid, score, row, col) for pid, score, row, col in entries),
    )


def make_dump(prototypes, images, model_name="test", seed=0, class_names=CLASSES):
    return EvidenceDump(
        model_name,
        seed,
        class_names,
        tuple(PrototypeRecord(pid, tuple(w)) for pid, w in prototypes),
        tuple(images),
    )


def make_roi(bbox, abnormality_type="mass", descriptors=None, roi_class=0):
    if descriptors is None:
        descriptors = {"shape": "oval", "margin": "circumscribed"}
    return ROIAnnotation(tuple(bbox), abnormality_type, descriptors, roi_class)


def make_ann_image(
    image_id, rois, split="train", width=128, height=128, class_label=0
):
    return AnnotatedImage(image_id, width, height, split, class_label, tuple(rois))


def make_annotations(images, class_names=CLASSES):
    return AnnotationSet(class_names, tuple(images))


def category_roi(index, kind="mass", roi_class=0, bbox=(48, 48, 80, 80)):
    """An ROI whose combined category is unique per (kind, index)."""
    if kind == "mass":
        descriptors = {"shape": f"shape{index:03d}", "margin": f"margin{index:03d}"}
    else:
        descriptors = {"morphology": f"morph{index:03d}", "distribution": f"dist{index:03d}"}
    return make_roi(bbox, kind, descriptors, roi_class)


def ratio_fixture(n_global, n_relevant, n_unique, n_mass, n_calc):
    """Dump + annotations realizing exact relevance/uniqueness/coverage ratios.

    One single-ROI training image per category (so the combined universe has
    exactly n_mass + n_calc categories); each relevant prototype's sole
    training activation lands on one category image, with exactly n_unique
    distinct categories assigned; irrelevant prototypes activate only on an
    ROI-free image. Images are 128x128 with a 1x1 feature map, so the default
    130-pixel patch spans the whole image and always contains the ROI center.
    """
    assert n_unique <= n_relevant <= n_global
    assert n_unique <= n_mass + n_calc

    cats = [("mass", i) for i in range(n_mass)] + [("calcification", i) for i in range(n_calc)]
    ann_images = [
        make_ann_image(
            f"cat_{j:03d}",
            [category_roi(index, kind, roi_class=j % 2)],
            class_label=j % 2,
        )
        for j, (kind, index) in enumerate(cats)
    ]
    ann_images.append(make_ann_image("blank_000", []))
    ann_images.append(
        make_ann_image("test_000", [category_roi(0, "mass", roi_class=1)],
                       split="test", class_label=1)
    )

    prototypes = [(f"p{i:03d}", (1.0, -0.5)) for i in range(n_global)]
    dump_images = {name: [] for name in
                   [f"cat_{j:03d}" for j in range(len(cats))] + ["blank_000", "test_000"]}
    for i in range(n_global):
        pid = f"p{i:03d}"
        if i < n_relevant:
            j = i if i < n_unique else i % n_unique
            dump_images[f"cat_{j:03d}"].append((pid, 5.0, 0, 0))
        else:
            dump_images["blank_000"].append((pid, 5.0, 0, 0))
    dump_images["test_000"].append(("p000", 5.0, 0, 0))

    images = [
        make_image(name, entries, split="test" if name == "test_000" else "train",
                   class_label=1 if name == "test_000" else
                   (int(name.split("_")[1]) % 2 if name.startswith("cat_") else 0))
        for name, entries in dump_images.items()
    ]
    dump = make_dump(prototypes, images)
    return dump, make_annotations(ann_images), MAMMO_LEXICON


# Reference geometry: the x-slab sweep and pairwise box clipping that the
# coordinate-compressed grid in pefcoh.geometry replaced, kept verbatim as an
# independent check on the grid's exact areas.


def union_area(boxes: RegionSet) -> Fraction:
    """Exact area of the union, via an x-slab sweep over compressed coordinates."""
    if not boxes:
        return Fraction(0)
    xs = sorted({b.x_min for b in boxes} | {b.x_max for b in boxes})
    total = Fraction(0)
    for x_lo, x_hi in zip(xs, xs[1:]):
        spans = sorted(
            (b.y_min, b.y_max) for b in boxes if b.x_min <= x_lo and b.x_max >= x_hi
        )
        covered = Fraction(0)
        cur_lo: Fraction | None = None
        cur_hi: Fraction | None = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += covered * (x_hi - x_lo)
    return total


def _clip(a: PatchBox, b: PatchBox) -> PatchBox | None:
    x_min = max(a.x_min, b.x_min)
    y_min = max(a.y_min, b.y_min)
    x_max = min(a.x_max, b.x_max)
    y_max = min(a.y_max, b.y_max)
    if x_min < x_max and y_min < y_max:
        return PatchBox(x_min, y_min, x_max, y_max)
    return None


def intersection_area(a: RegionSet, b: RegionSet) -> Fraction:
    """Exact area of union(a) ∩ union(b)."""
    pieces = []
    for box_a in a:
        for box_b in b:
            clipped = _clip(box_a, box_b)
            if clipped is not None:
                pieces.append(clipped)
    return union_area(pieces)


# Reference patch mapping: the Fraction arithmetic that the integer patch
# lattice of pefcoh.geometry replaced, kept verbatim as the reference of
# resolve_patch_box, patch_lattice and the metrics built on them.


# A pure function of seven ints returning a frozen box: one dump repeats the
# same few thousand (cell, feature map, image size) keys tens of thousands of
# times across top-k evidence and localization.
@functools.lru_cache(maxsize=4096)
def resolve_patch_box(
    loc_row: int,
    loc_col: int,
    feature_h: int,
    feature_w: int,
    image_width: int,
    image_height: int,
    patch_size: int,
) -> PatchBox:
    """Map a feature-map cell to a fixed-size patch box in pixel space.

    The box has side ``patch_size`` and is centered on the cell center
    mapped into pixel coordinates. A box that overhangs the image is
    translated (not shrunk) back inside; only when an image dimension is
    smaller than ``patch_size`` does the box span that full dimension.
    """
    if not (0 <= loc_row < feature_h and 0 <= loc_col < feature_w):
        raise ValueError(
            f"activation location ({loc_row}, {loc_col}) out of feature map "
            f"{feature_h}x{feature_w}"
        )
    if patch_size < 1:
        raise ValueError(f"patch_size must be >= 1, got {patch_size}")

    center_x = Fraction((2 * loc_col + 1) * image_width, 2 * feature_w)
    center_y = Fraction((2 * loc_row + 1) * image_height, 2 * feature_h)
    x_min, x_max = _fit_span(center_x, patch_size, image_width)
    y_min, y_max = _fit_span(center_y, patch_size, image_height)
    return PatchBox(x_min, y_min, x_max, y_max)


def _fit_span(center: Fraction, size: int, limit: int) -> tuple[Fraction, Fraction]:
    if limit <= size:
        return Fraction(0), Fraction(limit)
    half = Fraction(size, 2)
    lo, hi = center - half, center + half
    if lo < 0:
        return Fraction(0), Fraction(size)
    if hi > limit:
        return Fraction(limit - size), Fraction(limit)
    return lo, hi


# Reference metrics and dump parser: the per-entry loops over
# ActivationEntry records that the columnar ActivationTable paths in
# pefcoh.metrics and pefcoh.dumpio replaced, kept verbatim as the reference
# of the differential and parse-error parity tests. (This parse_dump still
# raises OverflowError on an integer too large for a float.)


def _lp_weight(weights: tuple[float, ...], class_label: int, convention: str) -> float:
    if convention == GROUND_TRUTH:
        return weights[class_label]
    return max(weights)


def local_prototypes(
    dump: EvidenceDump, eps: float, weight_convention: str = GROUND_TRUTH
) -> tuple[float, float]:
    """Mean number of prototypes per test instance whose contribution
    (presence score x class weight) is positive resp. negative.

    The weight is taken toward the instance's ground-truth class by default.
    """
    weights = dump.weights_by_id()
    test_images = dump.split_images(TEST)
    if not test_images:
        raise ValueError("empty test split")
    pos_total = 0
    neg_total = 0
    for img in test_images:
        for entry in img.entries:
            w = _lp_weight(weights[entry.prototype_id], img.class_label, weight_convention)
            contribution = entry.score * w
            if contribution > eps:
                pos_total += 1
            elif contribution < -eps:
                neg_total += 1
    n = len(test_images)
    return float(Fraction(pos_total, n)), float(Fraction(neg_total, n))


def _match_roi(patch: PatchBox, ann: AnnotatedImage) -> int | None:
    """Index of the ROI whose center lies in the patch; with several matches,
    the center nearest the patch center wins, then the smallest ROI index."""
    px, py = patch.center()
    best: tuple[Fraction, int] | None = None
    for idx, roi in enumerate(ann.rois):
        cx, cy = roi_center(roi)
        if not contains_point(patch, cx, cy):
            continue
        dist2 = (cx - px) ** 2 + (cy - py) ** 2
        if best is None or (dist2, idx) < best:
            best = (dist2, idx)
    return best[1] if best is not None else None


def top_k_evidence(
    dump: EvidenceDump,
    annotations: AnnotationSet,
    lexicon: Lexicon,
    config: RunConfig,
) -> list[TopKEvidence]:
    """Per global prototype, its k highest-scoring training patches.

    Ties in presence score break by image_id ascending. Training images
    missing from the annotation set are excluded from the pool. A prototype
    with fewer than k activations keeps all of them and records the
    shortfall.
    """
    ann_by_id = annotations.by_id()
    pools: dict[str, list[tuple[float, str, AnnotatedImage, int, int, int, int]]] = {}
    for img in dump.split_images(TRAIN):
        ann = ann_by_id.get(img.image_id)
        if ann is None:
            continue
        for entry in img.entries:
            pools.setdefault(entry.prototype_id, []).append(
                (
                    entry.score,
                    img.image_id,
                    ann,
                    entry.row,
                    entry.col,
                    img.feature_h,
                    img.feature_w,
                )
            )

    out = []
    for pid in global_prototype_ids(dump, config.eps):
        pool = sorted(pools.get(pid, []), key=lambda t: (-t[0], t[1]))[: config.k]
        items = []
        for score, image_id, ann, row, col, feature_h, feature_w in pool:
            patch = resolve_patch_box(
                row, col, feature_h, feature_w, ann.width, ann.height, config.patch_size
            )
            roi_index = _match_roi(patch, ann)
            categories = None
            if roi_index is not None:
                categories = categories_for_roi(lexicon, ann.rois[roi_index])
            items.append(EvidenceItem(image_id, score, patch, roi_index, categories))
        out.append(TopKEvidence(pid, config.k, tuple(items), config.k - len(items)))
    return out


def _localization_detail(
    dump: EvidenceDump,
    annotations: AnnotationSet,
    config: RunConfig,
) -> tuple[list[ImageLocalizationRow], dict[str, LocalizationScore]]:
    """Per-image localization rows plus the exact per-variant means."""
    ann_by_id = annotations.by_id()
    weights = dump.weights_by_id()
    global_ids = set(global_prototype_ids(dump, config.eps))
    rows = []
    sums = {variant: [Fraction(0), Fraction(0)] for variant in VARIANTS}
    for img in dump.split_images(TEST):
        ann = ann_by_id.get(img.image_id)
        if ann is None or not ann.rois:
            continue
        candidates = []
        for entry in img.entries:
            if entry.prototype_id not in global_ids:
                continue
            contribution = entry.score * weights[entry.prototype_id][img.class_label]
            if abs(contribution) > config.eps:
                candidates.append((abs(contribution), entry))
        candidates.sort(key=lambda t: (-t[0], t[1].prototype_id))
        roi_boxes = [PatchBox(*roi.bbox) for roi in ann.rois]
        patches = [
            resolve_patch_box(e.row, e.col, img.feature_h, img.feature_w,
                              img.width, img.height, config.patch_size)
            for _, e in candidates
        ]
        per_variant = {}
        for variant, limit in (("top1", 1), ("top10", 10), ("all", len(candidates))):
            i, d = iou_dsc_exact(patches[:limit], roi_boxes)
            sums[variant][0] += i
            sums[variant][1] += d
            per_variant[variant] = LocalizationScore(float(i), float(d))
        rows.append(ImageLocalizationRow(img.image_id, len(candidates), per_variant))
    if not rows:
        raise ValueError("no localizable instances")
    n = len(rows)
    means = {
        variant: LocalizationScore(float(i_sum / n), float(d_sum / n))
        for variant, (i_sum, d_sum) in sums.items()
    }
    return rows, means


# Reference verdicts: one _purity_for_level pass per level, which the
# one-pass count of pefcoh.metrics.build_verdicts replaced, kept verbatim.


def _purity_for_level(
    evidence: TopKEvidence, level: str
) -> tuple[CategoryId | None, Fraction]:
    counts: dict[CategoryId, int] = {}
    for item in evidence.items:
        if item.categories is None:
            continue
        cat = item.categories.get(level)
        if cat is not None:
            counts[cat] = counts.get(cat, 0) + 1
    if not counts:
        return None, Fraction(0)
    # argmax with deterministic tie-break: lexicographically smallest value
    best = min(counts, key=lambda c: (-counts[c], c.value))
    return best, Fraction(counts[best], evidence.k)


def build_verdicts(
    dump: EvidenceDump,
    evidence: Sequence[TopKEvidence],
    levels: Sequence[str],
    class_specific_level: str,
    class_counts: Mapping[CategoryId, tuple[int, ...]],
) -> tuple[PrototypeVerdict, ...]:
    """Assemble one verdict per prototype (dump order), global or not."""
    evidence_by_id = {ev.prototype_id: ev for ev in evidence}
    weights = dump.weights_by_id()
    out = []
    for proto in dump.prototypes:
        ev = evidence_by_id.get(proto.prototype_id)
        if ev is None:
            out.append(
                PrototypeVerdict(proto.prototype_id, False, False, {}, None, None, None)
            )
            continue
        relevant = any(item.roi_index is not None for item in ev.items)
        purity = {level: _purity_for_level(ev, level) for level in levels}
        combined = None
        align = None
        if relevant:
            combined = _purity_for_level(ev, COMBINED_LEVEL)[0]
            assigned = _purity_for_level(ev, class_specific_level)[0]
            if assigned is not None:
                align = _alignment(weights[proto.prototype_id], assigned, class_counts)
        out.append(
            PrototypeVerdict(
                proto.prototype_id, True, relevant, purity, combined, align, ev
            )
        )
    return tuple(out)


def parse_dump(path: str | Path) -> EvidenceDump:
    """Parse and fully validate an evidence dump file."""
    raw = _check_format(_load_json(path), DUMP_FORMAT, path)
    model_name = _require(raw, "model_name", str, str(path))
    seed = _require(raw, "seed", int, str(path))
    class_names = _class_names(raw, str(path))

    prototypes = []
    seen_ids: set[str] = set()
    for i, rec in enumerate(_require(raw, "prototypes", list, str(path))):
        where = f"{path}: prototypes[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: must be an object")
        pid = _require(rec, "id", str, where)
        if pid in seen_ids:
            raise FormatError(f"{where}: duplicate prototype id {pid!r}")
        seen_ids.add(pid)
        weights = _require(rec, "class_weights", list, where)
        if len(weights) != len(class_names):
            raise FormatError(
                f"{where}: class_weights length {len(weights)} != {len(class_names)} classes"
            )
        ws = []
        for j, w in enumerate(weights):
            if not isinstance(w, (int, float)) or isinstance(w, bool) or not math.isfinite(w):
                raise FormatError(f"{where}: class_weights[{j}] must be a finite number")
            ws.append(float(w))
        prototypes.append(PrototypeRecord(pid, tuple(ws)))

    images = []
    seen_images: set[str] = set()
    for i, rec in enumerate(_require(raw, "images", list, str(path))):
        where = f"{path}: images[{i}]"
        image_id, split, width, height, class_label = _image_header(
            rec, where, seen_images, len(class_names)
        )
        feature_h = _require(rec, "feature_h", int, where)
        feature_w = _require(rec, "feature_w", int, where)
        if feature_h <= 0 or feature_w <= 0:
            raise FormatError(f"{where}: feature-map dimensions must be positive")

        entries = []
        seen_protos: set[str] = set()
        for j, ent in enumerate(_require(rec, "entries", list, where)):
            ewhere = f"{where}.entries[{j}]"
            if not isinstance(ent, dict):
                raise FormatError(f"{ewhere}: must be an object")
            pid = _require(ent, "prototype_id", str, ewhere)
            if pid not in seen_ids:
                raise FormatError(f"{ewhere}: unknown prototype {pid!r}")
            if pid in seen_protos:
                raise FormatError(f"{ewhere}: duplicate entry for prototype {pid!r}")
            seen_protos.add(pid)
            score = _require(ent, "score", (int, float), ewhere)
            if isinstance(score, bool) or not math.isfinite(score) or score < 0:
                raise FormatError(f"{ewhere}: score must be a finite number >= 0")
            row = _require(ent, "row", int, ewhere)
            col = _require(ent, "col", int, ewhere)
            if not (0 <= row < feature_h and 0 <= col < feature_w):
                raise FormatError(
                    f"{ewhere}: activation location out of feature map "
                    f"(row={row}, col={col}, feature {feature_h}x{feature_w})"
                )
            entries.append(ActivationEntry(pid, float(score), row, col))
        images.append(
            ImageActivationRecord(
                image_id, split, width, height, class_label, feature_h, feature_w, tuple(entries)
            )
        )
    return EvidenceDump(model_name, seed, class_names, tuple(prototypes), tuple(images))


# ---------------------------------------------------------------------------
# reference report writer: the whole-tree dict and indent=2 encoding that
# report.write_report replaced, kept verbatim to check the one-pass writer


def report_to_dict(report, fixed_timestamp: bool = False) -> dict:
    verdicts = []
    for v in report.verdicts:
        entry: dict = {
            "prototype_id": v.prototype_id,
            "is_global": v.is_global,
            "is_relevant": v.is_relevant,
            "purity_per_level": {
                level: {
                    "category": cat.value if cat is not None else None,
                    "purity": float(purity),
                }
                for level, (cat, purity) in v.purity_per_level.items()
            },
            "combined_category": (
                v.combined_category.value if v.combined_category is not None else None
            ),
            "align": v.align,
        }
        if v.evidence is not None:
            entry["evidence"] = {
                "shortfall": v.evidence.shortfall,
                "items": [
                    {
                        "image_id": item.image_id,
                        "score": item.score,
                        "patch": list(item.patch.as_floats()),
                        "roi_index": item.roi_index,
                        "combined_category": (
                            item.categories[COMBINED_LEVEL].value
                            if item.categories is not None
                            else None
                        ),
                    }
                    for item in v.evidence.items
                ],
            }
        verdicts.append(entry)
    return {
        "format": REPORT_FORMAT,
        "generated_at": timestamp(fixed_timestamp),
        "model_name": report.model_name,
        "seed": report.seed,
        "config": to_json(report.config),
        "warnings": list(report.warnings),
        "scores": to_json(report.scores),
        "prototypes": verdicts,
        "localization_rows": [
            {
                "image_id": row.image_id,
                "n_candidates": row.n_candidates,
                **to_json(row.per_variant),
            }
            for row in report.localization_rows
        ],
    }


def dumps_canonical(obj) -> str:
    """Stable JSON text: fixed key order (insertion), 2-space indent, newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
