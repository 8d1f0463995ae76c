"""Brute-force recomputation of every property, for equivalence testing.

This module deliberately shares no computation with :mod:`pefcoh.metrics`:
geometry is rasterized to boolean pixel masks, every prototype's pool is
re-sorted from scratch, and scores are accumulated in plain floats. It is
guarded to small instances; it exists to catch bugs in the fast exact path,
not to evaluate real dumps.
"""

from __future__ import annotations

import math

import numpy as np

from .records import (
    COMBINED_LEVEL,
    MISSING_VALUE,
    TEST,
    TRAIN,
    AnnotationSet,
    EvidenceDump,
    Lexicon,
    axis_level_name,
)
from .scores import GROUND_TRUTH, VARIANTS, LocalizationScore, PropertyScores, RunConfig

MAX_PROTOTYPES = 20
MAX_IMAGES = 50
MAX_SIDE = 512


def _guard(dump: EvidenceDump) -> None:
    if len(dump.prototypes) > MAX_PROTOTYPES:
        raise ValueError(
            f"instance too large for brute-force oracle: {len(dump.prototypes)} prototypes"
        )
    if len(dump.images) > MAX_IMAGES:
        raise ValueError(
            f"instance too large for brute-force oracle: {len(dump.images)} images"
        )
    for img in dump.images:
        if img.width > MAX_SIDE or img.height > MAX_SIDE:
            raise ValueError(
                f"instance too large for brute-force oracle: image {img.image_id!r} "
                f"is {img.width}x{img.height}"
            )


def _patch_bounds(
    row: int, col: int, fh: int, fw: int, width: int, height: int, patch: int
) -> tuple[float, float, float, float]:
    cx = (2 * col + 1) * width / (2 * fw)
    cy = (2 * row + 1) * height / (2 * fh)

    def span(center: float, limit: int) -> tuple[float, float]:
        if limit <= patch:
            return 0.0, float(limit)
        lo = center - patch / 2
        if lo < 0:
            return 0.0, float(patch)
        if lo + patch > limit:
            return float(limit - patch), float(limit)
        return lo, lo + patch

    x0, x1 = span(cx, width)
    y0, y1 = span(cy, height)
    return x0, y0, x1, y1


def _rasterize(bounds_list, width: int, height: int) -> np.ndarray:
    mask = np.zeros((height, width), dtype=bool)
    for x0, y0, x1, y1 in bounds_list:
        mask[math.ceil(y0) : math.ceil(y1), math.ceil(x0) : math.ceil(x1)] = True
    return mask


def _roi_categories(lexicon: Lexicon, roi) -> dict[str, str]:
    cats = {"type": roi.abnormality_type}
    parts = [roi.abnormality_type]
    for axis in lexicon.axes_for(roi.abnormality_type):
        value = roi.descriptors.get(axis, MISSING_VALUE)
        cats[axis_level_name(roi.abnormality_type, axis)] = value
        parts.append(value)
    cats[COMBINED_LEVEL] = "-".join(parts)
    return cats


def _image_rows(dump: EvidenceDump) -> list[list[tuple[str, float, int, int]]]:
    """Each image's ``(prototype_id, score, row, col)`` entries, read row by
    row from the dump's table."""
    t = dump.activations
    return [
        [(t.prototype_ids[int(t.proto[r])], float(t.score[r]), int(t.row[r]), int(t.col[r]))
         for r in range(int(t.offsets[i]), int(t.offsets[i + 1]))]
        for i in range(len(dump.images))
    ]


def brute_force_scores(
    dump: EvidenceDump,
    annotations: AnnotationSet,
    lexicon: Lexicon,
    config: RunConfig | None = None,
) -> PropertyScores:
    """Recompute :class:`PropertyScores` the slow, literal way."""
    config = config or RunConfig()
    _guard(dump)
    ann_by_id = {img.image_id: img for img in annotations.images}
    weights = {p.prototype_id: p.class_weights for p in dump.prototypes}
    images = list(zip(dump.images, _image_rows(dump)))

    global_ids = [
        p.prototype_id
        for p in dump.prototypes
        if any(abs(w) > config.eps for w in p.class_weights)
    ]
    if not global_ids:
        raise ValueError("no global prototypes")
    sparsity = 1.0 - len(global_ids) / len(dump.prototypes)

    # local prototypes per test instance
    test_images = [(img, rows) for img, rows in images if img.split == TEST]
    if not test_images:
        raise ValueError("empty test split")
    pos_counts, neg_counts = [], []
    for img, rows in test_images:
        pos = neg = 0
        for pid, score, _, _ in rows:
            ws = weights[pid]
            w = ws[img.class_label] if config.lp_weight_class == GROUND_TRUTH else max(ws)
            c = score * w
            if c > config.eps:
                pos += 1
            elif c < -config.eps:
                neg += 1
        pos_counts.append(pos)
        neg_counts.append(neg)

    # top-k patches and ROI matches per global prototype
    levels = config.levels_for(lexicon)
    per_proto_cats: dict[str, list[dict[str, str]]] = {}
    for pid in global_ids:
        pool = []
        for img, rows in images:
            if img.split != TRAIN or img.image_id not in ann_by_id:
                continue
            for entry_pid, score, row, col in rows:
                if entry_pid == pid:
                    pool.append((score, img.image_id, img, row, col))
        pool.sort(key=lambda t: (-t[0], t[1]))
        matched = []
        for _, _, img, row, col in pool[: config.k]:
            ann = ann_by_id[img.image_id]
            x0, y0, x1, y1 = _patch_bounds(
                row, col, img.feature_h, img.feature_w,
                img.width, img.height, config.patch_size,
            )
            px, py = (x0 + x1) / 2, (y0 + y1) / 2
            best = None
            for idx, roi in enumerate(ann.rois):
                cx = (roi.bbox[0] + roi.bbox[2]) / 2
                cy = (roi.bbox[1] + roi.bbox[3]) / 2
                if x0 <= cx < x1 and y0 <= cy < y1:
                    d2 = (cx - px) ** 2 + (cy - py) ** 2
                    if best is None or (d2, idx) < best:
                        best = (d2, idx)
            if best is not None:
                matched.append(_roi_categories(lexicon, ann.rois[best[1]]))
        per_proto_cats[pid] = matched

    relevant_ids = [pid for pid in global_ids if per_proto_cats[pid]]
    relevance = len(relevant_ids) / len(global_ids)

    def majority(pid: str, level: str) -> tuple[str | None, float]:
        counts: dict[str, int] = {}
        for cats in per_proto_cats[pid]:
            if level in cats:
                counts[cats[level]] = counts.get(cats[level], 0) + 1
        if not counts:
            return None, 0.0
        value = min(counts, key=lambda v: (-counts[v], v))
        return value, counts[value] / config.k

    spec = {}
    for level in levels:
        if relevant_ids:
            spec[level] = sum(majority(pid, level)[1] for pid in relevant_ids) / len(
                relevant_ids
            )
        else:
            spec[level] = None

    assigned = {pid: majority(pid, COMBINED_LEVEL)[0] for pid in relevant_ids}
    unique = len(set(assigned.values()))
    uniq = unique / len(relevant_ids) if relevant_ids else None

    # category universe and per-class counts at the configured levels
    def universe(level: str) -> dict[str, list[int]]:
        counts: dict[str, list[int]] = {}
        for img in annotations.images:
            if config.tc_split is not None and img.split != config.tc_split:
                continue
            for roi in img.rois:
                cats = _roi_categories(lexicon, roi)
                if level in cats:
                    counts.setdefault(cats[level], [0] * len(annotations.class_names))[
                        roi.roi_class
                    ] += 1
        return counts

    tc = config.tc_override
    if tc is None:
        tc = len(universe(COMBINED_LEVEL))
    cov = unique / tc

    cs_counts = universe(config.class_specific_level)
    aligns = []
    for pid in relevant_ids:
        value = majority(pid, config.class_specific_level)[0]
        if value is None:
            continue
        counts = cs_counts.get(value)
        if counts is None or sum(1 for c in counts if c > 0) < 2:
            continue
        top = max(counts)
        if sum(1 for c in counts if c == top) > 1:
            continue
        ws = weights[pid]
        aligns.append(1 if ws.index(max(ws)) == counts.index(top) else 0)
    cs = sum(aligns) / len(aligns) if aligns else None

    # localization by rasterized masks
    per_variant_values: dict[str, list[tuple[float, float]]] = {v: [] for v in VARIANTS}
    any_roi = False
    for img, rows in test_images:
        ann = ann_by_id.get(img.image_id)
        if ann is None or not ann.rois:
            continue
        any_roi = True
        scored = []
        for pid, score, row, col in rows:
            if pid not in global_ids:
                continue
            c = score * weights[pid][img.class_label]
            if abs(c) > config.eps:
                scored.append((abs(c), pid, (row, col)))
        scored.sort(key=lambda t: (-t[0], t[1]))
        roi_mask = _rasterize([tuple(map(float, r.bbox)) for r in ann.rois], img.width, img.height)
        for variant, limit in (("top1", 1), ("top10", 10), ("all", len(scored))):
            chosen = scored[:limit]
            if not chosen:
                per_variant_values[variant].append((0.0, 0.0))
                continue
            patch_mask = _rasterize(
                [
                    _patch_bounds(
                        row, col, img.feature_h, img.feature_w,
                        img.width, img.height, config.patch_size,
                    )
                    for _, _, (row, col) in chosen
                ],
                img.width,
                img.height,
            )
            inter = int(np.logical_and(patch_mask, roi_mask).sum())
            union = int(np.logical_or(patch_mask, roi_mask).sum())
            a = int(patch_mask.sum())
            b = int(roi_mask.sum())
            per_variant_values[variant].append(
                (inter / union if union else 0.0, 2 * inter / (a + b) if a + b else 0.0)
            )
    if not any_roi:
        raise ValueError("no localizable instances")
    loc = {}
    for variant in VARIANTS:
        vals = per_variant_values[variant]
        loc[variant] = LocalizationScore(
            sum(v[0] for v in vals) / len(vals), sum(v[1] for v in vals) / len(vals)
        )

    return PropertyScores(
        total_prototypes=len(dump.prototypes),
        global_prototypes=len(global_ids),
        sparsity_ratio=sparsity,
        local_positive=sum(pos_counts) / len(pos_counts),
        local_negative=sum(neg_counts) / len(neg_counts),
        relevance=relevance,
        relevant_prototypes=len(relevant_ids),
        specialization=spec,
        uniqueness=uniq,
        unique_categories=unique,
        coverage=cov,
        total_categories=tc,
        class_specific=cs,
        class_specific_eligible=len(aligns),
        localization=loc,
    )
