"""The seven prototype-quality properties computed from a dump + annotations.

Properties:

* compactness: global-prototype count, mean active local prototypes per test
  instance (positive/negative), and the zero-weight sparsity ratio
* relevance: fraction of global prototypes whose top-k training patches hit
  at least one ROI center
* specialization: mean share of the majority category among top-k patches,
  per category level (denominator is always k)
* uniqueness: distinct assigned combined categories over relevant prototypes
* coverage: those distinct categories over the dataset's total categories
* localization: IoU/DSC of top-1 / top-10 / all activated prototype patches
  against ROI boxes, averaged over test images that carry ROIs
* class-specificity: whether each relevant prototype's largest class weight
  matches the majority class of its assigned category

All reductions are carried out in exact rational arithmetic and converted to
float once, so results are independent of iteration order and identical
across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .columns import _image_runs
from .dumpio import derive_category_universe, require_consistent, total_categories
from .geometry import iou_dsc_exact, lattice_sizes, patch_lattice, resolve_patch_box
from .records import (
    COMBINED_LEVEL,
    TEST,
    TRAIN,
    ActivationTable,
    AnnotatedImage,
    AnnotationSet,
    CategoryId,
    EvidenceDump,
    Lexicon,
    categories_for_roi,
)
# the header schema and the pooling rule, numpy-free; re-exported from here
from .scores import (  # noqa: F401
    GROUND_TRUTH,
    LP_WEIGHT_CLASSES,
    MAX_WEIGHT,
    VARIANTS,
    AggregateProperty,
    LocalizationScore,
    PropertyScores,
    RunConfig,
    aggregate,
    aggregate_flat,
    flatten,
    flatten_scores,
    pool,
)


@dataclass(frozen=True)
class EvidenceItem:
    """One top-k training patch of a prototype, with its ROI match if any."""

    image_id: str
    score: float
    patch: tuple[float, float, float, float]  # pixel edges (x_min, y_min, x_max, y_max)
    roi_index: int | None
    categories: Mapping[str, CategoryId] | None


@dataclass(frozen=True)
class TopKEvidence:
    prototype_id: str
    k: int
    items: tuple[EvidenceItem, ...]
    shortfall: int


@dataclass(frozen=True)
class PrototypeVerdict:
    prototype_id: str
    is_global: bool
    is_relevant: bool
    # level -> (assigned category or None, purity as an exact multiple of 1/k)
    purity_per_level: Mapping[str, tuple[CategoryId | None, Fraction]]
    combined_category: CategoryId | None
    align: int | None
    evidence: TopKEvidence | None


@dataclass(frozen=True)
class ImageLocalizationRow:
    image_id: str
    n_candidates: int
    per_variant: Mapping[str, LocalizationScore]


@dataclass(frozen=True)
class EvaluationReport:
    model_name: str
    seed: int
    config: RunConfig
    scores: PropertyScores
    verdicts: tuple[PrototypeVerdict, ...]
    localization_rows: tuple[ImageLocalizationRow, ...]
    warnings: tuple[str, ...]


# ---------------------------------------------------------------------------
# compactness


def _global_mask(dump: EvidenceDump, eps: float) -> np.ndarray:
    """Per prototype index: whether the prototype is global, that is, has a
    class weight of magnitude above ``eps``."""
    return (np.abs(dump.activations.weights) > eps).any(axis=1)


def global_prototypes(dump: EvidenceDump, eps: float) -> tuple[int, float]:
    """Count of prototypes with any non-zero class weight, and the sparsity
    ratio (fraction whose weights are all zero)."""
    count = int(np.count_nonzero(_global_mask(dump, eps)))
    total = len(dump.prototypes)
    sparsity = float(1 - Fraction(count, total)) if total else 0.0
    return count, sparsity


def _contributions(
    dump: EvidenceDump, run: tuple[int, int], in_image: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The table rows of the images of ``run``, a run ``(a, b)`` of images
    ``a:b`` (:func:`~pefcoh.columns._image_runs`), that ``in_image`` marks,
    each row's prototype and image index, and its contribution: presence
    score x ``weights[prototype, class label of the image]``.

    No array is longer than the run's rows.
    """
    t = dump.activations
    a, b = run
    counts = np.diff(t.offsets[a:b + 1])
    rows = t.offsets[a] + np.flatnonzero(in_image[a:b].repeat(counts))
    proto = t.proto[rows]
    # each row's class label: a marked image's label repeated over its rows
    contribution = weights[proto, np.array([img.class_label for img in dump.images[a:b]],
                                           dtype=np.intp).repeat(counts * in_image[a:b])]
    with np.errstate(over="ignore"):  # a product past float64 is inf, as in Python
        contribution *= t.score[rows]
    return rows, proto, t.image_of(rows), contribution


def local_prototypes(
    dump: EvidenceDump, eps: float, weight_convention: str = GROUND_TRUTH
) -> tuple[float, float]:
    """Mean number of prototypes per test instance whose contribution
    (presence score x class weight) is positive resp. negative, counted one
    run of images at a time (:func:`_contributions`).

    The weight is taken toward the instance's ground-truth class by default,
    else it is the prototype's largest class weight.
    """
    is_test = np.array([img.split == TEST for img in dump.images], dtype=bool)
    n = int(np.count_nonzero(is_test))
    if not n:
        raise ValueError("empty test split")
    weights = dump.activations.weights
    if weight_convention != GROUND_TRUTH:
        weights = np.broadcast_to(weights.max(axis=1, keepdims=True), weights.shape)
    pos_total = neg_total = 0
    for run in _image_runs(dump.activations.offsets):
        contribution = _contributions(dump, run, is_test, weights)[3]
        pos_total += int(np.count_nonzero(contribution > eps))
        neg_total += int(np.count_nonzero(contribution < -eps))
    return float(Fraction(pos_total, n)), float(Fraction(neg_total, n))


# ---------------------------------------------------------------------------
# top-k evidence and verdicts


def _match_rois(
    images: Sequence[tuple[int, int, AnnotatedImage]],
    image: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    patch_size: int,
) -> list[int | None]:
    """Per patch, the index of the ROI whose center lies in it; with several,
    the center nearest the patch center wins, then the smallest ROI index.

    Patch ``j`` is cell ``(rows[j], cols[j])`` of ``images[image[j]]``, given
    as its ``(feature_h, feature_w, annotations)``. Patches and ROI centers
    are resolved on each image's lattice, and every (patch, ROI) pair is
    compared at once, per axis; only a patch holding two or more centers
    measures distances, in Python ints on one scale for both axes.
    """
    sizes = lattice_sizes([(h, w, ann.width, ann.height) for h, w, ann in images])
    centers = np.array(
        [((x0 + x1) * w, (y0 + y1) * h) for h, w, ann in images
         for x0, y0, x1, y1 in (roi.bbox for roi in ann.rois)],
        dtype=np.int64,
    ).reshape(-1, 2)
    n_rois = np.array([len(ann.rois) for _, _, ann in images], dtype=np.intp)
    grid = sizes[image]
    patches = patch_lattice(rows, cols, *grid.T, patch_size)

    count = n_rois[image]
    pair = np.repeat(np.arange(len(image)), count)  # patch of each (patch, ROI) pair
    local = np.arange(len(pair)) - (np.cumsum(count) - count)[pair]  # the pair's ROI index
    cx, cy = centers[(np.cumsum(n_rois) - n_rois)[image[pair]] + local].T
    box = patches[pair]
    hit = (box[:, 0] <= cx) & (cx < box[:, 2]) & (box[:, 1] <= cy) & (cy < box[:, 3])
    hits = np.bincount(pair[hit], minlength=len(image))[pair]
    roi_index: list[int | None] = [None] * len(image)
    once = hit & (hits == 1)
    for j, r in zip(pair[once].tolist(), local[once].tolist()):
        roi_index[j] = r
    best: dict[int, tuple[int, int]] = {}
    tied = hit & (hits > 1)
    for j, r, x, y in zip(pair[tied].tolist(), local[tied].tolist(),
                          cx[tied].tolist(), cy[tied].tolist()):
        x0, y0, x1, y1 = patches[j].tolist()
        h, w = grid[j, :2].tolist()
        # offsets from the patch center in 1/(4 * feature_w) and 1/(4 * feature_h)
        # pixel, both scaled to 1/(4 * feature_w * feature_h)
        dist2 = ((2 * x - x0 - x1) * h) ** 2 + ((2 * y - y0 - y1) * w) ** 2
        if j not in best or (dist2, r) < best[j]:
            best[j] = (dist2, r)
    for j, (_, r) in best.items():
        roi_index[j] = r
    return roi_index


def _ranks(keys: Sequence[str]) -> np.ndarray:
    """Each key's position in ascending order (ties keep their order)."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[order] = np.arange(len(keys))
    return ranks


def _group_starts(groups: np.ndarray, n: int) -> np.ndarray:
    """Where each group 0..n-1 of a sorted group column starts, then its end."""
    return np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=n))))


def _kth_scores(proto: np.ndarray, score: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per prototype 0..n-1, the k-th highest of its entries' scores, or
    -inf when it has fewer than k entries: the entries at or above it are
    every entry of the prototype's top k however its ties break, and its
    ties."""
    by_score = np.argsort(-score)
    group = proto[by_score]
    if n < 2**15:
        group = group.astype(np.int16)  # a stable sort of int16 is a radix sort
    order = by_score[np.argsort(group, kind="stable")]
    starts = _group_starts(proto, n)
    threshold = np.full(n, -np.inf)
    if k <= len(score):  # else no group is full; keeps k in int64
        full = np.diff(starts) >= k
        threshold[full] = score[order[starts[:-1][full] + k - 1]]
    return threshold


def _pool_candidates(
    t: ActivationTable, annotated: np.ndarray, is_global: np.ndarray, k: int
) -> np.ndarray:
    """The rows, ascending, of the pool (entries of global prototypes on
    annotated images) that score at least their prototype's k-th highest
    score in the pool (see :func:`_kth_scores`).

    They are picked one run of images at a time
    (:func:`~pefcoh.columns._image_runs`): the
    run's pool rows that reach their prototype's k-th score among the rows
    kept so far join those rows, and the k-th scores of the union decide
    which are kept. A prototype's k-th score in part of the pool is never
    above the one in the whole pool, so every row that one pass over the
    whole pool keeps is kept at each step, and the kept rows stay near k
    per prototype.
    """
    counts = t.offsets[1:] - t.offsets[:-1]
    threshold = np.full(len(is_global), -np.inf)
    kept = np.empty(0, dtype=np.intp)
    for a, b in _image_runs(t.offsets):
        lo, hi = t.offsets[a], t.offsets[b]
        proto = t.proto[lo:hi]
        in_pool = np.repeat(annotated[a:b], counts[a:b]) & is_global[proto]
        in_pool &= t.score[lo:hi] >= threshold[proto]
        if not in_pool.any():
            continue
        rows = np.concatenate((kept, lo + np.flatnonzero(in_pool)))
        proto, score = t.proto[rows], t.score[rows]
        threshold = _kth_scores(proto, score, len(is_global), k)
        kept = rows[score >= threshold[proto]]
    return kept


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

    Only the candidates, every entry at or above its prototype's k-th score,
    are sorted; they are picked one run of whole images at a time
    (:func:`_pool_candidates`), so no temporary is as long as the table.
    """
    ann_by_id = annotations.by_id()
    anns = [ann_by_id.get(img.image_id) if img.split == TRAIN else None for img in dump.images]
    t = dump.activations
    is_global = _global_mask(dump, config.eps)
    annotated = np.array([ann is not None for ann in anns], dtype=bool)
    pool = _pool_candidates(t, annotated, is_global, config.k)
    image = t.image_of(pool)
    image_rank = _ranks([img.image_id for img in dump.images])
    # grouped by prototype index, then score descending, then image_id ascending
    order = np.lexsort((image_rank[image], -t.score[pool], t.proto[pool]))
    pool, image = pool[order], image[order]
    proto = t.proto[pool]
    first_k = np.arange(len(pool)) - _group_starts(proto, len(is_global))[proto] < config.k
    kept, image = pool[first_k], image[first_k]

    # the annotated train images holding kept items, ascending
    train = np.flatnonzero(np.bincount(image, minlength=len(dump.images))).tolist()
    roi_index = _match_rois(
        [(dump.images[i].feature_h, dump.images[i].feature_w, anns[i]) for i in train],
        np.searchsorted(train, image), t.row[kept], t.col[kept], config.patch_size,
    )

    items: dict[int, list[EvidenceItem]] = {int(p): [] for p in np.flatnonzero(is_global)}
    categories: dict[tuple[int, int], dict[str, CategoryId]] = {}  # per (image, ROI)
    for p, i, score, row, col, roi in zip(
        t.proto[kept].tolist(), image.tolist(), t.score[kept].tolist(),
        t.row[kept].tolist(), t.col[kept].tolist(), roi_index,
    ):
        img, ann = dump.images[i], anns[i]
        patch = resolve_patch_box(
            row, col, img.feature_h, img.feature_w, ann.width, ann.height, config.patch_size
        )
        cats = None
        if roi is not None:
            cats = categories.get((i, roi))
            if cats is None:
                cats = categories[i, roi] = categories_for_roi(lexicon, ann.rois[roi])
        items[p].append(EvidenceItem(img.image_id, score, patch, roi, cats))
    return [
        TopKEvidence(t.prototype_ids[p], config.k, tuple(found), config.k - len(found))
        for p, found in items.items()
    ]


def _majorities(evidence: TopKEvidence) -> dict[str, tuple[CategoryId, Fraction]]:
    """Per level that a matched item names, in one pass over the items: the
    majority category (ties to the lexicographically smallest value) and its
    purity, an exact multiple of 1/k."""
    counts: dict[str, dict[CategoryId, int]] = {}
    for item in evidence.items:
        if item.categories is None:
            continue
        for level, cat in item.categories.items():
            at_level = counts.setdefault(level, {})
            at_level[cat] = at_level.get(cat, 0) + 1
    out = {}
    for level, at_level in counts.items():
        best = min(at_level, key=lambda c: (-at_level[c], c.value))
        out[level] = (best, Fraction(at_level[best], evidence.k))
    return out


def _alignment(
    strongest: int,
    category: CategoryId,
    class_counts: Mapping[CategoryId, tuple[int, ...]],
) -> int | None:
    """1/0 when the prototype's strongest class matches/misses the majority
    class of its category; None when the category is ineligible (absent, has
    fewer than two classes represented, or its class counts tie)."""
    counts = class_counts.get(category)
    if counts is None or sum(1 for c in counts if c > 0) < 2:
        return None
    top = max(counts)
    if sum(1 for c in counts if c == top) > 1:
        return None  # tied class counts: excluded
    majority = counts.index(top)
    return 1 if strongest == majority else 0


_NO_MAJORITY: tuple[CategoryId | None, Fraction] = (None, Fraction(0))


def build_verdicts(
    dump: EvidenceDump,
    evidence: Sequence[TopKEvidence],
    levels: Sequence[str],
    class_specific_level: str,
    class_counts: Mapping[CategoryId, tuple[int, ...]],
) -> tuple[PrototypeVerdict, ...]:
    """Assemble one verdict per prototype (dump order), global or not."""
    evidence_by_id = {ev.prototype_id: ev for ev in evidence}
    # per prototype, the first of its largest class weights
    strongest = dump.activations.weights.argmax(axis=1).tolist()
    out = []
    for proto, strong in zip(dump.prototypes, strongest):
        ev = evidence_by_id.get(proto.prototype_id)
        if ev is None:
            out.append(
                PrototypeVerdict(proto.prototype_id, False, False, {}, None, None, None)
            )
            continue
        relevant = any(item.roi_index is not None for item in ev.items)
        majority = _majorities(ev)
        purity = {level: majority.get(level, _NO_MAJORITY) for level in levels}
        combined = None
        align = None
        if relevant:
            combined = majority.get(COMBINED_LEVEL, _NO_MAJORITY)[0]
            assigned = majority.get(class_specific_level, _NO_MAJORITY)[0]
            if assigned is not None:
                align = _alignment(strong, assigned, class_counts)
        out.append(
            PrototypeVerdict(
                proto.prototype_id, True, relevant, purity, combined, align, ev
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# category-based properties over verdicts


def relevance(verdicts: Sequence[PrototypeVerdict]) -> float:
    n_global = sum(1 for v in verdicts if v.is_global)
    if n_global == 0:
        raise ValueError("no global prototypes")
    n_relevant = sum(1 for v in verdicts if v.is_relevant)
    return float(Fraction(n_relevant, n_global))


def specialization(verdicts: Sequence[PrototypeVerdict], level: str) -> float | None:
    """Mean purity at one level over relevant prototypes; None when there are
    no relevant prototypes."""
    purities = [v.purity_per_level[level][1] for v in verdicts if v.is_relevant]
    if not purities:
        return None
    return float(sum(purities, Fraction(0)) / len(purities))


def unique_categories(verdicts: Sequence[PrototypeVerdict]) -> int:
    return len({v.combined_category for v in verdicts if v.is_relevant})


def uniqueness(verdicts: Sequence[PrototypeVerdict]) -> float | None:
    n_relevant = sum(1 for v in verdicts if v.is_relevant)
    if n_relevant == 0:
        return None
    return float(Fraction(unique_categories(verdicts), n_relevant))


def coverage(verdicts: Sequence[PrototypeVerdict], total_categories: int) -> float:
    if total_categories < 1:
        raise ValueError("total category count must be >= 1")
    return float(Fraction(unique_categories(verdicts), total_categories))


def class_specific(verdicts: Sequence[PrototypeVerdict]) -> tuple[float | None, int]:
    """Mean alignment over eligible relevant prototypes, with the eligible
    count; (None, 0) when no prototype is eligible."""
    aligns = [v.align for v in verdicts if v.align is not None]
    if not aligns:
        return None, 0
    return float(Fraction(sum(aligns), len(aligns))), len(aligns)


# ---------------------------------------------------------------------------
# localization


def _localization_detail(
    dump: EvidenceDump,
    annotations: AnnotationSet,
    config: RunConfig,
) -> tuple[list[ImageLocalizationRow], dict[str, LocalizationScore]]:
    """Per-image localization rows plus the exact per-variant means, the
    candidates ranked one run of images at a time (:func:`_contributions`)."""
    ann_by_id = annotations.by_id()
    anns = [ann_by_id.get(img.image_id) if img.split == TEST else None for img in dump.images]
    localized = np.array([ann is not None and bool(ann.rois) for ann in anns], dtype=bool)
    t = dump.activations
    is_global = _global_mask(dump, config.eps)
    ranks = _ranks(t.prototype_ids)
    rows = []
    sums = {variant: [Fraction(0), Fraction(0)] for variant in VARIANTS}
    for a, b in _image_runs(t.offsets):
        run_images = (a + np.flatnonzero(localized[a:b])).tolist()
        if not run_images:
            continue
        entries, proto, image, magnitude = _contributions(dump, (a, b), localized, t.weights)
        np.abs(magnitude, out=magnitude)
        keep = is_global[proto] & (magnitude > config.eps)
        # grouped by image, then |score x weight| descending, then prototype id
        order = np.lexsort((ranks[proto[keep]], -magnitude[keep], image[keep]))
        candidates = entries[keep][order]
        at = np.searchsorted(run_images, image[keep][order])  # its image in run_images
        grid = lattice_sizes([(dump.images[i].feature_h, dump.images[i].feature_w,
                               dump.images[i].width, dump.images[i].height)
                              for i in run_images])
        patches = patch_lattice(t.row[candidates], t.col[candidates],
                                *grid[at].T, config.patch_size)
        start = _group_starts(at, len(run_images)).tolist()
        for j, i in enumerate(run_images):
            img = dump.images[i]
            chosen = patches[start[j]: start[j + 1]]
            sx, sy = 2 * img.feature_w, 2 * img.feature_h
            roi_boxes = np.array([(x0 * sx, y0 * sy, x1 * sx, y1 * sy)
                                  for x0, y0, x1, y1 in (roi.bbox for roi in anns[i].rois)],
                                 dtype=np.int64)
            per_variant = {}
            for variant, limit in (("top1", 1), ("top10", 10), ("all", len(chosen))):
                iou, dsc = iou_dsc_exact(chosen[:limit], roi_boxes)
                sums[variant][0] += iou
                sums[variant][1] += dsc
                per_variant[variant] = LocalizationScore(float(iou), float(dsc))
            rows.append(ImageLocalizationRow(img.image_id, len(chosen), per_variant))
    if not rows:
        raise ValueError("no localizable instances")
    n = len(rows)
    means = {
        variant: LocalizationScore(float(i_sum / n), float(d_sum / n))
        for variant, (i_sum, d_sum) in sums.items()
    }
    return rows, means


# ---------------------------------------------------------------------------
# full evaluation


def evaluate(
    dump: EvidenceDump,
    annotations: AnnotationSet,
    lexicon: Lexicon,
    config: RunConfig | None = None,
) -> EvaluationReport:
    """Compute all properties for one run. Deterministic: identical inputs
    produce an identical report."""
    config = config or RunConfig()
    warnings = list(require_consistent(dump, annotations))
    levels = config.levels_for(lexicon)
    for level in (*levels, config.class_specific_level):
        if level not in lexicon.levels():
            raise ValueError(f"configured level {level!r} not declared by lexicon")

    n_global, sparsity = global_prototypes(dump, config.eps)
    lp_pos, lp_neg = local_prototypes(dump, config.eps, config.lp_weight_class)

    evidence = top_k_evidence(dump, annotations, lexicon, config)
    for ev in evidence:
        if ev.shortfall:
            warnings.append(
                f"prototype {ev.prototype_id!r}: only {len(ev.items)} train "
                f"activations for k={ev.k}"
            )

    class_counts = derive_category_universe(
        annotations, lexicon, config.class_specific_level, config.tc_split
    )
    verdicts = build_verdicts(
        dump, evidence, levels, config.class_specific_level, class_counts
    )

    tc = config.tc_override
    if tc is None and config.class_specific_level == COMBINED_LEVEL:
        tc = len(class_counts)  # the same universe as total_categories walks
    elif tc is None:
        tc = total_categories(annotations, lexicon, config.tc_split)
    if tc < 1:
        raise ValueError("total category count must be >= 1 (empty annotation universe)")

    cs_score, cs_eligible = class_specific(verdicts)
    rows, loc = _localization_detail(dump, annotations, config)

    scores = PropertyScores(
        total_prototypes=len(dump.prototypes),
        global_prototypes=n_global,
        sparsity_ratio=sparsity,
        local_positive=lp_pos,
        local_negative=lp_neg,
        relevance=relevance(verdicts),
        relevant_prototypes=sum(1 for v in verdicts if v.is_relevant),
        specialization={level: specialization(verdicts, level) for level in levels},
        uniqueness=uniqueness(verdicts),
        unique_categories=unique_categories(verdicts),
        coverage=coverage(verdicts, tc),
        total_categories=tc,
        class_specific=cs_score,
        class_specific_eligible=cs_eligible,
        localization=loc,
    )
    return EvaluationReport(
        model_name=dump.model_name,
        seed=dump.seed,
        config=config,
        scores=scores,
        verdicts=verdicts,
        localization_rows=tuple(rows),
        warnings=tuple(warnings),
    )
