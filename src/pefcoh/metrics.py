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

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .dumpio import (
    ConsistencyError,
    derive_category_universe,
    require_consistent,
    to_json,
    total_categories,
)
from .geometry import (
    PatchBox,
    iou_dsc_exact,
    resolve_patch_box,
)
from .records import (
    COMBINED_LEVEL,
    TEST,
    TRAIN,
    AnnotatedImage,
    AnnotationSet,
    CategoryId,
    EvidenceDump,
    Lexicon,
    categories_for_roi,
)

VARIANTS = ("top1", "top10", "all")
GROUND_TRUTH = "ground_truth"
MAX_WEIGHT = "max_weight"


@dataclass(frozen=True)
class RunConfig:
    """Evaluation parameters; every field is echoed into emitted reports."""

    k: int = 10
    patch_size: int = 130
    eps: float = 1e-8
    levels: tuple[str, ...] | None = None  # None -> all lexicon levels
    class_specific_level: str = COMBINED_LEVEL
    tc_override: int | None = None
    tc_split: str | None = None  # None -> whole annotation set, or "train"/"test"
    lp_weight_class: str = GROUND_TRUTH

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be >= 1, got {self.patch_size}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be a finite number >= 0, got {self.eps}")
        if self.lp_weight_class not in (GROUND_TRUTH, MAX_WEIGHT):
            raise ValueError(f"unknown lp_weight_class {self.lp_weight_class!r}")

    def levels_for(self, lexicon: Lexicon) -> tuple[str, ...]:
        return self.levels if self.levels is not None else lexicon.levels()


@dataclass(frozen=True)
class EvidenceItem:
    """One top-k training patch of a prototype, with its ROI match if any."""

    image_id: str
    score: float
    patch: PatchBox
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
class LocalizationScore:
    iou: float
    dsc: float


@dataclass(frozen=True)
class ImageLocalizationRow:
    image_id: str
    n_candidates: int
    per_variant: Mapping[str, LocalizationScore]


@dataclass(frozen=True)
class PropertyScores:
    total_prototypes: int
    global_prototypes: int
    sparsity_ratio: float
    local_positive: float
    local_negative: float
    relevance: float
    relevant_prototypes: int
    specialization: Mapping[str, float | None]
    uniqueness: float | None
    unique_categories: int
    coverage: float
    total_categories: int
    class_specific: float | None
    class_specific_eligible: int
    localization: Mapping[str, LocalizationScore]


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


def _is_global(weights: Sequence[float], eps: float) -> bool:
    return any(abs(w) > eps for w in weights)


def global_prototype_ids(dump: EvidenceDump, eps: float) -> tuple[str, ...]:
    return tuple(p.prototype_id for p in dump.prototypes if _is_global(p.class_weights, eps))


def global_prototypes(dump: EvidenceDump, eps: float) -> tuple[int, float]:
    """Count of prototypes with any non-zero class weight, and the sparsity
    ratio (fraction whose weights are all zero)."""
    count = len(global_prototype_ids(dump, eps))
    total = len(dump.prototypes)
    sparsity = float(1 - Fraction(count, total)) if total else 0.0
    return count, sparsity


def _global_mask(dump: EvidenceDump, eps: float) -> np.ndarray:
    """Per prototype index: whether the prototype is global."""
    return np.array([_is_global(p.class_weights, eps) for p in dump.prototypes], dtype=bool)


def _weight_matrix(dump: EvidenceDump) -> np.ndarray:
    """Class weights as a (prototype index, class) float64 matrix."""
    weights = np.empty((len(dump.prototypes), len(dump.class_names)), dtype=np.float64)
    for i, p in enumerate(dump.prototypes):
        weights[i] = p.class_weights
    return weights


def _class_labels(dump: EvidenceDump) -> np.ndarray:
    return np.array([img.class_label for img in dump.images], dtype=np.intp)


def local_prototypes(
    dump: EvidenceDump, eps: float, weight_convention: str = GROUND_TRUTH
) -> tuple[float, float]:
    """Mean number of prototypes per test instance whose contribution
    (presence score x class weight) is positive resp. negative.

    The weight is taken toward the instance's ground-truth class by default.
    """
    is_test = np.array([img.split == TEST for img in dump.images], dtype=bool)
    n = int(np.count_nonzero(is_test))
    if not n:
        raise ValueError("empty test split")
    t = dump.activations
    rows = np.flatnonzero(is_test[t.image])
    weights = _weight_matrix(dump)
    if weight_convention == GROUND_TRUTH:
        w = weights[t.proto[rows], _class_labels(dump)[t.image[rows]]]
    else:
        w = weights.max(axis=1)[t.proto[rows]]
    with np.errstate(over="ignore"):  # a product past float64 is inf, as in Python
        contribution = t.score[rows] * w
    pos_total = int(np.count_nonzero(contribution > eps))
    neg_total = int(np.count_nonzero(contribution < -eps))
    return float(Fraction(pos_total, n)), float(Fraction(neg_total, n))


# ---------------------------------------------------------------------------
# top-k evidence and verdicts


def _match_roi(patch: PatchBox, ann: AnnotatedImage) -> int | None:
    """Index of the ROI whose center lies in the patch; with several matches,
    the center nearest the patch center wins, then the smallest ROI index.

    Exact, in integers: every coordinate is scaled by twice the common
    denominator of the patch edges, which makes the patch edges, the patch
    center and each ROI center (a half-integer) whole numbers.
    """
    edges = patch.as_tuple()
    d = math.lcm(*(v.denominator for v in edges))
    x0, y0, x1, y1 = (2 * v.numerator * (d // v.denominator) for v in edges)
    px, py = (x0 + x1) // 2, (y0 + y1) // 2
    best: tuple[int, int] | None = None
    for idx, roi in enumerate(ann.rois):
        cx = (roi.bbox[0] + roi.bbox[2]) * d
        cy = (roi.bbox[1] + roi.bbox[3]) * d
        if x0 <= cx < x1 and y0 <= cy < y1:
            dist2 = (cx - px) ** 2 + (cy - py) ** 2
            if best is None or (dist2, idx) < best:
                best = (dist2, idx)
    return best[1] if best is not None else None


def _ranks(keys: Sequence[str]) -> np.ndarray:
    """Each key's position in ascending order (ties keep their order)."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[order] = np.arange(len(keys))
    return ranks


def _group_starts(groups: np.ndarray, n: int) -> np.ndarray:
    """Where each group 0..n-1 of a sorted group column starts, then its end."""
    return np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=n))))


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
    anns = [ann_by_id.get(img.image_id) if img.split == TRAIN else None for img in dump.images]
    t = dump.activations
    is_global = _global_mask(dump, config.eps)
    pool = np.flatnonzero(np.array([ann is not None for ann in anns], dtype=bool)[t.image]
                          & is_global[t.proto])
    image_rank = _ranks([img.image_id for img in dump.images])
    # grouped by prototype index, then score descending, then image_id ascending
    pool = pool[np.lexsort((image_rank[t.image[pool]], -t.score[pool], t.proto[pool]))]
    proto = t.proto[pool]
    kept = pool[np.arange(len(pool)) - _group_starts(proto, len(is_global))[proto] < config.k]

    items: dict[int, list[EvidenceItem]] = {int(p): [] for p in np.flatnonzero(is_global)}
    for p, i, score, row, col in zip(
        t.proto[kept].tolist(), t.image[kept].tolist(), t.score[kept].tolist(),
        t.row[kept].tolist(), t.col[kept].tolist(),
    ):
        img, ann = dump.images[i], anns[i]
        patch = resolve_patch_box(
            row, col, img.feature_h, img.feature_w, ann.width, ann.height, config.patch_size
        )
        roi_index = _match_roi(patch, ann)
        categories = None
        if roi_index is not None:
            categories = categories_for_roi(lexicon, ann.rois[roi_index])
        items[p].append(EvidenceItem(img.image_id, score, patch, roi_index, categories))
    return [
        TopKEvidence(t.prototype_ids[p], config.k, tuple(found), config.k - len(found))
        for p, found in items.items()
    ]


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


def _alignment(
    weights: tuple[float, ...],
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
    strongest = weights.index(max(weights))
    return 1 if strongest == majority else 0


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
    """Per-image localization rows plus the exact per-variant means."""
    ann_by_id = annotations.by_id()
    anns = [ann_by_id.get(img.image_id) if img.split == TEST else None for img in dump.images]
    localized = [i for i, ann in enumerate(anns) if ann is not None and ann.rois]
    t = dump.activations
    in_image = np.zeros(len(dump.images), dtype=bool)
    in_image[localized] = True
    entries = np.flatnonzero(in_image[t.image])
    proto, image = t.proto[entries], t.image[entries]
    weight = _weight_matrix(dump)[proto, _class_labels(dump)[image]]
    with np.errstate(over="ignore"):  # a product past float64 is inf, as in Python
        magnitude = np.abs(t.score[entries] * weight)
    keep = _global_mask(dump, config.eps)[proto] & (magnitude > config.eps)
    # grouped by image, then |score x weight| descending, then prototype id
    order = np.lexsort((_ranks(t.prototype_ids)[proto[keep]], -magnitude[keep], image[keep]))
    candidates = entries[keep][order]
    image_start = _group_starts(t.image[candidates], len(dump.images))
    rows = []
    sums = {variant: [Fraction(0), Fraction(0)] for variant in VARIANTS}
    for i in localized:
        img = dump.images[i]
        chosen = candidates[image_start[i]: image_start[i + 1]]
        roi_boxes = [PatchBox(*roi.bbox) for roi in anns[i].rois]
        patches = [
            resolve_patch_box(row, col, img.feature_h, img.feature_w,
                              img.width, img.height, config.patch_size)
            for row, col in zip(t.row[chosen].tolist(), t.col[chosen].tolist())
        ]
        per_variant = {}
        for variant, limit in (("top1", 1), ("top10", 10), ("all", len(chosen))):
            iou, dsc = iou_dsc_exact(patches[:limit], roi_boxes)
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


def localization(
    dump: EvidenceDump,
    annotations: AnnotationSet,
    variant: str,
    config: RunConfig,
) -> tuple[float, float]:
    """Mean (IoU, DSC) over test images that carry at least one ROI.

    Per image, global prototypes with a non-zero score x ground-truth-class
    weight are ranked by that contribution's magnitude (ties by prototype
    id); the variant selects the top-1, top-10 or all of them, and the union
    of their patch boxes is compared against the union of the ROI boxes. An
    image whose selection is empty scores 0.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _, means = _localization_detail(dump, annotations, config)
    return means[variant].iou, means[variant].dsc


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
    for level in levels:
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
    if tc is None:
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


# ---------------------------------------------------------------------------
# multi-run aggregation


def flatten_scores(scores: PropertyScores) -> dict[str, float | int | None]:
    """Dotted-key view of the scores used for aggregation and comparison."""
    return flatten(to_json(scores))


def flatten(raw: dict) -> dict:
    """Scalar fields in field order, then each object field, flattened the
    same way, under dotted keys (``localization.top1.iou``)."""
    flat = {key: value for key, value in raw.items() if not isinstance(value, dict)}
    for key, value in raw.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", item) for sub, item in flatten(value).items())
    return flat


@dataclass(frozen=True)
class AggregateProperty:
    mean: float
    std: float | None  # sample std; None for a single value
    n: int


def aggregate_flat(
    runs: Sequence[Mapping[str, float | int | None]]
) -> dict[str, AggregateProperty | None]:
    """Mean +/- sample standard deviation per property across runs.

    Properties absent in some runs are averaged over the runs where they are
    present, with that count recorded; a property absent everywhere is None.
    """
    if not runs:
        raise ValueError("no runs to aggregate")
    keys: list[str] = []
    for run in runs:
        for key in run:
            if key not in keys:
                keys.append(key)
    out: dict[str, AggregateProperty | None] = {}
    for key in keys:
        values = [float(run[key]) for run in runs if run.get(key) is not None]
        if not values:
            out[key] = None
        elif len(values) == 1:
            out[key] = AggregateProperty(values[0], None, 1)
        else:
            out[key] = AggregateProperty(
                statistics.fmean(values), statistics.stdev(values), len(values)
            )
    return out


def pool(runs: Sequence[Mapping]) -> dict[str, dict[str, AggregateProperty | None]]:
    """Per model, in first-seen order, :func:`aggregate_flat` of its runs'
    flattened scores. A run is a report header: ``model_name``, ``seed`` and
    the JSON forms of ``config`` and ``scores``. Every config must equal the
    first run's and each model/seed pair may appear once, else
    :class:`ConsistencyError`; this is the one rule for pooling runs."""
    if not runs:
        raise ValueError("no runs to pool")
    config = runs[0]["config"]
    by_model: dict[str, dict[int, dict]] = {}
    for run in runs:
        if run["config"] != config:
            mismatched = [key for key in config if run["config"].get(key) != config[key]]
            raise ConsistencyError(f"mixed configs across runs: {', '.join(mismatched)}")
        seeds = by_model.setdefault(run["model_name"], {})
        if run["seed"] in seeds:
            name = f"{run['model_name']}-seed{run['seed']}"
            raise ConsistencyError(f"duplicate model/seed pair {name!r} across runs")
        seeds[run["seed"]] = flatten(run["scores"])
    return {model: aggregate_flat(list(seeds.values())) for model, seeds in by_model.items()}


def aggregate(reports: Sequence[EvaluationReport]) -> dict[str, AggregateProperty | None]:
    """:func:`pool` of the reports of one model."""
    per_model = pool([
        {"model_name": r.model_name, "seed": r.seed,
         "config": to_json(r.config), "scores": to_json(r.scores)}
        for r in reports
    ])
    if len(per_model) > 1:
        raise ConsistencyError(
            f"runs name different models ({', '.join(map(repr, per_model))}); "
            "use compare to tabulate several models"
        )
    return next(iter(per_model.values()))
