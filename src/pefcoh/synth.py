"""Synthetic evidence dumps with a planted ground-truth ledger.

The generator lays every image out on the feature-map grid: cells with even
(row+col) parity may host exactly one ROI centered on the cell center, odd
cells never host one. Patch boxes are no larger than a cell, so an
activation either contains exactly its own cell's ROI center or no center at
all, and patch/ROI unions decompose per cell. That makes every property
value implied by the construction computable with plain counting and
closed-form rational arithmetic - the ledger never runs the evaluation
pipeline it is meant to check.

Requirements on the spec (checked, violations raise
:class:`InfeasibleSpecError`): image dimensions divisible by the feature-map
dimensions, even cell sides of at least ``patch_size``, an even
``patch_size`` >= 4, and ``n_train_images >= k``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .jsonio import (
    InfeasibleSpecError,
    _check_format,
    _load_json,
    check_run_id,
    read_dataclass,
    to_json,
)
from .records import (
    COMBINED_LEVEL,
    TEST,
    TRAIN,
    TYPE_LEVEL,
    AnnotatedImage,
    AnnotationSet,
    ActivationTable,
    EvidenceDump,
    Lexicon,
    LexiconType,
    PrototypeRecord,
    ROIAnnotation,
    axis_level_name,
    fits_exact_grid,
)
from .scores import VARIANTS, LocalizationScore, PropertyScores, RunConfig

SYNTHSPEC_FORMAT = "pefcoh-synthspec/1"
LEDGER_FORMAT = "pefcoh-ledger/1"

CLASS_NAMES = ("benign", "malignant")
AXES = {"mass": ("shape", "margin"), "calcification": ("morphology", "distribution")}
LEXICON = Lexicon(tuple(LexiconType(tname, axes) for tname, axes in AXES.items()))


@dataclass(frozen=True)
class SynthSpec:
    rng_seed: int = 0
    model_name: str = "synthetic"
    n_prototypes: int = 12
    n_train_images: int = 24
    n_test_images: int = 8
    image_width: int = 512
    image_height: int = 512
    feature_w: int = 4
    feature_h: int = 4
    n_mass_categories: int = 4
    n_calc_categories: int = 4
    relevance_target: float = 0.5
    purity_target: float = 0.7
    uniqueness_target: float = 0.8
    class_specific_target: float = 0.75
    noise_level: float = 0.5
    zero_weight_fraction: float = 0.25
    k: int = 10
    patch_size: int = 64
    test_hit_rate: float = 0.55
    min_test_rois: int = 1
    max_test_rois: int = 3
    # When set, all dataset-shaping draws (ROI placement, labels, test plans)
    # come from this seed instead of rng_seed, so specs differing only in
    # rng_seed share byte-identical annotations: a multi-seed model family.
    structure_seed: int | None = None

    def __post_init__(self) -> None:
        check_run_id(self.model_name, self.rng_seed)  # they name the dump's run

    def to_dict(self) -> dict:
        return {"format": SYNTHSPEC_FORMAT, **to_json(self)}

    def config(self) -> RunConfig:
        return RunConfig(k=self.k, patch_size=self.patch_size)


def parse_synth_spec(path: str | Path) -> SynthSpec:
    """Read a spec file; fields it leaves out keep their defaults."""
    raw = _check_format(_load_json(path), SYNTHSPEC_FORMAT, path)
    values = {key: value for key, value in raw.items() if key != "format"}
    return read_dataclass(SynthSpec, {**to_json(SynthSpec()), **values}, str(path), "synth-spec")


@dataclass(frozen=True)
class LedgerVerdict:
    prototype_id: str
    is_global: bool
    is_relevant: bool
    combined_category: str | None
    align: int | None
    purity: dict[str, float]


@dataclass(frozen=True)
class GroundTruthLedger:
    """Exact expected scores implied by the planted construction."""

    config: RunConfig
    scores: PropertyScores
    prototypes: tuple[LedgerVerdict, ...]


def ledger_to_json(ledger: GroundTruthLedger) -> dict:
    return {"format": LEDGER_FORMAT, **to_json(ledger)}


def parse_ledger(path: str | Path) -> GroundTruthLedger:
    raw = _check_format(_load_json(path), LEDGER_FORMAT, path)
    values = {key: value for key, value in raw.items() if key != "format"}
    return read_dataclass(GroundTruthLedger, values, str(path), "ledger")


Category = tuple[str, str, str]  # (type, first axis value, second axis value)


def _level_values(cat: Category) -> dict[str, str]:
    tname, v1, v2 = cat
    first, second = AXES[tname]
    return {
        TYPE_LEVEL: tname,
        axis_level_name(tname, first): v1,
        axis_level_name(tname, second): v2,
        COMBINED_LEVEL: f"{tname}-{v1}-{v2}",
    }


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InfeasibleSpecError(message)


# Sizes are bounded before any loop: the generator loops over each of these
# counts and over the feature cells, and the dump can hold one entry per
# prototype per image.
_MAX_COUNT = 10**6
_MAX_ENTRIES = 10**8
_LOOPED_COUNTS = (
    "n_prototypes", "n_train_images", "n_test_images", "n_mass_categories",
    "n_calc_categories",
)


def _validate(spec: SynthSpec) -> tuple[int, int, int]:
    """Returns (cell_w, cell_h, roi): every planted ROI is a square of side
    roi, at most half a patch."""
    for name in _LOOPED_COUNTS:
        _check(getattr(spec, name) <= _MAX_COUNT, f"{name} must be at most 10**6")
    _check(spec.feature_w >= 1 and spec.feature_h >= 1, "feature_w and feature_h must be >= 1")
    _check(
        spec.feature_w * spec.feature_h <= _MAX_COUNT,
        "feature_w * feature_h must be at most 10**6",
    )
    _check(
        spec.n_prototypes * (spec.n_train_images + spec.n_test_images) <= _MAX_ENTRIES,
        "n_prototypes * (n_train_images + n_test_images) must be at most 10**8",
    )
    _check(spec.n_prototypes >= 1, "n_prototypes must be >= 1")
    _check(spec.n_test_images >= 1, "n_test_images must be >= 1")
    _check(spec.k >= 1, "k must be >= 1")
    _check(
        spec.n_train_images >= spec.k,
        f"n_train_images ({spec.n_train_images}) must be >= k ({spec.k})",
    )
    for name in (
        "relevance_target",
        "purity_target",
        "uniqueness_target",
        "class_specific_target",
        "zero_weight_fraction",
    ):
        value = getattr(spec, name)
        _check(0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value}")
    _check(0.0 <= spec.noise_level <= 1.0, "noise_level must be in [0, 1]")
    _check(0.0 <= spec.test_hit_rate <= 1.0, "test_hit_rate must be in [0, 1]")
    _check(
        1 <= spec.min_test_rois <= spec.max_test_rois,
        "need 1 <= min_test_rois <= max_test_rois",
    )
    _check(
        spec.image_width % spec.feature_w == 0 and spec.image_height % spec.feature_h == 0,
        "image dimensions must be divisible by feature-map dimensions "
        f"({spec.image_width}x{spec.image_height} vs {spec.feature_w}x{spec.feature_h})",
    )
    _check(
        fits_exact_grid(spec.image_width, spec.feature_w)
        and fits_exact_grid(spec.image_height, spec.feature_h),
        "image too large for exact geometry (2 * image_width * feature_w and "
        "2 * image_height * feature_h must be below 2**63)",
    )
    cell_w = spec.image_width // spec.feature_w
    cell_h = spec.image_height // spec.feature_h
    _check(cell_w % 2 == 0 and cell_h % 2 == 0, "feature cells must have even pixel sides")
    _check(
        spec.patch_size % 2 == 0 and spec.patch_size >= 4,
        f"patch_size must be even and >= 4, got {spec.patch_size}",
    )
    _check(
        spec.patch_size <= min(cell_w, cell_h),
        f"patch_size ({spec.patch_size}) must fit in one feature cell "
        f"({cell_w}x{cell_h})",
    )
    _check(
        spec.n_mass_categories >= 1 and spec.n_calc_categories >= 1,
        "need at least one category per abnormality type",
    )
    return cell_w, cell_h, 2 * (spec.patch_size // 4)


def generate(
    spec: SynthSpec,
) -> tuple[EvidenceDump, AnnotationSet, Lexicon, GroundTruthLedger]:
    """Deterministically build a dump/annotation pair realizing the spec's
    planted targets, plus the ledger of exact expected property values."""
    cell_w, cell_h, roi = _validate(spec)
    rng = random.Random(spec.rng_seed)
    srng = random.Random(spec.structure_seed) if spec.structure_seed is not None else rng
    k = spec.k
    categories: list[Category] = [
        ("mass", f"shape{i:02d}", f"margin{i:02d}") for i in range(spec.n_mass_categories)
    ] + [
        ("calcification", f"morph{i:02d}", f"dist{i:02d}")
        for i in range(spec.n_calc_categories)
    ]
    tc = len(categories)

    proto_ids = [f"p{i:03d}" for i in range(spec.n_prototypes)]
    n_zero = round(spec.zero_weight_fraction * spec.n_prototypes)
    _check(
        n_zero < spec.n_prototypes,
        "zero_weight_fraction leaves no global prototypes (n_prototypes, zero_weight_fraction)",
    )
    zero_ids = set(srng.sample(proto_ids, n_zero))
    global_ids = [pid for pid in proto_ids if pid not in zero_ids]

    n_rel = round(spec.relevance_target * len(global_ids))
    m_major = round(spec.purity_target * k)
    if n_rel > 0:
        _check(
            m_major >= 1,
            f"purity_target ({spec.purity_target}) too low to realize a relevant "
            f"prototype at k={k} (purity_target, k)",
        )
    relevant_ids = srng.sample(global_ids, n_rel)

    n_unique = round(spec.uniqueness_target * n_rel)
    if n_rel:
        _check(
            n_unique >= 1,
            f"uniqueness_target ({spec.uniqueness_target}) rounds to zero unique "
            f"categories for {n_rel} relevant prototypes (uniqueness_target, relevance_target)",
        )
        _check(
            n_unique <= tc,
            f"uniqueness_target needs {n_unique} unique categories but only {tc} are "
            "planted (uniqueness_target, n_mass_categories, n_calc_categories)",
        )
    distinct = srng.sample(categories, n_unique)
    majority_cat: dict[str, Category] = {}
    for idx, pid in enumerate(relevant_ids):
        majority_cat[pid] = distinct[idx] if idx < n_unique else srng.choice(distinct)

    train_ids = [f"train_{i:03d}" for i in range(spec.n_train_images)]
    test_ids = [f"test_{i:03d}" for i in range(spec.n_test_images)]

    all_cells = [(r, c) for r in range(spec.feature_h) for c in range(spec.feature_w)]
    roi_cells = [cell for cell in all_cells if (cell[0] + cell[1]) % 2 == 0]
    empty_cells = [cell for cell in all_cells if (cell[0] + cell[1]) % 2 == 1]
    _check(roi_cells and empty_cells, "feature map too small to split into ROI/empty cells")

    # --- plan the top-k slots of every global prototype -------------------
    # slot plan: (image_id, cell, category or None); slot order is score order
    slot_plans: dict[str, list[tuple[str, tuple[int, int], Category | None]]] = {}
    train_rois: dict[str, dict[tuple[int, int], tuple[Category, int]]] = {
        image_id: {} for image_id in train_ids
    }

    def place_roi(image_id: str, category: Category) -> tuple[int, int]:
        hosting = sorted(
            cell
            for cell, (cat, _) in train_rois[image_id].items()
            if cat == category
        )
        if hosting:
            return srng.choice(hosting)
        free = [cell for cell in roi_cells if cell not in train_rois[image_id]]
        _check(
            bool(free),
            f"not enough free ROI cells in {image_id} (n_train_images, feature dims)",
        )
        cell = srng.choice(free)
        train_rois[image_id][cell] = (category, srng.randrange(2))
        return cell

    for pid in global_ids:
        pool_images = srng.sample(train_ids, k)
        plans: list[tuple[str, tuple[int, int], Category | None]] = []
        if pid in majority_cat:
            major = majority_cat[pid]
            matched_slots = set(srng.sample(range(k), m_major))
            distractor_counts: dict[Category, int] = {}
            for slot in range(k):
                image_id = pool_images[slot]
                if slot in matched_slots:
                    plans.append((image_id, place_roi(image_id, major), major))
                    continue
                category = None
                if m_major >= 2 and srng.random() < 0.4:
                    options = [
                        cat
                        for cat in categories
                        if cat != major and distractor_counts.get(cat, 0) < m_major - 1
                    ]
                    if options:
                        category = srng.choice(options)
                        distractor_counts[category] = distractor_counts.get(category, 0) + 1
                if category is not None:
                    plans.append((image_id, place_roi(image_id, category), category))
                else:
                    plans.append((image_id, srng.choice(empty_cells), None))
        else:
            for slot in range(k):
                plans.append((pool_images[slot], srng.choice(empty_cells), None))
        slot_plans[pid] = plans

    # --- plan test images --------------------------------------------------
    @dataclass(frozen=True)
    class TestPlan:
        image_id: str
        label: int
        rois: dict[tuple[int, int], tuple[Category, int]]
        actors: list[tuple[str, tuple[int, int], bool]]  # (pid, cell, hit) in rank order

    test_plans: list[TestPlan] = []
    for image_id in test_ids:
        label = srng.randrange(2)
        roi_cap = min(spec.max_test_rois, len(roi_cells))
        n_roi = srng.randint(min(spec.min_test_rois, roi_cap), roi_cap)
        rois = {
            cell: (srng.choice(categories), label)
            for cell in sorted(srng.sample(roi_cells, n_roi))
        }
        avail_hit = sorted(rois)
        avail_miss = list(empty_cells)
        n_act = srng.randint(1, min(len(global_ids), len(avail_hit) + len(avail_miss)))
        actors = []
        for pid in srng.sample(global_ids, n_act):
            take_hit = avail_hit and (not avail_miss or srng.random() < spec.test_hit_rate)
            if take_hit:
                cell = srng.choice(avail_hit)
                avail_hit.remove(cell)
            else:
                cell = srng.choice(avail_miss)
                avail_miss.remove(cell)
            actors.append((pid, cell, take_hit))
        test_plans.append(TestPlan(image_id, label, rois, actors))

    # --- top up ROI class counts -------------------------------------------
    # ROIs per category and class, counted once and kept by add_train_roi
    roi_counts: dict[Category, list[int]] = {cat: [0, 0] for cat in categories}
    for rois in [*train_rois.values(), *(plan.rois for plan in test_plans)]:
        for cat, cls in rois.values():
            roi_counts[cat][cls] += 1

    def add_train_roi(category: Category, cls: int) -> None:
        # train images drawn one at a time, without replacement, until one
        # has a free ROI cell: the first draws of a shuffle, not a whole one
        unseen = list(train_ids)
        for n in range(len(unseen), 0, -1):
            j = srng.randrange(n)
            image_id, unseen[j] = unseen[j], unseen[n - 1]
            free = [cell for cell in roi_cells if cell not in train_rois[image_id]]
            if free:
                train_rois[image_id][srng.choice(free)] = (category, cls)
                roi_counts[category][cls] += 1
                return
        raise InfeasibleSpecError(
            "not enough free ROI cells to balance category classes "
            "(n_train_images, feature dims)"
        )

    rp_cats = set(majority_cat.values())
    for cat in categories:
        if sum(roi_counts[cat]) == 0:
            add_train_roi(cat, srng.randrange(2))  # every category must exist: TC is exact
    for cat in sorted(rp_cats):
        counts = roi_counts[cat]
        for cls in (0, 1):  # eligibility needs both classes present
            if counts[cls] == 0:
                add_train_roi(cat, cls)
        if counts[0] == counts[1]:  # strict majority keeps alignment well-defined
            add_train_roi(cat, srng.randrange(2))

    # --- weights -------------------------------------------------------------
    # a relevant prototype is aligned when its top class is its category's
    # majority class
    aligned_set = set(rng.sample(relevant_ids, round(spec.class_specific_target * n_rel)))

    def signed(lo: float, hi: float) -> float:
        return rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)

    weights: dict[str, tuple[float, float]] = {}
    for pid in proto_ids:
        if pid in zero_ids:
            weights[pid] = (0.0, 0.0)
        elif pid in majority_cat:
            counts = roi_counts[majority_cat[pid]]
            majority_class = 0 if counts[0] > counts[1] else 1
            top_class = majority_class if pid in aligned_set else 1 - majority_class
            w_top = rng.uniform(0.6, 1.0)
            w_other = w_top - rng.uniform(0.3, 0.9)
            while abs(w_other) < 0.05:
                w_other = w_top - rng.uniform(0.3, 0.9)
            weights[pid] = (w_top, w_other) if top_class == 0 else (w_other, w_top)
        else:
            weights[pid] = (signed(0.3, 1.0), signed(0.3, 1.0))

    # --- presence scores -----------------------------------------------------
    jitter = 0.45 * spec.noise_level  # bounded below half the 1.0 slot gap
    entries_by_image: dict[str, list[tuple[str, float, int, int]]] = {
        image_id: [] for image_id in train_ids + test_ids
    }
    for pid in global_ids:
        for slot, (image_id, cell, _) in enumerate(slot_plans[pid]):
            score = float(k - slot + 1) + rng.uniform(-jitter, jitter)
            entries_by_image[image_id].append((pid, score, cell[0], cell[1]))
        pool_set = {image_id for image_id, _, _ in slot_plans[pid]}
        remaining = [image_id for image_id in train_ids if image_id not in pool_set]
        for image_id in rng.sample(remaining, min(rng.randint(0, 2), len(remaining))):
            score = rng.uniform(0.05, 0.95)  # strictly below every top-k score
            cell = rng.choice(empty_cells)
            entries_by_image[image_id].append((pid, score, cell[0], cell[1]))
    for pid in sorted(zero_ids):
        for image_id in rng.sample(train_ids, min(2, len(train_ids))):
            cell = rng.choice(empty_cells)
            entries_by_image[image_id].append((pid, rng.uniform(0.1, 2.0), cell[0], cell[1]))

    for plan in test_plans:
        used = {cell for _, cell, _ in plan.actors}
        for rank, (pid, cell, _) in enumerate(plan.actors):
            magnitude = float(len(plan.actors) - rank)  # distinct |score x weight| ranks
            score = magnitude / abs(weights[pid][plan.label])
            entries_by_image[plan.image_id].append((pid, score, cell[0], cell[1]))
        spare = [cell for cell in empty_cells if cell not in used]
        leftover = [pid for pid in sorted(zero_ids) if rng.random() < 0.5]
        for pid in leftover[: len(spare)]:
            cell = spare.pop(0)
            entries_by_image[plan.image_id].append((pid, rng.uniform(0.1, 2.0), cell[0], cell[1]))

    # --- assemble records ------------------------------------------------------
    # each image's id, split, label and ROIs by cell, train then test: the
    # dump's images and entry columns and the annotations follow this order
    train_labels = [srng.randrange(2) for _ in train_ids]  # after every other draw
    layout = [
        (image_id, TRAIN, label, train_rois[image_id])
        for image_id, label in zip(train_ids, train_labels)
    ] + [(plan.image_id, TEST, plan.label, plan.rois) for plan in test_plans]

    proto_index = {pid: i for i, pid in enumerate(proto_ids)}
    entries = [
        sorted((proto_index[pid], score, row, col)
               for pid, score, row, col in entries_by_image[image_id])
        for image_id, *_ in layout
    ]
    table = ActivationTable.from_columns(
        [PrototypeRecord(pid, weights[pid]) for pid in proto_ids],
        len(CLASS_NAMES), list(map(len, entries)),
        *zip(*(entry for image_entries in entries for entry in image_entries)),
    )
    dump = EvidenceDump(
        spec.model_name, spec.rng_seed, CLASS_NAMES,
        [(image_id, split, spec.image_width, spec.image_height, label,
          spec.feature_h, spec.feature_w) for image_id, split, label, _ in layout],
        table,
    )

    def roi_at(cell: tuple[int, int], cat: Category, cls: int) -> ROIAnnotation:
        cx = cell[1] * cell_w + cell_w // 2
        cy = cell[0] * cell_h + cell_h // 2
        bbox = (cx - roi // 2, cy - roi // 2, cx + roi // 2, cy + roi // 2)
        tname, *values = cat
        return ROIAnnotation(bbox, tname, dict(zip(AXES[tname], values)), cls)

    annotations = AnnotationSet(CLASS_NAMES, tuple(
        AnnotatedImage(
            image_id, spec.image_width, spec.image_height, split, label,
            tuple(roi_at(cell, cat, cls) for cell, (cat, cls) in sorted(rois.items())),
        )
        for image_id, split, label, rois in layout
    ))

    ledger = _build_ledger(
        spec, proto_ids, slot_plans, majority_cat, aligned_set, weights, test_plans, tc, roi,
    )
    return dump, annotations, LEXICON, ledger


def _build_ledger(
    spec: SynthSpec,
    proto_ids: list[str],
    slot_plans: dict,
    majority_cat: dict,
    aligned_set: set[str],
    weights: dict,
    test_plans: list,
    tc: int,
    roi: int,
) -> GroundTruthLedger:
    """The planted scores: the global prototypes are those with slot plans,
    the relevant ones those with a majority category."""
    k = spec.k
    levels = LEXICON.levels()
    n_global = len(slot_plans)
    n_rel = len(majority_cat)

    verdicts = []
    purity_sums = {level: Fraction(0) for level in levels}
    for pid in proto_ids:
        if pid not in slot_plans:
            verdicts.append(LedgerVerdict(pid, False, False, None, None, {}))
            continue
        relevant = pid in majority_cat
        counts: dict[str, dict[str, int]] = {level: {} for level in levels}
        for _, _, cat in slot_plans[pid]:
            if cat is None:
                continue
            for level, value in _level_values(cat).items():
                counts[level][value] = counts[level].get(value, 0) + 1
        purity: dict[str, float] = {}
        combined = None
        for level in levels:
            if counts[level]:
                value = min(counts[level], key=lambda v: (-counts[level][v], v))
                share = Fraction(counts[level][value], k)
                if level == COMBINED_LEVEL:
                    combined = value
            else:
                share = Fraction(0)
            purity[level] = float(share)
            if relevant:
                purity_sums[level] += share
        verdicts.append(
            LedgerVerdict(
                pid, True, relevant, combined, int(pid in aligned_set) if relevant else None,
                purity,
            )
        )

    specialization: dict[str, float | None] = {
        level: (float(purity_sums[level] / n_rel) if n_rel else None) for level in levels
    }
    n_unique = len({_level_values(cat)[COMBINED_LEVEL] for cat in majority_cat.values()})

    # localization and local-prototype counts, per cell-aligned construction
    pos_total = neg_total = 0
    loc_sums = {variant: [Fraction(0), Fraction(0)] for variant in VARIANTS}
    patch_area = spec.patch_size * spec.patch_size
    roi_area = roi * roi  # a whole ROI: it is at most half a patch
    for plan in test_plans:
        for pid, _, _ in plan.actors:
            if weights[pid][plan.label] > 0:
                pos_total += 1
            else:
                neg_total += 1
        n_roi = len(plan.rois)
        for variant, limit in (("top1", 1), ("top10", 10), ("all", len(plan.actors))):
            selected = plan.actors[:limit]
            hits = sum(1 for _, _, hit in selected if hit)
            inter = hits * roi_area
            areas = len(selected) * patch_area + n_roi * roi_area
            loc_sums[variant][0] += Fraction(inter, areas - inter)
            loc_sums[variant][1] += Fraction(2 * inter, areas)
    n_test = len(test_plans)
    localization = {
        variant: LocalizationScore(float(i_sum / n_test), float(d_sum / n_test))
        for variant, (i_sum, d_sum) in loc_sums.items()
    }

    scores = PropertyScores(
        total_prototypes=len(proto_ids),
        global_prototypes=n_global,
        sparsity_ratio=float(Fraction(len(proto_ids) - n_global, len(proto_ids))),
        local_positive=float(Fraction(pos_total, n_test)),
        local_negative=float(Fraction(neg_total, n_test)),
        relevance=float(Fraction(n_rel, n_global)),
        relevant_prototypes=n_rel,
        specialization=specialization,
        uniqueness=float(Fraction(n_unique, n_rel)) if n_rel else None,
        unique_categories=n_unique,
        coverage=float(Fraction(n_unique, tc)),
        total_categories=tc,
        class_specific=float(Fraction(len(aligned_set), n_rel)) if n_rel else None,
        class_specific_eligible=n_rel,
        localization=localization,
    )
    return GroundTruthLedger(spec.config(), scores, tuple(verdicts))
