"""The run config, the property scores and the rule for pooling runs.

These are the schema dataclasses of a report's header (``config`` and
``scores``) and of its aggregates, with the dotted-key flattening and the
mean +/- sample std that pool several runs. The split names and the
combined level, which the run config names, are defined here too, and
:mod:`pefcoh.records` imports them. Nothing here imports numpy or the
input-format records, so ``compare``, which reads only report headers,
never loads the array code of :mod:`pefcoh.metrics` nor the parsers of
:mod:`pefcoh.dumpio`; metrics computes these scores and re-exports the
public names defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .jsonio import ConsistencyError, _member, to_json

if TYPE_CHECKING:
    from .metrics import EvaluationReport
    from .records import Lexicon

# the splits of a dump or annotation set, and the level of the combined category
TRAIN = "train"
TEST = "test"
SPLITS = (TRAIN, TEST)
COMBINED_LEVEL = "combined"

VARIANTS = ("top1", "top10", "all")
GROUND_TRUTH = "ground_truth"
MAX_WEIGHT = "max_weight"
LP_WEIGHT_CLASSES = (GROUND_TRUTH, MAX_WEIGHT)


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
        if self.lp_weight_class not in LP_WEIGHT_CLASSES:
            raise ValueError(f"unknown lp_weight_class {self.lp_weight_class!r}")
        if self.tc_override is not None and self.tc_override < 1:
            raise ValueError(f"tc_override must be None or >= 1, got {self.tc_override}")
        if self.tc_split is not None and self.tc_split not in SPLITS:
            raise ValueError(f"tc_split must be None or one of {SPLITS}, got {self.tc_split!r}")

    def levels_for(self, lexicon: Lexicon) -> tuple[str, ...]:
        return self.levels if self.levels is not None else lexicon.levels()


def _check_range(name: str, value: float | None, top: float = math.inf) -> None:
    """Raise ValueError unless ``value`` is absent (None) or in [0, top]."""
    if value is not None and not 0 <= value <= top:
        bound = "must be >= 0" if top == math.inf else f"must be in [0, {top}]"
        raise ValueError(f"{name} {bound}, got {value}")


@dataclass(frozen=True)
class LocalizationScore:
    iou: float
    dsc: float

    def __post_init__(self) -> None:
        _check_range("iou", self.iou, 1)
        _check_range("dsc", self.dsc, 1)


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

    def __post_init__(self) -> None:
        # coverage is only >= 0: a --tc below the unique-category count gives
        # more than 1
        for name in ("sparsity_ratio", "relevance", "uniqueness", "class_specific"):
            _check_range(name, getattr(self, name), 1)
        for level, value in self.specialization.items():
            _check_range(_member("specialization", level), value, 1)
        for name in (
            "total_prototypes", "global_prototypes", "local_positive", "local_negative",
            "relevant_prototypes", "unique_categories", "coverage", "total_categories",
            "class_specific_eligible",
        ):
            _check_range(name, getattr(self, name))
        if set(self.localization) != set(VARIANTS):
            raise ValueError(
                f"localization must hold exactly the variants {VARIANTS}, "
                f"got {tuple(self.localization)}"
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
    Values whose mean or std overflows a float raise :class:`ConsistencyError`
    naming the key.
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
            import statistics  # loaded only when two or more values are pooled

            try:
                out[key] = AggregateProperty(
                    statistics.fmean(values), statistics.stdev(values), len(values)
                )
            except OverflowError:  # a sum past the largest float
                raise ConsistencyError(f"{key}: values too large to pool across runs") from None
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
