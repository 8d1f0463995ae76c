"""Quantitative evaluation of prototype quality for prototype-based classifiers.

Computes, from a model-agnostic evidence dump and hierarchical ROI
annotations: compactness (global/local prototype counts, sparsity),
relevance, specialization (per category level), uniqueness, coverage,
class-specificity, and localization (IoU/DSC for top-1/top-10/all activated
prototypes). Ships a synthetic-data generator with a planted ground-truth
ledger and a brute-force oracle for end-to-end verification.

The public names below are imported from their submodules on first use
(PEP 562), so ``import pefcoh`` alone loads nothing, and numpy loads only
with the array code that needs it (:mod:`pefcoh.metrics`,
:mod:`pefcoh.geometry`, :mod:`pefcoh.oracle`, :mod:`pefcoh.columns`).
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_PUBLIC = {
    "dumpio": (
        "ConsistencyError", "FormatError", "cross_validate", "derive_category_universe",
        "dump_to_json", "load_annotations", "parse_annotations", "parse_dump",
        "parse_lexicon", "total_categories",
    ),
    "geometry": ("PatchBox", "contains_point", "dsc", "iou", "resolve_patch_box", "roi_center"),
    "metrics": (
        "EvaluationReport", "PrototypeVerdict", "TopKEvidence", "class_specific", "coverage",
        "evaluate", "global_prototypes", "local_prototypes", "localization", "relevance",
        "specialization", "top_k_evidence", "uniqueness",
    ),
    "oracle": ("brute_force_scores",),
    "records": ("AnnotationSet", "CategoryId", "EvidenceDump", "Lexicon", "ROIAnnotation"),
    "scores": ("PropertyScores", "RunConfig", "aggregate"),
    "synth": ("GroundTruthLedger", "InfeasibleSpecError", "SynthSpec", "generate"),
}
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
