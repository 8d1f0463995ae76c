"""Parse, validate and serialize the evidence-dump, annotation and lexicon files.

All three formats are UTF-8 JSON with a ``format`` version field:

* evidence dump: ``pefcoh-dump/1``
* annotations:   ``pefcoh-ann/1``
* lexicon:       ``pefcoh-lex/1``

Parsing is strict: every schema or invariant violation raises
:class:`FormatError` naming the offending field and record index.
Cross-file checks (shared class list, split agreement, ...) are collected by
:func:`cross_validate`.

The schema dataclasses (scores, run config, synth spec, ledger) are written
as :func:`to_json` gives them and read back with :func:`read_dataclass`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Any, TypeVar, Union, get_args, get_origin, get_type_hints

from .records import (
    COMBINED_LEVEL,
    SPLITS,
    AnnotatedImage,
    AnnotationSet,
    ActivationEntry,
    CategoryId,
    EvidenceDump,
    ImageActivationRecord,
    Lexicon,
    LexiconType,
    PrototypeRecord,
    ROIAnnotation,
    canonical_token,
    categories_for_roi,
)

DUMP_FORMAT = "pefcoh-dump/1"
ANN_FORMAT = "pefcoh-ann/1"
LEX_FORMAT = "pefcoh-lex/1"


class FormatError(ValueError):
    """A single file violates its schema or an internal invariant."""


class ConsistencyError(ValueError):
    """Two otherwise-valid files disagree (class lists, splits, labels)."""


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str


# ---------------------------------------------------------------------------
# low-level helpers


def _load_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _require(obj: dict, key: str, kind: type | tuple, where: str) -> Any:
    if key not in obj:
        raise FormatError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise FormatError(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise FormatError(f"{where}: field {key!r} has wrong type ({type(value).__name__})")
    return value


def _check_format(obj: Any, expected: str, path: str | Path) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: top level must be an object")
    got = obj.get("format")
    if got != expected:
        raise FormatError(f"{path}: expected format {expected!r}, got {got!r}")
    return obj


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(dumps_canonical(obj), encoding="utf-8")


def dumps_canonical(obj: Any) -> str:
    """Stable JSON text: fixed key order (insertion), 2-space indent, newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# dataclass <-> JSON

T = TypeVar("T")


def to_json(obj: Any) -> dict:
    """The JSON form of a dataclass: :func:`dataclasses.asdict` with tuple
    fields as lists, so that it equals what :func:`json.load` reads back."""
    return asdict(obj, dict_factory=_json_object)


def _json_object(items: list[tuple[str, Any]]) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value for key, value in items}


def read_dataclass(cls: type[T], raw: Any, where: str, what: str) -> T:
    """Build dataclass ``cls`` from its JSON form (see :func:`to_json`).

    Every field must be present and no other key may be. Values are checked
    against the field annotations: int rejects bools, float accepts integers,
    and nested dataclasses, arrays and objects are read recursively. A
    violation raises :class:`FormatError` naming the field, as ``what.name``.
    """
    if not isinstance(raw, dict):
        raise FormatError(f"{where}: {what} must be an object")
    types = get_type_hints(cls)
    for key in raw:
        if key not in types:
            raise FormatError(f"{where}: unknown {what} field {key!r}")
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            raise FormatError(f"{where}: missing {what} field {f.name!r}")
        values[f.name] = _read_value(types[f.name], raw[f.name], where, f"{what}.{f.name}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"{where}: bad {what}: {exc}") from exc


def _read_value(tp: Any, value: Any, where: str, what: str) -> Any:
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        return _read_value(tp, value, where, what)
    if is_dataclass(tp):
        return read_dataclass(tp, value, where, what)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise FormatError(f"{where}: {what} must be an array")
        return tuple(
            _read_value(args[0], item, where, f"{what}[{i}]") for i, item in enumerate(value)
        )
    if origin in (dict, Mapping):  # string keys, as JSON has
        if not isinstance(value, dict):
            raise FormatError(f"{where}: {what} must be an object")
        return {
            key: _read_value(args[1], item, where, f"{what}.{key}")
            for key, item in value.items()
        }
    if tp is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise FormatError(f"{where}: {what} must be {tp.__name__}, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# evidence dump


def parse_dump(path: str | Path) -> EvidenceDump:
    """Parse and fully validate an evidence dump file."""
    raw = _check_format(_load_json(path), DUMP_FORMAT, path)
    model_name = _require(raw, "model_name", str, str(path))
    seed = _require(raw, "seed", int, str(path))
    class_names = tuple(_require(raw, "class_names", list, str(path)))
    if len(class_names) < 2:
        raise FormatError(f"{path}: class_names must list at least 2 classes")
    if any(not isinstance(c, str) for c in class_names):
        raise FormatError(f"{path}: class_names must be strings")

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
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: must be an object")
        image_id = _require(rec, "image_id", str, where)
        if image_id in seen_images:
            raise FormatError(f"{where}: duplicate image_id {image_id!r}")
        seen_images.add(image_id)
        split = _require(rec, "split", str, where)
        if split not in SPLITS:
            raise FormatError(f"{where}: split must be one of {SPLITS}, got {split!r}")
        width = _require(rec, "width", int, where)
        height = _require(rec, "height", int, where)
        if width <= 0 or height <= 0:
            raise FormatError(f"{where}: image dimensions must be positive")
        class_label = _require(rec, "class_label", int, where)
        if not 0 <= class_label < len(class_names):
            raise FormatError(f"{where}: class_label {class_label} out of range")
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


def dump_to_json(dump: EvidenceDump) -> dict:
    return {
        "format": DUMP_FORMAT,
        "model_name": dump.model_name,
        "seed": dump.seed,
        "class_names": list(dump.class_names),
        "prototypes": [
            {"id": p.prototype_id, "class_weights": list(p.class_weights)}
            for p in dump.prototypes
        ],
        "images": [
            {
                "image_id": img.image_id,
                "split": img.split,
                "width": img.width,
                "height": img.height,
                "class_label": img.class_label,
                "feature_h": img.feature_h,
                "feature_w": img.feature_w,
                "entries": [
                    {"prototype_id": e.prototype_id, "score": e.score, "row": e.row, "col": e.col}
                    for e in img.entries
                ],
            }
            for img in dump.images
        ],
    }


# ---------------------------------------------------------------------------
# lexicon


def parse_lexicon(path: str | Path) -> Lexicon:
    raw = _check_format(_load_json(path), LEX_FORMAT, path)
    return _lexicon_from_raw(_require(raw, "types", list, str(path)), str(path))


def _lexicon_from_raw(types_raw: list, where: str) -> Lexicon:
    types = []
    seen: set[str] = set()
    for i, rec in enumerate(types_raw):
        twhere = f"{where}: types[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{twhere}: must be an object")
        name = canonical_token(_require(rec, "name", str, twhere))
        if not name:
            raise FormatError(f"{twhere}: empty type name")
        if name in seen:
            raise FormatError(f"{twhere}: duplicate type {name!r}")
        seen.add(name)
        axes_raw = _require(rec, "axes", list, twhere)
        axes = []
        for axis in axes_raw:
            if not isinstance(axis, str):
                raise FormatError(f"{twhere}: axes must be strings")
            axis = canonical_token(axis)
            if axis in axes:
                raise FormatError(f"{twhere}: duplicate axis {axis!r}")
            axes.append(axis)
        types.append(LexiconType(name, tuple(axes)))
    if not types:
        raise FormatError(f"{where}: lexicon declares no types")
    return Lexicon(tuple(types))


def derive_lexicon(ann_raw: dict) -> Lexicon:
    """Build a lexicon from the descriptor keys actually used in annotations.

    Types and axes are ordered by first appearance in the file, which makes
    the derived hierarchy (and hence combined category strings) stable under
    re-parsing.
    """
    order: dict[str, list[str]] = {}
    images = ann_raw.get("images")
    if not isinstance(images, list):
        raise FormatError("annotations: field 'images' must be an array")
    for img in images:
        if not isinstance(img, dict) or not isinstance(img.get("rois"), list):
            continue  # malformed entries are reported by the full parse
        for roi in img["rois"]:
            if not isinstance(roi, dict):
                continue
            tname = roi.get("type")
            if not isinstance(tname, str):
                continue
            tname = canonical_token(tname)
            axes = order.setdefault(tname, [])
            desc = roi.get("descriptors", {})
            if isinstance(desc, dict):
                for axis in desc:
                    if not isinstance(axis, str):
                        continue
                    axis = canonical_token(axis)
                    if axis not in axes:
                        axes.append(axis)
    if not order:
        raise FormatError("cannot derive a lexicon from annotations without ROIs")
    return Lexicon(tuple(LexiconType(name, tuple(axes)) for name, axes in order.items()))


def lexicon_to_json(lexicon: Lexicon) -> dict:
    return {
        "format": LEX_FORMAT,
        "types": [{"name": t.name, "axes": list(t.axes)} for t in lexicon.types],
    }


# ---------------------------------------------------------------------------
# annotations


def parse_annotations(path: str | Path, lexicon: Lexicon) -> AnnotationSet:
    """Parse and validate an annotation file against a lexicon."""
    raw = _check_format(_load_json(path), ANN_FORMAT, path)
    return _annotations_from_raw(raw, lexicon, str(path))


def load_annotations(
    path: str | Path, lexicon_path: str | Path | None = None
) -> tuple[AnnotationSet, Lexicon]:
    """Parse annotations, deriving the lexicon from descriptor keys when no
    lexicon file is given."""
    raw = _check_format(_load_json(path), ANN_FORMAT, path)
    if lexicon_path is not None:
        lexicon = parse_lexicon(lexicon_path)
    else:
        lexicon = derive_lexicon(raw)
    return _annotations_from_raw(raw, lexicon, str(path)), lexicon


def _annotations_from_raw(raw: dict, lexicon: Lexicon, where: str) -> AnnotationSet:
    class_names = tuple(_require(raw, "class_names", list, where))
    if len(class_names) < 2 or any(not isinstance(c, str) for c in class_names):
        raise FormatError(f"{where}: class_names must list at least 2 strings")
    type_names = set(lexicon.type_names())

    images = []
    seen: set[str] = set()
    for i, rec in enumerate(_require(raw, "images", list, where)):
        iwhere = f"{where}: images[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{iwhere}: must be an object")
        image_id = _require(rec, "image_id", str, iwhere)
        if image_id in seen:
            raise FormatError(f"{iwhere}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        width = _require(rec, "width", int, iwhere)
        height = _require(rec, "height", int, iwhere)
        if width <= 0 or height <= 0:
            raise FormatError(f"{iwhere}: image dimensions must be positive")
        split = _require(rec, "split", str, iwhere)
        if split not in SPLITS:
            raise FormatError(f"{iwhere}: split must be one of {SPLITS}, got {split!r}")
        class_label = _require(rec, "class_label", int, iwhere)
        if not 0 <= class_label < len(class_names):
            raise FormatError(f"{iwhere}: class_label {class_label} out of range")

        rois = []
        for j, roi_raw in enumerate(_require(rec, "rois", list, iwhere)):
            rwhere = f"{iwhere}.rois[{j}]"
            if not isinstance(roi_raw, dict):
                raise FormatError(f"{rwhere}: must be an object")
            bbox = _require(roi_raw, "bbox", list, rwhere)
            if len(bbox) != 4 or any(
                not isinstance(v, int) or isinstance(v, bool) for v in bbox
            ):
                raise FormatError(f"{rwhere}: bbox must be 4 integers")
            x_min, y_min, x_max, y_max = bbox
            if x_min >= x_max or y_min >= y_max:
                raise FormatError(f"{rwhere}: degenerate bbox {bbox}")
            if x_min < 0 or y_min < 0 or x_max > width or y_max > height:
                raise FormatError(f"{rwhere}: bbox {bbox} outside image {width}x{height}")
            tname = canonical_token(_require(roi_raw, "type", str, rwhere))
            if tname not in type_names:
                raise FormatError(f"{rwhere}: unknown abnormality type {tname!r}")
            declared = lexicon.axes_for(tname)
            descriptors = {}
            desc_raw = _require(roi_raw, "descriptors", dict, rwhere)
            for axis, value in desc_raw.items():
                axis = canonical_token(axis)
                if axis not in declared:
                    raise FormatError(
                        f"{rwhere}: axis {axis!r} not declared for type {tname!r}"
                    )
                if not isinstance(value, str):
                    raise FormatError(f"{rwhere}: descriptor {axis!r} must be a string")
                descriptors[axis] = canonical_token(value)
            roi_class = _require(roi_raw, "roi_class", int, rwhere)
            if not 0 <= roi_class < len(class_names):
                raise FormatError(f"{rwhere}: roi_class {roi_class} out of range")
            rois.append(ROIAnnotation((x_min, y_min, x_max, y_max), tname, descriptors, roi_class))
        images.append(AnnotatedImage(image_id, width, height, split, class_label, tuple(rois)))
    return AnnotationSet(class_names, tuple(images))


def annotations_to_json(annotations: AnnotationSet) -> dict:
    return {
        "format": ANN_FORMAT,
        "class_names": list(annotations.class_names),
        "images": [
            {
                "image_id": img.image_id,
                "width": img.width,
                "height": img.height,
                "split": img.split,
                "class_label": img.class_label,
                "rois": [
                    {
                        "bbox": list(roi.bbox),
                        "type": roi.abnormality_type,
                        "descriptors": dict(roi.descriptors),
                        "roi_class": roi.roi_class,
                    }
                    for roi in img.rois
                ],
            }
            for img in annotations.images
        ],
    }


# ---------------------------------------------------------------------------
# category universe


def derive_category_universe(
    annotations: AnnotationSet,
    lexicon: Lexicon,
    level: str,
    split: str | None = None,
) -> dict[CategoryId, tuple[int, ...]]:
    """Distinct categories observed at one level, with ROI counts per class.

    ``split`` restricts counting to one split; by default the whole
    annotation set is used. The total-category count TC is the size of this
    map at the combined level.
    """
    if level not in lexicon.levels():
        raise ValueError(f"level {level!r} not declared by lexicon (have {lexicon.levels()})")
    n_classes = len(annotations.class_names)
    counts: dict[CategoryId, list[int]] = {}
    for img in annotations.images:
        if split is not None and img.split != split:
            continue
        for roi in img.rois:
            cat = categories_for_roi(lexicon, roi).get(level)
            if cat is None:
                continue
            counts.setdefault(cat, [0] * n_classes)[roi.roi_class] += 1
    return {cat: tuple(c) for cat, c in counts.items()}


def total_categories(
    annotations: AnnotationSet, lexicon: Lexicon, split: str | None = None
) -> int:
    return len(derive_category_universe(annotations, lexicon, COMBINED_LEVEL, split))


# ---------------------------------------------------------------------------
# cross-file validation


def cross_validate(dump: EvidenceDump, annotations: AnnotationSet) -> list[Diagnostic]:
    """Check the dump and annotations agree on classes, splits and labels.

    Returns diagnostics; callers decide whether errors are fatal. Images
    present in only one file yield warnings (they are ignored by the metrics
    that need both views).
    """
    out: list[Diagnostic] = []
    if dump.class_names != annotations.class_names:
        out.append(
            Diagnostic(
                "error",
                f"class_names mismatch: dump has {list(dump.class_names)}, "
                f"annotations have {list(annotations.class_names)}",
            )
        )
    ann_by_id = annotations.by_id()
    dump_ids = set()
    for img in dump.images:
        dump_ids.add(img.image_id)
        ann = ann_by_id.get(img.image_id)
        if ann is None:
            out.append(
                Diagnostic(
                    "warning",
                    f"image {img.image_id!r} in dump but not in annotations; "
                    "ignored for relevance/localization",
                )
            )
            continue
        if ann.split != img.split:
            out.append(
                Diagnostic(
                    "error",
                    f"image {img.image_id!r}: split disagrees "
                    f"(dump={img.split!r}, annotations={ann.split!r})",
                )
            )
        if ann.class_label != img.class_label:
            out.append(
                Diagnostic(
                    "error",
                    f"image {img.image_id!r}: class_label disagrees "
                    f"(dump={img.class_label}, annotations={ann.class_label})",
                )
            )
        if (ann.width, ann.height) != (img.width, img.height):
            out.append(
                Diagnostic(
                    "error",
                    f"image {img.image_id!r}: dimensions disagree "
                    f"(dump={img.width}x{img.height}, "
                    f"annotations={ann.width}x{ann.height})",
                )
            )
    for image_id in ann_by_id:
        if image_id not in dump_ids:
            out.append(
                Diagnostic(
                    "warning",
                    f"image {image_id!r} in annotations but not in dump; "
                    "it still counts toward the category universe",
                )
            )
    return out


def require_consistent(dump: EvidenceDump, annotations: AnnotationSet) -> list[str]:
    """Raise :class:`ConsistencyError` on any error diagnostic; return warnings."""
    diagnostics = cross_validate(dump, annotations)
    errors = [d.message for d in diagnostics if d.severity == "error"]
    if errors:
        raise ConsistencyError("; ".join(errors))
    return [d.message for d in diagnostics if d.severity == "warning"]
