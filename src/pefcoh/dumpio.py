"""Parse, validate and serialize the evidence-dump, annotation and lexicon files.

All three formats are UTF-8 JSON with a ``format`` version field:

* evidence dump: ``pefcoh-dump/1``
* annotations:   ``pefcoh-ann/1``
* lexicon:       ``pefcoh-lex/1``

Parsing is strict: every schema or invariant violation, a repeated key
included, raises :class:`FormatError` naming the offending field and record
index. Cross-file checks (shared class list, split agreement, ...) are
collected by :func:`cross_validate`.

Every file is written as :func:`to_json` gives its record. The input formats
are read by hand-written parsers; the schema dataclasses (scores, run config,
synth spec, ledger) are read back with :func:`read_dataclass`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import Field, dataclass, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Any, NoReturn, TypeVar, Union, get_args, get_origin, get_type_hints

from .records import (
    COMBINED_LEVEL,
    SPLITS,
    AnnotatedImage,
    AnnotationSet,
    ActivationTable,
    ActivationView,
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
    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise FormatError(f"{path}: duplicate key {key!r}")
                seen.add(key)
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
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


def to_json(obj: Any) -> Any:
    """The JSON form of a record, equal to what :func:`json.load` reads back.

    A dataclass becomes an object of its fields in declared order, each keyed
    by its ``metadata["json"]`` name or else its own; sequences other than
    strings (tuples, lists, a parsed dump's entries) become arrays, mappings
    objects, and every other value is kept as it is.
    """
    if is_dataclass(obj):
        return {_json_key(f): to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Sequence) and not isinstance(obj, str):
        return [to_json(item) for item in obj]
    if isinstance(obj, Mapping):
        return {key: to_json(value) for key, value in obj.items()}
    return obj


def _json_key(f: Field) -> str:
    return f.metadata.get("json", f.name)


def read_dataclass(cls: type[T], raw: Any, where: str, what: str) -> T:
    """Build dataclass ``cls`` from its JSON form (see :func:`to_json`).

    Every field must be present, under its JSON key, and no other key may be.
    Values are checked against the field annotations: int rejects bools,
    float accepts integers, numbers must be finite, and nested dataclasses,
    arrays and objects are read recursively. A violation raises
    :class:`FormatError` naming the field by its JSON key, as ``what.key``.
    """
    if not isinstance(raw, dict):
        raise FormatError(f"{where}: {what} must be an object")
    types = get_type_hints(cls)
    keys = {_json_key(f): f.name for f in fields(cls)}
    for key in raw:
        if key not in keys:
            raise FormatError(f"{where}: unknown {what} field {key!r}")
    values = {}
    for key, name in keys.items():
        if key not in raw:
            raise FormatError(f"{where}: missing {what} field {key!r}")
        values[name] = _read_value(types[name], raw[key], where, f"{what}.{key}")
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
    if tp in (int, float) and not _finite(value):
        raise FormatError(f"{where}: {what} must be a finite number")
    return value


# ---------------------------------------------------------------------------
# parts shared by the dump and the annotations


def _class_names(raw: dict, where: str) -> tuple[str, ...]:
    names = tuple(_require(raw, "class_names", list, where))
    if len(names) < 2 or any(not isinstance(name, str) for name in names):
        raise FormatError(f"{where}: class_names must list at least 2 strings")
    return names


def _image_header(
    rec: Any, where: str, seen: set[str], n_classes: int
) -> tuple[str, str, int, int, int]:
    """Check one image record's shared fields and return its
    ``(image_id, split, width, height, class_label)``."""
    if not isinstance(rec, dict):
        raise FormatError(f"{where}: must be an object")
    image_id = _require(rec, "image_id", str, where)
    if image_id in seen:
        raise FormatError(f"{where}: duplicate image_id {image_id!r}")
    seen.add(image_id)
    split = _require(rec, "split", str, where)
    if split not in SPLITS:
        raise FormatError(f"{where}: split must be one of {SPLITS}, got {split!r}")
    width = _require(rec, "width", int, where)
    height = _require(rec, "height", int, where)
    if width <= 0 or height <= 0:
        raise FormatError(f"{where}: image dimensions must be positive")
    class_label = _require(rec, "class_label", int, where)
    if not 0 <= class_label < n_classes:
        raise FormatError(f"{where}: class_label {class_label} out of range")
    return image_id, split, width, height, class_label


# ---------------------------------------------------------------------------
# evidence dump


def parse_dump(path: str | Path) -> EvidenceDump:
    """Parse and fully validate an evidence dump file.

    The entries are read into one :class:`ActivationTable`, checked an image
    at a time in bulk; only an image that fails a bulk check is walked entry
    by entry, to name its first bad entry.
    """
    raw = _check_format(_load_json(path), DUMP_FORMAT, path)
    model_name = _require(raw, "model_name", str, str(path))
    seed = _require(raw, "seed", int, str(path))
    class_names = _class_names(raw, str(path))

    prototypes = []
    index: dict[str, int] = {}
    for i, rec in enumerate(_require(raw, "prototypes", list, str(path))):
        where = f"{path}: prototypes[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: must be an object")
        pid = _require(rec, "id", str, where)
        if pid in index:
            raise FormatError(f"{where}: duplicate prototype id {pid!r}")
        index[pid] = i
        weights = _require(rec, "class_weights", list, where)
        if len(weights) != len(class_names):
            raise FormatError(
                f"{where}: class_weights length {len(weights)} != {len(class_names)} classes"
            )
        ws = []
        for j, w in enumerate(weights):
            if not isinstance(w, (int, float)) or isinstance(w, bool) or not _finite(w):
                raise FormatError(f"{where}: class_weights[{j}] must be a finite number")
            ws.append(float(w))
        prototypes.append(PrototypeRecord(pid, tuple(ws)))

    headers = []
    counts: list[int] = []
    columns: tuple[list, ...] = ([], [], [], [])  # prototype index, score, row, col
    seen_images: set[str] = set()
    for i, rec in enumerate(_require(raw, "images", list, str(path))):
        where = f"{path}: images[{i}]"
        header = _image_header(rec, where, seen_images, len(class_names))
        feature_h = _require(rec, "feature_h", int, where)
        feature_w = _require(rec, "feature_w", int, where)
        if feature_h <= 0 or feature_w <= 0:
            raise FormatError(f"{where}: feature-map dimensions must be positive")
        if max(feature_h, feature_w) > _INT64_MAX:
            raise FormatError(f"{where}: feature-map dimensions must be below 2**63")
        entries = _require(rec, "entries", list, where)
        image_columns = _entry_columns(entries, index, feature_h, feature_w)
        if image_columns is None:
            _raise_entry_fault(entries, where, index, feature_h, feature_w)
        for column, values in zip(columns, image_columns):
            column.extend(values)
        headers.append((*header, feature_h, feature_w))
        counts.append(len(entries))

    table = ActivationTable.from_columns(tuple(index), counts, *columns)
    images = tuple(
        ImageActivationRecord(*header, ActivationView(table, i))
        for i, header in enumerate(headers)
    )
    return EvidenceDump(model_name, seed, class_names, tuple(prototypes), images)


_NUMBER = {int, float}
_INT64_MAX = 2**63 - 1


def _finite(x: int | float) -> bool:
    """``math.isfinite``, reading an int too large for a float as infinite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _entry_columns(
    entries: list, index: dict[str, int], feature_h: int, feature_w: int
) -> tuple[list, ...] | None:
    """The (prototype index, score, row, col) columns of one image's entries,
    or None when any entry is invalid. Accepts exactly what
    :func:`_raise_entry_fault` does."""
    if not entries:
        return [], [], [], []
    try:
        protos = [index[e["prototype_id"]] for e in entries]
        scores = [e["score"] for e in entries]
        rows = [e["row"] for e in entries]
        cols = [e["col"] for e in entries]
        valid = (
            len(set(protos)) == len(protos)
            and set(map(type, scores)) <= _NUMBER
            and all(map(math.isfinite, scores))
            and min(scores) >= 0
            and set(map(type, rows)) == set(map(type, cols)) == {int}
            and 0 <= min(rows) and max(rows) < feature_h
            and 0 <= min(cols) and max(cols) < feature_w
        )
    except (KeyError, TypeError, OverflowError):
        return None
    return (protos, scores, rows, cols) if valid else None


def _raise_entry_fault(
    entries: list, where: str, index: dict[str, int], feature_h: int, feature_w: int
) -> NoReturn:
    """Raise :class:`FormatError` naming the first invalid entry of an image."""
    seen_protos: set[str] = set()
    for j, ent in enumerate(entries):
        ewhere = f"{where}.entries[{j}]"
        if not isinstance(ent, dict):
            raise FormatError(f"{ewhere}: must be an object")
        pid = _require(ent, "prototype_id", str, ewhere)
        if pid not in index:
            raise FormatError(f"{ewhere}: unknown prototype {pid!r}")
        if pid in seen_protos:
            raise FormatError(f"{ewhere}: duplicate entry for prototype {pid!r}")
        seen_protos.add(pid)
        score = _require(ent, "score", (int, float), ewhere)
        if isinstance(score, bool) or not _finite(score) or score < 0:
            raise FormatError(f"{ewhere}: score must be a finite number >= 0")
        row = _require(ent, "row", int, ewhere)
        col = _require(ent, "col", int, ewhere)
        if not (0 <= row < feature_h and 0 <= col < feature_w):
            raise FormatError(
                f"{ewhere}: activation location out of feature map "
                f"(row={row}, col={col}, feature {feature_h}x{feature_w})"
            )
    raise AssertionError(f"{where}: entries failed a bulk check but no entry check")


def dump_to_json(dump: EvidenceDump) -> dict:
    return {"format": DUMP_FORMAT, **to_json(dump)}


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
            if not axis:
                raise FormatError(f"{twhere}: empty axis name")
            if axis in axes:
                raise FormatError(f"{twhere}: duplicate axis {axis!r}")
            axes.append(axis)
        types.append(LexiconType(name, tuple(axes)))
    if not types:
        raise FormatError(f"{where}: lexicon declares no types")
    return Lexicon(tuple(types))


def lexicon_to_json(lexicon: Lexicon) -> dict:
    return {"format": LEX_FORMAT, **to_json(lexicon)}


# ---------------------------------------------------------------------------
# annotations


def parse_annotations(path: str | Path, lexicon: Lexicon) -> AnnotationSet:
    """Parse and validate an annotation file against a lexicon."""
    raw = _check_format(_load_json(path), ANN_FORMAT, path)
    return _annotations_from_raw(raw, lexicon, str(path))[0]


def load_annotations(
    path: str | Path, lexicon_path: str | Path | None = None
) -> tuple[AnnotationSet, Lexicon]:
    """Parse annotations against a lexicon file or, when none is given,
    against the lexicon their ROIs use."""
    raw = _check_format(_load_json(path), ANN_FORMAT, path)
    lexicon = None if lexicon_path is None else parse_lexicon(lexicon_path)
    return _annotations_from_raw(raw, lexicon, str(path))


def _annotations_from_raw(
    raw: dict, lexicon: Lexicon | None, where: str
) -> tuple[AnnotationSet, Lexicon]:
    """Parse the annotations, then check every ROI's type and descriptor
    axes against ``lexicon``. With no lexicon, derive one from the ROIs:
    types and each type's axes in order of first appearance, which keeps
    combined category strings stable under re-parsing."""
    class_names = _class_names(raw, where)
    images = []
    seen: set[str] = set()
    for i, rec in enumerate(_require(raw, "images", list, where)):
        iwhere = f"{where}: images[{i}]"
        image_id, split, width, height, class_label = _image_header(
            rec, iwhere, seen, len(class_names)
        )
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
            if not tname:
                raise FormatError(f"{rwhere}: empty type name")
            descriptors = {}
            for axis, value in _require(roi_raw, "descriptors", dict, rwhere).items():
                axis = canonical_token(axis)
                if not axis:
                    raise FormatError(f"{rwhere}: empty axis name")
                if axis in descriptors:
                    raise FormatError(f"{rwhere}: duplicate axis {axis!r}")
                if not isinstance(value, str):
                    raise FormatError(f"{rwhere}: descriptor {axis!r} must be a string")
                descriptors[axis] = canonical_token(value)
            roi_class = _require(roi_raw, "roi_class", int, rwhere)
            if not 0 <= roi_class < len(class_names):
                raise FormatError(f"{rwhere}: roi_class {roi_class} out of range")
            rois.append(ROIAnnotation((x_min, y_min, x_max, y_max), tname, descriptors, roi_class))
        images.append(AnnotatedImage(image_id, width, height, split, class_label, tuple(rois)))

    if lexicon is None:
        order: dict[str, dict[str, None]] = {}
        for img in images:
            for roi in img.rois:
                order.setdefault(roi.abnormality_type, {}).update(dict.fromkeys(roi.descriptors))
        if not order:
            raise FormatError(f"{where}: cannot derive a lexicon from annotations without ROIs")
        lexicon = Lexicon(tuple(LexiconType(name, tuple(axes)) for name, axes in order.items()))
    declared = {t.name: t.axes for t in lexicon.types}
    for i, img in enumerate(images):
        for j, roi in enumerate(img.rois):
            tname = roi.abnormality_type
            if tname not in declared:
                raise FormatError(
                    f"{where}: images[{i}].rois[{j}]: unknown abnormality type {tname!r}"
                )
            for axis in roi.descriptors:
                if axis not in declared[tname]:
                    raise FormatError(
                        f"{where}: images[{i}].rois[{j}]: "
                        f"axis {axis!r} not declared for type {tname!r}"
                    )
    return AnnotationSet(class_names, tuple(images)), lexicon


def annotations_to_json(annotations: AnnotationSet) -> dict:
    return {"format": ANN_FORMAT, **to_json(annotations)}


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
