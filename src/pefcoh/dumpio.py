"""Parse, validate and serialize the evidence-dump, annotation and lexicon files.

All three formats are UTF-8 JSON with a ``format`` version field:

* evidence dump: ``pefcoh-dump/1``
* annotations:   ``pefcoh-ann/1``
* lexicon:       ``pefcoh-lex/1``

Parsing is strict: every schema or invariant violation, a repeated key
included, raises :class:`FormatError` naming the offending field and record
index. Cross-file checks (shared class list, split agreement, ...) are
collected by :func:`cross_validate`.

The strict-JSON core these parsers share lives in :mod:`pefcoh.jsonio`,
which this module imports: the errors, the strict decode, the writers,
the dataclass mapping and the run-name rule. Every file but the dump is
decoded by its one :func:`json.loads`, whose object pairs hook rejects a
repeated key. The dump is read through a window of the file and decoded one
value at a time, each image on its own, by a plain decoder that counts the
string tokens it keeps to prove no key repeats; each image's entries go
into one growing column per field as the image is read. So the parse holds
the window, one image's entry objects, the header fields and the columns,
and never the whole text or the whole JSON tree. Only a dump that repeats a
key, is not valid JSON or UTF-8, or holds a surrogate escape (``\\uD800``
to ``\\uDFFF``) is read whole and decoded again, by the strict hook, which
names the fault (see :func:`parse_dump`). The parsed dump is built from its
run header, its image headers and those columns as its one activation
table, which also takes the class weights the parser has checked as one
matrix; the dump derives its image records and prototypes from them (see
:mod:`pefcoh.records`).

This module imports no numpy. The dump's column packing is array code in
:mod:`pefcoh.columns`, which :func:`parse_dump` imports on its first call;
the annotation and lexicon readers run without it, and :func:`write_dump`
only calls the methods of the table's arrays. ``compare`` reads only report
files, so it loads :mod:`pefcoh.jsonio` and neither this module nor
:mod:`pefcoh.records`.

The dump and the per-run report are the large files, and both are written
by one streamed writer, :func:`pefcoh.jsonio.write_streamed`: a header
value per line, then one encoded row per line, into a temporary file that
replaces the target once it is whole. :func:`write_dump` builds each
image's row from its slice of the dump's table. Every other file is small
and is written with a 2-space indent (:func:`pefcoh.jsonio.write_json`), as
:func:`pefcoh.jsonio.to_json` gives its record. The input formats are read
by hand-written parsers; the schema dataclasses (scores, run config, synth
spec, ledger) are read back with :func:`pefcoh.jsonio.read_dataclass`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, NoReturn, TextIO

# the strict-JSON core of every format; the writers, the dataclass mapping
# and the errors are re-exported from here
from .jsonio import (  # noqa: F401
    _CONTROL_CHAR,
    _INT64_MAX,
    ConsistencyError,
    FormatError,
    _check_format,
    _finite,
    _load_json,
    _loads,
    _read_rest,
    _require,
    check_run_id,
    dumps_canonical,
    read_dataclass,
    to_json,
    write_json,
    write_streamed,
)
from .records import (
    COMBINED_LEVEL,
    SPLITS,
    AnnotatedImage,
    AnnotationSet,
    EvidenceDump,
    ImageActivationRecord,
    Lexicon,
    LexiconType,
    PrototypeRecord,
    ROIAnnotation,
    axis_level_name,
    canonical_token,
    categories_for_roi,
    fits_exact_grid,
)

if TYPE_CHECKING:
    from . import columns

DUMP_FORMAT = "pefcoh-dump/1"
ANN_FORMAT = "pefcoh-ann/1"
LEX_FORMAT = "pefcoh-lex/1"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str


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

    The file is read through a window (:class:`_Window`) and decoded one
    value at a time: each top-level field, and each image of ``images`` on
    its own. As an image is decoded, its entries are appended to the dump's
    columns (:class:`pefcoh.columns.Columns`) when they pass the checks that
    must look at each decoded object (``Columns.pack``: objects with their
    four keys, distinct ids, exact types, values that fit their column). So
    the parse holds the window, one image's entry objects, the other fields
    and the columns, but never the whole text or the whole JSON tree, in any
    key order. No record is checked before the whole file is read, so a
    fault in the JSON anywhere in the file (a syntax error, a repeated key)
    wins over a fault in a record. The checks of values run once per table,
    on the packed columns, once the prototypes are read
    (``Columns.resolve``: known prototypes, finite scores >= 0, cells inside
    their image's feature map); they give the first faulty row.

    Each value is decoded by a plain decoder, which cannot see a repeated
    key, and kept when the string tokens it holds match its text's and its
    text holds no surrogate escape (see :func:`_read_windowed`). A text
    that the window does not take, which repeats a key, is not valid JSON or
    UTF-8, holds a surrogate escape, or whose top level is not an object, is
    read whole from its start and decoded again, with fresh columns, by the
    strict :func:`_loads` of every other reader, which names the fault (a
    lone surrogate among them) or, for a surrogate pair, gives the dump. So
    is a file that cannot be read twice (a pipe), from the first.

    The columns become the dump's one ``activations`` table, which its
    images' ``entries`` view. Only :func:`_raise_entry_fault` names an entry
    fault: it walks, entry by entry, an image whose entries were left
    unpacked, or the entries of the faulty row's image, rebuilt from the
    columns.
    """
    from . import columns  # the array code, loaded by the first dump parsed

    cols = columns.Columns()
    with open(path, encoding="utf-8") as fh:
        try:
            raw = _read_windowed(fh, cols)
        except _Unread:
            if fh.seekable():
                fh.seek(0)
            raw, cols = _loads(_read_rest(fh, path), path), columns.Columns()
            if type(raw) is dict and type(raw.get("images")) is list:
                for rec in raw["images"]:
                    cols.pack(rec)
    return _dump_from_raw(raw, path, cols)


_WINDOW = 1 << 16  # characters read ahead of the cursor, at the least
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # as JSON has it
# an escaped backslash or quote, or the start of a surrogate's \u escape
_ESCAPES = re.compile(r'\\(?:[\\"]|u[dD][89a-fA-F])')
_DECODER = json.JSONDecoder()


class _Unread(Exception):
    """A dump text that :func:`_read_windowed` does not take."""


class _Window:
    """A text file read forward through a window: ``buf[pos:]`` holds the
    next characters, at least four times the longest value read so far
    where the file has them, so that each value is decoded once."""

    def __init__(self, fh: TextIO) -> None:
        self.fh = fh
        self.buf = ""
        self.pos = 0
        self.eof = False
        self.longest = 0

    def fill(self, need: int) -> None:
        """When fewer than ``need`` characters follow ``pos``, read at least
        ``need`` more, or all that are left."""
        if self.eof or len(self.buf) - self.pos >= need:
            return
        text = self.buf[self.pos:]
        self.buf = ""  # so the text read is appended in place
        try:
            chunk = self.fh.read(max(need, _WINDOW))
        except UnicodeDecodeError:
            raise _Unread from None
        self.eof = not chunk
        text += chunk
        self.buf, self.pos = text, 0

    def peek(self) -> str:
        """The next character that is not whitespace, with ``pos`` on it, or
        '' at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.fill(1)

    def take(self, chars: str) -> str:
        """The next character that is not whitespace, read; it must be one
        of ``chars``."""
        char = self.peek()
        if not char or char not in chars:
            raise _Unread
        self.pos += 1
        return char

    def value(self) -> tuple[Any, int]:
        """The next JSON value, read, and where its text starts.

        A value that fails to decode, or that ends within two characters of
        the window's end, where a number may go on (``1`` of ``1.5`` or
        ``1e+5``), is decoded again with more of the file.
        """
        self.peek()
        need = max(_WINDOW, 4 * self.longest)
        while True:
            self.fill(need)
            try:
                obj, end = _DECODER.raw_decode(self.buf, self.pos)
            except RecursionError:
                raise _Unread from None
            except ValueError:  # not valid JSON, or cut by the window
                if self.eof:
                    raise _Unread from None
            else:
                if self.eof or end + 3 <= len(self.buf):
                    break
            need = 2 * (len(self.buf) - self.pos) + 1
        start, self.pos = self.pos, end
        self.longest = max(self.longest, end - start)
        return obj, start


def _read_windowed(fh: TextIO, cols: columns.Columns) -> dict:
    """The top-level object of the dump ``fh``, read through a window, with
    the entries of each image of ``images`` packed into ``cols``.

    The top-level object and the ``images`` array are framed here, and each
    value in them is decoded on its own, with no hook. The keys of the top
    level are compared as they are read. Inside a value the decoder cannot
    see a repeated key, so the string tokens it keeps are counted: in valid
    JSON each string token is a key, one per written pair, or a string
    value, so a value that repeats no key keeps exactly its text's unescaped
    quotes over two, and one that drops a repeated key keeps fewer. Nothing
    in the count reads what a string says. A packed entry keeps at least
    five (four keys and its prototype id), so an image whose text holds
    exactly five per packed entry, with the rest of its tokens, repeats no
    key, and its entries are walked only when the count disagrees.

    Raises :class:`_Unread` at a repeated key, at a text that is not valid
    JSON or UTF-8, at a top level that is not an object, at a key or value
    whose text holds a surrogate escape (see :func:`_check_text`), or,
    before reading anything, at a file that cannot be read twice (a pipe).
    """
    if not fh.seekable():
        raise _Unread
    raw: dict[str, Any] = {}
    window = _Window(fh)
    window.take("{")
    if window.peek() == "}":
        window.pos += 1
    else:
        while True:
            if window.peek() != '"':
                raise _Unread
            key, start = window.value()
            if key in raw:
                raise _Unread
            _check_text(window, start, 1)
            window.take(":")
            if key == "images" and window.peek() == "[":
                raw[key] = _read_images(window, cols)
            else:
                raw[key], start = window.value()
                _check_text(window, start, _string_tokens(raw[key]))
            if window.take(",}") == "}":
                break
    if window.peek():  # data after the top-level object
        raise _Unread
    return raw


def _read_images(window: _Window, cols: columns.Columns) -> list:
    """The array of images at the window's cursor, read, with each image's
    entries packed into ``cols`` when they pass its per-object checks."""
    images = []
    window.take("[")
    if window.peek() == "]":
        window.pos += 1
        return images
    while True:
        rec, start = window.value()
        entries = rec.get("entries") if type(rec) is dict else None
        packed = cols.pack(rec) is not None  # rec's entries are then a range, not walked
        # a packed entry keeps at least five tokens, its four keys and its id;
        # the entries are walked only when the text holds another count
        tokens = _string_tokens(rec) + (5 * len(entries) if packed else 0)
        quotes = _quotes(window, start)
        if packed and 2 * tokens != quotes:
            tokens += _string_tokens(entries) - 5 * len(entries)
        if 2 * tokens != quotes:
            raise _Unread
        images.append(rec)
        if window.take(",]") == "]":
            return images


def _check_text(window: _Window, start: int, tokens: int) -> None:
    """Raise :class:`_Unread` unless the text of the value just read, from
    ``start``, holds ``tokens`` string tokens (see :func:`_read_windowed`)
    and no surrogate escape."""
    if 2 * tokens != _quotes(window, start):
        raise _Unread


def _quotes(window: _Window, start: int) -> int:
    """The unescaped quotes in the text of the value just read, from
    ``start``; raise :class:`_Unread` at a surrogate escape. A text read as
    UTF-8 holds a surrogate only as a ``\\uD800`` to ``\\uDFFF`` escape,
    which the strict decode reads."""
    buf, end = window.buf, window.pos
    quotes = buf.count('"', start, end)
    if buf.find("\\", start, end) >= 0:  # escapes, matched left to right
        escapes = _ESCAPES.findall(buf, start, end)
        if any(len(escape) > 2 for escape in escapes):
            raise _Unread
        quotes -= escapes.count('\\"')
    return quotes


def _string_tokens(obj: Any) -> int:
    """The keys of every object in ``obj`` and its string values. Packed
    entries are not walked."""
    tokens = 0
    stack = [obj]
    while stack:
        node = stack.pop()
        if type(node) is dict:
            tokens += len(node)
            stack.extend(node.values())
        elif type(node) is list:
            stack.extend(node)
        elif type(node) is str:
            tokens += 1
    return tokens


def _dump_from_raw(raw: Any, path: str | Path, cols: columns.Columns) -> EvidenceDump:
    """The dump of the decoded file ``raw``, whose images' packed entries
    are the rows of ``cols``."""
    _check_format(raw, DUMP_FORMAT, path)
    model_name = _require(raw, "model_name", str, str(path))
    seed = _require(raw, "seed", int, str(path))
    try:
        check_run_id(model_name, seed)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
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

    fault = cols.resolve(index)  # a row of the first image whose check fails, or None
    headers = []
    counts = []
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
        _, _, width, height, _ = header
        if not (fits_exact_grid(width, feature_w) and fits_exact_grid(height, feature_h)):
            raise FormatError(
                f"{where}: image too large for exact geometry "
                "(2 * width * feature_w and 2 * height * feature_h must be below 2**63)"
            )
        entries = _require(rec, "entries", (list, range), where)
        if type(entries) is range and fault is not None and fault in entries:
            entries = cols.entries(entries)
        if type(entries) is list:  # left unpacked, or holding the fault
            _raise_entry_fault(entries, where, index, feature_h, feature_w)
        counts.append(len(entries))
        headers.append((*header, feature_h, feature_w))

    table = cols.table(prototypes, len(class_names), counts)
    return EvidenceDump(model_name, seed, class_names, headers, table)



def _raise_entry_fault(
    entries: list, where: str, index: dict[str, int], feature_h: int, feature_w: int
) -> NoReturn:
    """Raise :class:`FormatError` naming the first invalid entry of an image:
    the one namer of an entry fault, whichever check found it."""
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


def write_dump(path: str | Path, dump: EvidenceDump) -> None:
    """Write ``dump`` to ``path`` as a ``pefcoh-dump/1`` file, one prototype
    and one image per line (see :func:`write_streamed`); each image's
    entries are built from its rows of the dump's table as the image is
    written."""
    table = dump.activations
    ids = table.prototype_ids

    def image(i: int, img: ImageActivationRecord) -> dict:
        rows = slice(*table.offsets[i : i + 2].tolist())
        return {
            "image_id": img.image_id,
            "split": img.split,
            "width": img.width,
            "height": img.height,
            "class_label": img.class_label,
            "feature_h": img.feature_h,
            "feature_w": img.feature_w,
            "entries": [
                {"prototype_id": ids[p], "score": score, "row": row, "col": col}
                for p, score, row, col in zip(
                    table.proto[rows].tolist(), table.score[rows].tolist(),
                    table.row[rows].tolist(), table.col[rows].tolist(),
                )
            ],
        }

    write_streamed(
        path,
        {"format": DUMP_FORMAT, "model_name": dump.model_name, "seed": dump.seed,
         "class_names": dump.class_names},
        {"prototypes": map(to_json, dump.prototypes),
         "images": map(image, range(len(dump.images)), dump.images)},
    )


# ---------------------------------------------------------------------------
# lexicon


def parse_lexicon(path: str | Path) -> Lexicon:
    raw = _check_format(_load_json(path), LEX_FORMAT, path)
    return _lexicon_from_raw(_require(raw, "types", list, str(path)), str(path))


def _lexicon_from_raw(types_raw: list, where: str) -> Lexicon:
    types = []
    seen: set[str] = set()
    levels: set[str] = set()
    for i, rec in enumerate(types_raw):
        twhere = f"{where}: types[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{twhere}: must be an object")
        name = _name(_require(rec, "name", str, twhere), twhere, "type")
        if name in seen:
            raise FormatError(f"{twhere}: duplicate type {name!r}")
        seen.add(name)
        axes_raw = _require(rec, "axes", list, twhere)
        axes = []
        for axis in axes_raw:
            if not isinstance(axis, str):
                raise FormatError(f"{twhere}: axes must be strings")
            axis = _name(axis, twhere, "axis")
            if axis in axes:
                raise FormatError(f"{twhere}: duplicate axis {axis!r}")
            axes.append(axis)
        types.append(LexiconType(name, tuple(axes)))
        _add_levels(levels, types[-1], twhere)
    if not types:
        raise FormatError(f"{where}: lexicon declares no types")
    return Lexicon(tuple(types))


def _name(raw: str, where: str, what: str) -> str:
    """The canonical form of a type or axis name, which must not be empty nor
    hold a control character (it heads a row of the Markdown tables)."""
    name = canonical_token(raw)
    if not name:
        raise FormatError(f"{where}: empty {what} name")
    if _CONTROL_CHAR.search(raw):
        raise FormatError(f"{where}: {what} name {raw!r} holds a control character")
    return name


def _add_levels(levels: set[str], t: LexiconType, where: str) -> None:
    """Add the axis levels of type ``t`` to the ``levels`` of the types before
    it, none of which it may repeat: ``mass`` with axis ``shape-x`` and
    ``mass-shape`` with axis ``x`` would both declare ``mass-shape-x`` and
    merge its specialization."""
    for axis in t.axes:
        level = axis_level_name(t.name, axis)
        if level in levels:
            raise FormatError(f"{where}: type {t.name!r} repeats level {level!r}")
        levels.add(level)


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
    """Parse the annotations in one walk, checking each ROI's type and
    descriptor axes against ``lexicon`` as it is read, so the first fault in
    file order is named. With no lexicon, derive one from the ROIs in the
    same walk: types and each type's axes in order of first appearance,
    which keeps combined category strings stable under re-parsing."""
    class_names = _class_names(raw, where)
    # type -> its axes (dict keys, in order): the lexicon's, or the ROIs' so far
    axes_of = {} if lexicon is None else {t.name: dict.fromkeys(t.axes) for t in lexicon.types}
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
            tname = _name(_require(roi_raw, "type", str, rwhere), rwhere, "type")
            if tname not in axes_of and lexicon is not None:
                raise FormatError(f"{rwhere}: unknown abnormality type {tname!r}")
            axes = axes_of.setdefault(tname, {})
            descriptors = {}
            for axis, value in _require(roi_raw, "descriptors", dict, rwhere).items():
                axis = _name(axis, rwhere, "axis")
                if axis in descriptors:
                    raise FormatError(f"{rwhere}: duplicate axis {axis!r}")
                if not isinstance(value, str):
                    raise FormatError(f"{rwhere}: descriptor {axis!r} must be a string")
                if axis not in axes and lexicon is not None:
                    raise FormatError(f"{rwhere}: axis {axis!r} not declared for type {tname!r}")
                axes[axis] = None
                descriptors[axis] = canonical_token(value)
            roi_class = _require(roi_raw, "roi_class", int, rwhere)
            if not 0 <= roi_class < len(class_names):
                raise FormatError(f"{rwhere}: roi_class {roi_class} out of range")
            rois.append(ROIAnnotation((x_min, y_min, x_max, y_max), tname, descriptors, roi_class))
        images.append(AnnotatedImage(image_id, width, height, split, class_label, tuple(rois)))

    if lexicon is None:
        if not axes_of:
            raise FormatError(f"{where}: cannot derive a lexicon from annotations without ROIs")
        lexicon = Lexicon(tuple(LexiconType(name, tuple(axes)) for name, axes in axes_of.items()))
        levels: set[str] = set()
        for t in lexicon.types:
            _add_levels(levels, t, f"{where}: derived lexicon")
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
) -> dict[str, tuple[int, ...]]:
    """Distinct categories observed at one level, keyed by value, with ROI
    counts per class.

    ``split`` restricts counting to one split; by default the whole
    annotation set is used. The total-category count TC is the size of this
    map at the combined level.
    """
    if level not in lexicon.levels():
        raise ValueError(f"level {level!r} not declared by lexicon (have {lexicon.levels()})")
    n_classes = len(annotations.class_names)
    counts: dict[str, list[int]] = {}
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
