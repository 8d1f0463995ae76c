"""The strict-JSON core that every pefcoh file format shares.

Every file pefcoh reads is UTF-8 JSON with a ``format`` version field
(:func:`_check_format`). Each but the dump, whose windowed parser is in
:mod:`pefcoh.dumpio`, is decoded by one :func:`json.loads` whose object
pairs hook rejects a repeated key (:func:`_load_json`); a fault raises
:class:`FormatError` naming the file and the field. Every file it writes
goes through :func:`write_json` (a 2-space indent) or, for the large ones,
:func:`write_streamed` (one row per line). The schema dataclasses (scores,
run config, synth spec, ledger) map to and from JSON by :func:`to_json` and
:func:`read_dataclass`, and :func:`check_run_id` is the rule for the model
name and seed that name a run's report file.

This module imports neither numpy nor the records of the input formats, so
``compare``, which reads and writes only report files, loads it and not
:mod:`pefcoh.dumpio`, whose parsers of the dump, annotation and lexicon
formats build on it.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import Field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Any, TextIO, TypeVar, Union, get_args, get_origin, get_type_hints


class FormatError(ValueError):
    """A single file violates its schema or an internal invariant."""


class ConsistencyError(ValueError):
    """Two otherwise-valid files disagree (class lists, splits, labels)."""


class InfeasibleSpecError(ValueError):
    """A synth spec's planted targets or dimensions cannot be realized.
    Raised by :mod:`pefcoh.synth`, which exports it; it is defined here, with
    the other input faults, so the CLI catches it without loading the
    generator."""


# ---------------------------------------------------------------------------
# low-level helpers


def _read_text(path: str | Path) -> str:
    """The whole text of a UTF-8 file; bytes that are not UTF-8 raise
    :class:`FormatError` naming the file."""
    with open(path, encoding="utf-8") as fh:
        return _read_rest(fh, path)


def _read_rest(fh: TextIO, path: str | Path) -> str:
    """The rest of the text of ``fh``, the UTF-8 file at ``path``; bytes
    that are not UTF-8 raise :class:`FormatError` naming the file."""
    try:
        return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc}") from exc


def _unique_keys(path: str | Path) -> Callable[[list[tuple[str, Any]]], dict]:
    """The ``object_pairs_hook`` that builds an object and rejects a repeated
    key."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise FormatError(f"{path}: duplicate key {key!r}")
                seen.add(key)
        return obj

    return unique_keys


def _loads(text: str, path: str | Path) -> Any:
    """The decode of ``text`` that raises :class:`FormatError` on a repeated
    key, invalid JSON or a lone surrogate."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys(path))
    except FormatError:
        raise
    except (ValueError, RecursionError) as exc:  # also a too-long integer, deep nesting
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    # text read as UTF-8 holds no surrogate; only a \u escape can decode to one
    if "\\" in text and (fault := _lone_surrogate(obj)):
        raise FormatError(f"{path}: {fault}")
    return obj


def _lone_surrogate(obj: Any) -> str | None:
    """The fault, without the file name, of the first string, key or value,
    in document order that holds a lone surrogate, which UTF-8 cannot
    encode, or None; every key of an object is checked before its values."""
    stack: list[tuple[Any, str]] = [(obj, "")]
    while stack:
        node, field = stack.pop()
        if type(node) is dict:
            children = []
            for key, value in node.items():
                if not _encodes(key):
                    return (f"{field or 'top level'}: key {key!r} "
                            "is not valid Unicode (a lone surrogate)")
                children.append((value, _member(field, key)))
            stack.extend(reversed(children))
        elif type(node) is list:
            stack.extend((node[i], f"{field}[{i}]") for i in reversed(range(len(node))))
        elif type(node) is str and not _encodes(node):
            return f"{field}: {node!r} is not valid Unicode (a lone surrogate)"
    return None


def _member(field: str, key: str) -> str:
    """The path of member ``key`` of the object at ``field`` ('' at the top
    level). A key that does not print as itself (a newline, a lone
    surrogate) is written as its repr, so a message stays on one line."""
    name = key if key.isprintable() else repr(key)
    return f"{field}.{name}" if field else name


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _load_json(path: str | Path) -> Any:
    return _loads(_read_text(path), path)


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


# indent=None keeps encode() on the C encoder; an indent would switch it to
# the pure-Python one, which holds every token of the document in a list
_encode = json.JSONEncoder(ensure_ascii=False).encode


def write_streamed(
    path: str | Path, header: Mapping[str, Any], arrays: Mapping[str, Iterable[Any]]
) -> None:
    """Write one JSON object to ``path`` as its values are encoded.

    ``{`` is on the first line, then each ``header`` value on a line of its
    own, then each of ``arrays`` as ``"key": [`` with one encoded row per
    line, keys in their given order. Each value is encoded by the C encoder
    as soon as it is built, so the write holds one row at a time. The text
    goes to a temporary file beside ``path``, which replaces ``path`` once
    it is whole: a write that fails (a string holding a lone surrogate,
    which UTF-8 cannot encode) leaves ``path`` as it was and no other file.
    The temporary name is short, so a target whose name takes the longest a
    file system allows has one, and it is unique to the writing thread.
    """
    path = Path(path)
    tmp = path.with_name(f".pefcoh-{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        f = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:  # a missing or unwritable directory: name the target
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            f.write("{")
            separator = "\n"
            for key, value in header.items():
                f.write(f'{separator}  "{key}": {_encode(value)}')
                separator = ",\n"
            for key, rows in arrays.items():
                f.write(f'{separator}  "{key}": [')
                row_separator = "\n    "
                for row in rows:
                    f.write(row_separator + _encode(row))
                    row_separator = ",\n    "
                f.write("\n  ]")
                separator = ",\n"
            f.write("\n}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# dataclass <-> JSON

T = TypeVar("T")


def to_json(obj: Any) -> Any:
    """The JSON form of a record, equal to what :func:`json.load` reads back.

    A dataclass becomes an object of its fields in declared order, each keyed
    by its ``metadata["json"]`` name or else its own; sequences other than
    strings (tuples, lists) become arrays, mappings objects, and every other
    value is kept as it is.
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
            key: _read_value(args[1], item, where, _member(what, key))
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
# run names and numbers


_INT64_MAX = 2**63 - 1
_NAME_MAX = 255  # bytes in one file name, on common file systems
_CONTROL = r"\x00-\x1f\x7f-\x9f"  # Unicode's Cc: C0, DEL and C1
_CONTROL_CHAR = re.compile(f"[{_CONTROL}]")
_NOT_IN_NAME = re.compile(rf"[/\\{_CONTROL}]")  # a path separator, or a control character


def report_file_name(model_name: str, seed: int) -> str:
    """The name of the report file that ``evaluate`` writes for one run."""
    return f"{model_name}-seed{seed}.report.json"


def check_run_id(model_name: str, seed: int) -> None:
    """The rule for a run's ``model_name`` and ``seed``, which name its report
    file (:func:`report_file_name`) and head its column of the Markdown
    tables: the seed fits in int64, the model name is one file-name component
    on one line (not empty, no ``/``, ``\\`` or control character, not ``.``
    or ``..``) and the report file name fits in 255 bytes of UTF-8. A
    violation raises ValueError naming the field."""
    if not -_INT64_MAX - 1 <= seed <= _INT64_MAX:
        raise ValueError("seed must fit in int64 (-2**63 to 2**63 - 1)")
    if model_name in ("", ".", "..") or _NOT_IN_NAME.search(model_name):
        raise ValueError(
            "model_name must be one file-name component (not empty, '.' or '..', "
            f"and without '/', '\\' or a control character), got {model_name!r}"
        )
    try:
        size = len(report_file_name(model_name, seed).encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        raise ValueError(f"model_name must be valid Unicode text, got {model_name!r}") from None
    if size > _NAME_MAX:
        raise ValueError(
            f"model_name too long: its report file name takes {size} bytes, "
            f"at most {_NAME_MAX}"
        )


def _finite(x: int | float) -> bool:
    """``math.isfinite``, reading an int too large for a float as infinite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False
