"""The evidence dump's column packer: each image's entries as numpy columns,
joined into the dump's one :class:`~pefcoh.records.ActivationTable`.

This is the array code of the dump parser. :func:`pefcoh.dumpio.parse_dump`
imports it on its first call, so reading any other file (a report for
``compare``, annotations, a lexicon) never loads numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .records import ActivationTable

_NUMBER = {int, float}


class Entries(NamedTuple):
    """One image's entries as columns. ``proto`` holds prototype codes while
    the file decodes and the dump's prototype indices once it is read."""

    proto: np.ndarray  # intp
    score: np.ndarray  # float64
    row: np.ndarray  # int64
    col: np.ndarray  # int64


_DTYPES = (np.intp, np.float64, np.int64, np.int64)
_NO_ENTRIES = Entries(*(np.empty(0, dtype) for dtype in _DTYPES))


def pack_entries(obj: dict, codes: dict[str, int]) -> bool:
    """Replace ``obj["entries"]`` by its :class:`Entries` when it is a list
    that passes, in bulk, every check of ``dumpio._raise_entry_fault`` against
    ``obj``'s own ``feature_h`` and ``feature_w`` except that the prototypes
    are known; prototype ids are coded by ``codes``, in first-seen order.
    Any other value is left as decoded. Whether the entries were packed, so
    whether they were a list of objects."""
    entries = obj["entries"]
    feature_h, feature_w = obj.get("feature_h"), obj.get("feature_w")
    if type(entries) is not list or type(feature_h) is not int or type(feature_w) is not int:
        return False
    try:
        pids = [e["prototype_id"] for e in entries]
        scores = [e["score"] for e in entries]
        rows = [e["row"] for e in entries]
        cols = [e["col"] for e in entries]
        if not (
            set(map(type, pids)) <= {str}
            and len(set(pids)) == len(pids)
            and set(map(type, scores)) <= _NUMBER
            and all(map(math.isfinite, scores))
            and min(scores, default=0) >= 0
            and set(map(type, rows)) <= {int} and set(map(type, cols)) <= {int}
            and 0 <= min(rows, default=0) and max(rows, default=-1) < feature_h
            and 0 <= min(cols, default=0) and max(cols, default=-1) < feature_w
        ):
            return False
        columns = [codes.setdefault(pid, len(codes)) for pid in pids], scores, rows, cols
        obj["entries"] = Entries(*map(np.array, columns, _DTYPES))
    except (KeyError, TypeError, OverflowError):
        return False
    return True


def prototype_of_code(codes: dict[str, int], index: dict[str, int]) -> np.ndarray:
    """Per prototype code, the index of its prototype in the dump, or -1."""
    return np.array([index.get(pid, -1) for pid in codes], dtype=np.intp)


def resolve(entries: Entries, proto_of_code: np.ndarray) -> Entries | int:
    """``entries`` with prototype codes replaced by the dump's prototype
    indices, or the position of the first entry whose prototype is unknown."""
    proto = proto_of_code[entries.proto]
    unknown = np.flatnonzero(proto < 0)
    return int(unknown[0]) if unknown.size else entries._replace(proto=proto)


def join(prototype_ids: tuple[str, ...], images: list[Entries]) -> ActivationTable:
    """The table of the resolved entries of every image, in image order."""
    return ActivationTable.from_columns(
        prototype_ids,
        [len(c.proto) for c in images],
        *map(np.concatenate, zip(_NO_ENTRIES, *images)),
    )
