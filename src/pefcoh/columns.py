"""The evidence dump's column packer: the entries of each image, as the image
is read, appended to one growing column per field, which become the dump's
one :class:`~pefcoh.records.ActivationTable` without a copy.

This is the array code of the dump parser. :func:`pefcoh.dumpio.parse_dump`
imports it on its first call, so reading any other file (a report for
``compare``, annotations, a lexicon) never loads numpy.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence

import numpy as np

from .records import ActivationTable

_NUMBER = {int, float}
_INT64_MAX = 2**63 - 1
_CHUNK = 1 << 14  # entries resolved at a time


class Columns:
    """The packed entries of a dump, image after image: per entry its
    prototype code, score, row and column, each in one stdlib array.
    Prototype ids are coded in first-seen order."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self.proto = array("q")
        self.score = array("d")
        self.row = array("q")
        self.col = array("q")

    def pack(self, obj) -> range | None:
        """Append the entries of ``obj``, an image, and replace
        ``obj["entries"]`` by their positions in the columns, when they are
        a list that passes, in bulk, every check of
        ``dumpio._raise_entry_fault`` against ``obj``'s own ``feature_h``
        and ``feature_w`` except that the prototypes are known. Those
        positions, or None, with nothing appended, for any other value."""
        if type(obj) is not dict:
            return None
        entries = obj.get("entries")
        feature_h, feature_w = obj.get("feature_h"), obj.get("feature_w")
        if type(entries) is not list or type(feature_h) is not int or type(feature_w) is not int:
            return None
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
                and max(feature_h, feature_w) <= _INT64_MAX  # so rows and columns fit
            ):
                return None
        except (KeyError, TypeError, OverflowError):
            return None
        start = len(self.proto)
        codes = self._codes
        self.proto.fromlist([codes.setdefault(pid, len(codes)) for pid in pids])
        self.score.fromlist(scores)
        self.row.fromlist(rows)
        self.col.fromlist(cols)
        span = obj["entries"] = range(start, len(self.proto))
        return span

    def resolve(self, index: dict[str, int]) -> tuple[int, str] | None:
        """Replace, in place, each packed entry's prototype code by the
        index of its prototype in the dump, whose ids ``index`` maps to
        their indices; or, when an entry's prototype is not one of them,
        keep the codes and give the first such entry's position and
        prototype id."""
        of_code = np.array([index.get(pid, -1) for pid in self._codes], dtype=np.int64)
        proto = np.frombuffer(self.proto, np.int64)
        unknown = np.flatnonzero(of_code < 0)
        if unknown.size:
            at = int(np.flatnonzero(np.isin(proto, unknown))[0])
            return at, list(self._codes)[proto[at]]
        for start in range(0, len(proto), _CHUNK):  # no copy of the whole column
            part = proto[start:start + _CHUNK]
            part[:] = of_code[part]
        return None

    def table(self, prototype_ids: tuple[str, ...], counts: Sequence[int]) -> ActivationTable:
        """The table of images holding ``counts[i]`` entries each, once the
        prototypes are resolved; it reads the columns in place, so they take
        no further entries."""
        return ActivationTable.from_columns(
            prototype_ids, counts,
            np.frombuffer(self.proto, np.int64),
            np.frombuffer(self.score, np.float64),
            np.frombuffer(self.row, np.int64),
            np.frombuffer(self.col, np.int64),
        )
