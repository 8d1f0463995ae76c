"""The evidence dump's column packer: the entries of each image, as the image
is read, appended to one growing column per field, which become the dump's
one :class:`~pefcoh.records.ActivationTable` without a copy.

An entry is checked in two places, each check once. :meth:`Columns.pack`
runs, per image, the checks that must look at each decoded object: every
entry is an object with its four keys, the prototype ids are distinct
strings, the score is an int or a float and the row and column ints (no
bool), and each value fits its column. :meth:`Columns.resolve` runs, per
table on the packed columns, the checks of values: each prototype is one of
the dump's, each score is finite and >= 0, and each cell lies inside its
image's feature map. Neither names a fault: an image that fails the first is
left unpacked, and the second gives a row of the first image that fails it;
``dumpio._raise_entry_fault`` walks that image's entries and names the
first bad one.

This is the array code of the dump parser. :func:`pefcoh.dumpio.parse_dump`
imports it on its first call, so reading any other file (a report for
``compare``, annotations, a lexicon) never loads numpy.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

import numpy as np

from .dumpio import _INT64_MAX
from .records import ActivationTable, PrototypeRecord

_NUMBER = {int, float}
_INT = {int}
_STR = {str}
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
        """Append the entries of ``obj``, an image whose ``feature_h`` and
        ``feature_w`` are positive ints of int64, and replace
        ``obj["entries"]`` by their positions in the columns, when they are a
        list that passes the per-object checks (see the module docstring).
        Those positions, or None, with nothing appended, for any other
        value."""
        if type(obj) is not dict:
            return None
        entries = obj.get("entries")
        feature_h, feature_w = obj.get("feature_h"), obj.get("feature_w")
        if type(entries) is not list or type(feature_h) is not int or type(feature_w) is not int:
            return None
        if not (0 < feature_h <= _INT64_MAX and 0 < feature_w <= _INT64_MAX):
            return None
        codes = self._codes
        try:
            pids = [e["prototype_id"] for e in entries]
            scores = [e["score"] for e in entries]
            rows = [e["row"] for e in entries]
            cols = [e["col"] for e in entries]
            try:
                proto = list(map(codes.__getitem__, pids))  # every key is a str
            except KeyError:  # an id not seen before, or not a str
                if not set(map(type, pids)) <= _STR:
                    return None
                # may code the ids of an image left unpacked below
                proto = [codes.setdefault(pid, len(codes)) for pid in pids]
            if not (
                len(set(proto)) == len(proto)
                and set(map(type, scores)) <= _NUMBER
                and set(map(type, rows)) <= _INT and set(map(type, cols)) <= _INT
            ):
                return None
        except (KeyError, TypeError):
            return None
        start = len(self.proto)
        try:
            self.proto.fromlist(proto)
            self.score.fromlist(scores)
            self.row.fromlist(rows)
            self.col.fromlist(cols)
        except OverflowError:  # a score beyond a float, a row or column beyond int64
            for column in (self.proto, self.score, self.row, self.col):
                del column[start:]
            return None
        span = obj["entries"] = range(start, len(self.proto))
        return span

    def resolve(self, index: dict[str, int], images: list) -> int | None:
        """Check the packed entries against the dump's prototypes, whose ids
        ``index`` maps to their indices, and against their images, the
        records of ``images`` whose entries were packed (see the module
        docstring), one run of ``_CHUNK`` rows at a time. A row of the first
        image with an entry that fails, with the columns left as they are;
        or None, once each entry's prototype code is replaced, in place, by
        the index of its prototype."""
        of_code = np.array([index.get(pid, -1) for pid in self._codes], dtype=np.int64)
        # per image that holds packed entries: its first row, feature_h and
        # feature_w; an image without entries is left out, so the first rows
        # rise strictly, as reduceat needs
        bounds = np.array(
            [(rows.start, rec["feature_h"], rec["feature_w"]) for rec in images
             if type(rec) is dict and type(rows := rec.get("entries")) is range and rows],
            dtype=np.int64,
        ).reshape(-1, 3).T
        proto = np.frombuffer(self.proto, np.int64)
        runs = range(0, len(proto), _CHUNK)
        for start in runs:
            fault = self._fault(start, of_code, *bounds)
            if fault is not None:
                return fault
        for start in runs:  # no copy of the whole column
            part = proto[start:start + _CHUNK]
            part[:] = of_code[part]
        return None

    def _fault(
        self, start: int, of_code: np.ndarray,
        starts: np.ndarray, heights: np.ndarray, widths: np.ndarray,
    ) -> int | None:
        """A row of the first image whose rows among the ``_CHUNK`` from
        ``start`` on hold an unknown prototype (one that ``of_code``, the
        index of each code, maps to -1), a score that is not finite and >= 0,
        or a cell outside the image's feature map; or None. ``starts``,
        ``heights`` and ``widths`` give each image's first row and feature
        map. Each check reads only the minima and maxima of an image's rows."""
        stop = min(start + _CHUNK, len(self.proto))
        # the images with rows in the run, and where each one's rows start in it
        first = int(starts.searchsorted(start, "right")) - 1
        last = int(starts.searchsorted(stop))
        heads = starts[first:last] - start
        heads[0] = 0

        def run(column: array) -> np.ndarray:
            return np.frombuffer(column, column.typecode)[start:stop]

        def low(values: np.ndarray) -> np.ndarray:
            return np.minimum.reduceat(values, heads)

        def high(values: np.ndarray) -> np.ndarray:
            return np.maximum.reduceat(values, heads)

        score, row, col = run(self.score), run(self.row), run(self.col)
        ok = (low(score) >= 0) & (high(score) < np.inf)  # False at a NaN
        ok &= (low(row) >= 0) & (high(row) < heights[first:last])
        ok &= (low(col) >= 0) & (high(col) < widths[first:last])
        ok &= low(of_code[run(self.proto)]) >= 0
        return None if ok.all() else start + int(heads[ok.argmin()])

    def entries(self, rows: range) -> list[dict]:
        """The packed entries at ``rows``, unresolved, as objects of their
        four keys."""
        ids = list(self._codes)
        at = slice(rows.start, rows.stop)
        return [
            {"prototype_id": ids[p], "score": score, "row": row, "col": col}
            for p, score, row, col in zip(self.proto[at], self.score[at], self.row[at],
                                          self.col[at])
        ]

    def table(
        self, prototypes: Sequence[PrototypeRecord], n_classes: int, counts: Sequence[int]
    ) -> ActivationTable:
        """The table of images holding ``counts[i]`` entries each, once the
        entries are resolved to ``prototypes``; it reads the columns in
        place, so they take no further entries."""
        return ActivationTable.from_columns(
            prototypes, n_classes, counts,
            np.frombuffer(self.proto, np.int64),
            np.frombuffer(self.score, np.float64),
            np.frombuffer(self.row, np.int64),
            np.frombuffer(self.col, np.int64),
        )
