"""The evidence dump's column packer: the entries of each image, as the image
is read, appended to one growing column per field, which become the dump's
one :class:`~pefcoh.records.ActivationTable` without a copy.

An entry is checked in two places, each check once. :meth:`Columns.pack`
runs, per image, the checks that must look at each decoded object: every
entry is an object with its four keys, the prototype ids are distinct
strings, the score is an int or a float and the row and column ints (no
bool), and each value fits its column. :meth:`Columns.resolve` runs, per
run of whole images on the packed columns, the checks of values: each
prototype is one of the dump's, each score is finite and >= 0, and each
cell lies inside its image's feature map. Neither names a fault: an image
that fails the first is left unpacked, and the second gives a row of the
first image that fails it; ``dumpio._raise_entry_fault`` walks that image's
entries and names the first bad one.

:func:`_image_runs` is the one definition of a run of whole images, of
about ``_CHUNK`` entries: every stage that reads a table in pieces, here
and in :mod:`pefcoh.metrics`, walks its runs.

This is the array code of the dump parser. :func:`pefcoh.dumpio.parse_dump`
imports it on its first call, so reading any other file (a report for
``compare``, annotations, a lexicon) never loads numpy.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

import numpy as np

from .jsonio import _INT64_MAX
from .records import ActivationTable, PrototypeRecord

_NUMBER = {int, float}
_INT = {int}
_STR = {str}
_CHUNK = 1 << 15  # entries of whole images read at a time


def _image_runs(offsets: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive runs ``(a, b)`` of images ``a:b`` that cover every image
    of a table whose image ``i`` holds rows ``offsets[i]:offsets[i + 1]``: a
    run starts at the first image to start at or past a multiple of
    ``_CHUNK`` rows, so it holds about ``_CHUNK`` rows, or one larger
    image."""
    starts = offsets.searchsorted(np.arange(_CHUNK, offsets[-1], _CHUNK)).tolist()
    bounds = [0, *starts, len(offsets) - 1]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


class Columns:
    """The packed entries of a dump, image after image: per entry its
    prototype code, score, row and column, each in one stdlib array, and
    per packed image that holds entries its first row, ``feature_h`` and
    ``feature_w``. Prototype ids are coded in first-seen order."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self.proto = array("q")
        self.score = array("d")
        self.row = array("q")
        self.col = array("q")
        self._heads = array("q")  # first row, feature_h, feature_w per image

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
        if span:  # so the first rows rise strictly, as reduceat needs
            self._heads.extend((start, feature_h, feature_w))
        return span

    def resolve(self, index: dict[str, int]) -> int | None:
        """Check the packed entries against the dump's prototypes, whose ids
        ``index`` maps to their indices, and against the feature maps of
        their images (see the module docstring), one run of whole images
        (:func:`_image_runs`) at a time, each from the minima and maxima of
        its images' rows. Each run that passes has its prototype codes
        replaced, in place, by the indices of their prototypes. A row of the
        first image with an entry that fails, with its run left as it was
        packed; or None."""
        of_code = np.array([index.get(pid, -1) for pid in self._codes], dtype=np.int64)
        starts, heights, widths = np.frombuffer(self._heads, np.int64).reshape(-1, 3).T
        offsets = np.append(starts, len(self.proto))
        proto, score, row, col = (np.frombuffer(column, column.typecode)
                                  for column in (self.proto, self.score, self.row, self.col))
        for a, b in _image_runs(offsets):
            lo, hi = offsets[a], offsets[b]
            heads = starts[a:b] - lo
            code = of_code[proto[lo:hi]]
            ok = np.minimum.reduceat(code, heads) >= 0
            for column, bound in ((score, np.inf), (row, heights[a:b]), (col, widths[a:b])):
                values = column[lo:hi]
                ok &= np.minimum.reduceat(values, heads) >= 0  # False at a NaN
                ok &= np.maximum.reduceat(values, heads) < bound
            if not ok.all():
                return int(starts[a + ok.argmin()])
            proto[lo:hi] = code
        return None

    def entries(self, rows: range) -> list[dict]:
        """The packed entries at ``rows``, in a run that :meth:`resolve` left
        as it was packed, as objects of their four keys."""
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
