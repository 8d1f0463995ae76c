"""Immutable domain records: evidence dumps, ROI annotations, and the lexicon.

Everything here is a plain value object. Parsing, validation, and
serialization live in :mod:`pefcoh.dumpio`; these records assume their
invariants already hold. A record stored in a file lists its fields in the
order the file format writes them, and a field whose JSON key differs from
its name carries that key as ``metadata["json"]`` (see ``dumpio.to_json``).

A dump's activations are also held as one columnar :class:`ActivationTable`,
which the metrics read. The dump parser builds that table once and hands it
to the dump, whose ``entries`` are views of it; a dump built in code derives
it from its records on first use.

This module imports no numpy: the table's columns are numpy arrays, but only
:meth:`ActivationTable.from_columns` builds them (the table's other methods
call the arrays' own methods), so a reader of report files (``compare``)
never loads the array code.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np

TRAIN = "train"
TEST = "test"
SPLITS = (TRAIN, TEST)

# Token used in category values when an ROI lacks a declared descriptor axis.
MISSING_VALUE = "na"

TYPE_LEVEL = "type"
COMBINED_LEVEL = "combined"


def canonical_token(raw: str) -> str:
    """Canonical form for type names, axis names and descriptor values."""
    return raw.strip().lower()


def axis_level_name(type_name: str, axis: str) -> str:
    return f"{type_name}-{axis}"


def fits_exact_grid(side: int, cells: int) -> bool:
    """Whether every edge on an image axis of ``side`` pixels cut into
    ``cells`` feature cells stays within int64 on the image's patch lattice
    (see :mod:`pefcoh.geometry`).

    Every patch edge is a multiple of ``1 / (2 * cells)``: a cell center is
    ``(2 * c + 1) * side / (2 * cells)`` and half a patch adds a denominator
    of 2, while a shifted or clipped edge and an ROI edge are integers. So
    the lattice has scale ``2 * cells``, and no edge or ROI center in
    ``[0, side]`` exceeds ``2 * side * cells`` on it.
    """
    return 2 * side * cells < 2**63


@dataclass(frozen=True)
class CategoryId:
    """A category at one hierarchy level, e.g. (combined, mass-oval-circumscribed)."""

    level: str
    value: str

    def __str__(self) -> str:
        return f"{self.level}:{self.value}"


@dataclass(frozen=True)
class LexiconType:
    name: str
    axes: tuple[str, ...]


@dataclass(frozen=True)
class Lexicon:
    """Abnormality types with their ordered descriptor axes.

    The hierarchy induces one category level per type/axis pair, plus the
    coarse ``type`` level and the fine ``combined`` level (type and all axis
    values joined by ``-`` in declared axis order).
    """

    types: tuple[LexiconType, ...]

    def type_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.types)

    def axes_for(self, type_name: str) -> tuple[str, ...]:
        for t in self.types:
            if t.name == type_name:
                return t.axes
        raise KeyError(f"unknown abnormality type: {type_name!r}")

    def levels(self) -> tuple[str, ...]:
        out = [TYPE_LEVEL]
        for t in self.types:
            out.extend(axis_level_name(t.name, axis) for axis in t.axes)
        out.append(COMBINED_LEVEL)
        return tuple(out)


@dataclass(frozen=True)
class ROIAnnotation:
    """One annotated abnormality box. bbox is (x_min, y_min, x_max, y_max) pixels."""

    bbox: tuple[int, int, int, int]
    abnormality_type: str = field(metadata={"json": "type"})
    descriptors: Mapping[str, str]
    roi_class: int


@dataclass(frozen=True)
class AnnotatedImage:
    image_id: str
    width: int
    height: int
    split: str
    class_label: int
    rois: tuple[ROIAnnotation, ...]


@dataclass(frozen=True)
class AnnotationSet:
    class_names: tuple[str, ...]
    images: tuple[AnnotatedImage, ...]

    def by_id(self) -> dict[str, AnnotatedImage]:
        return {img.image_id: img for img in self.images}


@dataclass(frozen=True)
class PrototypeRecord:
    prototype_id: str = field(metadata={"json": "id"})
    class_weights: tuple[float, ...]


@dataclass(frozen=True)
class ActivationEntry:
    """Maximal activation of one prototype on one image (feature-map cell)."""

    prototype_id: str
    score: float
    row: int
    col: int


@dataclass(frozen=True, eq=False)
class ActivationTable:
    """Every activation of a dump as numpy columns, one row per entry, in
    image order and, within an image, in entry order.

    The rows of image ``i`` are ``offsets[i]:offsets[i + 1]``, and ``proto``
    indexes ``prototype_ids`` (the dump's prototypes). No column names a
    row's image: :meth:`image_of` finds it from the offsets for the rows
    that need it, and :meth:`per_row` spreads a value per image over the
    rows.
    """

    prototype_ids: tuple[str, ...]
    offsets: np.ndarray  # intp, one more than the images
    proto: np.ndarray  # intp
    score: np.ndarray  # float64
    row: np.ndarray  # int64
    col: np.ndarray  # int64

    @classmethod
    def from_columns(
        cls,
        prototype_ids: tuple[str, ...],
        counts: Sequence[int],
        proto: Sequence[int],
        score: Sequence[float],
        row: Sequence[int],
        col: Sequence[int],
    ) -> ActivationTable:
        """The table of images holding ``counts[i]`` entries each, from the
        concatenated entry columns; a column already an array of its dtype
        is kept, not copied."""
        import numpy as np  # off the import path

        offsets = np.zeros(len(counts) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            prototype_ids,
            offsets,
            np.asarray(proto, dtype=np.intp),
            np.asarray(score, dtype=np.float64),
            np.asarray(row, dtype=np.int64),
            np.asarray(col, dtype=np.int64),
        )

    def image_of(self, rows: np.ndarray) -> np.ndarray:
        """The image index of each of ``rows``."""
        return self.offsets.searchsorted(rows, side="right") - 1

    def per_row(self, values: np.ndarray) -> np.ndarray:
        """``values``, an array of one per image, repeated over each image's
        rows."""
        return values.repeat(self.offsets[1:] - self.offsets[:-1])


class ActivationView(Sequence):
    """The entries of image ``index`` of an :class:`ActivationTable`, read as
    a tuple of :class:`ActivationEntry` (equal to the tuple of the same
    entries)."""

    __slots__ = ("table", "index")

    def __init__(self, table: ActivationTable, index: int) -> None:
        self.table = table
        self.index = index

    def _rows(self) -> slice:
        return slice(self.table.offsets[self.index], self.table.offsets[self.index + 1])

    def __len__(self) -> int:
        rows = self._rows()
        return int(rows.stop - rows.start)

    def __iter__(self) -> Iterator[ActivationEntry]:
        t, rows = self.table, self._rows()
        ids = t.prototype_ids
        for p, score, row, col in zip(
            t.proto[rows].tolist(), t.score[rows].tolist(),
            t.row[rows].tolist(), t.col[rows].tolist(),
        ):
            yield ActivationEntry(ids[p], score, row, col)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self)[j]
        n = len(self)
        if not -n <= j < n:
            raise IndexError("entry index out of range")
        t, r = self.table, self._rows().start + j % n
        return ActivationEntry(
            t.prototype_ids[t.proto[r]], float(t.score[r]), int(t.row[r]), int(t.col[r])
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, ActivationView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class ImageActivationRecord:
    image_id: str
    split: str
    width: int
    height: int
    class_label: int
    feature_h: int
    feature_w: int
    entries: Sequence[ActivationEntry]  # a tuple, or a view of the dump's table


@dataclass(frozen=True)
class EvidenceDump:
    """One model run's prototypes, classification weights, and activations."""

    model_name: str
    seed: int
    class_names: tuple[str, ...]
    prototypes: tuple[PrototypeRecord, ...]
    images: tuple[ImageActivationRecord, ...]

    @cached_property
    def activations(self) -> ActivationTable:
        """Every entry as one table. A parsed dump comes with the table its
        entries view; a dump built in code derives it once from its records
        (an entry naming an unknown prototype raises ``KeyError``)."""
        prototype_ids = tuple(p.prototype_id for p in self.prototypes)
        index = {pid: i for i, pid in enumerate(prototype_ids)}
        entries = [e for img in self.images for e in img.entries]
        return ActivationTable.from_columns(
            prototype_ids,
            [len(img.entries) for img in self.images],
            [index[e.prototype_id] for e in entries],
            [e.score for e in entries],
            [e.row for e in entries],
            [e.col for e in entries],
        )

    def weights_by_id(self) -> dict[str, tuple[float, ...]]:
        return {p.prototype_id: p.class_weights for p in self.prototypes}

    def split_images(self, split: str) -> tuple[ImageActivationRecord, ...]:
        return tuple(img for img in self.images if img.split == split)


def categories_for_roi(lexicon: Lexicon, roi: ROIAnnotation) -> dict[str, CategoryId]:
    """Map each level the ROI participates in to its CategoryId.

    An ROI contributes to the type level, to the axis levels of its own type
    (missing values become the ``na`` token), and to the combined level. It
    contributes nothing to other types' axis levels.
    """
    out = {TYPE_LEVEL: CategoryId(TYPE_LEVEL, roi.abnormality_type)}
    parts = [roi.abnormality_type]
    for axis in lexicon.axes_for(roi.abnormality_type):
        value = roi.descriptors.get(axis, MISSING_VALUE)
        out[axis_level_name(roi.abnormality_type, axis)] = CategoryId(
            axis_level_name(roi.abnormality_type, axis), value
        )
        parts.append(value)
    out[COMBINED_LEVEL] = CategoryId(COMBINED_LEVEL, "-".join(parts))
    return out
