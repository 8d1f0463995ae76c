"""Immutable domain records: evidence dumps, ROI annotations, and the lexicon.

Everything here is a plain value object. Parsing, validation, and
serialization live in :mod:`pefcoh.dumpio`; these records assume their
invariants already hold. A record stored in a file lists its fields in the
order the file format writes them, and a field whose JSON key differs from
its name carries that key as ``metadata["json"]`` (see ``dumpio.to_json``).

A dump holds its activations and its prototypes' class weights as one
columnar :class:`ActivationTable`, which the metrics, the dump writer and
the brute-force oracle read, and is built with it, by the dump parser or the
synth generator. A dump compares by its table, and an image record by its
header. Each image's ``entries`` is an :class:`ActivationView` of its rows,
which no module of the package reads: it serves only the benchmark's traced
counts, which take its length and read each entry's prototype id.

This module imports no numpy: the table's columns are numpy arrays, but only
:meth:`ActivationTable.from_columns` builds them (the table's other methods
call the arrays' own methods), so a reader of report files (``compare``)
never loads the array code.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class ActivationTable:
    """Every activation of a dump as numpy columns, one row per entry, in
    image order and, within an image, in entry order.

    The rows of image ``i`` are ``offsets[i]:offsets[i + 1]``, and ``proto``
    indexes ``prototype_ids`` (the dump's prototypes) and the rows of
    ``weights``, their class weights. No column names a row's image:
    :meth:`image_of` finds it from the offsets for the rows that need it.
    A stage that reads the table in pieces reads runs of whole images
    (:func:`pefcoh.columns._image_runs`).

    Two tables are equal when their prototype ids and all their columns
    are; a table is not hashable.
    """

    prototype_ids: tuple[str, ...]
    weights: np.ndarray  # float64, (prototype, class)
    offsets: np.ndarray  # intp, one more than the images
    proto: np.ndarray  # intp
    score: np.ndarray  # float64
    row: np.ndarray  # int64
    col: np.ndarray  # int64

    @classmethod
    def from_columns(
        cls,
        prototypes: Sequence[PrototypeRecord],
        n_classes: int,
        counts: Sequence[int],
        proto: Sequence[int],
        score: Sequence[float],
        row: Sequence[int],
        col: Sequence[int],
    ) -> ActivationTable:
        """The table of images holding ``counts[i]`` entries each, from the
        concatenated entry columns, whose prototype indices index
        ``prototypes``, each with ``n_classes`` class weights; a column
        already an array of its dtype is kept, not copied."""
        import numpy as np  # off the import path

        offsets = np.zeros(len(counts) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            tuple(p.prototype_id for p in prototypes),
            np.array([p.class_weights for p in prototypes],
                     dtype=np.float64).reshape(len(prototypes), n_classes),
            offsets,
            np.asarray(proto, dtype=np.intp),
            np.asarray(score, dtype=np.float64),
            np.asarray(row, dtype=np.int64),
            np.asarray(col, dtype=np.int64),
        )

    def image_of(self, rows: np.ndarray) -> np.ndarray:
        """The image index of each of ``rows``."""
        image = self.offsets.searchsorted(rows, side="right")
        image -= 1  # in place: one array as long as the rows, not two
        return image

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivationTable):
            return NotImplemented
        return self.prototype_ids == other.prototype_ids and all(
            a.shape == b.shape and bool((a == b).all())
            for a, b in (
                (self.weights, other.weights), (self.offsets, other.offsets),
                (self.proto, other.proto), (self.score, other.score),
                (self.row, other.row), (self.col, other.col),
            )
        )


@dataclass(frozen=True)
class ActivationEntry:
    """Maximal activation of one prototype on one image (feature-map cell),
    as an :class:`ActivationView` yields it."""

    prototype_id: str
    score: float
    row: int
    col: int


class ActivationView:
    """The entries of image ``index`` of an :class:`ActivationTable`: its
    number of rows, and each row read as an :class:`ActivationEntry`."""

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


@dataclass(frozen=True)
class ImageActivationRecord:
    image_id: str
    split: str
    width: int
    height: int
    class_label: int
    feature_h: int
    feature_w: int
    entries: ActivationView = field(compare=False, repr=False)  # its rows of the dump's table


@dataclass(frozen=True)
class EvidenceDump:
    """One model run's prototypes, classification weights, and activations.

    ``activations`` is every entry and class weight as one table, which the
    images' entries view, image ``i`` its rows ``i``; two dumps with equal
    fields compare by it, and a dump is not hashable. A dump whose images do
    not view its own table in their order raises ValueError naming the first
    image that does not.
    """

    model_name: str
    seed: int
    class_names: tuple[str, ...]
    prototypes: tuple[PrototypeRecord, ...]
    images: tuple[ImageActivationRecord, ...]
    activations: ActivationTable = field(repr=False)

    def __post_init__(self) -> None:
        n = len(self.activations.offsets) - 1
        if n != len(self.images):
            raise ValueError(f"the dump's table holds {n} images, not {len(self.images)}")
        for i, img in enumerate(self.images):
            entries = img.entries
            if not (isinstance(entries, ActivationView)
                    and entries.table is self.activations and entries.index == i):
                raise ValueError(
                    f"images[{i}] ({img.image_id!r}): its entries are not "
                    f"image {i} of the dump's table"
                )


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
