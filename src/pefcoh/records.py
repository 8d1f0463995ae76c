"""Immutable domain records: evidence dumps, ROI annotations, and the lexicon.

Everything here is a plain value object. Parsing, validation, and
serialization live in :mod:`pefcoh.dumpio`; these records assume their
invariants already hold. A record stored in a file lists its fields in the
order the file format writes them, and a field whose JSON key differs from
its name carries that key as ``metadata["json"]`` (see ``jsonio.to_json``).

A dump holds its activations and its prototypes' class weights as one
columnar :class:`ActivationTable`, which the metrics, the dump writer and
the brute-force oracle read. It is built from its run header, its image
headers and that table, by the dump parser or the synth generator, and
derives the rest: each image's record, whose ``entries`` is an
:class:`ActivationView` of its rows, and its prototypes, read from the
table's ids and weight rows. A dump compares by its table, and an image
record by its header. No module of the package reads an image's
``entries``: they serve only the benchmark's traced counts, which take
their length and read each entry's prototype id.

A category is its value string at one level of the lexicon hierarchy, such
as ``"mass"`` at the type level or ``"mass-oval-circumscribed"`` at the
combined level. Its level is the key every mapping stores it under (see
:func:`categories_for_roi`), so it is not stored again.

The split names (``TRAIN``, ``TEST``, ``SPLITS``) and ``COMBINED_LEVEL``
are defined in :mod:`pefcoh.scores`, beside the run config that names them,
and imported here: ``compare`` reads them there and never builds these
records.

This module imports no numpy: the table's columns are numpy arrays, but only
:meth:`ActivationTable.from_columns` builds them (the table's other methods
call the arrays' own methods), so loading the records loads no array code.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple

# the split and level names, defined with the run config; re-exported from here
from .scores import COMBINED_LEVEL, SPLITS, TEST, TRAIN  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

# Token used in category values when an ROI lacks a declared descriptor axis.
MISSING_VALUE = "na"

TYPE_LEVEL = "type"


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


class ActivationEntry(NamedTuple):
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
        return map(
            ActivationEntry, map(t.prototype_ids.__getitem__, t.proto[rows].tolist()),
            t.score[rows].tolist(), t.row[rows].tolist(), t.col[rows].tolist(),
        )


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
    """One model run: its name and seed, its class names, and every entry
    and prototype class weight as one :class:`ActivationTable`.

    The dump is built from its run header, its image headers and its table;
    the rest is derived. ``headers`` holds each image's ``(image_id, split,
    width, height, class_label, feature_h, feature_w)``, image ``i`` owning
    the table's rows ``i``, and a count of headers other than the table's
    images raises ValueError. ``images`` is then each header's
    :class:`ImageActivationRecord`, its ``entries`` a view of its rows, and
    :attr:`prototypes` reads the table's ids and weight rows. Two dumps with
    equal fields compare by their table; a dump is not hashable.
    """

    model_name: str
    seed: int
    class_names: tuple[str, ...]
    headers: InitVar[Iterable[tuple[str, str, int, int, int, int, int]]]
    activations: ActivationTable = field(repr=False)
    images: tuple[ImageActivationRecord, ...] = field(init=False)

    def __post_init__(self, headers: Iterable[tuple[str, str, int, int, int, int, int]]) -> None:
        table = self.activations
        images = tuple(ImageActivationRecord(*header, ActivationView(table, i))
                       for i, header in enumerate(headers))
        n = len(table.offsets) - 1
        if n != len(images):
            raise ValueError(f"the dump's table holds {n} images, not {len(images)}")
        object.__setattr__(self, "images", images)

    @property
    def prototypes(self) -> tuple[PrototypeRecord, ...]:
        """Each prototype of the table, with its row of class weights."""
        t = self.activations
        return tuple(map(PrototypeRecord, t.prototype_ids, map(tuple, t.weights.tolist())))


def categories_for_roi(lexicon: Lexicon, roi: ROIAnnotation) -> dict[str, str]:
    """Map each level the ROI participates in to its category there, e.g.
    ``"mass-oval-circumscribed"`` at the combined level.

    An ROI contributes to the type level, to the axis levels of its own type
    (missing values become the ``na`` token), and to the combined level. It
    contributes nothing to other types' axis levels.
    """
    out = {TYPE_LEVEL: roi.abnormality_type}
    parts = [roi.abnormality_type]
    for axis in lexicon.axes_for(roi.abnormality_type):
        value = roi.descriptors.get(axis, MISSING_VALUE)
        out[axis_level_name(roi.abnormality_type, axis)] = value
        parts.append(value)
    out[COMBINED_LEVEL] = "-".join(parts)
    return out
