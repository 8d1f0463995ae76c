"""Immutable domain records: evidence dumps, ROI annotations, and the lexicon.

Everything here is a plain value object. Parsing, validation, and
serialization live in :mod:`pefcoh.dumpio`; these records assume their
invariants already hold. A record stored in a file lists its fields in the
order the file format writes them, and a field whose JSON key differs from
its name carries that key as ``metadata["json"]`` (see ``dumpio.to_json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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


@dataclass(frozen=True)
class ImageActivationRecord:
    image_id: str
    split: str
    width: int
    height: int
    class_label: int
    feature_h: int
    feature_w: int
    entries: tuple[ActivationEntry, ...]


@dataclass(frozen=True)
class EvidenceDump:
    """One model run's prototypes, classification weights, and activations."""

    model_name: str
    seed: int
    class_names: tuple[str, ...]
    prototypes: tuple[PrototypeRecord, ...]
    images: tuple[ImageActivationRecord, ...]

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
