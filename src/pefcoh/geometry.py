"""Pixel-space rectangle geometry with exact rational arithmetic.

Boxes use a half-open convention: pixel (x, y) is inside iff
x_min <= x < x_max and y_min <= y < y_max. Box edges are
:class:`fractions.Fraction`. Union and intersection areas are exact integer
sums over the cells of one coordinate-compressed grid whose edges are scaled
by their common denominator, so IoU/DSC values are exact rationals, reduced
to a float once, and identical across platforms.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .records import ROIAnnotation

logger = logging.getLogger(__name__)

Number = int | Fraction


@dataclass(frozen=True)
class PatchBox:
    """Axis-aligned half-open rectangle in pixel coordinates."""

    x_min: Fraction
    y_min: Fraction
    x_max: Fraction
    y_max: Fraction

    def __post_init__(self) -> None:
        for name in ("x_min", "y_min", "x_max", "y_max"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate box: {self.as_tuple()}")

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    def as_floats(self) -> tuple[float, float, float, float]:
        return tuple(float(v) for v in self.as_tuple())

    def area(self) -> Fraction:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def center(self) -> tuple[Fraction, Fraction]:
        return ((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)


RegionSet = Sequence[PatchBox]


def contains_point(box: PatchBox, x: Number | float, y: Number | float) -> bool:
    """Half-open containment test."""
    return box.x_min <= x < box.x_max and box.y_min <= y < box.y_max


def roi_center(roi: ROIAnnotation) -> tuple[Fraction, Fraction]:
    x_min, y_min, x_max, y_max = roi.bbox
    return (Fraction(x_min + x_max, 2), Fraction(y_min + y_max, 2))


# A pure function of seven ints returning a frozen box: one dump repeats the
# same few thousand (cell, feature map, image size) keys tens of thousands of
# times across top-k evidence and localization.
@functools.lru_cache(maxsize=4096)
def resolve_patch_box(
    loc_row: int,
    loc_col: int,
    feature_h: int,
    feature_w: int,
    image_width: int,
    image_height: int,
    patch_size: int,
) -> PatchBox:
    """Map a feature-map cell to a fixed-size patch box in pixel space.

    The box has side ``patch_size`` and is centered on the cell center
    mapped into pixel coordinates. A box that overhangs the image is
    translated (not shrunk) back inside; only when an image dimension is
    smaller than ``patch_size`` does the box span that full dimension.
    """
    if not (0 <= loc_row < feature_h and 0 <= loc_col < feature_w):
        raise ValueError(
            f"activation location ({loc_row}, {loc_col}) out of feature map "
            f"{feature_h}x{feature_w}"
        )
    if patch_size < 1:
        raise ValueError(f"patch_size must be >= 1, got {patch_size}")

    center_x = Fraction((2 * loc_col + 1) * image_width, 2 * feature_w)
    center_y = Fraction((2 * loc_row + 1) * image_height, 2 * feature_h)
    x_min, x_max = _fit_span(center_x, patch_size, image_width)
    y_min, y_max = _fit_span(center_y, patch_size, image_height)
    return PatchBox(x_min, y_min, x_max, y_max)


def _fit_span(center: Fraction, size: int, limit: int) -> tuple[Fraction, Fraction]:
    if limit <= size:
        return Fraction(0), Fraction(limit)
    half = Fraction(size, 2)
    lo, hi = center - half, center + half
    if lo < 0:
        return Fraction(0), Fraction(size)
    if hi > limit:
        return Fraction(limit - size), Fraction(limit)
    return lo, hi


def _compress(values: list[Fraction]) -> tuple[list[int], np.ndarray, int]:
    """Cell index of each edge on one axis, the cell sides as integers, and the
    scale (common denominator) that makes them integers. Positions count from
    the smallest edge; one past int64 raises ``OverflowError``, which
    :func:`pefcoh.records.fits_exact_grid` rules out for a parsed dump."""
    scale = math.lcm(*{v.denominator for v in values})
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    base = min(scaled)
    edges, index = np.unique(np.array([v - base for v in scaled], dtype=np.int64),
                             return_inverse=True)
    return index.tolist(), np.diff(edges), scale


def _areas(a: RegionSet, b: RegionSet) -> tuple[Fraction, Fraction, Fraction]:
    """Exact areas of union(a), union(b) and their intersection, from one grid
    cut by all box edges (Klee's measure on compressed coordinates)."""
    boxes = [*a, *b]
    if not boxes:
        return Fraction(0), Fraction(0), Fraction(0)
    xi, dx, sx = _compress([v for box in boxes for v in (box.x_min, box.x_max)])
    yi, dy, sy = _compress([v for box in boxes for v in (box.y_min, box.y_max)])
    masks = np.zeros((3, len(dy), len(dx)), dtype=bool)
    for n in range(len(boxes)):
        masks[int(n >= len(a)), yi[2 * n]:yi[2 * n + 1], xi[2 * n]:xi[2 * n + 1]] = True
    masks[2] = masks[0] & masks[1]
    # row widths stay within the x extent (int64); their products are Python ints
    heights = dy.tolist()
    return tuple(
        Fraction(sum(w * h for w, h in zip(widths, heights)), sx * sy)
        for widths in (masks @ dx).tolist()
    )


def union_area(boxes: RegionSet) -> Fraction:
    """Exact area of the union of ``boxes``."""
    return _areas(boxes, ())[0]


def intersection_area(a: RegionSet, b: RegionSet) -> Fraction:
    """Exact area of union(a) ∩ union(b)."""
    return _areas(a, b)[2]


def iou_dsc_exact(a: RegionSet, b: RegionSet) -> tuple[Fraction, Fraction]:
    """IoU and DSC between the unions of two box sets, as exact rationals.

    Both are 0 when either set covers no area; the doubly-empty case is
    degenerate and logged.
    """
    area_a, area_b, inter = _areas(a, b)
    if area_a == 0 or area_b == 0:
        if area_a == area_b:
            logger.debug("iou/dsc over two empty region sets; returning 0")
        return Fraction(0), Fraction(0)
    union = area_a + area_b - inter
    return inter / union, 2 * inter / (area_a + area_b)


def iou_dsc(a: RegionSet, b: RegionSet) -> tuple[float, float]:
    i, d = iou_dsc_exact(a, b)
    return float(i), float(d)


def iou(a: RegionSet, b: RegionSet) -> float:
    return iou_dsc(a, b)[0]


def dsc(a: RegionSet, b: RegionSet) -> float:
    return iou_dsc(a, b)[1]
