"""Pixel-space rectangle geometry, exact, on an integer patch lattice.

Boxes use a half-open convention: pixel (x, y) is inside iff
x_min <= x < x_max and y_min <= y < y_max.

On an image of ``width`` x ``height`` pixels whose feature map has
``feature_h`` x ``feature_w`` cells, every patch edge is a whole multiple of
``1 / (2 * feature_w)`` on x and of ``1 / (2 * feature_h)`` on y: a cell
center is ``(2 * c + 1) * side / (2 * cells)``, half a patch adds a
denominator of 2, and a shifted or clipped edge is an integer. ROI edges are
integers too. So the image's patch lattice, with scale ``2 * feature_w`` on
x and ``2 * feature_h`` on y, holds every patch and ROI edge as an integer:
:func:`patch_lattice` resolves many cells at once as int64 edges on it, and
:func:`resolve_patch_box` is the same arithmetic on one cell, returned as a
:class:`PatchBox` of :class:`fractions.Fraction` edges.

Union and intersection areas are exact integer sums over the cells of one
coordinate-compressed grid cut by the boxes' lattice edges, so the only
rational is the final IoU/DSC ratio: exact, reduced to a float once, and
identical across platforms. :func:`pefcoh.records.fits_exact_grid` keeps
each image's lattice within int64.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .records import ROIAnnotation, fits_exact_grid

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


# Box sets: PatchBox sequences, or (n, 4) int64 arrays of edges
# (x_min, y_min, x_max, y_max) on one patch lattice.
RegionSet = Sequence[PatchBox] | np.ndarray


def contains_point(box: PatchBox, x: Number | float, y: Number | float) -> bool:
    """Half-open containment test."""
    return box.x_min <= x < box.x_max and box.y_min <= y < box.y_max


def roi_center(roi: ROIAnnotation) -> tuple[Fraction, Fraction]:
    x_min, y_min, x_max, y_max = roi.bbox
    return (Fraction(x_min + x_max, 2), Fraction(y_min + y_max, 2))


# ---------------------------------------------------------------------------
# the patch lattice


def _clip(value: int, lo: int, hi: int) -> int:
    return min(max(value, lo), hi)


def _span(cell, cells, side, size, clip):
    """Edges, in units of ``1 / (2 * cells)`` pixel, of a patch side of
    ``size <= side`` pixels centered on cell ``cell`` of ``cells`` along an
    image side of ``side`` pixels and translated (not shrunk) back inside the
    image. Works alike on ints (``clip`` is :func:`_clip`) and on int64
    arrays (``np.clip``)."""
    length = 2 * cells * size
    lo = clip((2 * cell + 1) * side - cells * size, 0, 2 * cells * side - length)
    return lo, lo + length


def lattice_sizes(sizes: Sequence[tuple[int, int, int, int]]) -> np.ndarray:
    """Per image ``(feature_h, feature_w, width, height)`` as an ``(n, 4)``
    int64 array, checked before any lattice arithmetic: an image whose
    lattice leaves int64 (see :func:`pefcoh.records.fits_exact_grid`), which
    only a dump built in code can hold, raises ``OverflowError``."""
    for feature_h, feature_w, width, height in sizes:
        if not (fits_exact_grid(width, feature_w) and fits_exact_grid(height, feature_h)):
            raise OverflowError(
                f"image {width}x{height} with feature map {feature_h}x{feature_w} "
                "is too large for exact geometry"
            )
    return np.array(sizes, dtype=np.int64).reshape(-1, 4)


def patch_lattice(
    rows: np.ndarray,
    cols: np.ndarray,
    feature_h: np.ndarray,
    feature_w: np.ndarray,
    width: np.ndarray,
    height: np.ndarray,
    patch_size: int,
) -> np.ndarray:
    """The patch boxes of many cells at once, as an ``(n, 4)`` int64 array of
    edges ``(x_min, y_min, x_max, y_max)``, each on its own image's lattice:
    divided by ``2 * feature_w`` and ``2 * feature_h``, they are the edges of
    :func:`resolve_patch_box`.

    Every argument but ``patch_size`` is an int64 array with one value per
    cell; the image sizes come from :func:`lattice_sizes`.
    """
    if not len(rows):
        return np.empty((0, 4), dtype=np.int64)
    # the checks of resolve_patch_box, over all cells
    bad = ~((0 <= rows) & (rows < feature_h) & (0 <= cols) & (cols < feature_w))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(
            f"activation location ({rows[j]}, {cols[j]}) out of feature map "
            f"{feature_h[j]}x{feature_w[j]}"
        )
    if patch_size < 1:
        raise ValueError(f"patch_size must be >= 1, got {patch_size}")
    # a patch is at most an image side; clamped here, a huge patch_size never meets int64
    size = min(patch_size, int(max(width.max(), height.max())))
    x_min, x_max = _span(cols, feature_w, width, np.minimum(size, width), np.clip)
    y_min, y_max = _span(rows, feature_h, height, np.minimum(size, height), np.clip)
    return np.stack((x_min, y_min, x_max, y_max), axis=1)


# A pure function of seven ints returning a frozen box: one dump repeats the
# same few thousand (cell, feature map, image size) keys across its top-k
# evidence.
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
    x_min, x_max = _span(loc_col, feature_w, image_width, min(patch_size, image_width), _clip)
    y_min, y_max = _span(loc_row, feature_h, image_height, min(patch_size, image_height), _clip)
    sx, sy = 2 * feature_w, 2 * feature_h
    return PatchBox(Fraction(x_min, sx), Fraction(y_min, sy),
                    Fraction(x_max, sx), Fraction(y_max, sy))


# ---------------------------------------------------------------------------
# exact areas


def _scaled(values: list[Fraction]) -> tuple[list[int], int]:
    """One axis's edges as integers: scaled by their common denominator and
    counted from the smallest edge, with that scale."""
    scale = math.lcm(*{v.denominator for v in values})
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    base = min(scaled)
    return [v - base for v in scaled], scale


def _on_lattice(
    a: Sequence[PatchBox], b: Sequence[PatchBox]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Two box sequences as edge arrays on their common lattice, each axis
    scaled by the common denominator of its edges, with the number of lattice
    cells in one square pixel (the product of the scales). An edge one past
    int64 raises ``OverflowError``, which
    :func:`pefcoh.records.fits_exact_grid` rules out for a parsed dump."""
    boxes = [*a, *b]
    if not boxes:
        return np.empty((0, 4), dtype=np.int64), np.empty((0, 4), dtype=np.int64), 1
    xs, sx = _scaled([v for box in boxes for v in (box.x_min, box.x_max)])
    ys, sy = _scaled([v for box in boxes for v in (box.y_min, box.y_max)])
    edges = np.array(list(zip(xs[0::2], ys[0::2], xs[1::2], ys[1::2])), dtype=np.int64)
    return edges[: len(a)], edges[len(a):], sx * sy


def _areas(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    """Areas, in lattice cells, of union(a), union(b) and their intersection,
    for edge arrays on one lattice, from one grid cut by all box edges
    (Klee's measure on compressed coordinates)."""
    boxes = np.concatenate((a, b))
    if not len(boxes):
        return 0, 0, 0
    xs, xi = np.unique(boxes[:, 0::2].ravel(), return_inverse=True)
    ys, yi = np.unique(boxes[:, 1::2].ravel(), return_inverse=True)
    xi, yi = xi.reshape(-1, 2).tolist(), yi.reshape(-1, 2).tolist()
    masks = np.zeros((3, len(ys) - 1, len(xs) - 1), dtype=bool)
    for which, (x0, x1), (y0, y1) in zip([0] * len(a) + [1] * len(b), xi, yi):
        masks[which, y0:y1, x0:x1] = True
    masks[2] = masks[0] & masks[1]
    # row widths stay within the x extent (int64); their products are Python ints
    heights = np.diff(ys).tolist()
    return tuple(
        sum(w * h for w, h in zip(widths, heights))
        for widths in (masks @ np.diff(xs)).tolist()
    )


def union_area(boxes: Sequence[PatchBox]) -> Fraction:
    """Exact area of the union of ``boxes``."""
    a, b, scale = _on_lattice(boxes, ())
    return Fraction(_areas(a, b)[0], scale)


def intersection_area(a: Sequence[PatchBox], b: Sequence[PatchBox]) -> Fraction:
    """Exact area of union(a) ∩ union(b)."""
    a, b, scale = _on_lattice(a, b)
    return Fraction(_areas(a, b)[2], scale)


def iou_dsc_exact(a: RegionSet, b: RegionSet) -> tuple[Fraction, Fraction]:
    """IoU and DSC between the unions of two box sets, as exact rationals.

    The sets are two edge arrays on one lattice, or two :class:`PatchBox`
    sequences. Both results are 0 when either set covers no area; the
    doubly-empty case is degenerate and logged.
    """
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        a, b, _ = _on_lattice(a, b)
    area_a, area_b, inter = _areas(a, b)
    if area_a == 0 or area_b == 0:
        if area_a == area_b:
            logger.debug("iou/dsc over two empty region sets; returning 0")
        return Fraction(0), Fraction(0)
    return Fraction(inter, area_a + area_b - inter), Fraction(2 * inter, area_a + area_b)


def iou_dsc(a: RegionSet, b: RegionSet) -> tuple[float, float]:
    i, d = iou_dsc_exact(a, b)
    return float(i), float(d)


def iou(a: RegionSet, b: RegionSet) -> float:
    return iou_dsc(a, b)[0]


def dsc(a: RegionSet, b: RegionSet) -> float:
    return iou_dsc(a, b)[1]
