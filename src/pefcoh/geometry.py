"""Pixel-space rectangle geometry, exact, on an integer patch lattice.

Boxes use a half-open convention: pixel (x, y) is inside iff
x_min <= x < x_max and y_min <= y < y_max.

On an image of ``width`` x ``height`` pixels whose feature map has
``feature_h`` x ``feature_w`` cells, every patch edge is a whole multiple of
``1 / (2 * feature_w)`` on x and of ``1 / (2 * feature_h)`` on y: a cell
center is ``(2 * c + 1) * side / (2 * cells)``, half a patch adds a
denominator of 2, and a shifted or clipped edge is an integer. ROI edges are
integers too. So the image's patch lattice, with scale ``2 * feature_w`` on
x and ``2 * feature_h`` on y, holds every patch and ROI edge as an integer.
:func:`patch_lattice` is the one mapping from cells to patches: it resolves
many cells at once as int64 edges on that lattice. :func:`resolve_patch_box`
turns one such patch into pixel edges: each lattice edge over its scale,
correctly rounded to a float.

Union and intersection areas are exact integer sums over the cells of one
coordinate-compressed grid cut by the boxes' lattice edges, so the only
rational is the final IoU/DSC ratio: exact, reduced to a float once, and
identical across platforms. :func:`pefcoh.records.fits_exact_grid` keeps
each image's lattice within int64.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .records import fits_exact_grid

# ---------------------------------------------------------------------------
# the patch lattice


def _span(cell, cells, side, size):
    """Edges, in units of ``1 / (2 * cells)`` pixel, of a patch side of
    ``size <= side`` pixels centered on cell ``cell`` of ``cells`` along an
    image side of ``side`` pixels and translated (not shrunk) back inside the
    image; every argument is an int64 array."""
    length = 2 * cells * size
    lo = np.clip((2 * cell + 1) * side - cells * size, 0, 2 * cells * side - length)
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
    edges ``(x_min, y_min, x_max, y_max)``, each on its own image's lattice
    (:func:`resolve_patch_box` turns a row into pixel edges). A box of side
    ``patch_size`` is centered on its cell's center and translated (not
    shrunk) back inside the image; it spans an image side shorter than
    ``patch_size``.

    Every argument but ``patch_size`` is an int64 array with one value per
    cell; the image sizes come from :func:`lattice_sizes`. A cell outside its
    feature map, or a ``patch_size`` below 1, raises ``ValueError``.
    """
    if not len(rows):
        return np.empty((0, 4), dtype=np.int64)
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
    x_min, x_max = _span(cols, feature_w, width, np.minimum(size, width))
    y_min, y_max = _span(rows, feature_h, height, np.minimum(size, height))
    return np.stack((x_min, y_min, x_max, y_max), axis=1)


def resolve_patch_box(
    x_min: int, y_min: int, x_max: int, y_max: int, feature_h: int, feature_w: int
) -> tuple[float, float, float, float]:
    """The pixel edges ``(x_min, y_min, x_max, y_max)`` of one patch given by
    its lattice edges (a row of :func:`patch_lattice`) on an image whose
    feature map has ``feature_h`` x ``feature_w`` cells: each edge over its
    scale, ``2 * feature_w`` or ``2 * feature_h``, as an ``int / int``
    division, which is correctly rounded at any size."""
    sx, sy = 2 * feature_w, 2 * feature_h
    return x_min / sx, y_min / sy, x_max / sx, y_max / sy


# ---------------------------------------------------------------------------
# exact areas


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


def iou_dsc_exact(a: np.ndarray, b: np.ndarray) -> tuple[Fraction, Fraction]:
    """IoU and DSC between the unions of two box sets, given as edge arrays
    on one lattice, as exact rationals.

    Both results are 0 when either set covers no area, the degenerate case
    of two empty sets included.
    """
    area_a, area_b, inter = _areas(a, b)
    if area_a == 0 or area_b == 0:
        return Fraction(0), Fraction(0)
    return Fraction(inter, area_a + area_b - inter), Fraction(2 * inter, area_a + area_b)
