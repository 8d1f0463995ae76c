import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pefcoh.geometry import (
    _areas,
    iou_dsc_exact,
    lattice_sizes,
    patch_lattice,
    resolve_patch_box,
)
import helpers
from helpers import PatchBox


def edges(boxes):
    """Integer boxes ``(x_min, y_min, x_max, y_max)`` as an int64 edge array."""
    return np.array(boxes, dtype=np.int64).reshape(-1, 4)


def rasterized_area(boxes, side=512):
    """Independent pixel-count oracle for integer-coordinate boxes."""
    mask = np.zeros((side, side), dtype=bool)
    for x0, y0, x1, y1 in boxes:
        mask[y0:y1, x0:x1] = True
    return int(mask.sum())


def int_boxes(max_side=512):
    def build(draw):
        x0 = draw(st.integers(0, max_side - 1))
        y0 = draw(st.integers(0, max_side - 1))
        x1 = draw(st.integers(x0 + 1, max_side))
        y1 = draw(st.integers(y0 + 1, max_side))
        return (x0, y0, x1, y1)

    return st.composite(build)()


def fractional_boxes(denominators=(1, 2, 3, 48, 96)):
    """Reference boxes whose every edge is n/d, with d drawn per edge from
    ``denominators``."""
    def build(draw):
        def part(low):
            return Fraction(draw(st.integers(low, 200)), draw(st.sampled_from(denominators)))

        x0, y0 = part(0), part(0)
        return PatchBox(x0, y0, x0 + part(1), y0 + part(1))

    return st.composite(build)()


def on_lattice(a, b):
    """Two sequences of reference boxes as int64 edge arrays on one lattice:
    each axis scaled by the common denominator of its edges. Returns the
    arrays and the number of lattice cells in one square pixel."""
    boxes = [*a, *b]
    sx = math.lcm(1, *(v.denominator for box in boxes for v in (box.x_min, box.x_max)))
    sy = math.lcm(1, *(v.denominator for box in boxes for v in (box.y_min, box.y_max)))
    scaled = edges([(int(box.x_min * sx), int(box.y_min * sy),
                     int(box.x_max * sx), int(box.y_max * sy)) for box in boxes])
    return scaled[: len(a)], scaled[len(a):], sx * sy


def iou_dsc(a, b):
    i, d = iou_dsc_exact(edges(a), edges(b))
    return float(i), float(d)


def pixel_patch(row, col, feature_h, feature_w, width, height, patch_size):
    """One cell's patch as pixel edges, as evaluate resolves it: the cell
    through :func:`patch_lattice`, then its lattice edges through
    :func:`resolve_patch_box`."""
    sizes = lattice_sizes([(feature_h, feature_w, width, height)])
    (edges,) = patch_lattice(np.array([row]), np.array([col]), *sizes.T, patch_size).tolist()
    return resolve_patch_box(*edges, feature_h, feature_w)


class TestResolvePatchBox:
    def test_single_cell_map(self):
        # 1x1 feature map on a 768x1536 image: cell center (384, 768)
        assert pixel_patch(0, 0, 1, 1, 768, 1536, 130) == (319.0, 703.0, 449.0, 833.0)

    def test_translated_into_image(self):
        # 48x24 map on 768x1536: cell (0,0) center (16,16); box slides to origin
        assert pixel_patch(0, 0, 48, 24, 768, 1536, 130) == (0.0, 0.0, 130.0, 130.0)

    def test_patch_equal_to_image(self):
        assert pixel_patch(0, 0, 1, 1, 130, 130, 130) == (0.0, 0.0, 130.0, 130.0)

    def test_small_image_spans_dimension(self):
        x_min, y_min, x_max, y_max = pixel_patch(0, 0, 1, 1, 100, 400, 130)
        assert (x_min, x_max) == (0, 100)
        assert y_max - y_min == 130

    def test_fractional_edges(self):
        # 3x3 map on a 10x10 image: cell (0, 0) center (5/3, 5/3); a 3-pixel
        # patch spans 1/6 to 19/6 on both axes
        assert pixel_patch(0, 0, 3, 3, 10, 10, 3) == (1 / 6, 1 / 6, 19 / 6, 19 / 6)

    @given(
        st.integers(1, 8), st.integers(1, 8),
        st.integers(1, 512), st.integers(1, 512),
        st.integers(1, 200), st.data(),
    )
    @settings(max_examples=200)
    def test_center_always_contained(self, fh, fw, width, height, patch, data):
        row = data.draw(st.integers(0, fh - 1))
        col = data.draw(st.integers(0, fw - 1))
        # exact on the lattice, where the cell center is ((2 * col + 1) * width,
        # (2 * row + 1) * height)
        cell = [np.array([v]) for v in (row, col, fh, fw, width, height)]
        ((x0, y0, x1, y1),) = patch_lattice(*cell, patch).tolist()
        if width >= patch and height >= patch:
            assert x0 <= (2 * col + 1) * width < x1
            assert y0 <= (2 * row + 1) * height < y1
            assert (x1 - x0, y1 - y0) == (2 * fw * patch, 2 * fh * patch)
        x_min, y_min, x_max, y_max = resolve_patch_box(x0, y0, x1, y1, fh, fw)
        assert x_min >= 0 and y_min >= 0
        assert x_max <= width and y_max <= height


@st.composite
def lattice_cells(draw):
    """A cell of an image: odd sides and feature maps up to 7x7 give
    fractional patch edges."""
    feature_h, feature_w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return (draw(st.integers(0, feature_h - 1)), draw(st.integers(0, feature_w - 1)),
            feature_h, feature_w, draw(st.integers(1, 160)), draw(st.integers(1, 160)))


# odd sides, sides at or past every image side drawn, and one past int64
PATCH_SIZES = [1, 7, 63, 64, 130, 160, 161, 2**70]


class TestPatchLattice:
    @given(st.lists(lattice_cells(), min_size=1, max_size=6),
           st.sampled_from(PATCH_SIZES) | st.integers(1, 170))
    @settings(max_examples=helpers.examples(300))
    def test_patch_lattice_matches_reference(self, cells, patch_size):
        """One call over cells of different images, against the Fraction
        mapping it replaced."""
        columns = [np.array(c, dtype=np.int64) for c in zip(*cells)]
        lattice = patch_lattice(*columns, patch_size)
        assert lattice.dtype == np.int64 and lattice.shape == (len(cells), 4)
        for (row, col, fh, fw, width, height), (x0, y0, x1, y1) in zip(cells, lattice.tolist()):
            expected = helpers.resolve_patch_box(row, col, fh, fw, width, height, patch_size)
            sx, sy = 2 * fw, 2 * fh
            assert PatchBox(Fraction(x0, sx), Fraction(y0, sy),
                            Fraction(x1, sx), Fraction(y1, sy)) == expected

    @given(lattice_cells(), st.sampled_from(PATCH_SIZES) | st.integers(1, 170))
    @settings(max_examples=helpers.examples(300))
    def test_patch_floats_match_reference(self, cell, patch_size):
        """The pixel edges of a report's patch, int / int, against float() of
        the reference's Fraction edges."""
        assert (pixel_patch(*cell, patch_size)
                == helpers.resolve_patch_box(*cell, patch_size).as_floats())

    def test_patch_floats_match_reference_past_2_53(self):
        """Lattice edges past 2**53, where float64(edge) / scale can miss the
        correctly rounded quotient, as it does for x_max of cell (0, 0) of a
        3x3 map on 2**60 + 1 pixels with a 130-pixel patch."""
        wide = (2**60 + 1, 2**60 + 1)
        for cell in ((0, 0, 1, 1, 2**62 - 1, 3), (0, 0, 3, 3, *wide), (2, 2, 3, 3, *wide)):
            for patch_size in (7, 130, 2**70):
                assert (pixel_patch(*cell, patch_size)
                        == helpers.resolve_patch_box(*cell, patch_size).as_floats())
        edge = int(patch_lattice(*(np.array([v]) for v in (0, 0, 3, 3, *wide)), 130)[0, 2])
        assert float(np.int64(edge)) / 6 != edge / 6

    def test_no_cells(self):
        empty = np.empty(0, dtype=np.int64)
        assert patch_lattice(*[empty] * 6, 2**70).shape == (0, 4)

    def test_location_out_of_map_rejected(self):
        rows, cols = np.array([0, 2]), np.array([0, 0])
        ones = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError, match=r"\(2, 0\) out of feature map 2x1"):
            patch_lattice(rows, cols, 2 * ones, ones, 100 * ones, 100 * ones, 10)

    def test_largest_image_fits_int64(self):
        # 2 * side * cells is 2**63 - 2: every edge, and the cell center of
        # a whole-image patch, stays within int64
        side = 2**62 - 1
        sizes = lattice_sizes([(1, 1, side, 3)])
        lattice = patch_lattice(np.array([0]), np.array([0]), *sizes.T, 2**70)
        assert lattice.tolist() == [[0, 0, 2 * side, 6]]
        assert resolve_patch_box(*lattice[0].tolist(), 1, 1) == (0.0, 0.0, float(side), 3.0)

    @pytest.mark.parametrize("size", [(1, 1, 2**62, 3), (2, 1, 3, 2**62), (1, 2**61, 2, 1)])
    def test_image_past_int64_raises(self, size):
        with pytest.raises(OverflowError, match="too large for exact geometry"):
            lattice_sizes([(1, 1, 10, 10), size])


class TestIouDsc:
    def test_identical_boxes(self):
        a = [(0, 0, 10, 10)]
        assert iou_dsc(a, a) == (1.0, 1.0)

    def test_disjoint_boxes(self):
        assert iou_dsc([(0, 0, 10, 10)], [(20, 20, 30, 30)]) == (0.0, 0.0)

    def test_half_overlap(self):
        assert iou_dsc_exact(edges([(0, 0, 10, 10)]), edges([(5, 0, 15, 10)])) == (
            Fraction(1, 3), Fraction(1, 2))

    def test_empty_sets(self):
        a = [(0, 0, 10, 10)]
        assert iou_dsc(a, []) == (0.0, 0.0)
        assert iou_dsc([], a) == (0.0, 0.0)
        assert iou_dsc([], []) == (0.0, 0.0)

    def test_union_of_overlapping_boxes(self):
        # two overlapping boxes union to area 150, not 200
        a = [(0, 0, 10, 10), (5, 0, 15, 10)]
        assert _areas(edges(a), edges([])) == (150, 0, 0)
        assert iou_dsc(a, [(0, 0, 15, 10)]) == (1.0, 1.0)

    @given(st.lists(int_boxes(64), min_size=1, max_size=6),
           st.lists(int_boxes(64), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_dsc_identity_and_symmetry(self, a, b):
        i, d = iou_dsc(a, b)
        assert 0.0 <= i <= 1.0
        assert 0.0 <= d <= 1.0
        assert abs(d - (2 * i / (1 + i))) < 1e-12
        i2, d2 = iou_dsc(b, a)
        assert i == i2 and d == d2

    @given(st.lists(int_boxes(128), min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_union_area_matches_rasterization(self, boxes):
        assert _areas(edges(boxes), edges([]))[0] == rasterized_area(boxes, side=128)

    @given(st.lists(int_boxes(96), min_size=1, max_size=5),
           st.lists(int_boxes(96), min_size=1, max_size=5))
    @settings(max_examples=150)
    def test_intersection_matches_rasterization(self, a, b):
        mask_a = np.zeros((96, 96), dtype=bool)
        mask_b = np.zeros((96, 96), dtype=bool)
        for x0, y0, x1, y1 in a:
            mask_a[y0:y1, x0:x1] = True
        for x0, y0, x1, y1 in b:
            mask_b[y0:y1, x0:x1] = True
        assert _areas(edges(a), edges(b))[2] == int((mask_a & mask_b).sum())

    def test_exact_on_fractional_boxes(self):
        a, b, scale = on_lattice([PatchBox(Fraction(1, 3), 0, Fraction(4, 3), 1)],
                                 [PatchBox(Fraction(2, 3), 0, Fraction(5, 3), 1)])
        assert Fraction(_areas(a, b)[2], scale) == Fraction(2, 3)
        assert iou_dsc_exact(a, b) == (Fraction(1, 2), Fraction(2, 3))

    @given(st.lists(fractional_boxes(), max_size=7), st.lists(fractional_boxes(), max_size=7))
    @settings(max_examples=helpers.examples(300))
    def test_grid_matches_reference_sweep(self, a, b):
        area_a, area_b = helpers.union_area(a), helpers.union_area(b)
        inter = helpers.intersection_area(a, b)
        lattice_a, lattice_b, scale = on_lattice(a, b)
        got = _areas(lattice_a, lattice_b)
        assert tuple(Fraction(area, scale) for area in got) == (area_a, area_b, inter)
        if area_a and area_b:
            expected = (inter / (area_a + area_b - inter), 2 * inter / (area_a + area_b))
        else:
            expected = (0, 0)
        assert iou_dsc_exact(lattice_a, lattice_b) == expected == helpers.iou_dsc_exact(a, b)

    def test_areas_past_int64_are_exact(self):
        # edges within int64 whose areas are not: summed in Python ints
        side = 2**63 - 1
        a, b = edges([(0, 0, side, 3)]), edges([(1, 1, side, 2)])
        assert _areas(a, b) == (3 * side, side - 1, side - 1)
        assert iou_dsc_exact(a, b) == (Fraction(side - 1, 3 * side),
                                       Fraction(2 * (side - 1), 4 * side - 1))
