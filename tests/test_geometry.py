from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pefcoh.geometry import (
    PatchBox,
    contains_point,
    dsc,
    intersection_area,
    iou,
    iou_dsc,
    iou_dsc_exact,
    lattice_sizes,
    patch_lattice,
    resolve_patch_box,
    roi_center,
    union_area,
)
import helpers
from helpers import make_roi


def rasterized_area(boxes, side=512):
    """Independent pixel-count oracle for integer-coordinate boxes."""
    mask = np.zeros((side, side), dtype=bool)
    for b in boxes:
        mask[int(b.y_min): int(b.y_max), int(b.x_min): int(b.x_max)] = True
    return int(mask.sum())


def int_boxes(max_side=512):
    def build(draw):
        x0 = draw(st.integers(0, max_side - 1))
        y0 = draw(st.integers(0, max_side - 1))
        x1 = draw(st.integers(x0 + 1, max_side))
        y1 = draw(st.integers(y0 + 1, max_side))
        return PatchBox(x0, y0, x1, y1)

    return st.composite(build)()


def fractional_boxes(denominators=(1, 2, 3, 48, 96)):
    """Boxes whose every edge is n/d, with d drawn per edge from ``denominators``."""
    def build(draw):
        def part(low):
            return Fraction(draw(st.integers(low, 200)), draw(st.sampled_from(denominators)))

        x0, y0 = part(0), part(0)
        return PatchBox(x0, y0, x0 + part(1), y0 + part(1))

    return st.composite(build)()


class TestResolvePatchBox:
    def test_single_cell_map(self):
        # 1x1 feature map on a 768x1536 image: cell center (384, 768)
        box = resolve_patch_box(0, 0, 1, 1, 768, 1536, 130)
        assert box.as_tuple() == (319, 703, 449, 833)

    def test_translated_into_image(self):
        # 48x24 map on 768x1536: cell (0,0) center (16,16); box slides to origin
        box = resolve_patch_box(0, 0, 48, 24, 768, 1536, 130)
        assert box.as_tuple() == (0, 0, 130, 130)

    def test_patch_equal_to_image(self):
        box = resolve_patch_box(0, 0, 1, 1, 130, 130, 130)
        assert box.as_tuple() == (0, 0, 130, 130)

    def test_small_image_spans_dimension(self):
        box = resolve_patch_box(0, 0, 1, 1, 100, 400, 130)
        assert (box.x_min, box.x_max) == (0, 100)
        assert box.y_max - box.y_min == 130

    def test_location_out_of_map_rejected(self):
        with pytest.raises(ValueError):
            resolve_patch_box(1, 0, 1, 1, 100, 100, 10)

    @given(
        st.integers(1, 8), st.integers(1, 8),
        st.integers(1, 512), st.integers(1, 512),
        st.integers(1, 200), st.data(),
    )
    @settings(max_examples=200)
    def test_center_always_contained(self, fh, fw, width, height, patch, data):
        row = data.draw(st.integers(0, fh - 1))
        col = data.draw(st.integers(0, fw - 1))
        box = resolve_patch_box(row, col, fh, fw, width, height, patch)
        if width >= patch and height >= patch:
            cx = Fraction((2 * col + 1) * width, 2 * fw)
            cy = Fraction((2 * row + 1) * height, 2 * fh)
            assert contains_point(box, cx, cy)
            assert box.x_max - box.x_min == patch
            assert box.y_max - box.y_min == patch
        assert box.x_min >= 0 and box.y_min >= 0
        assert box.x_max <= width and box.y_max <= height


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
        mapping it replaced; resolve_patch_box gives the same boxes."""
        columns = [np.array(c, dtype=np.int64) for c in zip(*cells)]
        edges = patch_lattice(*columns, patch_size)
        assert edges.dtype == np.int64 and edges.shape == (len(cells), 4)
        for (row, col, fh, fw, width, height), (x0, y0, x1, y1) in zip(cells, edges.tolist()):
            expected = helpers.resolve_patch_box(row, col, fh, fw, width, height, patch_size)
            sx, sy = 2 * fw, 2 * fh
            assert PatchBox(Fraction(x0, sx), Fraction(y0, sy),
                            Fraction(x1, sx), Fraction(y1, sy)) == expected
            assert resolve_patch_box(row, col, fh, fw, width, height, patch_size) == expected

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
        edges = patch_lattice(np.array([0]), np.array([0]), *sizes.T, 2**70)
        assert edges.tolist() == [[0, 0, 2 * side, 6]]
        assert resolve_patch_box(0, 0, 1, 1, side, 3, 2**70).as_tuple() == (0, 0, side, 3)

    @pytest.mark.parametrize("size", [(1, 1, 2**62, 3), (2, 1, 3, 2**62), (1, 2**61, 2, 1)])
    def test_image_past_int64_raises(self, size):
        with pytest.raises(OverflowError, match="too large for exact geometry"):
            lattice_sizes([(1, 1, 10, 10), size])


class TestContainment:
    def test_inside(self):
        assert contains_point(PatchBox(0, 0, 10, 10), 5, 5)

    def test_half_open_boundary(self):
        box = PatchBox(0, 0, 10, 10)
        assert not contains_point(box, 10, 5)
        assert contains_point(box, 0, 0)

    def test_resolved_patch_contains_roi_center(self):
        box = resolve_patch_box(0, 0, 1, 1, 768, 1536, 130)
        assert contains_point(box, 384, 768)

    def test_roi_center(self):
        assert roi_center(make_roi((0, 0, 10, 10))) == (5, 5)
        assert roi_center(make_roi((100, 200, 300, 400))) == (200, 300)
        assert roi_center(make_roi((0, 0, 1, 1))) == (Fraction(1, 2), Fraction(1, 2))


class TestIouDsc:
    def test_identical_boxes(self):
        a = [PatchBox(0, 0, 10, 10)]
        assert iou(a, a) == 1.0
        assert dsc(a, a) == 1.0

    def test_disjoint_boxes(self):
        a = [PatchBox(0, 0, 10, 10)]
        b = [PatchBox(20, 20, 30, 30)]
        assert iou(a, b) == 0.0
        assert dsc(a, b) == 0.0

    def test_half_overlap(self):
        a = [PatchBox(0, 0, 10, 10)]
        b = [PatchBox(5, 0, 15, 10)]
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-15)
        assert dsc(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_empty_sets(self):
        a = [PatchBox(0, 0, 10, 10)]
        assert iou(a, []) == 0.0
        assert iou([], a) == 0.0
        assert iou([], []) == 0.0
        assert dsc([], []) == 0.0

    def test_union_of_overlapping_boxes(self):
        # two overlapping boxes union to area 150, not 200
        a = [PatchBox(0, 0, 10, 10), PatchBox(5, 0, 15, 10)]
        assert union_area(a) == 150
        b = [PatchBox(0, 0, 15, 10)]
        assert iou(a, b) == 1.0

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
        assert union_area(boxes) == rasterized_area(boxes, side=128)

    @given(st.lists(int_boxes(96), min_size=1, max_size=5),
           st.lists(int_boxes(96), min_size=1, max_size=5))
    @settings(max_examples=150)
    def test_intersection_matches_rasterization(self, a, b):
        mask_a = np.zeros((96, 96), dtype=bool)
        mask_b = np.zeros((96, 96), dtype=bool)
        for box in a:
            mask_a[int(box.y_min): int(box.y_max), int(box.x_min): int(box.x_max)] = True
        for box in b:
            mask_b[int(box.y_min): int(box.y_max), int(box.x_min): int(box.x_max)] = True
        assert intersection_area(a, b) == int((mask_a & mask_b).sum())

    def test_exact_on_fractional_boxes(self):
        a = [PatchBox(Fraction(1, 3), 0, Fraction(4, 3), 1)]
        b = [PatchBox(Fraction(2, 3), 0, Fraction(5, 3), 1)]
        assert intersection_area(a, b) == Fraction(2, 3)
        assert iou(a, b) == float(Fraction(2, 4))

    @given(st.lists(fractional_boxes(), max_size=7), st.lists(fractional_boxes(), max_size=7))
    @settings(max_examples=helpers.examples(300))
    def test_grid_matches_reference_sweep(self, a, b):
        area_a, area_b = helpers.union_area(a), helpers.union_area(b)
        inter = helpers.intersection_area(a, b)
        assert union_area(a) == area_a
        assert union_area(b) == area_b
        assert intersection_area(a, b) == inter
        if area_a and area_b:
            expected = (inter / (area_a + area_b - inter), 2 * inter / (area_a + area_b))
        else:
            expected = (0, 0)
        assert iou_dsc_exact(a, b) == expected

    def test_extent_beyond_int64_raises(self):
        # 2**62 + 1/2 scaled by its denominator 2 is 2**63 + 1 units wide
        box = PatchBox(Fraction(1, 2), 0, 2**62 + 1, 1)
        with pytest.raises(OverflowError):
            union_area([box])
        with pytest.raises(OverflowError):
            iou_dsc_exact([box], [PatchBox(0, 0, 1, 1)])
