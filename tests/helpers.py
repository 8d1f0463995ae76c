"""Programmatic builders for small dumps/annotation sets used across tests."""

from __future__ import annotations

from fractions import Fraction

from pefcoh.geometry import PatchBox, RegionSet
from pefcoh.records import (
    AnnotatedImage,
    AnnotationSet,
    ActivationEntry,
    EvidenceDump,
    ImageActivationRecord,
    Lexicon,
    LexiconType,
    PrototypeRecord,
    ROIAnnotation,
)

CLASSES = ("benign", "malignant")

MAMMO_LEXICON = Lexicon(
    (
        LexiconType("mass", ("shape", "margin")),
        LexiconType("calcification", ("morphology", "distribution")),
    )
)


def make_image(
    image_id,
    entries,
    split="train",
    width=128,
    height=128,
    class_label=0,
    feature_h=1,
    feature_w=1,
):
    return ImageActivationRecord(
        image_id,
        split,
        width,
        height,
        class_label,
        feature_h,
        feature_w,
        tuple(ActivationEntry(pid, score, row, col) for pid, score, row, col in entries),
    )


def make_dump(prototypes, images, model_name="test", seed=0, class_names=CLASSES):
    return EvidenceDump(
        model_name,
        seed,
        class_names,
        tuple(PrototypeRecord(pid, tuple(w)) for pid, w in prototypes),
        tuple(images),
    )


def make_roi(bbox, abnormality_type="mass", descriptors=None, roi_class=0):
    if descriptors is None:
        descriptors = {"shape": "oval", "margin": "circumscribed"}
    return ROIAnnotation(tuple(bbox), abnormality_type, descriptors, roi_class)


def make_ann_image(
    image_id, rois, split="train", width=128, height=128, class_label=0
):
    return AnnotatedImage(image_id, width, height, split, class_label, tuple(rois))


def make_annotations(images, class_names=CLASSES):
    return AnnotationSet(class_names, tuple(images))


def category_roi(index, kind="mass", roi_class=0, bbox=(48, 48, 80, 80)):
    """An ROI whose combined category is unique per (kind, index)."""
    if kind == "mass":
        descriptors = {"shape": f"shape{index:03d}", "margin": f"margin{index:03d}"}
    else:
        descriptors = {"morphology": f"morph{index:03d}", "distribution": f"dist{index:03d}"}
    return make_roi(bbox, kind, descriptors, roi_class)


def ratio_fixture(n_global, n_relevant, n_unique, n_mass, n_calc):
    """Dump + annotations realizing exact relevance/uniqueness/coverage ratios.

    One single-ROI training image per category (so the combined universe has
    exactly n_mass + n_calc categories); each relevant prototype's sole
    training activation lands on one category image, with exactly n_unique
    distinct categories assigned; irrelevant prototypes activate only on an
    ROI-free image. Images are 128x128 with a 1x1 feature map, so the default
    130-pixel patch spans the whole image and always contains the ROI center.
    """
    assert n_unique <= n_relevant <= n_global
    assert n_unique <= n_mass + n_calc

    cats = [("mass", i) for i in range(n_mass)] + [("calcification", i) for i in range(n_calc)]
    ann_images = [
        make_ann_image(
            f"cat_{j:03d}",
            [category_roi(index, kind, roi_class=j % 2)],
            class_label=j % 2,
        )
        for j, (kind, index) in enumerate(cats)
    ]
    ann_images.append(make_ann_image("blank_000", []))
    ann_images.append(
        make_ann_image("test_000", [category_roi(0, "mass", roi_class=1)],
                       split="test", class_label=1)
    )

    prototypes = [(f"p{i:03d}", (1.0, -0.5)) for i in range(n_global)]
    dump_images = {name: [] for name in
                   [f"cat_{j:03d}" for j in range(len(cats))] + ["blank_000", "test_000"]}
    for i in range(n_global):
        pid = f"p{i:03d}"
        if i < n_relevant:
            j = i if i < n_unique else i % n_unique
            dump_images[f"cat_{j:03d}"].append((pid, 5.0, 0, 0))
        else:
            dump_images["blank_000"].append((pid, 5.0, 0, 0))
    dump_images["test_000"].append(("p000", 5.0, 0, 0))

    images = [
        make_image(name, entries, split="test" if name == "test_000" else "train",
                   class_label=1 if name == "test_000" else
                   (int(name.split("_")[1]) % 2 if name.startswith("cat_") else 0))
        for name, entries in dump_images.items()
    ]
    dump = make_dump(prototypes, images)
    return dump, make_annotations(ann_images), MAMMO_LEXICON


# Reference geometry: the x-slab sweep and pairwise box clipping that the
# coordinate-compressed grid in pefcoh.geometry replaced, kept verbatim as an
# independent check on the grid's exact areas.


def union_area(boxes: RegionSet) -> Fraction:
    """Exact area of the union, via an x-slab sweep over compressed coordinates."""
    if not boxes:
        return Fraction(0)
    xs = sorted({b.x_min for b in boxes} | {b.x_max for b in boxes})
    total = Fraction(0)
    for x_lo, x_hi in zip(xs, xs[1:]):
        spans = sorted(
            (b.y_min, b.y_max) for b in boxes if b.x_min <= x_lo and b.x_max >= x_hi
        )
        covered = Fraction(0)
        cur_lo: Fraction | None = None
        cur_hi: Fraction | None = None
        for lo, hi in spans:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += covered * (x_hi - x_lo)
    return total


def _clip(a: PatchBox, b: PatchBox) -> PatchBox | None:
    x_min = max(a.x_min, b.x_min)
    y_min = max(a.y_min, b.y_min)
    x_max = min(a.x_max, b.x_max)
    y_max = min(a.y_max, b.y_max)
    if x_min < x_max and y_min < y_max:
        return PatchBox(x_min, y_min, x_max, y_max)
    return None


def intersection_area(a: RegionSet, b: RegionSet) -> Fraction:
    """Exact area of union(a) ∩ union(b)."""
    pieces = []
    for box_a in a:
        for box_b in b:
            clipped = _clip(box_a, box_b)
            if clipped is not None:
                pieces.append(clipped)
    return union_area(pieces)
