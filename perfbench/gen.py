"""Deterministic dense input generator for the benchmark.

Writes one ``pefcoh-dump/1`` evidence dump, a ``pefcoh-ann/1`` annotation
file and a ``pefcoh-lex/1`` lexicon for one workload shape and seed. Every
draw comes from :class:`random.Random` seeded from the workload seed, so the
same (shape, seed) gives byte-identical files on any platform.

Dataset-shaping draws (images, splits, labels, ROIs) use a structure stream
and the model's weights and activations a stream of their own.

The generator imports nothing from ``pefcoh``: it is an independent producer
of the program's input formats.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

CLASS_NAMES = ("benign", "malignant")
LEXICON = {
    "mass": {
        "shape": ("oval", "round", "lobulated", "irregular"),
        "margin": ("circumscribed", "obscured", "microlobulated", "ill_defined", "spiculated"),
    },
    "calcification": {
        "morphology": ("punctate", "amorphous", "coarse", "fine_pleomorphic", "fine_linear"),
        "distribution": ("clustered", "linear", "segmental", "regional", "diffuse"),
    },
}
# Share of ROIs that leave one descriptor axis unset (scored as the "na" value).
MISSING_AXIS_RATE = 0.08
MODEL = "protopnet"
RUN_SEED = 1
DUMP_NAME = f"{MODEL}-seed{RUN_SEED}.dump.json"
# pefcoh names each report after the dump's model and seed
REPORT_NAME = f"{MODEL}-seed{RUN_SEED}.report.json"
# Annotated test images whose activations are copied to check.json,
# where the benchmark recomputes their localization rows independently.
CHECK_IMAGES = 6
# Share of activations placed on an ROI's cell rather than a uniform cell.
ROI_HIT_RATE = 0.35
ZERO_WEIGHT_RATE = 0.1


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's inputs."""

    n_prototypes: int
    n_train: int
    n_test: int
    train_density: float
    test_density: float
    # dump images left out of the annotation file
    unannotated_fraction: float = 0.0
    # annotated images that appear in no dump
    annotation_only: int = 0
    width: int = 768
    height: int = 1536
    feature_w: int = 24
    feature_h: int = 48


@dataclass(frozen=True)
class Inputs:
    """Paths and sizes of one generated input set."""

    dump: Path
    annotations: Path
    lexicon: Path
    check: Path
    entries: int
    dump_bytes: int


def _rng(seed: int, *stream: object) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *stream)))


def _roi(rng: random.Random, shape: Shape, class_label: int) -> dict:
    w = rng.randint(24, 256)
    h = rng.randint(24, 256)
    x0 = rng.randint(0, shape.width - w)
    y0 = rng.randint(0, shape.height - h)
    kind = rng.choice(tuple(LEXICON))
    descriptors = {axis: rng.choice(values) for axis, values in LEXICON[kind].items()}
    if rng.random() < MISSING_AXIS_RATE:
        del descriptors[rng.choice(tuple(descriptors))]
    roi_class = class_label if rng.random() < 0.85 else 1 - class_label
    return {
        "bbox": [x0, y0, x0 + w, y0 + h],
        "type": kind,
        "descriptors": descriptors,
        "roi_class": roi_class,
    }


def _structure(shape: Shape, seed: int) -> tuple[list[dict], list[dict]]:
    """Dump image headers and annotation images."""
    rng = _rng(seed, "structure")
    images = []
    for i in range(shape.n_train + shape.n_test):
        images.append(
            {
                "image_id": f"img{i:05d}",
                "split": "train" if i < shape.n_train else "test",
                "width": shape.width,
                "height": shape.height,
                "class_label": rng.randrange(len(CLASS_NAMES)),
            }
        )
    annotated = []
    for img in images:
        if rng.random() < shape.unannotated_fraction:
            continue
        # 1, 2, 3 ROIs in turn, so every seed has the same ROI count
        rois = [_roi(rng, shape, img["class_label"]) for _ in range(1 + len(annotated) % 3)]
        annotated.append({**img, "rois": rois})
    for j in range(shape.annotation_only):
        label = rng.randrange(len(CLASS_NAMES))
        annotated.append(
            {
                "image_id": f"ann{j:05d}",
                "split": "train" if rng.random() < 0.8 else "test",
                "width": shape.width,
                "height": shape.height,
                "class_label": label,
                "rois": [_roi(rng, shape, label) for _ in range(rng.randint(1, 3))],
            }
        )
    return images, annotated


def _cell_of(shape: Shape, x: float, y: float) -> tuple[int, int]:
    row = min(shape.feature_h - 1, int(y * shape.feature_h / shape.height))
    col = min(shape.feature_w - 1, int(x * shape.feature_w / shape.width))
    return row, col


def _write_dump(
    path: Path, shape: Shape, seed: int, images: list[dict], rois_by_id: dict[str, list[dict]]
) -> tuple[int, dict]:
    """Write the dump, streaming image by image.

    Returns its entry count and the check record: the class weights and the
    first :data:`CHECK_IMAGES` annotated test images with their activations
    and ROI boxes.
    """
    rng = _rng(seed, "model", MODEL, RUN_SEED)
    ids = [f"p{i:04d}" for i in range(shape.n_prototypes)]
    zero_weight = set(rng.sample(ids, round(ZERO_WEIGHT_RATE * len(ids))))
    prototypes = []
    for pid in ids:
        if pid in zero_weight:
            weights = [0.0, 0.0]
        else:
            home = rng.randrange(len(CLASS_NAMES))
            weights = [round(rng.uniform(-0.6, 0.0), 6) for _ in CLASS_NAMES]
            weights[home] = round(rng.uniform(0.1, 1.5), 6)
        prototypes.append({"id": pid, "class_weights": weights})
    header = {
        "format": "pefcoh-dump/1",
        "model_name": MODEL,
        "seed": RUN_SEED,
        "class_names": list(CLASS_NAMES),
        "prototypes": prototypes,
    }
    entries = 0
    check_images = []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header)[:-1] + ', "images": [')
        for i, img in enumerate(images):
            density = shape.train_density if img["split"] == "train" else shape.test_density
            centers = [
                _cell_of(shape, (r["bbox"][0] + r["bbox"][2]) / 2, (r["bbox"][1] + r["bbox"][3]) / 2)
                for r in rois_by_id.get(img["image_id"], ())
            ]
            image_entries = []
            # the same number of entries on every image of a split, for every seed
            active = sorted(rng.sample(range(len(ids)), round(density * len(ids))))
            for pid in (ids[i] for i in active):
                if centers and rng.random() < ROI_HIT_RATE:
                    row, col = rng.choice(centers)
                    row = min(shape.feature_h - 1, max(0, row + rng.randint(-1, 1)))
                    col = min(shape.feature_w - 1, max(0, col + rng.randint(-1, 1)))
                else:
                    row = rng.randrange(shape.feature_h)
                    col = rng.randrange(shape.feature_w)
                score = round(rng.uniform(0.0, 4.0), 6)
                image_entries.append({"prototype_id": pid, "score": score, "row": row, "col": col})
            entries += len(image_entries)
            if img["split"] == "test" and centers and len(check_images) < CHECK_IMAGES:
                check_images.append(
                    {
                        "image_id": img["image_id"],
                        "class_label": img["class_label"],
                        "entries": image_entries,
                        "rois": [r["bbox"] for r in rois_by_id[img["image_id"]]],
                    }
                )
            record = {
                **img,
                "feature_h": shape.feature_h,
                "feature_w": shape.feature_w,
                "entries": image_entries,
            }
            fh.write((", " if i else "") + json.dumps(record))
        fh.write("]}\n")
    weights = {p["id"]: p["class_weights"] for p in prototypes}
    return entries, {"weights": weights, "images": check_images}


def generate(shape: Shape, seed: int, out_dir: Path) -> Inputs:
    """Write every input file of one (shape, seed) into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    images, annotated = _structure(shape, seed)
    rois_by_id = {img["image_id"]: img["rois"] for img in annotated}

    lexicon = out_dir / "lexicon.json"
    lexicon.write_text(
        json.dumps(
            {
                "format": "pefcoh-lex/1",
                "types": [{"name": name, "axes": list(axes)} for name, axes in LEXICON.items()],
            }
        )
        + "\n",
        encoding="utf-8",
    )
    annotations = out_dir / "annotations.json"
    annotations.write_text(
        json.dumps(
            {"format": "pefcoh-ann/1", "class_names": list(CLASS_NAMES), "images": annotated}
        )
        + "\n",
        encoding="utf-8",
    )

    dump = out_dir / DUMP_NAME
    entries, check = _write_dump(dump, shape, seed, images, rois_by_id)
    (out_dir / "check.json").write_text(
        json.dumps({"shape": asdict(shape), **check}) + "\n", encoding="utf-8"
    )
    layout = {"entries": entries, "dump_bytes": dump.stat().st_size}
    (out_dir / "inputs.json").write_text(json.dumps(layout) + "\n", encoding="utf-8")
    return load_inputs(out_dir)


def load_inputs(out_dir: Path) -> Inputs:
    """The inputs :func:`generate` wrote to ``out_dir``, wherever it moved since."""
    layout = json.loads((out_dir / "inputs.json").read_text(encoding="utf-8"))
    return Inputs(
        out_dir / DUMP_NAME,
        out_dir / "annotations.json",
        out_dir / "lexicon.json",
        out_dir / "check.json",
        layout["entries"],
        layout["dump_bytes"],
    )
