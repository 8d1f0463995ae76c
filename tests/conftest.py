import pytest
from hypothesis import settings

from pefcoh.dumpio import write_json

# CI runs the same examples on every push and prints how to replay a failure;
# local runs keep hypothesis's random default.
settings.register_profile("ci", derandomize=True, print_blob=True)
# the larger run, on demand: 500 examples per property of tests/test_fuzz.py,
# and 2500 per differential test against a reference in helpers.py
settings.register_profile("fuzz", max_examples=2500, print_blob=True)


@pytest.fixture
def write_file(tmp_path):
    """Write a JSON-able object to a temp file, returning its path."""

    def _write(name, obj):
        path = tmp_path / name
        write_json(path, obj)
        return path

    return _write


@pytest.fixture
def minimal_dump_obj():
    return {
        "format": "pefcoh-dump/1",
        "model_name": "m",
        "seed": 1,
        "class_names": ["benign", "malignant"],
        "prototypes": [{"id": "p0", "class_weights": [1.0, -0.5]}],
        "images": [
            {
                "image_id": "img0",
                "split": "train",
                "width": 100,
                "height": 100,
                "class_label": 0,
                "feature_h": 2,
                "feature_w": 2,
                "entries": [{"prototype_id": "p0", "score": 1.5, "row": 0, "col": 1}],
            }
        ],
    }


@pytest.fixture
def minimal_ann_obj():
    return {
        "format": "pefcoh-ann/1",
        "class_names": ["benign", "malignant"],
        "images": [
            {
                "image_id": "img0",
                "width": 100,
                "height": 100,
                "split": "train",
                "class_label": 0,
                "rois": [
                    {
                        "bbox": [10, 10, 30, 30],
                        "type": "mass",
                        "descriptors": {"shape": "oval", "margin": "circumscribed"},
                        "roi_class": 0,
                    }
                ],
            }
        ],
    }


@pytest.fixture
def lexicon_obj():
    return {
        "format": "pefcoh-lex/1",
        "types": [
            {"name": "mass", "axes": ["shape", "margin"]},
            {"name": "calcification", "axes": ["morphology", "distribution"]},
        ],
    }
