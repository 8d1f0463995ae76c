"""The import graph: ``pefcoh.cli`` and a whole ``compare`` run stay off the
array code, and the package's public names resolve lazily to the objects of
their submodules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pefcoh
from pefcoh.cli import main

SRC = Path(pefcoh.__file__).resolve().parents[1]
ARRAY_CODE = ("numpy", "pefcoh.metrics", "pefcoh.geometry", "pefcoh.oracle", "pefcoh.columns")

# every public name of pefcoh/__init__.py before its exports became lazy, by
# the submodule that defined it then
PUBLIC = {
    "dumpio": (
        "ConsistencyError", "FormatError", "cross_validate", "derive_category_universe",
        "dump_to_json", "load_annotations", "parse_annotations", "parse_dump",
        "parse_lexicon", "total_categories",
    ),
    "geometry": ("PatchBox", "contains_point", "dsc", "iou", "resolve_patch_box", "roi_center"),
    "metrics": (
        "EvaluationReport", "PropertyScores", "PrototypeVerdict", "RunConfig", "TopKEvidence",
        "aggregate", "class_specific", "coverage", "evaluate", "global_prototypes",
        "local_prototypes", "localization", "relevance", "specialization", "top_k_evidence",
        "uniqueness",
    ),
    "oracle": ("brute_force_scores",),
    "records": ("AnnotationSet", "CategoryId", "EvidenceDump", "Lexicon", "ROIAnnotation"),
    "synth": ("GroundTruthLedger", "InfeasibleSpecError", "SynthSpec", "generate"),
}


def loaded_array_code(script: str) -> list[str]:
    """The array-code modules that a fresh interpreter has loaded after
    running ``script``."""
    probe = (f"{script}\nimport json, sys\n"
             f"print(json.dumps([m for m in {ARRAY_CODE!r} if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])  # after the CLI's own lines


def test_import_cli_loads_no_array_code():
    assert loaded_array_code("import pefcoh.cli") == []


def test_compare_loads_no_array_code(tmp_path):
    synth, out = tmp_path / "synth", tmp_path / "eval"
    assert main(["synth", "--out", str(synth), "--seed", "3"]) == 0
    assert main(["evaluate", "--dump", str(synth / "dump.json"),
                 "--annotations", str(synth / "annotations.json"), "--out", str(out)]) == 0
    argv = ["compare", str(out / "synthetic-seed3.report.json"),
            "--out", str(tmp_path / "cmp"), "--format", "all"]
    script = f"from pefcoh import cli\nassert cli.main({argv!r}) == 0"
    assert loaded_array_code(script) == []
    assert (tmp_path / "cmp" / "comparison.md").is_file()


def test_evaluate_loads_the_array_code(tmp_path):
    synth = tmp_path / "synth"
    assert main(["synth", "--out", str(synth), "--seed", "3"]) == 0
    argv = ["evaluate", "--dump", str(synth / "dump.json"),
            "--annotations", str(synth / "annotations.json"), "--out", str(tmp_path / "eval")]
    script = f"from pefcoh import cli\nassert cli.main({argv!r}) == 0"
    assert loaded_array_code(script) == ["numpy", "pefcoh.metrics", "pefcoh.geometry",
                                         "pefcoh.columns"]


@pytest.mark.parametrize("module, name",
                         [(module, name) for module, names in PUBLIC.items() for name in names])
def test_public_name_is_its_submodules_object(module, name):
    namespace: dict = {}
    exec(f"from pefcoh import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"pefcoh.{module}"), name)


def test_all_lists_every_public_name():
    public = {name for names in PUBLIC.values() for name in names}
    assert set(pefcoh.__all__) == public | {"__version__"}
    assert public <= set(dir(pefcoh))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        pefcoh.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        exec("from pefcoh import nonexistent", {})
