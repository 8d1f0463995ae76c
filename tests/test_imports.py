"""The import graph: ``pefcoh.cli`` and a whole ``compare`` run stay off the
array code and load only the report layer, ``evaluate`` loads the parsers
and the array code before it reads any input, only ``synth`` loads the
generator, the oracle loads none of the code it checks, the program starts
numpy with one OpenBLAS thread, and the package's public names resolve
lazily to the objects of their submodules."""

import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import pefcoh
from pefcoh.cli import main

SRC = Path(pefcoh.__file__).resolve().parents[1]
ARRAY_CODE = ("numpy", "pefcoh.metrics", "pefcoh.geometry", "pefcoh.oracle", "pefcoh.columns")
# the input-format parsers and their records, which compare does not read
INPUT_FORMATS = ("pefcoh.dumpio", "pefcoh.records")
# standard modules the report layer loads only when a command needs them
ON_USE = ("statistics", "datetime", "csv")

# every public name of pefcoh/__init__.py before its exports became lazy, by
# the submodule that defined it then, less the Fraction box API of geometry
# (PatchBox, contains_point, roi_center, iou, dsc), since removed, less
# records.CategoryId, since a category became its value string, and with
# dump_to_json replaced by the streamed dump writer, write_dump
PUBLIC = {
    "dumpio": (
        "ConsistencyError", "FormatError", "cross_validate", "derive_category_universe",
        "load_annotations", "parse_annotations", "parse_dump", "parse_lexicon",
        "total_categories", "write_dump",
    ),
    "geometry": ("resolve_patch_box",),
    "metrics": (
        "EvaluationReport", "PropertyScores", "PrototypeVerdict", "RunConfig", "TopKEvidence",
        "aggregate", "class_specific", "coverage", "evaluate", "global_prototypes",
        "local_prototypes", "relevance", "specialization", "top_k_evidence", "uniqueness",
    ),
    "oracle": ("brute_force_scores",),
    "records": ("AnnotationSet", "EvidenceDump", "Lexicon", "ROIAnnotation"),
    "synth": ("GroundTruthLedger", "InfeasibleSpecError", "SynthSpec", "generate"),
}


def child_env(**variables: str | None) -> dict[str, str]:
    """This environment with ``src`` on the path and each of ``variables``
    set, or removed when None."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def loaded(script: str, modules: tuple[str, ...] = ARRAY_CODE) -> list[str]:
    """Those of ``modules`` that a fresh interpreter has loaded after running
    ``script``."""
    probe = (f"{script}\nimport json, sys\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(), check=True)
    return json.loads(proc.stdout.splitlines()[-1])  # after the CLI's own lines


def test_import_cli_loads_no_array_code():
    assert loaded("import pefcoh.cli") == []


def test_compare_loads_no_array_code(tmp_path):
    synth, out = tmp_path / "synth", tmp_path / "eval"
    assert main(["synth", "--out", str(synth), "--seed", "3"]) == 0
    assert main(["evaluate", "--dump", str(synth / "dump.json"),
                 "--annotations", str(synth / "annotations.json"), "--out", str(out)]) == 0
    argv = ["compare", str(out / "synthetic-seed3.report.json"),
            "--out", str(tmp_path / "cmp"), "--format", "all"]
    script = f"from pefcoh import cli\nassert cli.main({argv!r}) == 0"
    assert loaded(script) == []
    assert (tmp_path / "cmp" / "comparison.md").is_file()


def test_import_cli_loads_only_the_report_layer():
    assert loaded("import pefcoh.cli", INPUT_FORMATS) == []
    # against a bare interpreter, whose site may load some of them
    assert loaded("import pefcoh.cli", ON_USE) == loaded("pass", ON_USE)


@pytest.mark.parametrize("fmt", ["json", "all"])
def test_compare_loads_only_the_report_layer(synth_run, tmp_path, fmt):
    argv = [*synth_run["compare"][:-1], str(tmp_path / "cmp"), "--format", fmt,
            "--fixed-timestamp"]
    script = f"from pefcoh import cli\nassert cli.main({argv!r}) == 0"
    assert loaded(script, INPUT_FORMATS) == []
    # one report pools no values, and a fixed timestamp reads no clock
    baseline = loaded("pass", ("statistics", "datetime"))
    assert loaded(script, ("statistics", "datetime")) == baseline
    assert (tmp_path / "cmp" / "comparison.json").is_file()


def test_two_report_compare_pools(tmp_path):
    # the pooling of two or more values loads statistics on its first use
    reports = []
    for seed in (3, 4):
        synth, out = tmp_path / f"synth{seed}", tmp_path / f"eval{seed}"
        assert main(["synth", "--out", str(synth), "--seed", str(seed)]) == 0
        assert main(["evaluate", "--dump", str(synth / "dump.json"),
                     "--annotations", str(synth / "annotations.json"), "--out", str(out)]) == 0
        reports.append(out / f"synthetic-seed{seed}.report.json")
    cmp = tmp_path / "cmp"
    argv = ["compare", *map(str, reports), "--out", str(cmp), "--format", "json"]
    script = f"from pefcoh import cli\nassert cli.main({argv!r}) == 0"
    assert loaded(script, ("statistics",)) == ["statistics"]
    pooled = json.loads((cmp / "comparison.json").read_text(encoding="utf-8"))
    properties = pooled["models"]["synthetic"]["properties"]
    relevance = [json.loads(path.read_text(encoding="utf-8"))["scores"]["relevance"]
                 for path in reports]
    assert pooled["models"]["synthetic"]["n_runs"] == 2
    assert properties["relevance"] == {"mean": statistics.fmean(relevance),
                                       "std": statistics.stdev(relevance), "n": 2}


def test_evaluate_loads_the_parsers_before_reading(synth_run):
    # loaded after the first input is read, the array code raised the peak RSS
    script = (
        "import sys\n"
        "from pefcoh import cli, dumpio\n"
        "load = dumpio.load_annotations\n"
        "def checked(*args, **kwargs):\n"
        "    assert 'pefcoh.metrics' in sys.modules\n"
        "    return load(*args, **kwargs)\n"
        "dumpio.load_annotations = checked\n"
        f"assert cli.main({synth_run['evaluate']!r}) == 0"
    )
    assert loaded(script, ("pefcoh.metrics",)) == ["pefcoh.metrics"]


def test_evaluate_loads_the_array_code(tmp_path):
    synth = tmp_path / "synth"
    assert main(["synth", "--out", str(synth), "--seed", "3"]) == 0
    argv = ["evaluate", "--dump", str(synth / "dump.json"),
            "--annotations", str(synth / "annotations.json"), "--out", str(tmp_path / "eval")]
    script = f"from pefcoh import cli\nassert cli.main({argv!r}) == 0"
    assert loaded(script) == ["numpy", "pefcoh.metrics", "pefcoh.geometry",
                              "pefcoh.columns"]


def test_evaluate_loads_no_masked_arrays(synth_run):
    script = f"from pefcoh import cli\nassert cli.main({synth_run['evaluate']!r}) == 0"
    assert loaded(script, ("numpy.ma",)) == []


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """The argv of an ``evaluate`` and of a ``compare`` run on a synth dump;
    each has run once, so either may run again in any order."""
    root = tmp_path_factory.mktemp("synth-run")
    synth = root / "synth"
    assert main(["synth", "--out", str(synth), "--seed", "3"]) == 0
    evaluate = ["evaluate", "--dump", str(synth / "dump.json"),
                "--annotations", str(synth / "annotations.json"), "--out", str(root / "eval")]
    assert main(evaluate) == 0
    compare = ["compare", str(root / "eval" / "synthetic-seed3.report.json"),
               "--out", str(root / "cmp")]
    return {"evaluate": evaluate, "compare": compare}


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_run_loads_no_synth(synth_run, command):
    script = f"from pefcoh import cli\nassert cli.main({synth_run[command]!r}) == 0"
    assert loaded(script, ("pefcoh.synth",)) == []


def test_import_oracle_loads_no_metrics_or_geometry():
    # the brute-force oracle stays apart from the code it checks
    assert loaded("import pefcoh.oracle", ("pefcoh.metrics", "pefcoh.geometry")) == []


def test_import_cli_loads_no_synth():
    assert loaded("import pefcoh.cli", ("pefcoh.synth",)) == []


def test_main_leaves_the_environment_unchanged(synth_run, tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    for argv in (synth_run["evaluate"], synth_run["compare"],
                 ["synth", "--out", str(tmp_path / "synth"), "--seed", "4"]):
        assert main(argv) == 0
        assert dict(os.environ) == before


# ``python -m pefcoh``, as the program runs; at exit it prints its thread count
# (``Threads:`` of /proc/self/status), whether numpy loaded and the variable
PROGRAM = """\
import atexit, json, os, runpy, sys

def report():
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
    print(json.dumps([threads, "numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")]))

atexit.register(report)
sys.argv[1:] = {argv!r}
runpy.run_module("pefcoh", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "preset"])
def test_program_starts_numpy_with_one_blas_thread(synth_run, preset):
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM.format(argv=synth_run["evaluate"])],
        capture_output=True, text=True, env=child_env(OPENBLAS_NUM_THREADS=preset),
    )
    assert proc.returncode == 0, proc.stderr
    threads, numpy_loaded, variable = json.loads(proc.stdout.splitlines()[-1])
    assert numpy_loaded
    if preset is None:
        assert (threads, variable) == (1, "1")
    else:  # the user's value is kept; OpenBLAS may cap it at the CPU count
        assert variable == preset


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


@pytest.mark.parametrize("name", ["PatchBox", "contains_point", "roi_center", "iou", "dsc"])
def test_removed_geometry_name_raises_import_error(name):
    with pytest.raises(ImportError):
        exec(f"from pefcoh import {name}", {})


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        pefcoh.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        exec("from pefcoh import nonexistent", {})
