"""The benchmark's workloads: input shapes and the CLI calls each one makes.

Every workload is a closed loop of one caller that runs its CLI calls back
to back: one ``pefcoh evaluate`` of the workload's dump, then one
``pefcoh compare`` over the report it wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from check import PATCH_SIZE
from gen import REPORT_NAME, Inputs, Shape


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    # passes of reference.py per reference run, so that on this workload's
    # dump it takes about half as long as the evaluate call
    reference_passes: int = 1


# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "loc-dense",
            Shape(n_prototypes=200, n_train=300, n_test=60, train_density=0.9,
                  test_density=0.9),
            reference_passes=4,
        ),
        Workload(
            "train-wide",
            Shape(n_prototypes=800, n_train=800, n_test=60, train_density=0.5,
                  test_density=0.03, unannotated_fraction=0.1, annotation_only=20),
        ),
    )
}


@dataclass(frozen=True)
class Call:
    kind: str  # "evaluate" | "compare"
    argv: tuple[str, ...]  # arguments after ``pefcoh``


@dataclass(frozen=True)
class Plan:
    calls: tuple[Call, ...]
    eval_dir: Path
    comparison: Path


def plan(inputs: Inputs, out_root: Path) -> Plan:
    """The CLI calls of one workload iteration, writing under ``out_root``."""
    eval_dir = out_root / "evaluate"
    compare_dir = out_root / "compare"
    evaluate = (
        "evaluate",
        "--dump", str(inputs.dump),
        "--annotations", str(inputs.annotations),
        "--lexicon", str(inputs.lexicon),
        "--k", "10",
        "--patch-size", str(PATCH_SIZE),
        "--out", str(eval_dir),
        "--fixed-timestamp",
    )
    compare = (
        "compare", str(eval_dir / REPORT_NAME), "--out", str(compare_dir), "--fixed-timestamp"
    )
    return Plan(
        (Call("evaluate", evaluate), Call("compare", compare)),
        eval_dir,
        compare_dir / "comparison.json",
    )
