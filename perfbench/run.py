"""Benchmark for ``pefcoh evaluate`` / ``compare`` on dense, paper-shaped dumps.

Run from the repository root:

    python3 perfbench/run.py --workload loc-dense --seed 1 --seconds 55 --trace 0

``--trace 0`` runs the real CLI as child processes, one at a time, and
reports the end-to-end metrics. Each iteration also times the fixed
reference task of ``reference.py`` on the same dump, and the CLI's times are
reported as multiples of it: each CLI time is divided by the mean of the
reference times just before and after it, and the run reports the median of
these ratios. A shared host's speed drifts by tens of percent over minutes,
which moves the CLI's and the reference's times alike, so the ratio stays
steady where the seconds do not. ``setup_s`` is the median of the run's
``import pefcoh.cli`` samples, in seconds. ``--trace 1`` runs the same calls
in this process with every layer wrapped (see ``tracing.py``) and reports
the per-layer metrics (fastest of the traced runs), including
``trace.overhead_s``. Both modes print a readable table (with every sample
series' median and quartiles, raw seconds included), then one JSON result
line. Inputs are generated once per (workload, seed) under
``perfbench/.work/`` and are not timed. Every iteration's outputs are
digested and compared with ``digests.json``; a mismatch, a failed call or a
failed raster check exits 1. For a seed that ``digests.json`` does not
record, the iterations are compared with the first one and the raster check
is the only comparison with independent values; the run says so.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Plan, Workload, plan  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"


def prepare_inputs(workload: Workload, seed: int) -> gen.Inputs:
    """Generate the inputs of (workload, seed) once; later runs reuse them.

    Only the latest seed of each workload is kept on disk. The directory name
    carries a hash of the shape and the generator's source, so inputs of an
    edited shape or generator are rebuilt.
    """
    base = WORK / "inputs"
    source = repr(workload.shape).encode() + Path(gen.__file__).read_bytes()
    shape_id = hashlib.sha256(source).hexdigest()[:12]
    target = base / f"{workload.name}-{seed}-{shape_id}"
    if not (target / "inputs.json").is_file():
        base.mkdir(parents=True, exist_ok=True)
        for old in base.glob(f"{workload.name}-*"):
            shutil.rmtree(old)
        tmp = base / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        gen.generate(workload.shape, seed, tmp)
        tmp.rename(target)
    return gen.load_inputs(target)


def repeat_for(seconds: float, step: Callable[[], None]) -> None:
    """Call ``step`` at least once, and again while a call as long as the
    last one would still end within ``seconds`` of the first call."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


@dataclass
class Iteration:
    evaluate_s: float = 0.0
    compare_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0


class Checker:
    """Checks each iteration's outputs: the digest must equal the recorded
    one (or, for an unrecorded seed, the first iteration's), and the first
    checked iteration must pass the raster check. A failing iteration counts
    all its calls as failed."""

    def __init__(self, workload: str, seed: int, inputs: gen.Inputs, run_plan: Plan):
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.expected = recorded.get(workload, {}).get(str(seed))
        self.recorded = self.expected is not None
        self.inputs = inputs
        self.plan = run_plan
        self.mismatches = 0
        self.raster_errors: list[str] | None = None

    def __call__(self, it: Iteration) -> None:
        if it.failed:
            return
        if self.raster_errors is None:  # once per run: iterations must agree anyway
            report = self.plan.eval_dir / gen.REPORT_NAME
            self.raster_errors = check.localization_errors(self.inputs.check, report)
            for line in self.raster_errors[:5]:
                print(f"raster check: {line}", file=sys.stderr)
            if self.raster_errors:
                it.failed = it.attempted
        digest = check.output_digest(self.plan.eval_dir, self.plan.comparison)
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            print(f"digest mismatch: got {digest}, expected {self.expected}", file=sys.stderr)
            self.mismatches += 1
            it.failed = it.attempted

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and self.raster_errors == []


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` importable and bytecode caching
    on, so each child starts the way an installed CLI does."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict[str, str], log: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        print(f"exit {proc.returncode}: {' '.join(argv[:4])} ...: {' | '.join(tail)}", file=sys.stderr)
    return seconds, proc.returncode, usage.ru_maxrss * 1024 / 1e6


# Compare calls per CLI iteration: one compare child is short (about a tenth
# of an evaluate) and mostly interpreter start-up, so it is sampled more.
COMPARES = 3


def cli_iteration(run_plan: Plan, out_root: Path, env: dict[str, str]) -> Iteration:
    """One iteration of the CLI calls as children; the compare call is
    made ``COMPARES`` times in a row."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    log = out_root / "stderr.txt"
    it = Iteration()
    for call in run_plan.calls:
        for _ in range(COMPARES if call.kind == "compare" else 1):
            seconds, code, rss = run_child([sys.executable, "-m", "pefcoh", *call.argv], env, log)
            it.attempted += 1
            it.failed += code != 0
            if call.kind == "evaluate":
                it.evaluate_s = seconds
                it.peak_rss_mb = rss
            else:
                it.compare_s.append(seconds)
    return it


def timed_child(argv: list[str], env: dict[str, str], log: Path) -> float:
    """Wall seconds of a child that must succeed (a benchmark step, not a
    program call, so a failure is an error of the benchmark itself)."""
    seconds, code, _ = run_child(argv, env, log)
    if code:
        raise RuntimeError(f"failed: {' '.join(argv)}")
    return seconds


def run_cli(workload: Workload, inputs: gen.Inputs, seed: int, seconds: float, out_root: Path):
    """End-to-end metrics from the real CLI, tracing off."""
    run_plan = plan(inputs, out_root)
    checker = Checker(workload.name, seed, inputs, run_plan)
    env = child_env()
    WORK.mkdir(parents=True, exist_ok=True)
    log = WORK / f"setup-{os.getpid()}.txt"
    setup_argv = [sys.executable, "-c", "import pefcoh.cli"]
    reference_argv = [sys.executable, str(HERE / "reference.py"), str(inputs.dump),
                      str(workload.reference_passes)]
    timed_child(setup_argv, env, log)  # warm-up: compiles bytecode; not counted
    setup: list[float] = []
    reference: list[float] = []
    timed: list[Iteration] = []

    def step() -> None:
        reference.append(timed_child(reference_argv, env, log))
        setup.append(timed_child(setup_argv, env, log))
        it = cli_iteration(run_plan, out_root, env)
        checker(it)
        timed.append(it)

    repeat_for(seconds, step)
    reference.append(timed_child(reference_argv, env, log))  # closes the last bracket
    log.unlink(missing_ok=True)

    def relative(times: list[list[float]]) -> float:
        """Median over the iterations' samples of a CLI time divided by the
        mean of the reference times just before and just after it."""
        return statistics.median(
            t * 2 / (before + after)
            for samples, before, after in zip(times, reference, reference[1:])
            for t in samples
        )

    metrics = {
        "setup_s": statistics.median(setup),
        "evaluate_rel": relative([[it.evaluate_s] for it in timed]),
        "compare_rel": relative([it.compare_s for it in timed]),
        "peak_rss_mb": max(it.peak_rss_mb for it in timed),
    }
    evaluate = [it.evaluate_s for it in timed]
    samples = {
        "setup_s": setup,
        "reference_s": reference,
        "evaluate_s": evaluate,
        "compare_s": [t for it in timed for t in it.compare_s],
        "entries_per_s": [inputs.entries / s for s in evaluate],
    }
    return metrics, samples, checker, timed


def load_pefcoh() -> dict:
    sys.path.insert(0, str(SRC))
    import pefcoh.cli
    import pefcoh.dumpio
    import pefcoh.metrics
    import pefcoh.report

    return {m.__name__: m for m in (pefcoh.cli, pefcoh.dumpio, pefcoh.metrics, pefcoh.report)}


def inproc_iteration(modules: dict, run_plan: Plan, out_root: Path,
                     tracer: tracing.Tracer | None) -> Iteration:
    """One iteration in this process; with a tracer, each CLI call is a span."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    gc.collect()
    main = modules["pefcoh.cli"].main
    it = Iteration()
    for call in run_plan.calls:
        name = f"cli.{call.kind}"
        span = tracer.span(name) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = main(list(call.argv))
        except Exception:  # a crash of one call is counted, not fatal
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
        it.attempted += 1
        it.failed += code != 0
        if call.kind == "evaluate":
            it.evaluate_s = seconds
        else:
            it.compare_s.append(seconds)
    return it


def run_traced(workload: Workload, inputs: gen.Inputs, seed: int, seconds: float, out_root: Path):
    """Per-layer metrics from alternating untraced and traced in-process runs."""
    run_plan = plan(inputs, out_root)
    checker = Checker(workload.name, seed, inputs, run_plan)
    modules = load_pefcoh()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    warm = inproc_iteration(modules, run_plan, out_root, None)  # not counted
    checker(warm)
    runs = [warm]
    untraced: list[float] = []
    traced: list[float] = []
    skipped: list[str] = []

    def step() -> None:
        nonlocal skipped
        it = inproc_iteration(modules, run_plan, out_root, None)
        checker(it)
        runs.append(it)
        untraced.append(it.evaluate_s)
        tracer.run_id = len(traced)
        with tracing.instrument(tracer, modules) as skipped:
            it = inproc_iteration(modules, run_plan, out_root, tracer)
        checker(it)
        runs.append(it)
        traced.append(it.evaluate_s)

    repeat_for(seconds - (time.perf_counter() - start), step)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"trace-{workload.name}.json")

    metrics = tracing.layer_metrics(tracer)
    # A difference of two fastest times: near 0, and below 0 if the traced
    # runs happened to meet a quieter host than the untraced ones.
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    print(f"{'span':28} {'total_s':>10} {'self_s':>10}  (fastest of {len(traced)} traced runs)")
    for name, (total, self_time) in sorted(tracing.fastest_times(tracer).items()):
        print(f"{name:28} {total:10.4f} {self_time:10.4f}")
    for name in skipped:
        print(f"absent hook: {name}")
    return metrics, {"evaluate_s untraced": untraced, "evaluate_s traced": traced}, checker, runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "pefcoh" / "cli.py").is_file():
        print(f"error: no pefcoh sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    inputs = prepare_inputs(workload, args.seed)
    out_root = WORK / f"out-{os.getpid()}"
    try:
        runner = run_traced if args.trace else run_cli
        metrics, samples, checker, runs = runner(
            workload, inputs, args.seed, args.seconds, out_root
        )
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = sum(it.attempted for it in runs)
    failed = sum(it.failed for it in runs)
    correct = failed == 0 and checker.ok
    print(f"workload {workload.name} seed {args.seed}: {inputs.entries} entries, "
          f"{inputs.dump_bytes} dump bytes, {len(runs)} iterations")
    print(f"digest {checker.expected} ({'recorded' if checker.recorded else 'unrecorded seed'}), "
          f"raster check {'ok' if checker.raster_errors == [] else 'FAILED'}")
    if not checker.recorded:
        print(f"unrecorded seed {args.seed}: scores unchecked against a reference digest, "
              "only compared across iterations and by the raster check")
    for name, values in samples.items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"  {name}: n={len(values)} min={min(values):.4f} median={statistics.median(values):.4f} "
              f"q1={q[0]:.4f} q3={q[2]:.4f}")
    result = {}
    for entry in declared:
        value = metrics.get(entry["name"])
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {entry['name']:32} {shown:>14} {entry['unit']}")
        if value is not None:  # an absent metric is left out, never reported as 0
            result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
