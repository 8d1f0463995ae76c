"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload loc-dense --seeds 1-10

For every end-to-end metric (``--trace 1``: per-layer metric) it prints the
median over the seeds, the first and third quartiles, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. ``--json`` saves every run's result;
``--record-digests`` stores each correct run's output digest in
``digests.json`` (do this only on the commit whose outputs are the
reference).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every run's result here")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}
    digests_path = HERE / "digests.json"
    results: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in args.workload:
        runs = results.setdefault(workload, [])
        for seed in parse_seeds(args.seeds):
            result, digest = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "digest": digest, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
            if args.record_digests and result["correct"] and digest:
                recorded = json.loads(digests_path.read_text(encoding="utf-8"))
                recorded.setdefault(workload, {})[str(seed)] = digest
                digests_path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")
        print(f"{workload}: {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} spread  bound")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < len(runs):
                print(f"{workload}: {name:32} absent in {len(runs) - len(values)} runs")
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("nan")
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"{workload}: {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:6.3f}  {bound if bound is not None else ''}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"largest spread / bound: {worst:.3f}")
    return 0 if all(r["correct"] for runs in results.values() for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
