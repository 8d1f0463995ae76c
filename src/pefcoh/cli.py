"""Command-line interface: validate, evaluate, compare, synth.

Exit codes: 0 success, 1 runtime error, 2 validation failure (bad file,
cross-file disagreement, infeasible synth spec). Errors print a single-line
cause on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import dumpio, report, synth
from .metrics import RunConfig, aggregate, evaluate
from .records import COMBINED_LEVEL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pefcoh",
        description="Evaluate the quality of prototypes learned by "
        "prototype-based image classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="parse and cross-check a dump/annotation/lexicon triple"
    )
    p_validate.add_argument("--dump", required=True)
    p_validate.add_argument("--annotations", required=True)
    p_validate.add_argument("--lexicon")

    p_eval = sub.add_parser("evaluate", help="compute all properties for one or more dumps")
    p_eval.add_argument("--dump", action="append", required=True,
                        help="evidence dump path; repeat for multiple seed runs")
    p_eval.add_argument("--annotations", required=True)
    p_eval.add_argument("--lexicon")
    p_eval.add_argument("--k", type=int, default=10)
    p_eval.add_argument("--patch-size", type=int, default=130)
    p_eval.add_argument("--eps", type=float, default=1e-8)
    p_eval.add_argument("--levels", help="comma-separated category levels to report")
    p_eval.add_argument("--class-specific-level", default=COMBINED_LEVEL)
    p_eval.add_argument("--tc", type=int, help="override the total-category count")
    p_eval.add_argument("--tc-split", choices=["all", "train", "test"], default="all",
                        help="which split the category universe is counted over")
    p_eval.add_argument("--lp-class", choices=["ground_truth", "max_weight"],
                        default="ground_truth",
                        help="class whose weight signs local-prototype contributions")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--format", choices=["json", "csv", "markdown"], default="json",
                        help="extra table output next to the JSON reports")
    p_eval.add_argument("--fixed-timestamp", action="store_true",
                        help="write a fixed timestamp for byte-reproducible outputs")

    p_cmp = sub.add_parser("compare", help="tabulate models from report files")
    p_cmp.add_argument("reports", nargs="+", help="report JSON files (grouped by model name)")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--format", choices=["json", "csv", "markdown", "all"], default="all")
    p_cmp.add_argument("--fixed-timestamp", action="store_true")

    p_synth = sub.add_parser("synth", help="generate a synthetic dump with a ground-truth ledger")
    p_synth.add_argument("--spec", help="synth spec JSON; defaults are used when omitted")
    p_synth.add_argument("--seed", type=int, help="override the spec's rng seed")
    p_synth.add_argument("--structure-seed", type=int,
                         help="pin dataset-shaping draws so multiple seeds share "
                         "one annotation set")
    p_synth.add_argument("--model-name", help="override the spec's model name")
    p_synth.add_argument("--out", required=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    levels = None
    if args.levels:
        levels = tuple(part.strip() for part in args.levels.split(",") if part.strip())
    return RunConfig(
        k=args.k,
        patch_size=args.patch_size,
        eps=args.eps,
        levels=levels,
        class_specific_level=args.class_specific_level,
        tc_override=args.tc,
        tc_split=None if args.tc_split == "all" else args.tc_split,
        lp_weight_class=args.lp_class,
    )


def cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    try:
        dump = dumpio.parse_dump(args.dump)
        print(f"dump: OK ({len(dump.prototypes)} prototypes, {len(dump.images)} images)")
    except (OSError, dumpio.FormatError) as exc:
        print(f"dump: ERROR {exc}")
        return 2
    try:
        annotations, lexicon = dumpio.load_annotations(args.annotations, args.lexicon)
        n_rois = sum(len(img.rois) for img in annotations.images)
        print(f"annotations: OK ({len(annotations.images)} images, {n_rois} ROIs)")
        print(f"lexicon: OK (levels: {', '.join(lexicon.levels())})")
    except (OSError, dumpio.FormatError) as exc:
        print(f"annotations: ERROR {exc}")
        return 2
    for diag in dumpio.cross_validate(dump, annotations):
        print(f"{diag.severity}: {diag.message}")
        if diag.severity == "error":
            failures += 1
    if failures:
        print(f"FAILED ({failures} cross-validation errors)")
        return 2
    print("OK")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    annotations, lexicon = dumpio.load_annotations(args.annotations, args.lexicon)

    # every dump is evaluated and the runs pooled before anything is written
    reports = [evaluate(dumpio.parse_dump(path), annotations, lexicon, config)
               for path in args.dump]
    properties = aggregate(reports)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in reports:
        path = out_dir / f"{result.model_name}-seed{result.seed}.report.json"
        report.write_report(path, result, args.fixed_timestamp)
        print(f"wrote {path}")

    payload = report.aggregate_to_dict(reports, properties, args.fixed_timestamp)
    dumpio.write_json(out_dir / "aggregate.json", payload)
    print(f"wrote {out_dir / 'aggregate.json'}")

    if args.format in ("csv", "markdown"):
        table = report.comparison_table(
            {reports[0].model_name: properties}, list(reports[0].scores.specialization)
        )
        if args.format == "markdown":
            (out_dir / "summary.md").write_text(
                report.render_markdown(table, dumpio.to_json(config)), encoding="utf-8"
            )
            print(f"wrote {out_dir / 'summary.md'}")
        else:
            (out_dir / "summary.csv").write_text(report.render_csv(table), encoding="utf-8")
            print(f"wrote {out_dir / 'summary.csv'}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    by_model: dict[str, list[dict]] = {}
    for run in (report.load_report(path) for path in args.reports):
        by_model.setdefault(run["model_name"], []).append(run)
    payload, table = report.build_comparison(by_model, args.fixed_timestamp)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wanted = ("json", "csv", "markdown") if args.format == "all" else (args.format,)
    if "json" in wanted:
        dumpio.write_json(out_dir / "comparison.json", payload)
        print(f"wrote {out_dir / 'comparison.json'}")
    if "markdown" in wanted:
        (out_dir / "comparison.md").write_text(
            report.render_markdown(table, payload["config"]), encoding="utf-8"
        )
        print(f"wrote {out_dir / 'comparison.md'}")
    if "csv" in wanted:
        (out_dir / "comparison.csv").write_text(report.render_csv(table), encoding="utf-8")
        print(f"wrote {out_dir / 'comparison.csv'}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = synth.parse_synth_spec(args.spec) if args.spec else synth.SynthSpec()
    overrides = {
        "rng_seed": args.seed,
        "structure_seed": args.structure_seed,
        "model_name": args.model_name,
    }
    spec = dataclasses.replace(
        spec, **{name: value for name, value in overrides.items() if value is not None}
    )
    dump, annotations, lexicon, ledger = synth.generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dumpio.write_json(out_dir / "dump.json", dumpio.dump_to_json(dump))
    dumpio.write_json(out_dir / "annotations.json", dumpio.annotations_to_json(annotations))
    dumpio.write_json(out_dir / "lexicon.json", dumpio.lexicon_to_json(lexicon))
    dumpio.write_json(out_dir / "ledger.json", synth.ledger_to_json(ledger))
    for name in ("dump.json", "annotations.json", "lexicon.json", "ledger.json"):
        print(f"wrote {out_dir / name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "evaluate": cmd_evaluate,
        "compare": cmd_compare,
        "synth": cmd_synth,
    }
    try:
        return handlers[args.command](args)
    except (dumpio.FormatError, dumpio.ConsistencyError, synth.InfeasibleSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
