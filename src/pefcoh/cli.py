"""Command-line interface: validate, evaluate, compare, synth.

Exit codes: 0 success, 1 runtime error, 2 validation failure (bad file,
cross-file disagreement, infeasible synth spec). Errors print a single-line
cause on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from pathlib import Path

from . import dumpio, report, synth
from .records import SPLITS
from .scores import LP_WEIGHT_CLASSES, RunConfig, aggregate


def evaluate(*args, **kwargs):
    """:func:`pefcoh.metrics.evaluate`; the array code loads on the first call."""
    from .metrics import evaluate

    return evaluate(*args, **kwargs)


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
    # each run-setting flag sets the RunConfig field named by its dest; a flag
    # not given keeps that field's default
    config_flag = dict(default=argparse.SUPPRESS)
    p_eval.add_argument("--k", type=int, **config_flag)
    p_eval.add_argument("--patch-size", type=int, **config_flag)
    p_eval.add_argument("--eps", type=float, **config_flag)
    p_eval.add_argument("--levels", **config_flag,
                        help="comma-separated category levels to report")
    p_eval.add_argument("--class-specific-level", **config_flag)
    p_eval.add_argument("--tc", dest="tc_override", metavar="TC", type=int, **config_flag,
                        help="override the total-category count")
    p_eval.add_argument("--tc-split", choices=["all", *SPLITS], **config_flag,
                        help="which split the category universe is counted over "
                        "(default: all)")
    p_eval.add_argument("--lp-class", dest="lp_weight_class", choices=LP_WEIGHT_CLASSES,
                        **config_flag,
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
    """The run config of the flags given; the others keep RunConfig's defaults."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
             if hasattr(args, f.name)}
    levels = given.get("levels")
    if levels is not None:  # "" means all levels
        parts = (part.strip() for part in levels.split(","))
        given["levels"] = tuple(part for part in parts if part) if levels else None
    if given.get("tc_split") == "all":
        given["tc_split"] = None
    return RunConfig(**given)


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
    # the array code loads before any input is read: loaded after the first
    # dump's parse, it raised the peak RSS of a small dump's evaluate by 0.6 MB
    importlib.import_module(".metrics", __package__)
    annotations, lexicon = dumpio.load_annotations(args.annotations, args.lexicon)

    # every dump is evaluated and the runs pooled before anything is written
    reports = [evaluate(dumpio.parse_dump(path), annotations, lexicon, config)
               for path in args.dump]
    properties = aggregate(reports)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in reports:
        path = out_dir / dumpio.report_file_name(result.model_name, result.seed)
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
    try:
        spec = dataclasses.replace(
            spec, **{name: value for name, value in overrides.items() if value is not None}
        )
    except ValueError as exc:
        raise dumpio.FormatError(f"bad synth-spec override: {exc}") from None
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
