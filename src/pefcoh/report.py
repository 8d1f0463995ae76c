"""Report files and the cross-model comparison table.

A per-run report (``pefcoh-report/1``) is one JSON document written in one
pass: ``{`` on the first line, then the header keys ``format`` through
``scores`` one per line, then ``"prototypes": [`` with one verdict per line
and ``"localization_rows": [`` with one row per line. Each value is encoded
by the C JSON encoder as soon as it is built. Every other file keeps the
2-space indent of :func:`pefcoh.dumpio.dumps_canonical`.

Machine-readable outputs keep full float precision; the Markdown/CSV tables
round for display only (two decimals, sparsity as a percentage), mark each
property with its improvement direction, and bold the best value per row.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .dumpio import _check_format, _load_json, _require, read_dataclass, to_json
from .records import COMBINED_LEVEL
from .scores import VARIANTS, AggregateProperty, PropertyScores, RunConfig, pool

if TYPE_CHECKING:
    from .metrics import EvaluationReport, ImageLocalizationRow, PrototypeVerdict

REPORT_FORMAT = "pefcoh-report/1"
AGGREGATE_FORMAT = "pefcoh-aggregate/1"
COMPARISON_FORMAT = "pefcoh-comparison/1"

FIXED_TIMESTAMP = "1970-01-01T00:00:00Z"

UP = "↑"
DOWN = "↓"
ABSENT = "—"  # em dash cell for properties a run could not compute


def timestamp(fixed: bool) -> str:
    if fixed:
        return FIXED_TIMESTAMP
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# JSON shapes

# indent=None keeps encode() on the C encoder; an indent would switch it to
# the pure-Python one, which holds every token of the report in a list
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _header(report: EvaluationReport, fixed_timestamp: bool) -> dict:
    return {
        "format": REPORT_FORMAT,
        "generated_at": timestamp(fixed_timestamp),
        "model_name": report.model_name,
        "seed": report.seed,
        "config": to_json(report.config),
        "warnings": list(report.warnings),
        "scores": to_json(report.scores),
    }


def _verdict(v: PrototypeVerdict) -> dict:
    entry: dict = {
        "prototype_id": v.prototype_id,
        "is_global": v.is_global,
        "is_relevant": v.is_relevant,
        "purity_per_level": {
            level: {
                "category": cat.value if cat is not None else None,
                "purity": float(purity),
            }
            for level, (cat, purity) in v.purity_per_level.items()
        },
        "combined_category": (
            v.combined_category.value if v.combined_category is not None else None
        ),
        "align": v.align,
    }
    if v.evidence is not None:
        entry["evidence"] = {
            "shortfall": v.evidence.shortfall,
            "items": [
                {
                    "image_id": item.image_id,
                    "score": item.score,
                    "patch": list(item.patch.as_floats()),
                    "roi_index": item.roi_index,
                    "combined_category": (
                        item.categories[COMBINED_LEVEL].value
                        if item.categories is not None
                        else None
                    ),
                }
                for item in v.evidence.items
            ],
        }
    return entry


def _localization_row(row: ImageLocalizationRow) -> dict:
    return {"image_id": row.image_id, "n_candidates": row.n_candidates,
            **to_json(row.per_variant)}


def _array(key: str, rows: Iterable[dict]) -> Iterator[str]:
    """``"key": [`` then one encoded row per line, without a trailing newline."""
    yield f'  "{key}": ['
    separator = "\n    "
    for row in rows:
        yield separator + _encode(row)
        separator = ",\n    "
    yield "\n  ]"


def _report_text(report: EvaluationReport, fixed_timestamp: bool) -> Iterator[str]:
    """The report's JSON text in pieces, each row encoded as soon as it is built."""
    yield "{\n"
    for key, value in _header(report, fixed_timestamp).items():
        yield f'  "{key}": {_encode(value)},\n'
    yield from _array("prototypes", map(_verdict, report.verdicts))
    yield ",\n"
    yield from _array("localization_rows", map(_localization_row, report.localization_rows))
    yield "\n}\n"


def write_report(path: str | Path, report: EvaluationReport, fixed_timestamp: bool = False) -> None:
    # the whole text is encoded before the file is opened, so a string UTF-8
    # cannot hold (a lone surrogate) fails the write without leaving a file
    chunks = [piece.encode("utf-8") for piece in _report_text(report, fixed_timestamp)]
    with open(path, "wb") as f:
        f.writelines(chunks)


def load_report(path: str | Path) -> dict:
    """Load a report file's header, the run that :func:`pool` reads:
    ``model_name``, ``seed`` and the checked JSON forms of config and scores."""
    raw = _check_format(_load_json(path), REPORT_FORMAT, path)
    where = str(path)
    header = {key: _require(raw, key, kind, where) for key, kind in
              (("model_name", str), ("seed", int), ("config", dict), ("scores", dict))}
    read_dataclass(RunConfig, header["config"], where, "config")
    read_dataclass(PropertyScores, header["scores"], where, "scores")
    return header


def aggregate_to_dict(
    reports: Sequence[EvaluationReport],
    properties: Mapping[str, AggregateProperty | None],
    fixed_timestamp: bool = False,
) -> dict:
    return {
        "format": AGGREGATE_FORMAT,
        "generated_at": timestamp(fixed_timestamp),
        "models": [r.model_name for r in reports],
        "seeds": [r.seed for r in reports],
        "n_runs": len(reports),
        "config": to_json(reports[0].config),
        "properties": to_json(properties),
    }


# ---------------------------------------------------------------------------
# comparison table


def comparison_rows(levels: Sequence[str]) -> list[tuple[str, str, str, str]]:
    """(flat key, row label, direction, format kind) in fixed display order.

    Specialization appears per level except the combined level, which the
    uniqueness/coverage rows already summarize.
    """
    rows = [
        ("global_prototypes", "Compactness: global", DOWN, "count"),
        ("local_positive", "Compactness: local positive", DOWN, "count"),
        ("local_negative", "Compactness: local negative", DOWN, "count"),
        ("sparsity_ratio", "Compactness: sparsity", UP, "percent"),
        ("relevance", "Relevance", UP, "score"),
    ]
    for level in levels:
        if level == COMBINED_LEVEL:
            continue
        rows.append((f"specialization.{level}", f"Specialization: {level}", UP, "score"))
    rows += [
        ("uniqueness", "Uniqueness", UP, "score"),
        ("coverage", "Coverage", UP, "score"),
        ("class_specific", "Class-specific", UP, "score"),
    ]
    for variant in VARIANTS:
        rows.append(
            (f"localization.{variant}.iou", f"Localization: IoU {variant}", UP, "score")
        )
    for variant in VARIANTS:
        rows.append(
            (f"localization.{variant}.dsc", f"Localization: DSC {variant}", UP, "score")
        )
    return rows


def _format_cell(prop: AggregateProperty | None, kind: str) -> str:
    if prop is None:
        return ABSENT
    if kind == "percent":
        text = f"{100 * prop.mean:.2f}%"
        if prop.std is not None:
            text += f" ± {100 * prop.std:.2f}%"
        return text
    text = f"{prop.mean:.2f}"
    if prop.std is not None:
        text += f" ± {prop.std:.2f}"
    return text


def build_comparison(
    model_reports: Mapping[str, Sequence[dict]], fixed_timestamp: bool = False
) -> tuple[dict, list[list[str]]]:
    """Pool per-model lists of report headers (see :func:`load_report`) and
    build the comparison JSON payload and the display table (header row
    first); the first report's specialization levels fix the row set."""
    runs = [r for reports in model_reports.values() for r in reports]
    per_model = pool(runs)
    payload = {
        "format": COMPARISON_FORMAT,
        "generated_at": timestamp(fixed_timestamp),
        "config": runs[0]["config"],
        "models": {
            model: {
                "n_runs": len(model_reports[model]),
                "properties": to_json(properties),
            }
            for model, properties in per_model.items()
        },
    }
    return payload, comparison_table(per_model, list(runs[0]["scores"]["specialization"]))


def comparison_table(
    per_model: Mapping[str, Mapping[str, AggregateProperty | None]],
    levels: Sequence[str],
) -> list[list[str]]:
    """The display table (header row first) of per-model aggregates, with
    specialization rows for ``levels``; the best value per row is bolded."""
    models = list(per_model)
    table = [["Property"] + models]
    for key, label, direction, kind in comparison_rows(levels):
        cells = [f"{label} {direction}"]
        values = {m: per_model[m].get(key) for m in models}
        present = {m: v.mean for m, v in values.items() if v is not None}
        best: set[str] = set()
        if len(models) > 1 and present:
            target = min(present.values()) if direction == DOWN else max(present.values())
            best = {m for m, v in present.items() if v == target}
        for model in models:
            cell = _format_cell(values[model], kind)
            if model in best and cell != ABSENT:
                cell = f"**{cell}**"
            cells.append(cell)
        table.append(cells)
    return table


def render_markdown(table: list[list[str]], config: Mapping) -> str:
    out = ["# Prototype evaluation comparison", ""]
    out.append("| " + " | ".join(table[0]) + " |")
    out.append("| " + " | ".join("---" for _ in table[0]) + " |")
    for row in table[1:]:
        out.append("| " + " | ".join(row) + " |")
    out.append("")
    config_text = ", ".join(f"{key}={value}" for key, value in config.items())
    out.append(f"Config: {config_text}. Values are mean ± sample std across runs; "
               f"best per row in bold ({UP} higher is better, {DOWN} lower is better).")
    out.append("")
    return "\n".join(out)


def render_csv(table: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in table:
        writer.writerow(row)
    return buffer.getvalue()
