"""The one-pass report writer against the whole-tree reference writer."""

import dataclasses
import json

import pytest

from helpers import dumps_canonical, report_to_dict
from pefcoh import report
from pefcoh.dumpio import FormatError
from pefcoh.metrics import evaluate
from pefcoh.synth import SynthSpec, generate

HEADER_KEYS = ("format", "generated_at", "model_name", "seed", "config", "warnings", "scores")


def _evaluated(seed):
    spec = SynthSpec(rng_seed=seed)
    dump, annotations, lexicon, _ = generate(spec)
    return evaluate(dump, annotations, lexicon, spec.config())


@pytest.fixture(scope="module")
def seed0():
    return _evaluated(0)


def _pairs(text):
    return json.loads(text, object_pairs_hook=list)


def _assert_same_content(result, tmp_path, fixed_timestamp=True):
    path = tmp_path / "r.json"
    report.write_report(path, result, fixed_timestamp)
    expected = dumps_canonical(report_to_dict(result, fixed_timestamp))
    assert _pairs(path.read_text(encoding="utf-8")) == _pairs(expected)


@pytest.mark.parametrize("seed", range(20))
def test_synth_report_matches_reference(seed, tmp_path):
    _assert_same_content(_evaluated(seed), tmp_path)


def _hand_built_cases(base):
    verdict = next(v for v in base.verdicts if v.evidence is not None and v.evidence.items)
    evidence = verdict.evidence
    unmatched = dataclasses.replace(evidence.items[0], roi_index=None, categories=None)
    row = base.localization_rows[0]
    return {
        "verdict without evidence": dataclasses.replace(
            base, verdicts=(dataclasses.replace(verdict, evidence=None),)),
        "unmatched evidence item": dataclasses.replace(base, verdicts=(dataclasses.replace(
            verdict, evidence=dataclasses.replace(evidence, items=(unmatched,))),)),
        "no warnings": dataclasses.replace(base, warnings=()),
        "no localization rows": dataclasses.replace(base, localization_rows=()),
        "no rows at all": dataclasses.replace(base, verdicts=(), localization_rows=()),
        "non-ascii ids": dataclasses.replace(
            base,
            model_name="é",
            warnings=("é \U0001d538",),
            verdicts=(dataclasses.replace(verdict, prototype_id="\U0001d538é"),),
            localization_rows=(dataclasses.replace(row, image_id="é\U0001d538"),),
        ),
    }


@pytest.mark.parametrize("case", [
    "verdict without evidence", "unmatched evidence item", "no warnings",
    "no localization rows", "no rows at all", "non-ascii ids",
])
def test_hand_built_report_matches_reference(case, seed0, tmp_path):
    _assert_same_content(_hand_built_cases(seed0)[case], tmp_path)


def test_non_ascii_is_written_as_is(seed0, tmp_path):
    path = tmp_path / "r.json"
    report.write_report(path, _hand_built_cases(seed0)["non-ascii ids"])
    text = path.read_text(encoding="utf-8")
    assert '"\U0001d538é"' in text and "\\u" not in text


def test_layout_header_then_one_row_per_line(seed0, tmp_path):
    path = tmp_path / "r.json"
    report.write_report(path, seed0, fixed_timestamp=True)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[0] == "{"
    # a header line is one member of the top-level object
    header = [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:8]]
    assert [key for member in header for key in member] == list(HEADER_KEYS)
    n_verdicts, n_rows = len(seed0.verdicts), len(seed0.localization_rows)
    assert lines[8] == '  "prototypes": ['
    verdicts = [json.loads(line.rstrip(",")) for line in lines[9:9 + n_verdicts]]
    at = 9 + n_verdicts
    assert lines[at:at + 2] == ["  ],", '  "localization_rows": [']
    rows = [json.loads(line.rstrip(",")) for line in lines[at + 2:at + 2 + n_rows]]
    assert lines[at + 2 + n_rows:] == ["  ]", "}"]
    whole = json.loads(text)
    assert [whole[key] for key in HEADER_KEYS] == [v for member in header for v in member.values()]
    assert (verdicts, rows) == (whole["prototypes"], whole["localization_rows"])


def test_writes_without_the_pure_python_encoder(seed0, tmp_path, monkeypatch):
    # an indent (or any other option that leaves the C encoder) would reach
    # json.encoder._make_iterencode and its per-token list
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("the report went through the pure-Python JSON encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    path = tmp_path / "r.json"
    report.write_report(path, seed0, fixed_timestamp=True)
    header = report.load_report(path)
    assert (header["model_name"], header["seed"]) == (seed0.model_name, seed0.seed)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({"a": 1}, indent=2)


def test_unencodable_string_leaves_no_file(seed0, tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(UnicodeEncodeError):
        report.write_report(path, dataclasses.replace(seed0, model_name="p\ud800"))
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []  # nor a temporary file


# a report header that is not of its schema's shape: the keys of the value
# under the report, the value put there, and load_report's message after
# the file name
REPORT_SHAPE_FAULTS = [
    (("scores", "specialization"), ["combined"], "scores.specialization must be an object"),
    (("scores", "specialization"), 0.5, "scores.specialization must be an object"),
    (("scores", "localization", "top1"), 1.0, "scores.localization.top1 must be an object"),
    (("config", "k"), "10", "config.k must be int, got str"),
    (("scores",), [], "field 'scores' has wrong type (list)"),
    (("model_name",), "syn\nthetic",
     "model_name must be one file-name component (not empty, '.' or '..', "
     "and without '/', '\\' or a control character), got 'syn\\nthetic'"),
    (("seed",), 10**29, "seed must fit in int64 (-2**63 to 2**63 - 1)"),
    (("scores", "specialization"), {"mass-sha\npe": 0.5},
     "scores.specialization key 'mass-sha\\npe' holds a control character"),
    (("config", "levels"), "type", "config.levels must be an array"),
]


@pytest.mark.parametrize(
    "keys, value, message", REPORT_SHAPE_FAULTS,
    ids=[f"{'.'.join(keys)}-{type(value).__name__}" for keys, value, _ in REPORT_SHAPE_FAULTS],
)
def test_report_shape_fault_named(seed0, tmp_path, keys, value, message):
    path = tmp_path / "r.json"
    report.write_report(path, seed0, fixed_timestamp=True)
    raw = json.loads(path.read_text(encoding="utf-8"))
    *parents, last = keys
    target = raw
    for key in parents:
        target = target[key]
    target[last] = value
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(FormatError) as info:
        report.load_report(path)
    assert str(info.value) == f"{path}: {message}"
