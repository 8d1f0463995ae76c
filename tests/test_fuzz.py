"""Structure-aware fuzzing of the input readers through the CLI.

Each example mutates a valid synth file (dump, annotations, lexicon, report,
synth spec or ledger) at the level of its JSON tree: a field dropped,
renamed, repeated or retyped; a number replaced by a bool, a string, ``NaN``,
``Infinity``, ``10**400`` or ``2**63``; a name made empty, whitespace-only,
non-ASCII, a lone surrogate or one holding a colon, written as itself or as
the escape ``\\u003a``; keys or list items reordered. The CLI must
answer every mutant with exit 0 or 2 (1 only where ``evaluate`` reports a
property it cannot compute), never with a traceback, and the ledger reader
may raise only :class:`FormatError`. A key written twice in the raw text of
any file kind must be rejected, naming the key.

Each example runs the CLI on files, so tier-1 runs a fifth of the active
hypothesis profile's examples (20 under the default and ``ci`` profiles);
``--hypothesis-profile=fuzz`` (conftest.py) runs 500.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from pefcoh.cli import main
from pefcoh.dumpio import (
    FormatError,
    annotations_to_json,
    dumps_canonical,
    lexicon_to_json,
)
from pefcoh.synth import SynthSpec, generate, ledger_to_json, parse_ledger

from helpers import dump_tree

FUZZ = settings(
    max_examples=settings.default.max_examples // 5,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)

NUMBERS = [True, False, "1", math.nan, math.inf, -math.inf, 10**400, 2**63, -1, 0, 0.5]
# a character that write_json writes as the escape \u003a, which decodes to ':'
ESCAPED_COLON = "\x01"
NAMES = ["", " ", "\t\n", "\u00a0", "é", "İ", "ß", "日本語", " MASS ", "p\ud800", "p:q",
         f"p{ESCAPED_COLON}q", 'p"q', "p\\q"]
RETYPED = [None, True, "x", 0, 1.5, [], {}]

INPUTS = ("dump", "annotations", "lexicon")
# report keys that `compare` does not read
REPORT_BODY = ("prototypes", "localization_rows")


def _replacement(data, value):
    """A value to put in place of ``value``: an awkward number or name of
    its kind, or a value of another type."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        awkward = NUMBERS
    elif isinstance(value, str):
        awkward = NAMES
    else:
        awkward = []
    return copy.deepcopy(data.draw(st.sampled_from(awkward + RETYPED), label="replacement"))


def _mutate(data, node):
    """``node`` with one mutation at a drawn place in it; containers are
    changed in place."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        keys = []
    if keys and data.draw(st.booleans(), label="descend"):
        key = data.draw(st.sampled_from(keys), label="child")
        node[key] = _mutate(data, node[key])
        return node
    ops = ["replace"]
    if keys:
        ops += ["drop", "reorder", "rename" if isinstance(node, dict) else "repeat"]
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "replace":
        return _replacement(data, node)
    key = data.draw(st.sampled_from(keys), label="key")
    if op == "drop":
        del node[key]
    elif op == "repeat":
        node.insert(key, copy.deepcopy(node[key]))
    elif op == "rename":
        name = data.draw(st.sampled_from(NAMES), label="name")
        return {name if k == key else k: v for k, v in node.items()}
    else:
        order = data.draw(st.permutations(keys), label="order")
        if isinstance(node, dict):
            return {k: node[k] for k in order}
        return [node[i] for i in order]
    return node


def _mutant(data, tree):
    tree = copy.deepcopy(tree)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        tree = _mutate(data, tree)
    return tree


def _reorder_keys(rnd, node):
    """``node`` with the keys of every object in it shuffled by ``rnd``."""
    if isinstance(node, dict):
        keys = list(node)
        rnd.shuffle(keys)
        return {k: _reorder_keys(rnd, node[k]) for k in keys}
    if isinstance(node, list):
        return [_reorder_keys(rnd, item) for item in node]
    return node


def write_json(path, obj):
    """``dumpio.write_json``, but a lone surrogate, which UTF-8 cannot hold,
    is written as its JSON escape, and ESCAPED_COLON as ``\\u003a``."""
    text = dumps_canonical(obj).replace("\\u0001", "\\u003a")
    path.write_bytes(text.encode("utf-8", "backslashreplace"))


def run_cli(*argv):
    """``cli.main``'s exit code and stderr; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _write_inputs(root, trees):
    for name in INPUTS:
        write_json(root / f"{name}.json", trees[name])
    return ["--dump", root / "dump.json", "--annotations", root / "annotations.json",
            "--lexicon", root / "lexicon.json"]


def _evaluate(root, trees):
    out = root / "out"
    code, err = run_cli("evaluate", *_write_inputs(root, trees), "--out", out,
                        "--format", "markdown", "--fixed-timestamp")
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, err, files


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The synth files of seed 3, their evaluate outputs and report header."""
    dump, annotations, lexicon, _ = generate(SynthSpec(rng_seed=3))
    trees = {
        "dump": dump_tree(dump),
        "annotations": annotations_to_json(annotations),
        "lexicon": lexicon_to_json(lexicon),
    }
    code, _, outputs = _evaluate(tmp_path_factory.mktemp("base"), trees)
    assert code == 0
    return trees, outputs


@pytest.fixture(scope="module")
def ledger():
    """The JSON tree of the ledger of synth seed 3."""
    return ledger_to_json(generate(SynthSpec(rng_seed=3))[3])


def _assert_one_line_error(code, err):
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", INPUTS)
@FUZZ
@given(data=st.data())
def test_validate_and_evaluate_agree_on_a_mutant(base, name, data):
    trees, _ = base
    trees = {**trees, name: _mutant(data, trees[name])}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        validated, _ = run_cli("validate", *_write_inputs(root, trees))
        evaluated, err, _ = _evaluate(root, trees)
    event(f"validate {validated}, evaluate {evaluated}")
    assert validated in (0, 2)
    assert (validated == 2) == (evaluated == 2), (validated, evaluated, err)
    _assert_one_line_error(evaluated, err)


@FUZZ
@given(data=st.data())
def test_compare_on_a_mutated_report_header(base, data):
    _, outputs = base
    (report_name,) = [name for name in outputs if name.endswith(".report.json")]
    report = json.loads(outputs[report_name])
    header = _mutant(data, {k: v for k, v in report.items() if k not in REPORT_BODY})
    if isinstance(header, dict):
        header.update((k, report[k]) for k in REPORT_BODY)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_json(root / "r.json", header)
        code, err = run_cli("compare", root / "r.json", "--out", root / "cmp",
                            "--fixed-timestamp")
    event(f"compare {code}")
    assert code in (0, 2), err
    _assert_one_line_error(code, err)


@FUZZ
@given(rnd=st.randoms(use_true_random=False))
def test_reordered_keys_give_identical_outputs(base, rnd):
    trees, outputs = base
    trees = {name: _reorder_keys(rnd, tree) for name, tree in trees.items()}
    with tempfile.TemporaryDirectory() as tmp:
        code, err, files = _evaluate(Path(tmp), trees)
    assert code == 0, err
    assert files == outputs


@FUZZ
@given(data=st.data())
def test_synth_on_a_mutated_spec(data):
    spec = _mutant(data, SynthSpec(rng_seed=3).to_dict())
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_json(root / "spec.json", spec)
        code, err = run_cli("synth", "--spec", root / "spec.json", "--out", root / "s")
        if code == 0:  # what synth writes, validate accepts
            validated, _ = run_cli("validate", "--dump", root / "s" / "dump.json",
                                   "--annotations", root / "s" / "annotations.json",
                                   "--lexicon", root / "s" / "lexicon.json")
            assert validated == 0
    event(f"synth {code}")
    assert code in (0, 2), err
    _assert_one_line_error(code, err)


@FUZZ
@given(data=st.data())
def test_parse_ledger_on_a_mutant(ledger, data):
    tree = _mutant(data, ledger)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.json"
        write_json(path, tree)
        try:
            parse_ledger(path)
            event("parsed")
        except FormatError:
            event("FormatError")


# a key no synth file holds; it marks where the repeated key goes in the text
_MARK = "\0repeated"


def _objects(node):
    """Every non-empty object in ``node``, ``node`` itself included."""
    if isinstance(node, dict):
        if node:
            yield node
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        children = ()
    for child in children:
        yield from _objects(child)


def _text_with_repeated_key(data, tree):
    """The JSON text of ``tree`` with one key of a drawn object written a
    second time, before or after the first, and that key."""
    tree = copy.deepcopy(tree)
    obj = data.draw(st.sampled_from(list(_objects(tree))), label="object")
    items = list(obj.items())
    key, value = data.draw(st.sampled_from(items), label="key")
    value = data.draw(st.sampled_from([value, *RETYPED]), label="value")
    items.insert(data.draw(st.integers(0, len(items)), label="at"), (_MARK, value))
    obj.clear()
    obj.update(items)
    return dumps_canonical(tree).replace(json.dumps(_MARK), json.dumps(key)), key


FILE_KINDS = (*INPUTS, "report", "synth-spec", "ledger")


@pytest.mark.parametrize("kind", FILE_KINDS)
@FUZZ
@given(data=st.data())
def test_repeated_key_in_the_text_is_named(base, ledger, kind, data):
    trees, outputs = base
    (report,) = [json.loads(text) for name, text in outputs.items()
                 if name.endswith(".report.json")]
    tree = {**trees, "report": report, "synth-spec": SynthSpec().to_dict(),
            "ledger": ledger}[kind]
    text, key = _text_with_repeated_key(data, tree)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = _write_inputs(root, trees)
        path = root / f"{kind}.json"
        path.write_text(text, encoding="utf-8")
        if kind in INPUTS:
            code, err = run_cli("evaluate", *argv, "--out", root / "out")
        elif kind == "report":
            code, err = run_cli("compare", path, "--out", root / "out")
        elif kind == "synth-spec":
            code, err = run_cli("synth", "--spec", path, "--out", root / "out")
        else:  # no command reads a ledger
            with pytest.raises(FormatError) as raised:
                parse_ledger(path)
            code, err = 2, f"error: {raised.value}\n"
    assert code == 2, err
    assert err == f"error: {path}: duplicate key {key!r}\n"
