"""Every command's outputs against the reference pipeline of ``tests/reference.py``.

Each example draws a small export in one of ``perfbench/synth.py``'s two
styles, with its gold CSV, mixes in hostile and odd lines from
``tests/test_hostile.py`` and tweets that reach rules the generator's
records do not, and draws the flags a run can change. It also draws
faults: gold rows and headers, lines inserted into the labeled corpus
and the predictions, and a hand-made model file in place of the trained
one, each broken in a way README lists or valid in a way the commands do
not write. It runs collect -> train -> classify -> report -> eval
(``--model``, the holdout and ``--k``) in process with ``--format json``,
through the same command lines as ``reference.run``, and compares each
exit status, stdout, stderr and the files after each command. The table
and CSV bytes are pinned by ``tests/test_golden.py``.
"""

import importlib.util
import io
import itertools
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference
from kicaumine import _train, corpus, model, resources, stemming
from kicaumine.cli import main
from kicaumine.exceptions import ConfigError
from test_hostile import HOSTILE, ODD

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "kicaumine" / "data"
TAGS = ("pilgubjabar", "ridwankamil", "deddymizwar", "dedimulyadi", "pilkadajabar")


@cache
def generator(style):
    spec = importlib.util.spec_from_file_location("_reference_synth", REPO / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.CorpusGenerator(DATA, 0, style)


def synthesized(style, seed, lines, gold_rows):
    """The export and gold bytes of ``synth.CorpusGenerator(DATA, seed, style)``."""
    corpus_generator = generator(style)
    corpus_generator.rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as work:
        export, gold = Path(work, "export.jsonl"), Path(work, "gold.csv")
        corpus_generator.write(lines, export, gold, gold_rows)
        return export.read_bytes(), gold.read_bytes()


NAMES = ("export", "gold", "labeled", "unlabeled", "model", "predictions")


def command_lines(path: dict, flags: dict) -> list:
    """Per command: its key, its argv, the file it needs, and the file edited after it.

    A command runs once the file it needs exists, as written by the
    command before it or as the drawn input.
    """
    pipeline = (
        ["--disable-stopwords"] * (not flags["stopwords"])
        + ["--enable-pos"] * flags["pos"]
        + ["--disable-stemming"] * (not flags["stemming"])
    )
    tags = ["--hashtags", ",".join(flags["tags"])]
    oov = ["--oov", flags["oov"], *pipeline]
    evaluate = ["eval", "--input", path["export"], "--gold", path["gold"], *oov]
    seed = ["--seed", str(flags["seed"])]
    lines = [
        ("collect", ["collect", "--input", path["export"], "--out-labeled", path["labeled"],
                     "--out-unlabeled", path["unlabeled"], *tags], "export", "labeled"),
        ("train", ["train", "--input", path["labeled"], "--model", path["model"], *pipeline],
         "labeled", "model"),
        ("classify", ["classify", "--input", path["unlabeled"], "--model", path["model"],
                      "--out", path["predictions"], *oov], "model", "predictions"),
        ("report", ["report", "--input", path["unlabeled"], "--predictions", path["predictions"],
                    *tags], "predictions", None),
        ("eval-model", [*evaluate, "--model", path["model"]], "model", None),
        ("eval-holdout", [*evaluate, "--train-fraction", str(flags["train_fraction"]), *seed],
         "export", None),
        ("eval-k", [*evaluate, "--k", str(flags["k"]), *seed], "export", None),
    ]
    return [(key, [*argv, "--format", "json"], needs, edited) for key, argv, needs, edited in lines]


def edited(data, at, line: bytes):
    """``data`` with ``line`` inserted as its line ``at`` (modulo its line count),
    or ``line`` alone when ``at`` is None."""
    if at is None:
        return line
    if data is None:
        return None
    lines = data.split(b"\n")
    lines.insert(at % len(lines), line)
    return b"\n".join(lines)


def package_run(work: Path):
    """``reference.run``'s interface over the package: ``files`` is written to
    ``work``, the command runs in process, and ``work`` is read back."""

    def run(argv, files):
        for path in work.iterdir():
            path.unlink()
        for path, data in files.items():
            Path(path).write_bytes(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = main(argv)
        files.clear()
        files.update((str(path), path.read_bytes()) for path in work.iterdir())
        return status, stdout.getvalue().encode(), stderr.getvalue().encode()

    return run


def outcomes(run, work: Path, export: bytes, gold: bytes, flags: dict, edits: dict) -> dict:
    """Each command's exit status, stdout, stderr and the files after it, through ``run``."""
    path = {name: str(work / name) for name in NAMES}
    files = {path["export"]: export, path["gold"]: gold}
    seen = {}
    for key, argv, needs, edit in command_lines(path, flags):
        if path[needs] in files:
            status, stdout, stderr = run(argv, files)
            seen.update({f"{key}.status": status, f"{key}.stdout": stdout,
                         f"{key}.stderr": stderr})
            seen.update((f"{key}:{name}", files.get(path[name])) for name in NAMES)
        if edit in edits:
            data = edited(files.get(path[edit]), *edits[edit])
            if data is not None:
                files[path[edit]] = data
    return seen


def mismatches(export: bytes, gold: bytes, flags: dict, edits=None) -> list[str]:
    """The keys on which the package's runs and the reference disagree."""
    flags = {"tags": TAGS, **flags}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        expected = outcomes(reference.run, work, export, gold, flags, edits or {})
        got = outcomes(package_run(work), work, export, gold, flags, edits or {})
    return sorted(key for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))


# One tweet per rule that the generator's records do not reach: emoticons,
# '@', '#' and URL markers inside words, RT after the first word and after
# words that cleanse to nothing or to no token, a letter whose lowercase is
# not letters, digits and punctuation in words, a tag in capitals only,
# words that take three prefixes or an elided consonant under a second one,
# and a labeled tweet that preprocesses to no tokens. Each also passes the
# language test.
RULE_TWEETS = [
    "@ RT a::))b kata:)kata bagus calon #PilgubJabar :)",
    "www.x RT x@y x@ Bagus123 KATA, bagus menang kerja calon mememberadil meneradil #pilgubjabar :(",
    "RT R#T Rt İstanbul kerja calon bagus menang #pilgubjabar",
    "bagus ht#tp://x www.kata calon RT #pilgubjabar",
    "calon bagus menang #pilgubjabar :) :(",
    "yang dan http://t.co/x#pilgubjabar :)",
]
# Those tweets, and every line of ``tests/test_hostile.py``.
EXTRA_LINES = [
    *(json.dumps({"id": f"x{i}", "text": text}) for i, text in enumerate(RULE_TWEETS)),
    *HOSTILE.values(),
    *ODD.values(),
]


def _lines(*records):
    """Each record as one line: a JSON value dumped, text encoded, bytes as they are."""
    return [
        record if isinstance(record, bytes)
        else (record if isinstance(record, str) else json.dumps(record)).encode()
        for record in records
    ]


# Lines inserted into the labeled corpus that collect wrote, one per way
# README lists for a bad row, and valid rows that reach other rules.
ROW = {"id": "f", "text": "bagus calon menang", "label": "positive"}
LABELED_FAULTS = _lines(
    {**ROW, "label": "neutral"}, {**ROW, "label_source": "manual"},
    {**ROW, "text": "yang 123 :) http://t.co/x"},
    {**ROW, "id": 7}, {**ROW, "id": ""}, {**ROW, "text": 5}, {**ROW, "text": " \t"},
    {"id": "f", "text": "bagus"}, {"id": "f", "label": "positive"},
    {**ROW, "label": "happy"}, {**ROW, "label": ["positive"]}, {**ROW, "label_source": "guess"},
    {**ROW, "label": "neutral", "label_source": "distant"},
    {**ROW, "text": 5, "label": "happy"}, {**ROW, "label": "happy", "label_source": "guess"},
    [ROW], '{"id": "f", ', b"\xff" + json.dumps(ROW).encode(),
    "\ufeff" + json.dumps(ROW), "[" * 100_000, '{"id": "f", "n": ' + "1" * 5_000 + "}",
    json.dumps(ROW) + "\n" + json.dumps(ROW),
)
# Lines inserted into the predictions that classify wrote.
PREDICTION = {"id": "ghost", "label": "positive", "oov_tokens": 0,
              "posteriors": {"negative": 0.25, "positive": 0.75}}
PREDICTION_FAULTS = _lines(
    PREDICTION, {**PREDICTION, "oov_tokens": 1.5, "posteriors": {"positive": 1, "neutral": 0}},
    {"id": "ghost", "label": "positive"}, {**PREDICTION, "posteriors": [0.5]},
    {"id": "ghost", "oov_tokens": 0},
    {**PREDICTION, "label": "happy"}, {**PREDICTION, "posteriors": {"happy": 0.5}},
    {**PREDICTION, "posteriors": {"positive": "x"}},
    {**PREDICTION, "posteriors": {"positive": None}},
    '{"id": "ghost", "label": "positive", "posteriors": {"positive": 1' + "0" * 400 + "}}",
    '{"id": "ghost", "label": "positive", "oov_tokens": Infinity}',
    '{"id": "ghost", "label": "positive", "oov_tokens": 1e400}',
    '{"id": "ghost", "label": "positive", "oov_tokens": NaN}',
    {**PREDICTION, "oov_tokens": "x"}, {**PREDICTION, "label": "happy", "posteriors": []},
    {**PREDICTION, "posteriors": {"happy": "x"}, "oov_tokens": "x"},
    {**PREDICTION, "id": 5}, '"ghost"', b"\xff",
    "[" * 100_000, json.dumps(PREDICTION) + "\n" + json.dumps(PREDICTION),
)
# Rows inserted into the gold CSV; inserted first, a row takes the header's place.
GOLD_FAULTS = [
    b"ghost,negative", b"x5,negative", b'"gh\nost",negative', b'"x\rerror: fake",positive',
    b"ghost, Neutral ",
    b",positive", b"   ,negative", b"t,happy", b"t", b"dupe,positive\ndupe, negative",
    b'"unterminated,positive', b"big," + b"x" * 140_000, b"\xffbad,positive", b"", b"id,label",
]
# Headers put in place of the gold CSV's.
GOLD_HEADERS = [b"id,label", b" id , label", b"\xef\xbb\xbfid,label", b"label,id", b"id,label,x"]


COUNTS = {"negative": {"buruk": 2, "calon": 1}, "positive": {"bagus": 2, "menang": 1}}


def model_file(**changes):
    """A model file's bytes: a valid payload with ``changes``; a change to None drops the key."""
    payload = {
        "alpha": 1, "docs_per_class": {"negative": 2, "positive": 3},
        "labels": ["negative", "positive"], "schema_version": 1, "token_counts": COUNTS,
        "tokens_per_class": {"negative": 3, "positive": 3},
    }
    payload.update(changes)
    return json.dumps({key: value for key, value in payload.items() if value is not None}).encode()

# Hand-made model files put in place of the one train wrote: one per
# malformation load_model refuses, and valid ones train does not write.
MODEL_FAULTS = [
    b"\xff\xfe not UTF-8\n", b"{", b"[" * 100_000, b"[]", b"{}", model_file(schema_version=2),
    model_file(labels=None), model_file(labels=["negative", "happy"]), model_file(labels="neg"),
    model_file(labels=5), model_file(docs_per_class={"negative": 2.0, "positive": 3}),
    model_file(docs_per_class={"negative": True, "positive": 3}), model_file(docs_per_class=[]),
    model_file(docs_per_class={"happy": 2, "positive": 3}),
    model_file(docs_per_class={"happy": 2.0, "positive": 3}),
    model_file(token_counts={**COUNTS, "negative": {"buruk": "2"}}),
    model_file(token_counts={**COUNTS, "negative": []}),
    model_file(tokens_per_class={"negative": 3, "positive": 3.0}),
    model_file(alpha=1.0), model_file(alpha=2), model_file(labels=["negative"]),
    model_file(labels=["negative", "negative"]), model_file(docs_per_class={"negative": 2}),
    model_file(token_counts={**COUNTS, "neutral": {"biasa": 1}}),
    model_file(docs_per_class={"negative": 0, "positive": 3}),
    model_file(token_counts={**COUNTS, "positive": {"bagus": 0, "menang": 3}}),
    model_file(token_counts={**COUNTS, "positive": {"": 3}}),
    model_file(token_counts={"negative": {}, "positive": {}},
               tokens_per_class={"negative": 0, "positive": 0}),
    model_file(tokens_per_class={"negative": 3, "positive": 4}),
    model_file(alpha=None, schema_version=True), model_file(labels=["positive", "negative"]),
    model_file(labels=["negative", "positive", "neutral"],
               docs_per_class={"negative": 2, "positive": 3, "neutral": 4},
               token_counts={**COUNTS, "neutral": {"calon": 5, "kerja": 1}},
               tokens_per_class={"negative": 3, "positive": 3, "neutral": 6}),
    model_file(schema_version=1.0),
]
edit_sets = st.one_of(st.just({}), st.fixed_dictionaries({}, optional={
    "labeled": st.tuples(st.integers(0, 10**6), st.sampled_from(LABELED_FAULTS)),
    "predictions": st.tuples(st.integers(0, 10**6), st.sampled_from(PREDICTION_FAULTS)),
    "model": st.tuples(st.none(), st.sampled_from(MODEL_FAULTS)),
}))


@st.composite
def inputs(draw):
    style = draw(st.sampled_from(["campaign", "noisy"]))
    lines = draw(st.integers(1, 80) if style == "campaign" else st.integers(1, 30))
    seed = draw(st.integers(0, 10**6))
    export, gold = synthesized(style, seed, lines, draw(st.sampled_from(["heldout", "all"])))
    export_lines = export.split(b"\n")
    for line in draw(st.lists(st.sampled_from(EXTRA_LINES), max_size=4)):
        export_lines.insert(draw(st.integers(0, len(export_lines))), line.encode())
    gold = draw(st.sampled_from(GOLD_HEADERS)) + gold.removeprefix(b"id,label")
    for row in draw(st.lists(st.sampled_from(GOLD_FAULTS), max_size=2)):
        gold = edited(gold, draw(st.integers(0, 10**6)), row)
    return b"\xef\xbb\xbf" * draw(st.booleans()) + b"\n".join(export_lines), gold


FIXED_FLAGS = {"stopwords": True, "pos": False, "stemming": True, "oov": "skip", "seed": 3,
               "train_fraction": 0.8, "k": 3}
flag_sets = st.fixed_dictionaries({
    "stopwords": st.booleans(), "pos": st.booleans(), "stemming": st.booleans(),
    "oov": st.sampled_from(["smooth", "skip"]), "seed": st.integers(0, 2**32),
    "train_fraction": st.one_of(st.sampled_from([0.5, 0.8]), st.floats(0.05, 0.95)),
    "k": st.integers(2, 5),
})


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs(), flag_sets, edit_sets)
@example(  # every tweet labeled: no prediction reaches report
    ("".join(line + "\n" for line in EXTRA_LINES[:2]).encode(), b"id,label\nx0,positive\n"),
    FIXED_FLAGS, {},
)
@example(  # the one labeled tweet preprocesses to no tokens: train has no document
    (EXTRA_LINES[5].encode() + b"\n", b"id,label\nx5,positive\n"), FIXED_FLAGS, {}
)
def test_commands_agree_with_reference(export_and_gold, flags, edits):
    assert mismatches(*export_and_gold, flags, edits) == []


# One export, opening with a byte-order mark, that holds every extra line,
# so that each rule is checked on every run. Each mutant below changes some
# output of it under FIXED_FLAGS.
def fixed_inputs():
    export, gold = synthesized("campaign", 11, 60, "all")
    # Gold rows for the rule tweets too, one of which preprocesses to no tokens.
    rows = (f"x{i},{('positive', 'negative')[i % 2]}\n" for i in range(len(RULE_TWEETS)))
    gold += "".join(rows).encode()
    return b"\xef\xbb\xbf" + export + "".join(line + "\n" for line in EXTRA_LINES).encode(), gold


@pytest.mark.parametrize("stopwords, pos, stemming", itertools.product([True, False], repeat=3))
def test_fixed_export_agrees(stopwords, pos, stemming):
    flags = {**FIXED_FLAGS, "stopwords": stopwords, "pos": pos, "stemming": stemming,
             "oov": "skip" if pos else "smooth"}
    assert mismatches(*fixed_inputs(), flags) == []


FAULTS = {"labeled": LABELED_FAULTS, "predictions": PREDICTION_FAULTS, "model": MODEL_FAULTS,
          "gold": GOLD_FAULTS, "gold header": GOLD_HEADERS}


@pytest.mark.parametrize(
    "kind, n", [(kind, n) for kind, faults in FAULTS.items() for n in range(len(faults))]
)
def test_each_fault_agrees(kind, n):
    # Each fault goes after the first row of a small export's file, so
    # that every one is checked on every run.
    export, gold = synthesized("campaign", 5, 12, "all")
    fault = FAULTS[kind][n]
    if kind == "gold header":
        gold, edits = fault + gold.removeprefix(b"id,label"), {}
    elif kind == "gold":
        gold, edits = edited(gold, 2, fault), {}
    else:
        edits = {kind: (None if kind == "model" else 1, fault)}
    assert mismatches(export, gold, FIXED_FLAGS, edits) == []


_doc_scores, _emoticon_outcome = model._doc_scores, corpus._emoticon_outcome
_say, _read_strict_jsonl = resources._say, corpus._read_strict_jsonl


def _both_is_positive(text):
    if ":)" in text and ":(" in text:
        return "labeled_positive"
    return _emoticon_outcome(text)


def _dropped_off_by_one(line):
    if line.startswith("dropped "):
        count, rest = line.removeprefix("dropped ").split(" ", 1)
        line = f"dropped {int(count) + 1} {rest}"
    _say(line)


def _unlocated(path, kind, parse):
    """The strict reader with ``path:line: `` cut from its refusals."""
    try:
        yield from _read_strict_jsonl(path, kind, parse)
    except ConfigError as exc:
        raise ConfigError(str(exc).removeprefix(f"{path}:").split(": ", 1)[1]) from None


# Per mutant: the attribute it replaces, its replacement, and the edits
# that take the fixed export to it.
MUTANTS = {
    "oov term added under skip": (
        model, "_doc_scores", lambda table, tokens, oov_mode: _doc_scores(table, tokens, "smooth"),
        {},
    ),
    "both emoticons labeled positive": (corpus, "_emoticon_outcome", _both_is_positive, {}),
    "stemmer returns its input": (stemming.ConfixStemmer, "stem", lambda self, word: word, {}),
    "dropped documents counted one too many": (resources, "_say", _dropped_off_by_one, {}),
    "labeled-corpus refusal without path:line": (
        _train, "_read_strict_jsonl", _unlocated, {"labeled": (1, json.dumps([ROW]).encode())}
    ),
}


def patch_everywhere(monkeypatch, owner, name, replacement):
    """Replace ``owner.name`` and every module-level binding of the same object."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, replacement)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("kicaumine") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_comparison_reports_a_broken_package(mutant, monkeypatch):
    owner, name, replacement, edits = MUTANTS[mutant]
    patch_everywhere(monkeypatch, owner, name, replacement)
    assert mismatches(*fixed_inputs(), FIXED_FLAGS, edits) != []

