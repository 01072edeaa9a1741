"""Every command's outputs against the reference pipeline of ``tests/reference.py``.

Each example draws a small export in one of ``perfbench/synth.py``'s two
styles, with its gold CSV, mixes in hostile and odd lines from
``tests/test_hostile.py`` and tweets that reach rules the generator's
records do not, and draws the flags a run can change. It runs
collect -> train -> classify -> report -> eval (``--model``, the holdout
and ``--k``) in process with ``--format json``, and compares each exit
status, output file and stdout with the reference's. stderr is pinned by
``tests/test_diagnostics.py``, and the table and CSV bytes by
``tests/test_golden.py``.
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
from kicaumine import corpus, model, stemming
from kicaumine.cli import main
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


def package_outputs(work: Path, export: bytes, gold: bytes, flags: dict) -> dict:
    """The exit status and output bytes of each command run in process, keyed as
    ``reference.expected_outputs`` keys them."""
    path = {name: str(work / name) for name in
            ("export", "gold", "labeled", "unlabeled", "model", "predictions")}
    Path(path["export"]).write_bytes(export)
    Path(path["gold"]).write_bytes(gold)
    pipeline = (
        ["--disable-stopwords"] * (not flags["stopwords"])
        + ["--enable-pos"] * flags["pos"]
        + ["--disable-stemming"] * (not flags["stemming"])
    )
    tags = ["--hashtags", ",".join(flags["tags"])]
    oov = ["--oov", flags["oov"], *pipeline]
    evaluate = ["eval", "--input", path["export"], "--gold", path["gold"], *oov]
    seed = ["--seed", str(flags["seed"])]
    # Per command: its argv, and the file it reads that an earlier command
    # writes; it runs once that file exists, as the reference's runs once
    # the command writing it has succeeded.
    commands = {
        "collect": (["collect", "--input", path["export"], "--out-labeled", path["labeled"],
                     "--out-unlabeled", path["unlabeled"], *tags], "export"),
        "train": (["train", "--input", path["labeled"], "--model", path["model"], *pipeline],
                  "labeled"),
        "classify": (["classify", "--input", path["unlabeled"], "--model", path["model"],
                      "--out", path["predictions"], *oov], "model"),
        "report": (["report", "--input", path["unlabeled"], "--predictions",
                    path["predictions"], *tags], "predictions"),
        "eval-model": ([*evaluate, "--model", path["model"]], "model"),
        "eval-holdout": ([*evaluate, "--train-fraction", str(flags["train_fraction"]), *seed],
                         "labeled"),
        "eval-k": ([*evaluate, "--k", str(flags["k"]), *seed], "labeled"),
    }
    outputs = {}
    for key, (argv, needs) in commands.items():
        if not Path(path[needs]).exists():
            continue
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            outputs[key] = main([*argv, "--format", "json"])
        outputs[f"{key}.stdout"] = stdout.getvalue().encode()
    for name in ("labeled", "unlabeled", "model", "predictions"):
        outputs[name] = Path(path[name]).read_bytes() if Path(path[name]).exists() else None
    return outputs


def mismatches(export: bytes, gold: bytes, flags: dict) -> list[str]:
    """The keys on which the package's runs and the reference disagree; a file
    that a run does not write is None on either side."""
    flags = {"tags": TAGS, "threshold": 0.5, **flags}
    expected = reference.expected_outputs(export, gold, flags)
    with tempfile.TemporaryDirectory() as work:
        got = package_outputs(Path(work), export, gold, flags)
    return sorted(key for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))


# One tweet per rule that the generator's records do not reach: emoticons,
# '@', '#' and URL markers inside words, RT after the first word and after
# words that cleanse to nothing or to no token, a letter whose lowercase is
# not letters, digits and punctuation in words, a tag in capitals only, and
# words that take three prefixes or an elided consonant under a second one.
# Each also passes the language test.
RULE_TWEETS = [
    "@ RT a::))b kata:)kata bagus calon #PilgubJabar :)",
    "www.x RT x@y x@ Bagus123 KATA, bagus menang kerja calon mememberadil meneradil #pilgubjabar :(",
    "RT R#T Rt İstanbul kerja calon bagus menang #pilgubjabar",
    "bagus ht#tp://x www.kata calon RT #pilgubjabar",
    "calon bagus menang #pilgubjabar :) :(",
]
# Those tweets, and every line of ``tests/test_hostile.py``.
EXTRA_LINES = [
    *(json.dumps({"id": f"x{i}", "text": text}) for i, text in enumerate(RULE_TWEETS)),
    *HOSTILE.values(),
    *ODD.values(),
]


@st.composite
def inputs(draw):
    style = draw(st.sampled_from(["campaign", "noisy"]))
    lines = draw(st.integers(1, 80) if style == "campaign" else st.integers(1, 30))
    seed = draw(st.integers(0, 10**6))
    export, gold = synthesized(style, seed, lines, draw(st.sampled_from(["heldout", "all"])))
    export_lines = export.split(b"\n")
    for line in draw(st.lists(st.sampled_from(EXTRA_LINES), max_size=4)):
        export_lines.insert(draw(st.integers(0, len(export_lines))), line.encode())
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
@given(inputs(), flag_sets)
@example(  # every tweet labeled: no prediction reaches report
    ("".join(line + "\n" for line in EXTRA_LINES[:2]).encode(), b"id,label\nx0,positive\n"),
    FIXED_FLAGS,
)
def test_commands_agree_with_reference(export_and_gold, flags):
    assert mismatches(*export_and_gold, flags) == []


# One export, opening with a byte-order mark, that holds every extra line,
# so that each rule is checked on every run. Each mutant below changes some
# output of it under FIXED_FLAGS.
def fixed_inputs():
    export, gold = synthesized("campaign", 11, 60, "all")
    return b"\xef\xbb\xbf" + export + "".join(line + "\n" for line in EXTRA_LINES).encode(), gold


@pytest.mark.parametrize("stopwords, pos, stemming", itertools.product([True, False], repeat=3))
def test_fixed_export_agrees(stopwords, pos, stemming):
    flags = {**FIXED_FLAGS, "stopwords": stopwords, "pos": pos, "stemming": stemming,
             "oov": "skip" if pos else "smooth"}
    assert mismatches(*fixed_inputs(), flags) == []


_doc_scores, _emoticon_outcome = model._doc_scores, corpus._emoticon_outcome


def _both_is_positive(text):
    if ":)" in text and ":(" in text:
        return "labeled_positive"
    return _emoticon_outcome(text)


MUTANTS = {
    "oov term added under skip": (
        model, "_doc_scores", lambda table, tokens, oov_mode: _doc_scores(table, tokens, "smooth")
    ),
    "both emoticons labeled positive": (corpus, "_emoticon_outcome", _both_is_positive),
    "stemmer returns its input": (stemming.ConfixStemmer, "stem", lambda self, word: word),
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
    owner, name, replacement = MUTANTS[mutant]
    patch_everywhere(monkeypatch, owner, name, replacement)
    assert mismatches(*fixed_inputs(), FIXED_FLAGS) != []


def test_every_oracle_left_is_imported_by_a_test():
    tests = Path(__file__).parent
    sources = "\n".join(path.read_text(encoding="utf-8") for path in tests.glob("test_*.py"))
    oracles = sorted(tests.glob("*_oracle.py"))
    assert [path.name for path in oracles if f"import {path.stem}" not in sources] == []
