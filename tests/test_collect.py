"""The ``collect`` command against ``collect_oracle``, the chain it replaced.

Each example writes a generated export, runs ``collect`` through
``cli.main`` and runs the oracle on the same file: the exit status, the
bytes of both output files and the stats must agree. When the oracle
raises, ``collect`` must exit with that error's status and leave both
targets as they were.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import collect_oracle
from kicaumine.cli import main
from kicaumine.exceptions import ConfigError, EmptyCorpusError

WORDLIST = ["calon", "bagus", "menang", "kerja", "gubernur"]
# Dictionary words (one capitalized), other letter words (some not ASCII)
# and tokens that are not letters.
WORDS = WORDLIST + ["Gubernur", "hello", "kérja", "日本", "x1", "2018", "...", "😀"]
TAGS = ["#PilgubJabar", "#pilgubjabar", "#RIDWANKAMIL", "#other", "#", "#pilgub"]
EMOTICONS = [":)", ":(", ":-)", "::))"]
PREVIOUS = b"previous content\n"

tokens = st.one_of(
    st.sampled_from(WORDLIST), st.sampled_from(WORDS), st.sampled_from(TAGS), st.sampled_from(EMOTICONS)
)
texts = st.lists(tokens, min_size=1, max_size=8).map(" ".join)
ids = st.sampled_from(["1", "2", "3", "é"])
invalid = st.one_of(st.just(""), st.just("   "), st.integers(0, 9), st.none(), st.lists(ids, max_size=1))


@st.composite
def records(draw):
    record = {
        "id": draw(ids if draw(st.integers(0, 7)) else invalid),
        "text": draw(texts if draw(st.integers(0, 7)) else invalid),
    }
    for key in ("created_at", "lang"):
        value = draw(st.one_of(st.none(), st.text(max_size=3), st.integers(0, 9)))
        if value is not None:
            record[key] = value
    if not draw(st.integers(0, 15)):
        del record[draw(st.sampled_from(["id", "text"]))]
    return json.dumps(record, ensure_ascii=draw(st.booleans())).encode("utf-8")


junk = st.sampled_from(
        [
            b'{"id": "1", "text": ',
            b"[1, 2]",
            b'"text"',
            b"42",
            b"null",
            b"{",
            b'{"id": "1", "text": "bagus"} x',
            b"\xff\xfe",
            b"",
            b"   ",
        ]
)


@st.composite
def exports(draw):
    lines = st.lists(st.one_of(records(), records(), records(), junk), min_size=1, max_size=16)
    body = b"\n".join(draw(lines))
    if draw(st.booleans()):
        body += b"\n"
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + body


# Every outcome at once: a byte-order mark, a repeated id, both emoticons,
# text that is not ASCII, bytes that are not UTF-8, a blank line and a
# record that is not an object.
EVERY_OUTCOME = "\n".join(
    [
        '\ufeff{"id": "é", "text": "bagus #PilgubJabar :)"}',
        '{"id": "é", "text": "calon #pilgubjabar :("}',
        '{"id": "2", "text": "kerja #pilgubjabar :) :("}',
        '{"id": "3", "text": "menang #PILGUBJABAR 日本", "lang": "in"}',
        '{"id": "4", "text": "calon hello #pilgubjabar :("}',
        '{"id": "5", "text": "hello world #pilgubjabar :)"}',
        '{"id": "6", "text": "calon #other :)"}',
        "",
        "[1]",
    ]
).encode("utf-8") + b"\n\xff\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(export=EVERY_OUTCOME, tags=["PilgubJabar"], wordlist=WORDLIST, threshold=0.5)
@given(
    export=exports(),
    tags=st.lists(st.sampled_from(["PilgubJabar", "ridwankamil", "#"]), min_size=1, max_size=2),
    wordlist=st.sampled_from([WORDLIST, ["# comments only"]]),
    threshold=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_collect_matches_oracle(export, tags, wordlist, threshold):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        export_path = work / "export.jsonl"
        export_path.write_bytes(export)
        wordlist_path = work / "wordlist.txt"
        wordlist_path.write_text("\n".join(wordlist) + "\n", encoding="utf-8")
        outputs = [work / name for name in ("labeled.jsonl", "unlabeled.jsonl", "stats.json")]
        for path in outputs:
            path.write_bytes(PREVIOUS)
        argv = [
            "collect",
            "--input", str(export_path),
            "--hashtags", ",".join(tags),
            "--wordlist", str(wordlist_path),
            "--lang-threshold", str(threshold),
            "--out-labeled", str(outputs[0]),
            "--out-unlabeled", str(outputs[1]),
            "--out", str(outputs[2]),
            "--format", "json",
        ]
        try:
            expected = collect_oracle.collect(
                export_path,
                frozenset(tags),
                frozenset(w for w in wordlist if not w.startswith("#")),
                threshold,
            )
        except EmptyCorpusError:
            expected = 1
        except ConfigError:
            expected = 2
        with redirect_stderr(io.StringIO()):
            code = main(argv)
        if isinstance(expected, int):
            assert code == expected
            assert [path.read_bytes() for path in outputs] == [PREVIOUS] * 3
            assert sorted(path.name for path in work.iterdir()) == sorted(
                ["export.jsonl", "wordlist.txt", *(path.name for path in outputs)]
            )
            return
        labeled, unlabeled, stats = expected
        assert code == 0
        assert outputs[0].read_bytes() == labeled
        assert outputs[1].read_bytes() == unlabeled
        assert json.loads(outputs[2].read_text(encoding="utf-8")) == stats.as_dict()
