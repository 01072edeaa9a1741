"""The ``collect`` command against ``reference.collect``.

Each example writes a generated export, runs ``collect`` through
``cli.main`` and runs the reference on the same bytes: the exit status,
the bytes of both output files and the stats must agree. When the
reference refuses, ``collect`` must exit with that status and leave both
targets as they were.
"""

import io
import json
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference
from kicaumine import corpus
from kicaumine.cli import main
from kicaumine.corpus import CorpusStats, Tweet

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
            expected = reference.collect(
                export, tags, threshold, frozenset(w for w in wordlist if not w.startswith("#"))
            )
        except reference.Refused as refusal:
            expected = refusal.status
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
        assert json.loads(outputs[2].read_text(encoding="utf-8")) == stats


# The language test's cases: every tweet at every threshold, against the
# reference's test. The wordlist stays lowercase, since the reference
# matches entries as written and the loaders lowercase them; its entries
# that are not letters can never match a letter-only token.
LANGUAGE_WORDLIST = frozenset(WORDLIST + ["x1", "2018", "...", "kata-kata", ":)", "#pilgubjabar"])
LANGUAGE_THRESHOLDS = [0.0, 1 / 3, 0.5, 2 / 3, 1.0]
LANGUAGE_TEXTS = [
    "calon bagus",  # every word a hit
    "calon hello",  # 1 of 2: exactly at 0.5
    "calon hello world",  # 1 of 3: exactly at 1/3
    "calon bagus hello",  # 2 of 3: exactly at 2/3
    "calon hello x1 2018",  # 1 of 4 words, but 1 of 2 letter tokens
    "bagus x1 2018",  # 1 of 3 words, but the only letter token
    "hello world",  # no hit
    "x1 2018 ... kata-kata :) #pilgubjabar",  # every word a non-letter entry
    ":) 123 !!!",  # no letter word at all
    "CALON Bagus",
    "kérja 日本 calon",
]


def assert_language_filter_agrees(texts, wordlist, threshold):
    tweets = [Tweet(str(i), text) for i, text in enumerate(texts)]
    kept, delta = corpus.filter_language(tweets, wordlist, threshold)
    expected = [t for t in tweets if reference.in_language(t.text, wordlist, threshold)]
    assert kept == expected, threshold
    rejected = len(tweets) - len(expected)
    assert delta.as_dict() == {**CorpusStats().as_dict(), "rejected_language": rejected}


def test_language_cases_agree_with_oracle():
    for threshold in LANGUAGE_THRESHOLDS:
        assert_language_filter_agrees(LANGUAGE_TEXTS, LANGUAGE_WORDLIST, threshold)


def test_language_cases_read_as_expected():
    in_language = corpus._language_test(LANGUAGE_WORDLIST, 0.5)
    assert [in_language(text.lower()) for text in LANGUAGE_TEXTS] == [
        True, True, False, True, True, True, False, False, False, True, False
    ]
    assert corpus._language_test(LANGUAGE_WORDLIST, 0.0)("hello world")
    assert not corpus._language_test(LANGUAGE_WORDLIST, 0.0)("x1 2018 :)")
    assert corpus._language_test(LANGUAGE_WORDLIST, 1.0)("calon x1 2018")
    assert not corpus._language_test(LANGUAGE_WORDLIST, 1.0)("calon hello")


language_words = st.sampled_from(
    sorted(LANGUAGE_WORDLIST) + ["hello", "world", "kérja", "日本", "123", "a", "ab1", "-"]
)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(
        st.lists(language_words, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=5
    ),
    wordlist=st.sets(st.sampled_from(sorted(LANGUAGE_WORDLIST)), min_size=1),
    threshold=st.one_of(st.sampled_from(LANGUAGE_THRESHOLDS), st.floats(0.0, 1.0)),
)
def test_language_filter_agrees_with_oracle(texts, wordlist, threshold):
    assert_language_filter_agrees(texts, wordlist, threshold)


class _CountedWords(list):
    """A list of words that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        _CountedWords.passes += 1
        return super().__iter__()


class _CountedText(str):
    def split(self, *args):
        return _CountedWords(str.split(self, *args))


def test_language_test_counts_letter_tokens_only_when_hits_do_not_decide():
    # A tweet whose hits over all its words reach the threshold, exactly
    # reaching it included, passes after one pass over its words.
    for threshold, text, passes, result in [
        (0.5, "calon hello", 1, True),
        (1 / 3, "calon hello world", 1, True),
        (1.0, "calon bagus", 1, True),
        (0.0, "calon", 1, True),
        (0.5, "calon hello x1 2018", 2, True),
        (0.5, "hello world", 2, False),
        (0.0, "hello world", 2, True),
        (0.0, "x1 2018", 2, False),
    ]:
        _CountedWords.passes = 0
        in_language = corpus._language_test(LANGUAGE_WORDLIST, threshold)
        assert in_language(_CountedText(text)) is result, (threshold, text)
        assert _CountedWords.passes == passes, (threshold, text)


def _language_time(text):
    in_language = corpus._language_test(LANGUAGE_WORDLIST, 0.5)
    best = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        in_language(text)
        best = min(best, time.perf_counter() - start)
    return best


def test_language_test_time_is_linear_in_word_count():
    # Linear code takes about 4 times longer on the large record, quadratic
    # code about 16 times. Half the words are hits and a quarter are not
    # letters, so the letter tokens are counted too.
    n = 100_000
    shape = "calon hello x1 bagus "
    ratio = _language_time(shape * n) / _language_time(shape * (n // 4))
    assert ratio < 8, ratio


def test_language_test_holds_one_list_of_words():
    # One-letter words are shared string objects, so the words of the record
    # cost nothing beyond the lists that hold them.
    text = "a " * 200_000
    one_list = sys.getsizeof(text.split())
    in_language = corpus._language_test(LANGUAGE_WORDLIST, 0.5)
    tracemalloc.start()
    try:
        assert not in_language(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * one_list, (peak, one_list)


def test_wordlist_entries_match_in_any_case(tmp_path):
    export = tmp_path / "export.jsonl"
    export.write_text(json.dumps({"id": "1", "text": "bagus sekali #pilgubjabar"}) + "\n")
    outputs = {}
    for entry in ("bagus", "BAGUS", "Bagus"):
        wordlist = tmp_path / "wordlist.txt"
        wordlist.write_text(entry + "\n", encoding="utf-8")
        stats = tmp_path / f"stats-{entry}.json"
        argv = [
            "collect", "--input", str(export), "--wordlist", str(wordlist),
            "--out-labeled", str(tmp_path / "labeled.jsonl"),
            "--out-unlabeled", str(tmp_path / "unlabeled.jsonl"),
            "--out", str(stats), "--format", "json",
        ]
        with redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        outputs[entry] = json.loads(stats.read_text(encoding="utf-8"))
    assert outputs["BAGUS"]["unlabeled"] == 1
    assert outputs["BAGUS"]["rejected_language"] == 0
    assert outputs["BAGUS"] == outputs["Bagus"] == outputs["bagus"]
