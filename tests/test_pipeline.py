"""The per-word memoized pipeline agrees with the reference chain, ``reference.tokens``."""

import itertools
import json
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference
from kicaumine import preprocess
from kicaumine.corpus import LabeledTweet, LabelSource, SentimentLabel, Tweet
from kicaumine.preprocess import PipelineConfig, run_pipeline
from kicaumine.resources import default_pipeline_config

WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]

# Pieces that the cleansing rules, the leading-RT rule and the word split
# act on, plus words that the later stages drop, tag or stem.
PIECES = ["RT", "R", "T", "rt", ":)", ":(", ":", ")", "(", "#", "@", "a", "x",
          "http://", "https://", "www.", "t.co/q", "/", ".", "!!!", "1", "é", "Σ",
          "yang", "dan", "bagus", "memilih", "pemilihan", "berjalan", "tidak"]
noisy_text = st.lists(
    st.one_of(st.sampled_from(PIECES), st.sampled_from(WHITESPACE), st.characters()),
    max_size=30,
).map("".join).filter(str.strip)

# Every combination of the three optional stages, over the bundled resources.
CONFIGS = [
    default_pipeline_config(enable_stopwords=stop, enable_pos=pos, enable_stemming=stem)
    for stop, pos, stem in itertools.product((True, False), repeat=3)
]
CONFIG_IDS = [f"stop{int(c.enable_stopwords)}-pos{int(c.enable_pos)}-stem{int(c.enable_stemming)}"
              for c in CONFIGS]


def fresh(config: PipelineConfig) -> PipelineConfig:
    return config.replace()


def expected_tokens(text, config):
    """``reference.tokens`` with ``config``'s stages; every config here uses the bundled words."""
    return reference.tokens(text, config.enable_stopwords, config.enable_pos, config.enable_stemming)


def mismatch(texts, config):
    """The first text on which ``config`` and the reference disagree, or None."""
    for text in texts:
        if run_pipeline(Tweet("1", text), config).tokens != expected_tokens(text, config):
            return text
    return None


NAMED = [
    "!!! RT x",
    "R#T x",
    "#RT y",
    "@a RT b",
    ":) RT z",
    "RT RT @a: RT hello RT",
    "kata RT kata",
    "123 RT bagus",
    "RT",
    "RT:) RT@a R:)T #R#T# bagus RT",
    "http://x RT www.y RT :( RT yang RT",
    " RT\x1cRT\x85x\xa0RT",
]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_named_cases(config):
    config = fresh(config)
    # Twice: the second pass reads every word from the memo.
    assert mismatch(NAMED + NAMED, config) is None


def test_named_cases_read_as_expected():
    config = fresh(CONFIGS[0])
    expected = {
        "!!! RT x": ("rt", "x"),
        "R#T x": ("x",),
        "#RT y": ("y",),
        "@a RT b": ("b",),
        ":) RT z": ("z",),
        "RT RT @a: RT hello RT": ("hello", "rt"),
        "kata RT kata": ("kata", "rt", "kata"),
    }
    for text, tokens in expected.items():
        assert run_pipeline(Tweet("1", text), config).tokens == tokens, text


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@settings(max_examples=150, deadline=None)
@given(texts=st.lists(noisy_text, min_size=1, max_size=5))
def test_agrees_with_oracle(config, texts):
    # A shared config accumulates memo entries across examples, a fresh one
    # starts empty; both must agree with the reference.
    assert mismatch(texts, config) is None
    assert mismatch(texts, fresh(config)) is None


def test_every_whitespace_between_words():
    config = fresh(CONFIGS[0])
    texts = []
    for ws in WHITESPACE:
        texts += [f"{ws}RT{ws}R#T{ws}bagus{ws}", f"@a{ws}RT{ws}b", f"RT{ws}{ws}:){ws}RT"]
    assert mismatch(texts, config) is None


# Words of letters alone skip cleansing. Exactly "RT" must not, since a
# leading one is dropped; its other casings are plain words. A stopword is
# dropped, and "İ" lowers to "i" and a combining dot, which is no letter.
LETTER_WORDS = ["RT", "Rt", "rT", "rt", "yang", "Yang", "İ", "İstanbul", "bagus", "memilih"]
LETTER_TEXTS = [
    text
    for word in LETTER_WORDS
    for text in (word, f"{word} bagus", f"bagus {word}", f"RT {word}", f"{word} RT", f"#a {word}")
]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_letter_words_agree_with_oracle(config):
    config = fresh(config)
    # Twice: the second pass reads every word from the memo.
    assert mismatch(LETTER_TEXTS + LETTER_TEXTS, config) is None


def test_letter_words_read_as_expected():
    config = fresh(CONFIGS[-1])  # every optional stage off
    expected = {
        "RT Rt rT": ("rt", "rt"),
        "Rt RT": ("rt", "rt"),
        "İstanbul": ("i", "stanbul"),
        "İ": ("i",),
        "Yang": ("yang",),
    }
    for text, tokens in expected.items():
        assert preprocess._tokens(text, config) == tokens, text
    assert preprocess._tokens("Yang bagus", fresh(CONFIGS[0])) == ("bagus",)


def test_letter_words_skip_cleansing_and_fold_unlowered(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(preprocess, name)

        def recorded(word):
            calls.append((name, word))
            return real(word)

        monkeypatch.setattr(preprocess, name, recorded)

    spy("_cleanse_word")
    spy("_fold_tokens")
    config = fresh(CONFIGS[-1])
    assert preprocess._tokens("bagus Rt rT Yang", config) == ("bagus", "rt", "rt", "yang")
    assert calls == []
    # A word whose lowercase is not letters alone folds from the word as
    # written, as the chain folds its cleansed text, lowered once.
    assert preprocess._tokens("İstanbul", config) == ("i", "stanbul")
    assert calls == [("_fold_tokens", "İstanbul")]
    calls.clear()
    assert preprocess._tokens("RT", config) == ()
    assert calls == [("_cleanse_word", "RT"), ("_fold_tokens", "RT")]


def _cold_tokens_time(text):
    best = float("inf")
    for _ in range(7):
        config = fresh(CONFIGS[0])
        start = time.perf_counter()
        preprocess._tokens(text, config)
        best = min(best, time.perf_counter() - start)
    return best


def test_letter_word_path_time_is_linear_in_word_count():
    # Linear code takes about 4 times longer on the large record, quadratic
    # code about 16 times. All words are distinct letter words, so every
    # one takes the all-letter path and most miss the capped memo.
    words = ["".join(letters) for letters in itertools.product("abdegikmnprstu", repeat=5)]
    random.Random(5).shuffle(words)
    n = 40_000
    ratio = _cold_tokens_time(" ".join(words[: 4 * n])) / _cold_tokens_time(" ".join(words[:n]))
    assert ratio < 8, ratio


def test_label_and_id_carried_through():
    item = LabeledTweet(Tweet("7", "RT bagus :)"), SentimentLabel.POSITIVE, LabelSource.DISTANT)
    doc = run_pipeline(item, fresh(CONFIGS[0]))
    assert (doc.source_id, doc.label) == ("7", SentimentLabel.POSITIVE)
    assert doc.tokens == expected_tokens("RT bagus :)", CONFIGS[0])


class TestMemoBounds:
    def test_cap_holds_and_output_is_unchanged(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_WORD_MEMO_MAX_ENTRIES", 64)
        config = fresh(CONFIGS[0])
        rng = random.Random(5)
        texts = [" ".join(f"di{rng.choice('abk')}{n}ka" for n in range(i, i + 20))
                 for i in range(0, 400, 10)]
        assert mismatch(texts, config) is None
        assert len(config._word_memo) == 64
        assert mismatch(texts, config) is None
        assert len(config._word_memo) == 64

    def test_words_over_the_length_cap_are_not_stored(self):
        config = fresh(CONFIGS[0])
        limit = preprocess._WORD_MEMO_MAX_WORD_LEN
        long_word = "mem" + "per" * limit + "kan"
        short_word = "b" * limit
        text = f"{long_word} {short_word}"
        assert mismatch([text], config) is None
        assert long_word not in config._word_memo
        assert short_word in config._word_memo

    def test_cap_holds_under_threads(self, monkeypatch):
        monkeypatch.setattr(preprocess, "_WORD_MEMO_MAX_ENTRIES", 64)
        config = fresh(CONFIGS[0])
        errors = []

        def work(offset):
            try:
                for i in range(200):
                    text = f"w{offset}x{i} memilih RT#{i % 7}"
                    if mismatch([text], config) is not None:
                        errors.append(text)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(config._word_memo) == 64

    def test_replace_starts_an_empty_memo(self):
        config = fresh(CONFIGS[0])
        run_pipeline(Tweet("1", "pemilihan bagus"), config)
        assert config._word_memo
        changed = config.replace(enable_stemming=False)
        assert changed._word_memo == {}
        assert changed._word_memo_lock is not config._word_memo_lock
        assert run_pipeline(Tweet("1", "pemilihan bagus"), changed).tokens == (
            "pemilihan", "bagus"
        )

    def test_memo_is_not_part_of_equality_or_repr(self):
        config = fresh(CONFIGS[0])
        run_pipeline(Tweet("1", "bagus"), config)
        assert config == config.replace()
        assert "_word_memo" not in repr(config)


class _CountingRoots(frozenset):
    """A root set that counts the equality tests made on it."""

    eq_calls = 0
    __hash__ = frozenset.__hash__

    def __eq__(self, other):
        type(self).eq_calls += 1
        return frozenset.__eq__(self, other)


def test_stemmer_resolved_once_per_config():
    # A stemmer looked up by root set on each memo miss would find a second,
    # equal set that is a different object only by comparing all its roots.
    roots = default_pipeline_config().root_words
    run_pipeline(Tweet("t", "pemilihan"), PipelineConfig(root_words=_CountingRoots(roots)))
    second = PipelineConfig(root_words=_CountingRoots(roots))
    _CountingRoots.eq_calls = 0
    words = [f"kata{''.join(letters)}" for letters in itertools.product("abcde", repeat=3)]
    run_pipeline(Tweet("t", " ".join(words)), second)
    run_pipeline(Tweet("t", " ".join(words)), second.replace(enable_stopwords=False))
    assert len(second._word_memo) == len(words)
    assert _CountingRoots.eq_calls <= 1


# The pipelines of tests/test_golden.py's corpora (campaign and noisy run the
# defaults, pos-nostem turns POS on and stemming off), and every stage off,
# which keeps each folded token.
TOKEN_CHECK_CONFIGS = {
    "golden-default": default_pipeline_config(),
    "golden-pos-nostem": default_pipeline_config(enable_pos=True, enable_stemming=False),
    "all-off": default_pipeline_config(
        enable_stopwords=False, enable_pos=False, enable_stemming=False
    ),
}
# Letters whose case mappings are not one to one: dotted capital I lowers to
# "i" and a combining dot, capital sigma lowers to a final sigma at a word's end.
CASE_PIECES = ["İ", "ı", "Σ", "σ", "ς", "ΟΔΟΣ", "ß", "ẞ", "ǅ", "Ǆ", "ﬀ", "É", "é", "̇"]
case_text = st.lists(
    st.one_of(st.sampled_from(PIECES + CASE_PIECES), st.sampled_from([" ", "\n"]),
              st.characters()),
    max_size=30,
).map("".join).filter(str.strip)


class TestTokenCheck:
    """``_tokens`` checks each computed word's tokens as ``Document`` would.

    The commands build no ``Document``: ``_word_tokens`` runs its token
    check once per word it computes, before the word is memoized.
    """

    @pytest.mark.parametrize("name", sorted(TOKEN_CHECK_CONFIGS))
    @settings(max_examples=300, deadline=None)
    @given(text=case_text)
    def test_tokens_agree_with_oracle_and_pass_the_document_check(self, name, text):
        config = fresh(TOKEN_CHECK_CONFIGS[name])
        tokens = preprocess._tokens(text, config)
        assert tokens == expected_tokens(text, config)
        assert preprocess.Document(source_id="1", tokens=tokens).tokens == tokens
        assert preprocess._tokens(text, config) == tokens  # now from the memo

    BAD_STEMS = {"upper": str.upper, "empty": lambda token: "", "digit": lambda token: token + "1"}

    @pytest.mark.parametrize("bad", sorted(BAD_STEMS))
    def test_invalid_stem_raises_documents_error_and_is_not_memoized(self, bad, tmp_path):
        config = fresh(CONFIGS[0])
        object.__setattr__(config, "_stem", self.BAD_STEMS[bad])
        word = "pemilihan"
        with pytest.raises(ValueError) as refused:
            preprocess.Document(source_id="1", tokens=(self.BAD_STEMS[bad](word),))
        expected = str(refused.value)
        assert expected.startswith("invalid document token ")
        for run in (
            lambda: run_pipeline(Tweet("1", f"{word} :)"), config),
            lambda: preprocess._tokens(f"#{word}", config),
        ):
            with pytest.raises(ValueError) as raised:
                run()
            assert str(raised.value) == expected
            assert config._word_memo == {}  # the failing word came first
        # The command path: train reads a labeled row through _tokens.
        from kicaumine import _train

        labeled = tmp_path / "labeled.jsonl"
        labeled.write_text(json.dumps({"id": "t1", "text": word, "label": "positive"}) + "\n")
        with pytest.raises(ValueError) as raised:
            list(_train._labeled_pairs(labeled, config))
        assert str(raised.value) == expected
        assert config._word_memo == {}
