import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kicaumine import preprocess
from kicaumine.config import DEFAULT_POS_KEEP_TAGS
from kicaumine.corpus import LabeledTweet, LabelSource, SentimentLabel, Tweet
from kicaumine.exceptions import ContractError
from kicaumine.preprocess import (
    Document,
    PipelineConfig,
    PosTag,
    case_fold,
    cleanse,
    pos_tag,
    remove_stopwords,
    run_pipeline,
    tokenize,
)
from kicaumine.resources import default_pipeline_config, load_pos_lexicon, load_stopwords

# Tweet-shaped text: words, tags, mentions, URLs, emoticons, and junk.
tweetish = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ#@:()/.wRT -_123é😀\t\n",
    max_size=120,
)


class TestCleanse:
    def test_retweet_with_mention_url_and_emoticon(self):
        raw = "RT @user: Ridwan Kamil mantap http://t.co/x :)"
        assert cleanse(raw) == "Ridwan Kamil mantap"

    def test_hash_removed_word_kept(self):
        assert cleanse("#pilgubjabar seru") == "pilgubjabar seru"

    def test_empty_fixed_point(self):
        assert cleanse("") == ""

    def test_www_url_removed(self):
        assert cleanse("cek www.contoh.id/page sekarang") == "cek sekarang"

    def test_repeated_leading_rt(self):
        assert cleanse("RT RT halo") == "halo"

    def test_emoticon_removal_cannot_regenerate(self):
        # removing ":)" from "::))" leaves a fresh ":)" for a naive single pass
        assert cleanse("::))") == ""
        assert cleanse("::(( :(") == ""

    def test_mid_word_url(self):
        assert cleanse("lihathttp://a.b disini") == "lihat disini"

    @given(tweetish)
    def test_idempotent(self, text):
        once = cleanse(text)
        assert cleanse(once) == once

    # A word that some cleansing rule can change: it holds '#', '@', ':' (every
    # emoticon and URL scheme has one) or 'www.'.
    NOISY_WORD_RE = re.compile(r"\S*?(?:[#@:]|www\.)")

    @settings(max_examples=500)
    @given(
        tweetish
        | st.lists(st.sampled_from(["w", "ww", "www", ".", "www.", "#", "@", ":", "a", "/"]))
        .map("".join)
        | st.text(max_size=12)
    )
    def test_noisy_word_test_agrees_with_regex(self, text):
        # _cleanse_word's substring tests replace the noisy-word regex: the
        # rules run on a whitespace-free word exactly when the regex matches.
        for word in text.split():
            with mock.patch.object(
                preprocess, "_cut_at_url", side_effect=preprocess._cut_at_url
            ) as rules:
                preprocess._cleanse_word(word)
            assert rules.called == bool(self.NOISY_WORD_RE.match(word))

    @given(tweetish)
    def test_no_emoticons_or_hashes_survive(self, text):
        cleaned = cleanse(text)
        assert ":)" not in cleaned
        assert ":(" not in cleaned
        assert "#" not in cleaned


class TestCaseFold:
    def test_pure_lowercasing(self):
        assert case_fold("JABAR") == "jabar"

    def test_digits_and_punctuation_become_delimiters(self):
        assert case_fold("Jabar2018, siap!") == "jabar siap"

    def test_fixed_point_on_folded_text(self):
        assert case_fold("sudah kecil") == "sudah kecil"

    def test_unicode_letters_kept(self):
        assert case_fold("Café FO😀X") == "café fo x"

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = case_fold(text)
        assert case_fold(once) == once

    @given(st.text(max_size=200))
    def test_output_is_letters_and_single_spaces(self, text):
        folded = case_fold(text)
        assert "  " not in folded
        assert folded == folded.strip()
        for ch in folded:
            assert ch == " " or (ch.isalpha() and ch == ch.lower())


class TestTokenize:
    def test_two_word_split(self):
        assert tokenize("calon gubernur") == ["calon", "gubernur"]

    def test_empty(self):
        assert tokenize("") == []

    def test_repeated_spaces_yield_no_empty_tokens(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_contract_violation_names_character(self):
        with pytest.raises(ContractError) as err:
            tokenize("jabar2018")
        assert "'2'" in str(err.value)


class TestStopwords:
    def test_default_list_removal(self):
        stopwords = load_stopwords()
        assert remove_stopwords(["yang", "bagus"], stopwords) == ["bagus"]

    def test_empty_set_is_identity(self):
        assert remove_stopwords(["bagus"], frozenset()) == ["bagus"]

    def test_total_removal_permitted(self):
        assert remove_stopwords(["dan", "yang"], frozenset({"yang", "dan"})) == []


class TestPosTag:
    def test_bundled_lexicon_lookup(self):
        lexicon = load_pos_lexicon()
        assert pos_tag(["bagus"], lexicon) == [("bagus", PosTag.ADJ)]

    def test_unknown_word_gets_other(self):
        assert pos_tag(["zzqq"], {"bagus": PosTag.ADJ}) == [("zzqq", PosTag.OTHER)]

    def test_empty(self):
        assert pos_tag([], {}) == []

    def test_length_and_order_preserved(self):
        lexicon = {"a": PosTag.NOUN, "b": PosTag.FUNC}
        tagged = pos_tag(["b", "a", "c"], lexicon)
        assert [t.token for t in tagged] == ["b", "a", "c"]
        assert [t.tag for t in tagged] == [PosTag.FUNC, PosTag.NOUN, PosTag.OTHER]


class TestRunPipeline:
    def test_full_chain(self):
        tweet = Tweet("1", "RT @x: Pemilihan GUBERNUR yang bagus :)")
        doc = run_pipeline(tweet, default_pipeline_config())
        assert doc.tokens == ("pilih", "gubernur", "bagus")

    def test_minimal_stages(self):
        config = PipelineConfig(enable_stopwords=False, enable_pos=False, enable_stemming=False)
        doc = run_pipeline(Tweet("1", "Bagus!"), config)
        assert doc.tokens == ("bagus",)

    def test_tweet_consumed_entirely_is_flagged_empty(self):
        doc = run_pipeline(Tweet("1", ":) 123"), default_pipeline_config())
        assert doc.tokens == ()
        assert doc.empty

    def test_label_carried_through(self):
        item = LabeledTweet(Tweet("1", "bagus :)"), SentimentLabel.POSITIVE, LabelSource.DISTANT)
        doc = run_pipeline(item, default_pipeline_config())
        assert doc.label is SentimentLabel.POSITIVE
        assert doc.source_id == "1"

    def test_pos_stage_disabled_by_default(self):
        assert not PipelineConfig().enable_pos
        assert not default_pipeline_config().enable_pos

    def test_pos_filter_drops_function_words(self):
        config = PipelineConfig(
            enable_stopwords=False,
            enable_pos=True,
            pos_keep_tags=DEFAULT_POS_KEEP_TAGS,
            pos_lexicon={"yang": PosTag.FUNC, "bagus": PosTag.ADJ},
            enable_stemming=False,
        )
        doc = run_pipeline(Tweet("1", "yang bagus zzqq"), config)
        assert doc.tokens == ("bagus", "zzqq")

    def test_deterministic(self):
        tweet = Tweet("1", "Pemilihan #pilgubjabar yang BAGUS :) http://x.y")
        config = default_pipeline_config()
        assert run_pipeline(tweet, config) == run_pipeline(tweet, config)

    @given(tweetish.filter(str.strip))
    @settings(max_examples=60)
    def test_output_alphabet_and_monotone_volume(self, text):
        config = default_pipeline_config()
        tweet = Tweet("1", text)
        tokens = tokenize(case_fold(cleanse(tweet.text)))
        after_stop = remove_stopwords(tokens, config.stopword_list)
        doc = run_pipeline(tweet, config)
        assert len(after_stop) <= len(tokens)
        assert len(doc.tokens) == len(after_stop)  # stemming maps one to one
        for token in doc.tokens:
            assert token.isalpha() and token == token.lower()


class TestDocument:
    def test_rejects_non_lowercase_tokens(self):
        with pytest.raises(ValueError):
            Document("1", ("Bagus",))
        with pytest.raises(ValueError):
            Document("1", ("bagus2",))
        with pytest.raises(ValueError):
            Document("1", ("",))

    def test_empty_document_allowed_and_flagged(self):
        doc = Document("1", ())
        assert doc.empty


# Letters whose case maps depend on context or change length, a combining
# mark, and non-letters: the inputs where a per-string check could drift
# from a per-character one.
TRICKY_ALPHABET = "abzAZσςΣİiı̇́éÉß2_\t"


def tokenize_oracle(text):
    """Per-character check that tokenize used before its single-pass test."""
    for ch in set(text):
        if ch != " " and not ch.isalpha():
            offender = next(c for c in text if c != " " and not c.isalpha())
            raise ContractError(
                f"tokenize expects case-folded text; found non-letter {offender!r}"
            )
    return text.split()


def document_check_oracle(tokens):
    """Per-token check that Document used before its single-pass test."""
    for token in tokens:
        if not token or not token.isalpha() or token != token.lower():
            raise ValueError(f"invalid document token {token!r}")


def build_document(tokens):
    Document("1", tuple(tokens))


def outcome(call):
    try:
        return ("returned", call())
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


class TestSinglePassChecksAgainstOracle:
    @given(st.text(alphabet=TRICKY_ALPHABET + "  ", max_size=30))
    @settings(max_examples=500)
    def test_tokenize(self, text):
        assert outcome(lambda: tokenize(text)) == outcome(lambda: tokenize_oracle(text))

    @given(st.lists(st.text(alphabet=TRICKY_ALPHABET, max_size=5), max_size=6))
    @settings(max_examples=500)
    def test_document(self, tokens):
        got = outcome(lambda: build_document(tokens))
        assert got == outcome(lambda: document_check_oracle(tokens))

    @pytest.mark.parametrize(
        "tokens",
        [(), ("bagus",), ("aΣ",), ("σς",), ("ς", "σ"), ("İ",), ("i̇",), ("é", "É"),
         ("ab", ""), ("", "ab"), ("ß",), ("ı",), ("a", "b2", "C"),
         (None,), ("ab", None), ("ab", 5)],
    )
    def test_document_edge_cases(self, tokens):
        got = outcome(lambda: build_document(tokens))
        assert got == outcome(lambda: document_check_oracle(tokens))
