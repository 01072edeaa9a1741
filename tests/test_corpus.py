import json

import pytest
from hypothesis import given, strategies as st

from kicaumine.corpus import (
    DEFAULT_HASHTAGS,
    CorpusStats,
    LabeledTweet,
    LabelSource,
    SentimentLabel,
    Tweet,
    distant_label,
    filter_hashtags,
    filter_language,
    ingest_jsonl,
    iter_tweets,
)
from kicaumine.exceptions import ConfigError, EmptyCorpusError

WORDLIST = frozenset({"calon", "gubernur", "bagus", "menang", "kerja"})


def lines(*records):
    return [json.dumps(r) for r in records]


class TestIngest:
    def test_minimal_record(self):
        tweets, stats = ingest_jsonl(['{"id":"1","text":"pilgub :)"}'])
        assert len(tweets) == 1
        assert tweets[0].id == "1"
        assert tweets[0].text == "pilgub :)"
        assert stats.total_ingested == 1
        assert stats.rejected_malformed == 0

    def test_empty_stream_is_an_error(self):
        with pytest.raises(EmptyCorpusError):
            ingest_jsonl([])

    def test_malformed_line_counted_not_fatal(self):
        source = ['{"id":"1","text":"a"}', "not json", '{"id":"2","text":"b"}']
        tweets, stats = ingest_jsonl(source)
        assert [t.id for t in tweets] == ["1", "2"]
        assert stats.rejected_malformed == 1
        assert stats.total_ingested == 3

    def test_duplicate_ids_keep_first(self):
        source = lines(
            {"id": "1", "text": "first"},
            {"id": "1", "text": "second"},
        )
        tweets, stats = ingest_jsonl(source)
        assert len(tweets) == 1
        assert tweets[0].text == "first"
        assert stats.rejected_malformed == 1

    def test_missing_or_non_string_fields_rejected(self):
        source = lines(
            {"id": "", "text": "x"},
            {"id": 7, "text": "x"},
            {"id": "a", "text": "   "},
            {"id": "b"},
            {"id": "ok", "text": "fine"},
        )
        tweets, stats = ingest_jsonl(source)
        assert [t.id for t in tweets] == ["ok"]
        assert stats.rejected_malformed == 4

    def test_blank_lines_skipped_without_counting(self):
        tweets, stats = ingest_jsonl(["", '{"id":"1","text":"a"}', "   "])
        assert len(tweets) == 1
        assert stats.total_ingested == 1

    def test_optional_metadata_picked_up(self):
        record = {"id": "1", "text": "a", "created_at": "2018-01-01T00:00:00Z", "lang": "id"}
        tweets, _ = ingest_jsonl(lines(record))
        assert tweets[0].created_at == "2018-01-01T00:00:00Z"
        assert tweets[0].declared_lang == "id"

    def test_bytes_input_and_bad_utf8(self):
        good = '{"id":"1","text":"a"}'.encode()
        bad = b'{"id":"2","text":"\xff\xfe"}'
        tweets, stats = ingest_jsonl([good, bad])
        assert [t.id for t in tweets] == ["1"]
        assert stats.rejected_malformed == 1

    def test_overlong_tweets_accepted_but_flagged(self):
        long_text = "a" * 141
        tweets, stats = ingest_jsonl(lines({"id": "1", "text": long_text}))
        assert tweets[0].overlong
        assert stats.flagged_overlong == 1

    def test_concatenation_of_streams(self):
        a = lines({"id": "1", "text": "a"}, {"id": "2", "text": "b"})
        b = lines({"id": "3", "text": "c"})
        combined, _ = ingest_jsonl(a + b)
        first, _ = ingest_jsonl(a)
        second, _ = ingest_jsonl(b)
        assert combined == first + second

    def test_total_equals_accepted_plus_malformed(self):
        source = lines({"id": "1", "text": "a"}) + ["junk", "{bad"]
        tweets, stats = ingest_jsonl(source)
        assert stats.total_ingested == len(tweets) + stats.rejected_malformed


class TestIterTweets:
    def test_yields_each_tweet_before_reading_on(self):
        def source():
            yield '{"id":"1","text":"a"}'
            raise AssertionError("read past the first tweet")

        stats = CorpusStats()
        assert next(iter_tweets(source(), stats)).id == "1"
        assert stats.total_ingested == 1


class TestFilterHashtags:
    def test_case_insensitive_match(self):
        tweets = [Tweet("1", "coblos #PilgubJabar")]
        assert filter_hashtags(tweets, {"pilgubjabar"}) == tweets

    def test_no_hashtag_dropped(self):
        tweets = [Tweet("1", "no tags here")]
        assert filter_hashtags(tweets, {"pilgubjabar"}) == []

    def test_default_hashtag_set(self):
        assert DEFAULT_HASHTAGS == {
            "pilgubjabar",
            "ridwankamil",
            "deddymizwar",
            "dedimulyadi",
            "pilkadajabar",
        }

    def test_empty_tag_set_rejected(self):
        with pytest.raises(ConfigError):
            filter_hashtags([Tweet("1", "x")], set())

    @given(
        st.lists(
            st.tuples(st.text("ab #", min_size=1).filter(str.strip), st.booleans()),
            max_size=20,
        )
    )
    def test_order_preserving_and_idempotent(self, cases):
        tweets = [
            Tweet(str(i), (text + " #tag") if tagged else text)
            for i, (text, tagged) in enumerate(cases)
        ]
        once = filter_hashtags(tweets, {"tag"})
        assert once == [t for t in tweets if "#tag" in t.text.lower()]
        assert filter_hashtags(once, {"tag"}) == once


class TestFilterLanguage:
    def test_full_match_retained(self):
        tweets = [Tweet("1", "calon gubernur bagus")]
        kept, delta = filter_language(tweets, WORDLIST, 0.5)
        assert kept == tweets
        assert delta.rejected_language == 0

    def test_foreign_text_dropped(self):
        tweets = [Tweet("1", "the quick brown fox")]
        kept, delta = filter_language(tweets, WORDLIST, 0.5)
        assert kept == []
        assert delta.rejected_language == 1

    def test_zero_threshold_keeps_tokenizable(self):
        tweets = [Tweet("1", "the quick brown fox")]
        kept, _ = filter_language(tweets, WORDLIST, 0.0)
        assert kept == tweets

    def test_tokenless_tweet_dropped_even_at_zero_threshold(self):
        tweets = [Tweet("1", ":) 123 !!!")]
        kept, delta = filter_language(tweets, WORDLIST, 0.0)
        assert kept == []
        assert delta.rejected_language == 1

    def test_ratio_boundary_inclusive(self):
        tweets = [Tweet("1", "calon gubernur zzz qqq")]  # ratio exactly 0.5
        kept, _ = filter_language(tweets, WORDLIST, 0.5)
        assert kept == tweets

    def test_empty_wordlist_rejected(self):
        with pytest.raises(ConfigError):
            filter_language([Tweet("1", "x")], frozenset(), 0.5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            filter_language([Tweet("1", "x")], WORDLIST, 1.5)

    def test_idempotent(self):
        tweets = [
            Tweet("1", "calon gubernur bagus"),
            Tweet("2", "mixed calon words here"),
            Tweet("3", "total mismatch text"),
        ]
        once, _ = filter_language(tweets, WORDLIST, 0.5)
        twice, delta = filter_language(once, WORDLIST, 0.5)
        assert twice == once
        assert delta.rejected_language == 0


class TestDistantLabel:
    def test_positive_emoticon(self):
        labeled, _, _ = distant_label([Tweet("1", "menang :)")])
        assert labeled[0].label is SentimentLabel.POSITIVE
        assert labeled[0].source is LabelSource.DISTANT

    def test_negative_emoticon(self):
        labeled, _, _ = distant_label([Tweet("1", "kalah :(")])
        assert labeled[0].label is SentimentLabel.NEGATIVE

    def test_both_emoticons_rejected(self):
        labeled, unlabeled, delta = distant_label([Tweet("1", "haha :) tapi :(")])
        assert labeled == []
        assert unlabeled == []
        assert delta.rejected_ambiguous_emoticon == 1

    def test_no_emoticon_unlabeled(self):
        labeled, unlabeled, _ = distant_label([Tweet("1", "tanpa ikon")])
        assert labeled == []
        assert [t.id for t in unlabeled] == ["1"]

    def test_variant_emoticons_not_matched(self):
        _, unlabeled, _ = distant_label([Tweet("1", "senyum :-)")])
        assert len(unlabeled) == 1

    @given(st.lists(st.text(alphabet="ab:() ", min_size=1).filter(str.strip), max_size=30))
    def test_partition(self, texts):
        tweets = [Tweet(str(i), text) for i, text in enumerate(texts)]
        labeled, unlabeled, delta = distant_label(tweets)
        assert len(labeled) + len(unlabeled) + delta.rejected_ambiguous_emoticon == len(tweets)
        assert delta.labeled_positive + delta.labeled_negative == len(labeled)
        assert all(lt.label is not SentimentLabel.NEUTRAL for lt in labeled)


class TestTypes:
    def test_tweet_requires_id_and_text(self):
        with pytest.raises(ValueError):
            Tweet("", "x")
        with pytest.raises(ValueError):
            Tweet("1", "   ")

    @pytest.mark.parametrize(
        "tweet_id, text, field",
        [(5, "x", "id"), ("a", 5, "text"), (None, "x", "id"), ("a", b"x", "text")],
    )
    def test_tweet_id_and_text_must_be_str(self, tweet_id, text, field):
        with pytest.raises(TypeError, match=f"tweet {field} must be a str"):
            Tweet(tweet_id, text)

    def test_distant_neutral_forbidden(self):
        with pytest.raises(ValueError):
            LabeledTweet(Tweet("1", "x"), SentimentLabel.NEUTRAL, LabelSource.DISTANT)

    def test_manual_neutral_allowed(self):
        lt = LabeledTweet(Tweet("1", "x"), SentimentLabel.NEUTRAL, LabelSource.MANUAL)
        assert lt.label is SentimentLabel.NEUTRAL

    def test_stats_accumulate_and_partition(self):
        stats = CorpusStats(total_ingested=3, rejected_malformed=1)
        stats.add(CorpusStats(labeled_positive=1, unlabeled=1))
        assert stats.check_partition()
        payload = json.loads(stats.to_json())
        assert payload["total_ingested"] == 3

    def test_stats_partition_detects_mismatch(self):
        assert not CorpusStats(total_ingested=2, labeled_positive=1).check_partition()
