"""Reference implementation of the ``collect`` command's corpus chain.

These are the functions that ``kicaumine.corpus`` and ``kicaumine.cli``
ran before ``collect`` became one streaming pass: ``iter_tweets`` decodes
each line with ``json.loads``, and ``ingest_jsonl`` -> ``filter_hashtags``
-> ``filter_language`` -> ``distant_label`` each build a list.
``collect`` is the former body of ``cmd_collect`` from ingest to the two
writes, which here return the bytes of each file instead of writing it;
``_tweet_record`` is the former ``cli`` helper. They are kept unchanged
apart from this docstring, the imports and the function wrapping
``collect``, and they are the oracle that ``tests/test_collect.py``
checks the ``collect`` command against.
"""

import json
from itertools import chain

from kicaumine.corpus import (
    NEGATIVE_EMOTICON,
    POSITIVE_EMOTICON,
    _UTF8_BOM,
    CorpusStats,
    LabeledTweet,
    LabelSource,
    SentimentLabel,
    Tweet,
)
from kicaumine.exceptions import ConfigError, EmptyCorpusError


def iter_tweets(source, stats: CorpusStats):
    """Yield the valid tweets of a JSON Lines stream, one object per line.

    ``source`` is any iterable of lines (text or UTF-8 bytes, e.g. an open
    file). A line is accepted when it parses as a JSON object carrying a
    non-empty string ``id`` and a string ``text`` that is non-empty after
    trimming; ``created_at`` and ``lang`` are picked up when present.
    Malformed lines, bytes that are not UTF-8 and duplicate ids are
    counted in ``stats``, never fatal; the first occurrence of an id wins.
    Blank lines are skipped without counting, and a UTF-8 byte-order mark
    opening the first line is dropped. Memory held between lines is the
    set of ids seen so far.
    """
    lines = iter(source)
    first = next(lines, None)
    if first is not None:
        mark = _UTF8_BOM if isinstance(first, bytes) else "\ufeff"
        lines = chain((first.removeprefix(mark),), lines)
    seen_ids: set[str] = set()
    for raw in lines:
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                stats.total_ingested += 1
                stats.rejected_malformed += 1
                continue
        line = raw.strip()
        if not line:
            continue
        stats.total_ingested += 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            stats.rejected_malformed += 1
            continue
        if not isinstance(record, dict):
            stats.rejected_malformed += 1
            continue
        tweet_id = record.get("id")
        text = record.get("text")
        if not isinstance(tweet_id, str) or not tweet_id:
            stats.rejected_malformed += 1
            continue
        if not isinstance(text, str) or not text.strip():
            stats.rejected_malformed += 1
            continue
        if tweet_id in seen_ids:
            stats.rejected_malformed += 1
            continue
        seen_ids.add(tweet_id)
        created_at = record.get("created_at")
        declared_lang = record.get("lang")
        tweet = Tweet(
            id=tweet_id,
            text=text,
            created_at=created_at if isinstance(created_at, str) else None,
            declared_lang=declared_lang if isinstance(declared_lang, str) else None,
        )
        if tweet.overlong:
            stats.flagged_overlong += 1
        yield tweet


def ingest_jsonl(source) -> tuple[list[Tweet], CorpusStats]:
    """All valid tweets of a JSON Lines stream and their stats; see :func:`iter_tweets`.

    Raises EmptyCorpusError when no valid tweet remains; I/O errors from
    the underlying stream propagate unchanged.
    """
    stats = CorpusStats()
    tweets = list(iter_tweets(source, stats))
    if not tweets:
        raise EmptyCorpusError("no valid tweets in input")
    return tweets, stats


def filter_hashtags(tweets: list[Tweet], tags: frozenset[str] | set[str]) -> list[Tweet]:
    """Keep tweets containing at least one tracked hashtag.

    Tags are given without the '#' prefix; matching is case-insensitive
    substring search for ``#tag``. Order is preserved and the operation is
    idempotent.
    """
    if not tags:
        raise ConfigError("hashtag set must not be empty")
    _, needles = _hashtag_needles(tags)
    kept = []
    for tweet in tweets:
        lowered = tweet.text.lower()
        if any(needle in lowered for needle in needles):
            kept.append(tweet)
    return kept


def _hashtag_needles(tags, reserved: str | None = None) -> tuple[list[str], list[str]]:
    """Tracked ``tags`` and the ``#tag`` text that marks each in a lowercased tweet.

    Tags are lowercased and lose a leading '#'; the result is sorted and
    holds each tag once. A tag equal to ``reserved`` raises ConfigError, and
    after that check so does an empty tag, whose needle '#' would match
    every tweet holding a '#'.
    """
    normalized = sorted({tag.lstrip("#").lower() for tag in tags})
    if reserved in normalized:
        raise ConfigError(f"hashtag {reserved!r} collides with the total group")
    if "" in normalized:
        raise ConfigError("hashtag entries must be non-empty")
    return normalized, [f"#{tag}" for tag in normalized]


def _language_tokens(text: str) -> list[str]:
    """Whitespace-split, case-folded, letter-only tokens of ``text``."""
    return [w for w in text.lower().split() if w.isalpha()]


def filter_language(
    tweets: list[Tweet], wordlist: frozenset[str] | set[str], threshold: float = 0.5
) -> tuple[list[Tweet], CorpusStats]:
    """Keep tweets whose dictionary-word ratio reaches ``threshold``.

    A tweet is retained iff at least ``threshold`` of its letter-only
    tokens appear in ``wordlist``. Tweets with no such tokens are dropped.
    Returns the retained tweets and a stats delta counting the drops.
    """
    if not wordlist:
        raise ConfigError("language wordlist must not be empty")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"language threshold must be in [0, 1], got {threshold}")
    kept = []
    delta = CorpusStats()
    for tweet in tweets:
        tokens = _language_tokens(tweet.text)
        if not tokens:
            delta.rejected_language += 1
            continue
        ratio = sum(1 for w in tokens if w in wordlist) / len(tokens)
        if ratio >= threshold:
            kept.append(tweet)
        else:
            delta.rejected_language += 1
    return kept, delta


def distant_label(
    tweets: list[Tweet],
) -> tuple[list[LabeledTweet], list[Tweet], CorpusStats]:
    """Assign positive/negative labels from the two emoticon keywords.

    ``:)`` alone marks positive, ``:(`` alone marks negative; a tweet
    showing both is discarded as contradictory supervision, and one with
    neither goes to the unlabeled pile. Total over any input: every tweet
    lands in exactly one of labeled, unlabeled, or ambiguous-rejected.
    """
    labeled: list[LabeledTweet] = []
    unlabeled: list[Tweet] = []
    delta = CorpusStats()
    for tweet in tweets:
        has_pos = POSITIVE_EMOTICON in tweet.text
        has_neg = NEGATIVE_EMOTICON in tweet.text
        if has_pos and has_neg:
            delta.rejected_ambiguous_emoticon += 1
        elif has_pos:
            labeled.append(LabeledTweet(tweet, SentimentLabel.POSITIVE, LabelSource.DISTANT))
            delta.labeled_positive += 1
        elif has_neg:
            labeled.append(LabeledTweet(tweet, SentimentLabel.NEGATIVE, LabelSource.DISTANT))
            delta.labeled_negative += 1
        else:
            unlabeled.append(tweet)
            delta.unlabeled += 1
    return labeled, unlabeled, delta


def _tweet_record(tweet: Tweet) -> dict:
    record = {"id": tweet.id, "text": tweet.text}
    if tweet.created_at is not None:
        record["created_at"] = tweet.created_at
    if tweet.declared_lang is not None:
        record["lang"] = tweet.declared_lang
    return record


def _jsonl_bytes(records) -> bytes:
    """What the former ``cli._write_jsonl`` wrote for ``records``."""
    lines = []
    for record in records:
        lines.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
        lines.append("\n")
    return "".join(lines).encode("utf-8")


def collect(path, tags, wordlist, threshold):
    """The labeled and unlabeled files' bytes and the stats of the former ``cmd_collect``.

    Its errors propagate: EmptyCorpusError for an export with no valid
    tweet, then ConfigError for bad ``tags`` or ``wordlist``.
    """
    with open(path, "rb") as handle:
        try:
            tweets, stats = ingest_jsonl(handle)
        except EmptyCorpusError:
            raise EmptyCorpusError(f"no valid tweets in {path}") from None
    on_topic = filter_hashtags(tweets, tags)
    stats.rejected_hashtag += len(tweets) - len(on_topic)
    indonesian, delta = filter_language(on_topic, wordlist, threshold)
    stats.add(delta)
    labeled, unlabeled, delta = distant_label(indonesian)
    stats.add(delta)
    if not stats.check_partition():
        raise RuntimeError("internal error: corpus stats do not partition the input")

    labeled_bytes = _jsonl_bytes(
        (
            {**_tweet_record(lt.tweet), "label": lt.label.value, "label_source": lt.source.value}
            for lt in labeled
        ),
    )
    unlabeled_bytes = _jsonl_bytes(_tweet_record(t) for t in unlabeled)
    return labeled_bytes, unlabeled_bytes, stats
