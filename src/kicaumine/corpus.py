"""Corpus assembly: ingest tweet exports, filter, and emoticon-label them.

The collection chain is ingest -> hashtag filter -> language filter ->
distant labeling. Live crawling is deliberately absent; any batch of
exported tweets enters through :class:`TweetSource` (file-based by
default), which keeps the rest of the pipeline independent of where the
tweets came from.
"""

import dataclasses
import json
import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

from .exceptions import ConfigError, EmptyCorpusError

logger = logging.getLogger(__name__)

# Tweets longer than this are accepted but counted as overlong.
TWEET_CHAR_LIMIT = 140

# Campaign hashtags tracked by default, stored without the '#' prefix.
DEFAULT_HASHTAGS = frozenset(
    {"pilgubjabar", "ridwankamil", "deddymizwar", "dedimulyadi", "pilkadajabar"}
)

POSITIVE_EMOTICON = ":)"
NEGATIVE_EMOTICON = ":("


class SentimentLabel(Enum):
    """Sentiment categories, in fixed order: negative, positive, neutral.

    The declaration order is the canonical category order used for
    deterministic tie-breaking and serialization throughout the package.
    """

    NEGATIVE = "negative"
    POSITIVE = "positive"
    NEUTRAL = "neutral"

    def __str__(self):
        return self.value


class LabelSource(Enum):
    """How a label was obtained: emoticon heuristic or human annotation."""

    DISTANT = "distant"
    MANUAL = "manual"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Tweet:
    """One raw post: a single sentence-sized unit of opinion."""

    id: str
    text: str
    created_at: str | None = None
    declared_lang: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"tweet id must be a str, got {type(self.id).__name__}")
        if not isinstance(self.text, str):
            raise TypeError(f"tweet text must be a str, got {type(self.text).__name__}")
        if not self.id:
            raise ValueError("tweet id must be non-empty")
        if not self.text.strip():
            raise ValueError(f"tweet {self.id!r} has empty text")

    @property
    def overlong(self) -> bool:
        return len(self.text) > TWEET_CHAR_LIMIT


@dataclass(frozen=True)
class LabeledTweet:
    """A tweet with a sentiment label and the provenance of that label.

    Distant (emoticon) supervision can only ever assert positive or
    negative; neutral labels must come from manual annotation.
    """

    tweet: Tweet
    label: SentimentLabel
    source: LabelSource

    def __post_init__(self):
        if self.source is LabelSource.DISTANT and self.label is SentimentLabel.NEUTRAL:
            raise ValueError("distant supervision cannot produce neutral labels")


@dataclass
class CorpusStats:
    """Counter bag for the collection chain.

    ``total_ingested`` counts every non-blank input record. After a full
    collect run the rejection and outcome fields partition it exactly;
    ``check_partition`` verifies that. ``flagged_overlong`` counts
    accepted tweets longer than ``TWEET_CHAR_LIMIT`` and sits outside the
    partition (overlong tweets are kept).
    """

    total_ingested: int = 0
    rejected_malformed: int = 0
    rejected_hashtag: int = 0
    rejected_language: int = 0
    rejected_ambiguous_emoticon: int = 0
    labeled_positive: int = 0
    labeled_negative: int = 0
    unlabeled: int = 0
    flagged_overlong: int = 0

    def add(self, other: "CorpusStats") -> None:
        """Accumulate another stage's delta into this bag, field by field."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def check_partition(self) -> bool:
        """True when rejections plus outcomes account for every record."""
        return self.total_ingested == (
            self.rejected_malformed
            + self.rejected_hashtag
            + self.rejected_language
            + self.rejected_ambiguous_emoticon
            + self.labeled_positive
            + self.labeled_negative
            + self.unlabeled
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def ingest_jsonl(source) -> tuple[list[Tweet], CorpusStats]:
    """Read tweets from a JSON Lines stream, one object per line.

    ``source`` is any iterable of lines (text or UTF-8 bytes, e.g. an open
    file). A line is accepted when it parses as a JSON object carrying a
    non-empty string ``id`` and a string ``text`` that is non-empty after
    trimming; ``created_at`` and ``lang`` are picked up when present.
    Malformed lines and duplicate ids are counted, never fatal; the first
    occurrence of an id wins. Blank lines are skipped without counting.

    Raises EmptyCorpusError when no valid tweet remains; I/O errors from
    the underlying stream propagate unchanged.
    """
    tweets: list[Tweet] = []
    seen_ids: set[str] = set()
    stats = CorpusStats()
    for raw in source:
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
        tweets.append(tweet)
    if not tweets:
        raise EmptyCorpusError("no valid tweets in input")
    return tweets, stats


class TweetSource(ABC):
    """Pluggable origin of raw tweets.

    Stands in for the live-crawl stage: anything that can hand over
    batches of tweets (an export file, a database cursor, a replayed
    stream) can feed the pipeline.
    """

    @abstractmethod
    def next_batch(self) -> list[Tweet]:
        """Return the next batch of tweets; an empty list means exhausted."""


class JsonlTweetSource(TweetSource):
    """TweetSource over a JSON Lines export file."""

    def __init__(self, path, batch_size: int = 1000):
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self._path = path
        self._batch_size = batch_size
        self._tweets: list[Tweet] | None = None
        self._pos = 0
        self.stats = CorpusStats()

    def _load(self):
        if self._tweets is None:
            with open(self._path, "r", encoding="utf-8") as handle:
                try:
                    self._tweets, self.stats = ingest_jsonl(handle)
                except EmptyCorpusError:
                    raise EmptyCorpusError(f"no valid tweets in {self._path}") from None

    def next_batch(self) -> list[Tweet]:
        self._load()
        assert self._tweets is not None
        batch = self._tweets[self._pos : self._pos + self._batch_size]
        self._pos += len(batch)
        return batch


def filter_hashtags(tweets: list[Tweet], tags: frozenset[str] | set[str]) -> list[Tweet]:
    """Keep tweets containing at least one tracked hashtag.

    Tags are given without the '#' prefix; matching is case-insensitive
    substring search for ``#tag``. Order is preserved and the operation is
    idempotent.
    """
    if not tags:
        raise ConfigError("hashtag set must not be empty")
    normalized = {tag.lstrip("#").lower() for tag in tags}
    if not all(normalized):
        raise ConfigError("hashtag entries must be non-empty")
    kept = []
    for tweet in tweets:
        lowered = tweet.text.lower()
        if any(f"#{tag}" in lowered for tag in normalized):
            kept.append(tweet)
    return kept


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
