"""Corpus assembly: ingest tweet exports, filter, and emoticon-label them.

The collection chain is ingest -> hashtag filter -> language filter ->
distant labeling, applied one tweet at a time. Live crawling is
deliberately absent: tweets enter as JSON Lines exports, read one line at
a time by the field scan ``_tweet_fields``, which yields each valid
record's ``(id, text, created_at, lang)`` and builds no record object.
The commands read those fields; :func:`iter_tweets` wraps them in
``Tweet`` records for library callers. ``_read_strict_jsonl`` reads the
labeled corpora and predictions that the commands write. The hashtag and
language tests take a tweet's lowercased text, so that one lowering
serves both, and each is built by a factory that first checks its
settings (ConfigError). The list functions ``filter_hashtags``,
``filter_language`` and ``distant_label`` apply the same tests to a
whole list. ``report``'s per-hashtag rollup matches tweets with the same
hashtag needles as the collection filter.
"""

import json
from enum import Enum
from itertools import chain
from json.scanner import make_scanner

from .exceptions import ConfigError, EmptyCorpusError

# Tweets longer than this are accepted but counted as overlong.
TWEET_CHAR_LIMIT = 140

# Campaign hashtags tracked by default, stored without the '#' prefix.
DEFAULT_HASHTAGS = frozenset(
    {"pilgubjabar", "ridwankamil", "deddymizwar", "dedimulyadi", "pilkadajabar"}
)
DEFAULT_LANG_THRESHOLD = 0.5

# Spreadsheet tools may open an export with a UTF-8 byte-order mark.
_UTF8_BOM = b"\xef\xbb\xbf"

POSITIVE_EMOTICON = ":)"
NEGATIVE_EMOTICON = ":("

# Decodes one JSON value at a position of a string. It skips the BOM test
# and the two whitespace matches that json.loads spends on every call.
_scan_json = make_scanner(json.JSONDecoder())


class SentimentLabel(Enum):
    """Sentiment categories, in fixed order: negative, positive, neutral.

    The declaration order is the canonical category order used for
    deterministic tie-breaking and serialization throughout the package.
    """

    NEGATIVE = "negative"
    POSITIVE = "positive"
    NEUTRAL = "neutral"

    # Members are singletons that compare by identity; Enum's own __hash__
    # is Python code run on every label-keyed dict lookup.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


class LabelSource(Enum):
    """How a label was obtained: emoticon heuristic or human annotation."""

    DISTANT = "distant"
    MANUAL = "manual"

    def __str__(self):
        return self.value


# Each member of the two label enums by its value. A lookup here costs one
# dict probe; calling the Enum class runs several Python-level calls.
_SENTIMENT_LABELS = {label.value: label for label in SentimentLabel}
_LABEL_SOURCES = {source.value: source for source in LabelSource}


def _member(enum, members: dict, value):
    """``enum(value)``, taken from ``members``, ``enum``'s {value: member} dict.

    Only a value that is not a string or names no member reaches
    ``enum(value)``, which raises its usual ValueError.
    """
    member = members.get(value) if type(value) is str else None
    return enum(value) if member is None else member


class _Record:
    """Base of the package's record classes: plain values with named fields.

    A subclass names its attributes in ``__slots__`` and, in ``_fields``,
    those that make up its value. The base ``__init__`` takes the fields as
    keyword arguments only: a field left out takes its value from the
    class's ``_defaults`` dict (empty by default), and a positional
    argument, an unknown name or a field with neither a keyword nor a
    default raises TypeError naming the class. A subclass that validates
    or derives values defines its own ``__init__`` and stores them with
    ``object.__setattr__``. The base compares, hashes and shows the fields,
    refuses assignment once the record is built, and copies and pickles
    every slot. A mutable record restores ``object.__setattr__`` and sets
    ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *positional, **values):
        fields = self._fields
        if len(values) != len(fields):
            values = {**self._defaults, **values}
        if not positional and len(values) == len(fields):
            # One value per field, unless an unknown name took a field's
            # place: then a store misses, and the checks below report it.
            try:
                for name in fields:
                    object.__setattr__(self, name, values[name])
                return
            except KeyError:
                pass
        kind = type(self).__name__
        if positional:
            raise TypeError(f"{kind} takes keyword arguments only")
        unknown = values.keys() - fields
        if unknown:
            raise TypeError(f"{kind} got unknown fields: {', '.join(sorted(unknown))}")
        missing = [name for name in fields if name not in values]
        raise TypeError(f"{kind} is missing fields: {', '.join(missing)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A new record of the same class with ``changes`` applied to its fields."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class Tweet(_Record):
    """One raw post: a single sentence-sized unit of opinion."""

    __slots__ = _fields = ("id", "text", "created_at", "declared_lang")

    def __init__(
        self, id: str, text: str, created_at: str | None = None, declared_lang: str | None = None
    ):
        _check_tweet(id, text)
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "created_at", created_at)
        object.__setattr__(self, "declared_lang", declared_lang)

    @property
    def overlong(self) -> bool:
        return len(self.text) > TWEET_CHAR_LIMIT


def _check_tweet(id, text) -> None:
    """Raise unless ``id`` and ``text`` can make a tweet.

    Both must be strings (TypeError), ``id`` non-empty and ``text``
    non-empty after trimming (ValueError).
    """
    if not isinstance(id, str):
        raise TypeError(f"tweet id must be a str, got {type(id).__name__}")
    if not isinstance(text, str):
        raise TypeError(f"tweet text must be a str, got {type(text).__name__}")
    if not id:
        raise ValueError("tweet id must be non-empty")
    if not text.strip():
        raise ValueError(f"tweet {id!r} has empty text")


class LabeledTweet(_Record):
    """A tweet with a sentiment label and the provenance of that label.

    Distant (emoticon) supervision can only ever assert positive or
    negative; neutral labels must come from manual annotation.
    """

    __slots__ = _fields = ("tweet", "label", "source")

    def __init__(self, tweet: Tweet, label: SentimentLabel, source: LabelSource):
        _check_label(label, source)
        object.__setattr__(self, "tweet", tweet)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "source", source)


def _check_label(label: SentimentLabel, source: LabelSource) -> None:
    """Raise ValueError if ``source`` cannot give ``label``: distant labels are never neutral."""
    if source is LabelSource.DISTANT and label is SentimentLabel.NEUTRAL:
        raise ValueError("distant supervision cannot produce neutral labels")


class CorpusStats(_Record):
    """Counter bag for the collection chain.

    ``total_ingested`` counts every non-blank input record. After a full
    collect run the rejection and outcome fields partition it exactly;
    ``check_partition`` verifies that. ``flagged_overlong`` counts
    accepted tweets longer than ``TWEET_CHAR_LIMIT`` and sits outside the
    partition (overlong tweets are kept). Takes keyword arguments only, one
    per counter; an unset one starts at 0.
    """

    __slots__ = _fields = (
        "total_ingested",
        "rejected_malformed",
        "rejected_hashtag",
        "rejected_language",
        "rejected_ambiguous_emoticon",
        "labeled_positive",
        "labeled_negative",
        "unlabeled",
        "flagged_overlong",
    )
    _defaults = dict.fromkeys(_fields, 0)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def add(self, other: "CorpusStats") -> None:
        """Accumulate another stage's delta into this bag, field by field."""
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))

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
        return dict(zip(self._fields, self._values()))


def decode_json(text: str):
    """The JSON value that ``text``, with no whitespace around it, holds.

    Every decode failure raises ValueError: malformed or trailing text, an
    integer too long to convert, and nesting past the interpreter's
    recursion limit, which ``json.loads`` raises as RecursionError.
    """
    try:
        value, end = _scan_json(text, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text, exc.value) from None
    except RecursionError:
        raise ValueError("JSON value nested too deeply") from None
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def iter_tweets(source, stats: CorpusStats):
    """Yield the valid tweets of a JSON Lines stream, one object per line.

    ``source`` is any iterable of lines (text or UTF-8 bytes, e.g. an open
    file). A line is accepted when it parses as a JSON object carrying a
    non-empty string ``id`` and a string ``text`` that is non-empty after
    trimming; ``created_at`` and ``lang`` are picked up when present.
    Malformed lines, bytes that are not UTF-8, lines whose ``id``, ``text``,
    ``created_at`` or ``lang`` holds a lone surrogate and duplicate ids are
    counted in ``stats``, never fatal; the first occurrence of an id wins.
    A surrogate is looked for only in lines holding ``\\u``: UTF-8 cannot
    encode one, so in decoded text only a JSON escape can make one.
    Blank lines are skipped without counting, and a UTF-8 byte-order mark
    opening the first line is dropped. Memory held between lines is the
    set of ids seen so far.
    """
    for fields in _tweet_fields(source, stats):
        yield Tweet(*fields)


def _tweet_fields(source, stats: CorpusStats):
    """Yield ``(id, text, created_at, lang)`` for each tweet :func:`iter_tweets` yields.

    The lines are checked and counted in ``stats`` as :func:`iter_tweets`
    says, but no record is built: the commands read exports through this
    scan. ``created_at`` and ``lang`` are None where the record has no
    string there.
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
            record = decode_json(line)
            created_at = record.get("created_at")  # AttributeError: not an object
            lang = record.get("lang")
            tweet_id = record.get("id")
            text = record.get("text")
            _check_tweet(tweet_id, text)
            if not isinstance(created_at, str):
                created_at = None
            if not isinstance(lang, str):
                lang = None
            if "\\u" in line:
                # No output can hold a lone surrogate: UTF-8 encoding raises
                # UnicodeEncodeError, a ValueError.
                f"{tweet_id}{text}{created_at}{lang}".encode()
        except (AttributeError, TypeError, ValueError):
            stats.rejected_malformed += 1
            continue
        if tweet_id in seen_ids:
            stats.rejected_malformed += 1
            continue
        seen_ids.add(tweet_id)
        if len(text) > TWEET_CHAR_LIMIT:
            stats.flagged_overlong += 1
        yield tweet_id, text, created_at, lang


def _read_strict_jsonl(path, kind: str, parse):
    """Yield ``(id, parse(record))`` per record of a JSONL file this package wrote.

    The file is read once, and only the ids seen are kept. Every non-blank
    line must be a UTF-8 JSON object with a string ``id`` seen nowhere
    earlier in the file, and ``parse(record)`` must accept it; anything
    else stops the command with ConfigError naming ``path:line``. A UTF-8
    byte-order mark opening the first line is dropped.
    """
    seen_ids = set()
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if lineno == 1:
                raw = raw.removeprefix(_UTF8_BOM)
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = decode_json(line)
                if not isinstance(record, dict):
                    raise TypeError("record is not a JSON object")
                if not isinstance(record.get("id"), str):
                    raise TypeError("id must be a string")
                if record["id"] in seen_ids:
                    raise ConfigError(f"{path}:{lineno}: duplicate {kind} id {record['id']!r}")
                seen_ids.add(record["id"])
                parsed = parse(record)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
            yield record["id"], parsed


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


def _hashtag_test(tags: frozenset[str] | set[str]):
    """Whether a lowercased tweet holds ``#tag`` for a tracked tag.

    Tags are given without the '#' prefix; matching is case-insensitive
    substring search for ``#tag``.
    """
    if not tags:
        raise ConfigError("hashtag set must not be empty")
    _, needles = _hashtag_needles(tags)

    def on_topic(lowered: str) -> bool:
        for needle in needles:
            if needle in lowered:
                return True
        return False

    return on_topic


def filter_hashtags(tweets: list[Tweet], tags: frozenset[str] | set[str]) -> list[Tweet]:
    """Keep tweets containing at least one tracked hashtag (see :func:`_hashtag_test`).

    Order is preserved and the operation is idempotent.
    """
    on_topic = _hashtag_test(tags)
    return [tweet for tweet in tweets if on_topic(tweet.text.lower())]


def _hashtag_needles(tags, reserved: str | None = None) -> tuple[list[str], list[str]]:
    """Tracked ``tags`` and the ``#tag`` text that marks each in a lowercased tweet.

    Tags are lowercased and lose a leading '#'; the result is sorted and
    holds each tag once. A tag equal to ``reserved`` raises ConfigError, and
    after that check so does an empty tag, whose needle '#' would match
    every tweet holding a '#', and one that UTF-8 cannot encode (a
    command-line byte that is not UTF-8 arrives as a lone surrogate),
    which no tweet can hold and no output file can take.
    """
    normalized = sorted({tag.lstrip("#").lower() for tag in tags})
    if reserved in normalized:
        raise ConfigError(f"hashtag {reserved!r} collides with the total group")
    if "" in normalized:
        raise ConfigError("hashtag entries must be non-empty")
    for tag in normalized:
        try:
            tag.encode()
        except UnicodeEncodeError:
            raise ConfigError(f"hashtag {tag!r} is not valid UTF-8") from None
    return normalized, [f"#{tag}" for tag in normalized]


# The report group that counts every tweet.
ALL_GROUP = "all"


def _shares(counts: dict) -> dict:
    """Each label's share of the ``counts`` total; empty when the total is 0."""
    total = sum(counts.values())
    return {lab: counts[lab] / total for lab in SentimentLabel} if total else {}


def _hashtag_rollup(labeled_texts, group_by) -> list[tuple[str, dict, dict]]:
    """Label counts and shares per tracked hashtag plus an 'all' group.

    ``labeled_texts`` yields (tweet text, label) pairs. A tweet counts
    toward every tracked hashtag its text contains (case-insensitive) and
    always toward 'all'; ``group_by`` is checked by :func:`_hashtag_needles`
    with 'all' reserved. Each group is (key, counts, shares): a count per
    label, and each count's share of the group's total, or no shares for
    an empty group. 'all' comes first, then the tags in sorted order; with
    no pairs at all, only 'all' is returned.
    """
    tags, needles = _hashtag_needles(group_by, reserved=ALL_GROUP)
    total = dict.fromkeys(SentimentLabel, 0)
    per_tag = [dict.fromkeys(SentimentLabel, 0) for _ in tags]
    for text, label in labeled_texts:
        total[label] += 1
        lowered = text.lower()
        for needle, counts in zip(needles, per_tag):
            if needle in lowered:
                counts[label] += 1
    groups = [(ALL_GROUP, total)]
    if any(total.values()):
        groups += zip(tags, per_tag)
    return [(key, counts, _shares(counts)) for key, counts in groups]


def _language_test(wordlist: frozenset[str] | set[str], threshold: float):
    """Whether a lowercased tweet's dictionary-word ratio reaches ``threshold``.

    The ratio is over the whitespace-separated, letter-only tokens: a tweet
    passes iff at least ``threshold`` of them are in ``wordlist``, and one
    with no such token fails.
    """
    if not wordlist:
        raise ConfigError("language wordlist must not be empty")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"language threshold must be in [0, 1], got {threshold}")
    in_wordlist = wordlist.__contains__

    def in_language(lowered: str) -> bool:
        tokens = [w for w in lowered.split() if w.isalpha()]
        return bool(tokens) and sum(map(in_wordlist, tokens)) / len(tokens) >= threshold

    return in_language


def filter_language(
    tweets: list[Tweet],
    wordlist: frozenset[str] | set[str],
    threshold: float = DEFAULT_LANG_THRESHOLD,
) -> tuple[list[Tweet], CorpusStats]:
    """Keep tweets that pass :func:`_language_test`.

    Returns the retained tweets and a stats delta counting the drops.
    """
    in_language = _language_test(wordlist, threshold)
    kept = [tweet for tweet in tweets if in_language(tweet.text.lower())]
    return kept, CorpusStats(rejected_language=len(tweets) - len(kept))


# The label of each distant-labeling outcome that has one.
_DISTANT_LABELS = {
    "labeled_positive": SentimentLabel.POSITIVE,
    "labeled_negative": SentimentLabel.NEGATIVE,
}


def _emoticon_outcome(text: str) -> str:
    """The CorpusStats field that counts what distant labeling makes of ``text``.

    ``:)`` alone marks positive, ``:(`` alone marks negative; a tweet
    showing both is discarded as contradictory supervision, and one with
    neither goes to the unlabeled pile.
    """
    if POSITIVE_EMOTICON in text:
        return "rejected_ambiguous_emoticon" if NEGATIVE_EMOTICON in text else "labeled_positive"
    return "labeled_negative" if NEGATIVE_EMOTICON in text else "unlabeled"


def distant_label(
    tweets: list[Tweet],
) -> tuple[list[LabeledTweet], list[Tweet], CorpusStats]:
    """Assign positive/negative labels from the two emoticon keywords.

    See :func:`_emoticon_outcome`. Total over any input: every tweet lands
    in exactly one of labeled, unlabeled, or ambiguous-rejected.
    """
    labeled: list[LabeledTweet] = []
    unlabeled: list[Tweet] = []
    delta = CorpusStats()
    for tweet in tweets:
        outcome = _emoticon_outcome(tweet.text)
        setattr(delta, outcome, getattr(delta, outcome) + 1)
        if outcome in _DISTANT_LABELS:
            labeled.append(LabeledTweet(tweet, _DISTANT_LABELS[outcome], LabelSource.DISTANT))
        elif outcome == "unlabeled":
            unlabeled.append(tweet)
    return labeled, unlabeled, delta
