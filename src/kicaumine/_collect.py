"""The collect command: ingest, filter and emoticon-label a tweet export."""

import json
import shutil
from itertools import chain
from json.encoder import encode_basestring

from .config import RunConfig
from .corpus import (
    CorpusStats,
    LabelSource,
    _DISTANT_LABELS,
    _emoticon_outcome,
    _hashtag_test,
    _language_test,
    _tweet_fields,
)
from .exceptions import ConfigError, EmptyCorpusError
from .resources import _csv_writer, _effective_hashtags, _emit, _say, atomic_writer, load_wordlist

# The label members of a distantly labeled tweet's line, by outcome.
_LABEL_MEMBERS = {
    outcome: (
        f', "label": {encode_basestring(label.value)}'
        f', "label_source": {encode_basestring(LabelSource.DISTANT.value)}'
    )
    for outcome, label in _DISTANT_LABELS.items()
}


def _tweet_line(
    tweet_id: str, text: str, created_at: str | None, lang: str | None, label_members: str = ""
) -> str:
    """A tweet's JSON line, with ``label_members`` after its id.

    The line is the one ``json.dumps(record, sort_keys=True,
    ensure_ascii=False)`` writes for the record of the tweet's fields,
    with ``created_at`` and ``lang`` left out when they are None.
    """
    created = "" if created_at is None else f'"created_at": {encode_basestring(created_at)}, '
    lang = "" if lang is None else f', "lang": {encode_basestring(lang)}'
    return (
        f'{{{created}"id": {encode_basestring(tweet_id)}{label_members}{lang}'
        f', "text": {encode_basestring(text)}}}\n'
    )


def _format_stats(stats, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(stats.as_dict(), sort_keys=True, indent=2)
    rows = sorted(stats.as_dict().items())
    if fmt == "csv":
        buffer, writer = _csv_writer()
        writer.writerow(["field", "value"])
        writer.writerows(rows)
        return buffer.getvalue()
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows)


def cmd_collect(config: RunConfig) -> int:
    import tempfile

    config.require_files("input")
    if config.out_labeled is None or config.out_unlabeled is None:
        raise ConfigError("--out-labeled and --out-unlabeled are required")
    tags = _effective_hashtags(config)
    wordlist = load_wordlist(config.wordlist)
    stats = CorpusStats()
    # The unlabeled lines wait in a spool until the labeled target is
    # written and closed, so two FIFOs read one after the other complete,
    # and when both flags name one path the unlabeled file wins.
    with (
        open(config.input, "rb") as handle,
        tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool,
    ):
        tweets = _tweet_fields(handle, stats)
        # An export with no valid tweet is reported before bad filter settings.
        first = next(tweets, None)
        if first is None:
            raise EmptyCorpusError(f"no valid tweets in {config.input}")
        on_topic = _hashtag_test(tags)
        in_language = _language_test(wordlist, config.lang_threshold)
        with atomic_writer(config.out_labeled) as labeled:
            for tweet_id, text, created_at, lang in chain((first,), tweets):
                lowered = text.lower()
                if not on_topic(lowered):
                    stats.rejected_hashtag += 1
                    continue
                if not in_language(lowered):
                    stats.rejected_language += 1
                    continue
                outcome = _emoticon_outcome(text)
                setattr(stats, outcome, getattr(stats, outcome) + 1)
                if outcome in _DISTANT_LABELS:
                    labeled.write(
                        _tweet_line(tweet_id, text, created_at, lang, _LABEL_MEMBERS[outcome])
                    )
                elif outcome == "unlabeled":
                    spool.write(_tweet_line(tweet_id, text, created_at, lang))
            if not stats.check_partition():
                raise RuntimeError("internal error: corpus stats do not partition the input")
        spool.seek(0)
        with atomic_writer(config.out_unlabeled) as unlabeled:
            shutil.copyfileobj(spool, unlabeled)
    _say(
        f"collected {stats.labeled_positive + stats.labeled_negative} labeled"
        f" and {stats.unlabeled} unlabeled tweets"
    )
    _emit(_format_stats(stats, config.format), config.out)
    return 0
