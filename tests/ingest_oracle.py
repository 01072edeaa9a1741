"""``iter_tweets`` as it was when every command read exports through it.

It builds a ``Tweet`` for every accepted line. ``kicaumine.corpus`` now
scans each line's fields in ``_tweet_fields``, which the commands read
without building a record, and ``iter_tweets`` wraps those fields in
``Tweet`` records. The function is kept unchanged apart from this
docstring and its imports, and it is the oracle that
``tests/test_hostile.py`` checks both readers against.
"""

from itertools import chain

from kicaumine.corpus import _UTF8_BOM, CorpusStats, Tweet, decode_json


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
            declared_lang = record.get("lang")
            tweet = Tweet(
                record.get("id"),
                record.get("text"),
                created_at if isinstance(created_at, str) else None,
                declared_lang if isinstance(declared_lang, str) else None,
            )
            if "\\u" in line:
                # No output can hold a lone surrogate: UTF-8 encoding raises
                # UnicodeEncodeError, a ValueError.
                f"{tweet.id}{tweet.text}{tweet.created_at}{tweet.declared_lang}".encode()
        except (AttributeError, TypeError, ValueError):
            stats.rejected_malformed += 1
            continue
        if tweet.id in seen_ids:
            stats.rejected_malformed += 1
            continue
        seen_ids.add(tweet.id)
        if tweet.overlong:
            stats.flagged_overlong += 1
        yield tweet
