"""Tweet text normalization: from raw post to a tuple of clean tokens.

Stage order is fixed: cleanse -> case fold -> tokenize -> stopword
removal -> POS tag filter -> stem. The first two stages are idempotent;
every stage after tokenization can only keep or drop tokens (stemming
maps one to one), so token counts never grow along the chain.

No stage reaches across whitespace, so ``_tokens`` runs the chain once
per distinct raw word, checks its tokens as ``Document`` does and
memoizes them in its config; only the rule that drops leading ``RT``
words looks at more than one word. The commands call ``_tokens``;
:func:`run_pipeline` wraps its tokens in a ``Document``.
"""

import re
import threading
from collections import namedtuple
from collections.abc import Mapping
from itertools import dropwhile

from .config import _DEFAULTS, DEFAULT_POS_KEEP_TAGS, PosTag  # noqa: F401 (callers read it here)
from .corpus import LabeledTweet, SentimentLabel, Tweet, _Record
from .exceptions import ContractError

_URL_MARKER_RE = re.compile(r"https?://|www\.")

# Most code points the case-fold letter table stores, so that hostile
# input cannot grow it without limit.
_LETTER_TABLE_MAX_ENTRIES = 1 << 14

# Bounds of each config's word memo (see run_pipeline): most words stored,
# and longest word stored.
_WORD_MEMO_MAX_ENTRIES = 1 << 13
_WORD_MEMO_MAX_WORD_LEN = 32


PosTaggedToken = namedtuple("PosTaggedToken", ("token", "tag"))


class Document(_Record):
    """Preprocessed, ordered token sequence with an optional label.

    Tokens must be non-empty lowercase letter strings, which the pipeline
    guarantees and construction enforces. An empty token tuple is legal
    (the tweet was consumed entirely by preprocessing) but such documents
    are flagged via ``empty`` and excluded from training.
    """

    __slots__ = _fields = ("source_id", "tokens", "label")

    def __init__(
        self, source_id: str, tokens: tuple[str, ...], label: SentimentLabel | None = None
    ):
        _check_tokens(tokens)
        object.__setattr__(self, "source_id", source_id)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "label", label)

    @property
    def empty(self) -> bool:
        return not self.tokens


def _check_tokens(tokens) -> None:
    """Raise ValueError naming the first token that is not a non-empty lowercase letter string."""
    for token in tokens:
        if not token or not token.isalpha() or token != token.lower():
            raise ValueError(f"invalid document token {token!r}")


class PipelineConfig(_Record):
    """Switches and word resources for the preprocessing chain.

    The switches default to ``RunConfig``'s: the POS stage is off so that
    the baseline feature set is plain unigrams, and when enabled it keeps
    only ``pos_keep_tags``. Word resources default to empty; use
    :func:`default_pipeline_config` for a configuration backed by the
    bundled data files.
    """

    _fields = (
        "stopword_list",
        "enable_stopwords",
        "enable_pos",
        "pos_keep_tags",
        "enable_stemming",
        "pos_lexicon",
        "root_words",
    )
    # Raw word -> its output tokens, filled by run_pipeline. The memo, its
    # lock and the stemmer's ``stem`` (None when stemming is off) are not
    # fields, so ``replace`` gives the new config an empty memo and a new
    # stemmer, and none of them is compared or shown.
    __slots__ = (*_fields, "_word_memo", "_word_memo_lock", "_stem")

    def __init__(
        self,
        stopword_list: frozenset[str] = frozenset(),
        enable_stopwords: bool = _DEFAULTS["enable_stopwords"],
        enable_pos: bool = _DEFAULTS["enable_pos"],
        pos_keep_tags: frozenset[PosTag] = _DEFAULTS["pos_keep_tags"],
        enable_stemming: bool = _DEFAULTS["enable_stemming"],
        pos_lexicon: Mapping[str, PosTag] | None = None,
        root_words: frozenset[str] = frozenset(),
    ):
        object.__setattr__(self, "stopword_list", stopword_list)
        object.__setattr__(self, "enable_stopwords", enable_stopwords)
        object.__setattr__(self, "enable_pos", enable_pos)
        object.__setattr__(self, "pos_keep_tags", pos_keep_tags)
        object.__setattr__(self, "enable_stemming", enable_stemming)
        object.__setattr__(self, "pos_lexicon", {} if pos_lexicon is None else pos_lexicon)
        object.__setattr__(self, "root_words", root_words)
        object.__setattr__(self, "_word_memo", {})
        object.__setattr__(self, "_word_memo_lock", threading.Lock())
        stem = None
        if enable_stemming:
            # Imported only here, so a run with stemming off never loads it.
            from .stemming import ConfixStemmer

            stem = ConfixStemmer(root_words).stem
        object.__setattr__(self, "_stem", stem)


def cleanse(text: str) -> str:
    """Strip tweet noise: URLs, mentions, '#', emoticons and leading RTs.

    No rule reaches across whitespace, so the text is cleansed word by
    word; within each word, in this order:

    1. cut the word at the first ``http://``, ``https://`` or ``www.``;
    2. cut it at the first ``@`` that has a character after it;
    3. delete every ``#``;
    4. delete ``:)`` and ``:(`` until none is left, so ``::))`` vanishes;
    5. cut again at a URL marker that the deletions joined (``ht#tp://``).

    Empty words are dropped, then the leading words equal to ``RT``, and
    the rest are joined with single spaces. The result is a fixed point
    of every rule, so cleansing is idempotent, and one left-to-right pass
    makes its time linear in the length of the text.
    """
    return " ".join(dropwhile("RT".__eq__, filter(None, map(_cleanse_word, text.split()))))


def _cleanse_word(word: str) -> str:
    """``word``, which has no whitespace, cleansed by rules 1-5 of :func:`cleanse`."""
    # A rule changes only a word holding '#', '@', ':' (every emoticon and
    # URL scheme has one) or 'www.'; four substring tests spare the rest.
    if "#" not in word and "@" not in word and ":" not in word and "www." not in word:
        return word
    word = _cut_at_url(word)
    at = word.find("@")
    if -1 < at < len(word) - 1:
        word = word[:at]
    return _cut_at_url(_drop_emoticons(word.replace("#", "")))


def _cut_at_url(word: str) -> str:
    marker = _URL_MARKER_RE.search(word)
    return word if marker is None else word[: marker.start()]


def _drop_emoticons(word: str) -> str:
    if ":)" not in word and ":(" not in word:
        return word
    # Deleting a pair can join a new one (":" + ":)" + ")"); a stack of the
    # kept characters finds every such pair in one pass.
    kept = []
    for char in word:
        if (char == ")" or char == "(") and kept and kept[-1] == ":":
            kept.pop()
        else:
            kept.append(char)
    return "".join(kept)


class _LetterTable(dict):
    """``str.translate`` table: letters map to themselves, the rest to a space.

    Entries are filled on first lookup and never evicted; once the table
    holds ``_LETTER_TABLE_MAX_ENTRIES`` code points it stops inserting.
    """

    def __init__(self):
        super().__init__()
        # The table is module-wide; the lock keeps the size check and the
        # insert together so the cap holds exactly under threads.
        self._lock = threading.Lock()

    def __missing__(self, code_point):
        value = code_point if chr(code_point).isalpha() else 0x20
        if len(self) < _LETTER_TABLE_MAX_ENTRIES:  # a full table skips the lock
            with self._lock:
                if len(self) < _LETTER_TABLE_MAX_ENTRIES:
                    self[code_point] = value
        return value


_LETTERS = _LetterTable()


def _fold_tokens(text: str) -> list[str]:
    """Lowercase ``text`` and split it into maximal runs of letters.

    Words that are letters already are kept whole; only the others go
    through the letter table, which turns every non-letter into a space.
    """
    tokens = []
    for word in text.lower().split():
        if word.isalpha():
            tokens.append(word)
        else:
            tokens.extend(word.translate(_LETTERS).split())
    return tokens


def case_fold(text: str) -> str:
    """Lowercase the text and reduce it to letters separated by single spaces.

    Every non-letter acts as a delimiter: it becomes a space, runs of
    spaces collapse, and the result is trimmed. Idempotent.
    """
    return " ".join(_fold_tokens(text))


def tokenize(text: str) -> list[str]:
    """Split case-folded text on spaces.

    The input must already be case-folded (letters and spaces only);
    anything else is a contract violation reported with the offending
    character.
    """
    letters = text.replace(" ", "")
    if letters and not letters.isalpha():
        offender = next(c for c in text if c != " " and not c.isalpha())
        raise ContractError(
            f"tokenize expects case-folded text; found non-letter {offender!r}"
        )
    return text.split()


def remove_stopwords(tokens: list[str], stopwords: frozenset[str] | set[str]) -> list[str]:
    """Drop tokens present in the stopword set, preserving order."""
    return [t for t in tokens if t not in stopwords]


def pos_tag(tokens: list[str], lexicon: Mapping[str, PosTag]) -> list[PosTaggedToken]:
    """Tag each token by exact lexicon lookup; unknown words get OTHER."""
    return [PosTaggedToken(t, lexicon.get(t, PosTag.OTHER)) for t in tokens]


class _Skippable(tuple):
    """Output tokens of a word that cleanses to nothing or to exactly ``RT``.

    Such a word is dropped while no earlier word of the tweet cleansed to
    anything else; after that it contributes its tokens like any word.
    """


_CLEANSED_AWAY = _Skippable()


def run_pipeline(item: Tweet | LabeledTweet, config: PipelineConfig) -> Document:
    """Run the full preprocessing chain on one tweet.

    Accepts a raw or labeled tweet; the label, when present, is carried
    through untouched. Stages run in the fixed order with the optional
    ones gated by ``config``.

    The chain runs once per distinct whitespace-separated word of the
    text; the word's output tokens are kept in ``config``'s memo. It never
    evicts: once it holds ``_WORD_MEMO_MAX_ENTRIES`` words it stops
    inserting, and words longer than ``_WORD_MEMO_MAX_WORD_LEN`` characters
    are never stored. The memo trusts ``config`` not to change, so its
    ``pos_lexicon`` must not be mutated after first use.
    """
    if isinstance(item, LabeledTweet):
        tweet = item.tweet
        return Document(source_id=tweet.id, tokens=_tokens(tweet.text, config), label=item.label)
    return Document(source_id=item.id, tokens=_tokens(item.text, config))


def _tokens(text: str, config: PipelineConfig) -> tuple[str, ...]:
    """The tokens of :func:`run_pipeline`'s document of a tweet with ``text``."""
    memo = config._word_memo
    tokens = []
    leading = True  # no earlier word cleansed to anything but RT
    for word in text.split():
        out = memo.get(word)
        if out is None:
            out = _word_tokens(word, config)
        if leading and type(out) is _Skippable:
            continue
        leading = False
        tokens += out
    return tuple(tokens)


def _word_tokens(word: str, config: PipelineConfig) -> tuple[str, ...]:
    """Run the chain on one raw word; memoize its output tokens once Document's check passes."""
    cleansed = _cleanse_word(word)
    if not cleansed:
        out = _CLEANSED_AWAY
    else:
        stopwords = config.stopword_list if config.enable_stopwords else ()
        lexicon, keep = config.pos_lexicon, config.pos_keep_tags
        stem = config._stem
        kept = []
        for token in _fold_tokens(cleansed):
            if token in stopwords:
                continue
            if config.enable_pos and lexicon.get(token, PosTag.OTHER) not in keep:
                continue
            kept.append(token if stem is None else stem(token))
        _check_tokens(kept)
        out = _Skippable(kept) if cleansed == "RT" else tuple(kept)
    memo = config._word_memo
    # A full memo skips the lock; the lock keeps the size check and the
    # insert together so the cap holds exactly under threads.
    if len(word) <= _WORD_MEMO_MAX_WORD_LEN and len(memo) < _WORD_MEMO_MAX_ENTRIES:
        with config._word_memo_lock:
            if len(memo) < _WORD_MEMO_MAX_ENTRIES:
                memo[word] = out
    return out
