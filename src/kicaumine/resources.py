"""Word-file parsing, access to the bundled data files, atomic output writes,
and the plumbing that the command modules share.

All word resources share one line format: UTF-8 text (a leading
byte-order mark is dropped), one entry per line, lines starting with '#'
are comments, leading and trailing whitespace is trimmed. Their words
are lowercased as they are read, as the tokens and text they match are.
The package bundles an Indonesian stopword list, root-word dictionary,
POS lexicon, language-detection wordlist, and a six-tweet demo corpus
so the whole pipeline runs offline out of the box.
"""

import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress

from .config import PosTag, RunConfig
from .exceptions import ConfigError

# The bundled data files sit in a directory beside this module, so the
# package must be installed as plain files, not run from a zip archive.
_DATA = os.path.join(os.path.dirname(__file__), "data")

STOPWORDS_FILE = "stopwords_id.txt"
ROOT_WORDS_FILE = "root_words_id.txt"
POS_LEXICON_FILE = "pos_lexicon_id.tsv"
WORDLIST_FILE = "wordlist_id.txt"
DEMO_CORPUS_FILE = "demo_tweets.jsonl"


@contextmanager
def atomic_writer(path):
    """Open ``path`` for UTF-8 text with LF newlines, replaced only on success.

    The text goes to a new file in the target's directory, which replaces
    the target once the block completes; an existing target's permission
    bits carry over, but not its owner or other hard links. If the block
    raises, that file is removed and the target keeps its previous content.
    This protects against a failing or killed writer, not against power
    loss (there is no fsync). A target that exists but is not a regular
    file, such as a FIFO, ``/dev/stdout`` or ``/dev/fd/N``, cannot be
    replaced and is written in place.
    """
    # Decide on the path as given: resolving a pipe's /dev/fd link first
    # yields a name such as "pipe:[N]" that cannot be opened.
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
        with suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_word_file(path) -> list[str]:
    """A word file's entries, trimmed at both ends; comment and blank lines skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return [line for line in map(str.strip, handle) if line and not line.startswith("#")]
    except UnicodeDecodeError:
        raise ConfigError(f"word file {path} is not UTF-8") from None


def _word_set(path, letters_only_as=None) -> frozenset[str]:
    """A word file's entries, lowercased as the tokens and text they match are.

    With ``letters_only_as``, an entry that is not letters is refused,
    named as written in the file and as that kind of word.
    """
    entries = load_word_file(path)
    if letters_only_as is not None:
        for entry in entries:
            if not entry.isalpha():
                raise ConfigError(f"{letters_only_as} {entry!r} is not letters")
    return frozenset(entry.lower() for entry in entries)


def demo_corpus_path() -> str:
    """Filesystem path of the bundled six-tweet demo corpus."""
    return os.path.join(_DATA, DEMO_CORPUS_FILE)


def load_stopwords(path=None) -> frozenset[str]:
    """Stopword set."""
    return _word_set(path or os.path.join(_DATA, STOPWORDS_FILE))


def load_wordlist(path=None) -> frozenset[str]:
    """Language-test wordlist."""
    return _word_set(path or os.path.join(_DATA, WORDLIST_FILE))


def load_root_words(path=None) -> frozenset[str]:
    """Stemmer root dictionary; every entry must be letters."""
    return _word_set(path or os.path.join(_DATA, ROOT_WORDS_FILE), "root word")


def load_hashtags(path) -> frozenset[str]:
    """Hashtag set file: one tag per line, stored without the '#' prefix."""
    return _word_set(path)


def load_pos_lexicon(path=None) -> dict[str, PosTag]:
    """POS lexicon: `word<TAB>TAG` per line, TAG one of the PosTag names.

    Words are lowercased, as the tokens they tag are; of two lines that
    name one word, the later wins.
    """
    entries = load_word_file(path or os.path.join(_DATA, POS_LEXICON_FILE))
    lexicon: dict[str, PosTag] = {}
    for entry in entries:
        word, sep, tag_name = entry.partition("\t")
        if not sep or not word or not tag_name:
            raise ConfigError(f"malformed POS lexicon entry {entry!r}")
        try:
            tag = PosTag[tag_name.strip().upper()]
        except KeyError:
            raise ConfigError(f"unknown POS tag {tag_name!r} for word {word!r}") from None
        lexicon[word.lower()] = tag
    return lexicon


def default_pipeline_config(
    enable_stopwords: bool = RunConfig._defaults["enable_stopwords"],
    enable_pos: bool = RunConfig._defaults["enable_pos"],
    enable_stemming: bool = RunConfig._defaults["enable_stemming"],
):
    """Pipeline configuration backed by the bundled word resources."""
    return _pipeline_config(
        RunConfig(
            enable_stopwords=enable_stopwords,
            enable_pos=enable_pos,
            enable_stemming=enable_stemming,
        )
    )


# ---------------------------------------------------------------------------
# command plumbing


def _say(line: str) -> None:
    """Write one diagnostic line to stderr.

    A line that stderr cannot take, because it is closed or fails, is
    dropped: a diagnostic never changes a command's data or exit status.
    """
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        pass


def _nonempty_pairs(labeled_texts, pipeline):
    """Yield ``(label, tokens)`` of each ``(label, text)`` that preprocesses to tokens.

    The one rule of ``train`` and ``eval``: a text that preprocesses to no
    tokens is dropped, and once all are read the dropped ones are counted
    in one line.
    """
    from .preprocess import _tokens

    dropped = 0
    for label, text in labeled_texts:
        tokens = _tokens(text, pipeline)
        if tokens:
            yield label, tokens
        else:
            dropped += 1
    if dropped:
        _say(f"dropped {dropped} document(s) that preprocessed to empty")


def _output(path):
    """A context giving stdout when ``path`` is None, else an atomic writer to ``path``.

    A closed stdout (``>&-``, where ``sys.stdout`` is None) raises ``OSError``.
    """
    if path is not None:
        return atomic_writer(path)
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return nullcontext(sys.stdout)


def _emit(text: str, out_path) -> None:
    """Write ``text`` to ``out_path`` (stdout when None), ending with a newline."""
    with _output(out_path) as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


def _render(fmt: str, value, rows, lines) -> str:
    """A command's summary in output format ``fmt``.

    ``value`` is its JSON value, ``rows`` its CSV rows (header first) and
    ``lines`` its table lines; only the one ``fmt`` names is read.
    """
    if fmt == "json":
        return json.dumps(value, sort_keys=True, indent=2)
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    return "\n".join(lines)


def _pipeline_config(config: RunConfig):
    from .preprocess import PipelineConfig

    return PipelineConfig(
        stopword_list=load_stopwords(config.stopwords),
        enable_stopwords=config.enable_stopwords,
        enable_pos=config.enable_pos,
        pos_keep_tags=config.pos_keep_tags,
        enable_stemming=config.enable_stemming,
        pos_lexicon=load_pos_lexicon(config.pos_lexicon),
        root_words=load_root_words(config.stem_roots),
    )


def _effective_hashtags(config: RunConfig) -> frozenset[str]:
    if config.hashtags_file is not None:
        tags = load_hashtags(config.hashtags_file)
        if not tags:
            raise ConfigError(f"hashtag file {config.hashtags_file} has no entries")
        return tags
    return config.hashtags
