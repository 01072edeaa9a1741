"""Reference implementations of tweet cleansing.

``cleanse`` is the former ``kicaumine.preprocess.cleanse``, which reruns
one pass of the removal rules until the text stops changing, kept
unchanged apart from this docstring. It is the oracle that
``tests/test_cleanse.py`` checks the single-pass ``preprocess.cleanse``
against.

``regex_cleanse`` is the later whole-text ``preprocess.cleanse``: one
regex finds each word that some rule can change and ``_cleanse_word``
cleanses it. It is the oracle for splitting the text with ``str.split``
before the per-word rules run.
"""

import re
from itertools import dropwhile

from kicaumine.preprocess import _cleanse_word

_URL_RE = re.compile(r"(?:https?://|www\.)\S*")
_MENTION_RE = re.compile(r"@\S+")
_WHITESPACE_RE = re.compile(r"\s+")


def cleanse(text: str) -> str:
    """Strip tweet noise: URLs, mentions, a leading RT, '#', emoticons.

    The removal rules run in that order, then whitespace runs collapse to
    single spaces and the ends are trimmed. The whole pass repeats until
    the text stops changing, because one removal can expose another match
    (e.g. ``::))`` leaves ``:)`` behind); iterating to the fixed point
    makes cleansing idempotent on every input.
    """
    previous = None
    while text != previous:
        previous = text
        text = _cleanse_once(text)
    return text


def _cleanse_once(text: str) -> str:
    text = _URL_RE.sub("", text)
    text = _MENTION_RE.sub("", text)
    lead = text.lstrip()
    if lead.startswith("RT") and (len(lead) == 2 or lead[2].isspace()):
        text = lead[2:]
    text = text.replace("#", "")
    text = text.replace(":)", "").replace(":(", "")
    return _WHITESPACE_RE.sub(" ", text).strip()


# A word that some cleansing rule can change: it holds '#', '@', ':' (every
# emoticon and URL scheme has one) or 'www.'. The pattern is anchored at
# word starts, so a failed attempt costs one word and the scan stays linear.
NOISY_WORD_RE = re.compile(r"(?<!\S)\S*?(?:[#@:]|www\.)\S*")


def regex_cleanse(text: str) -> str:
    words = NOISY_WORD_RE.sub(lambda match: _cleanse_word(match.group()), text).split()
    return " ".join(dropwhile("RT".__eq__, words))
