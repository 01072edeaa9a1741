"""Reference implementation of tweet cleansing.

This is the former ``kicaumine.preprocess.cleanse``, which reruns one
pass of the removal rules until the text stops changing, kept unchanged
apart from this docstring. It is the oracle that ``tests/test_cleanse.py``
checks the single-pass ``preprocess.cleanse`` against.
"""

import re

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
