"""Single-pass cleansing agrees with the reference's word-by-word rules and is linear."""

import itertools
import sys
import timeit

from hypothesis import given, settings, strategies as st

import reference
from kicaumine.corpus import Tweet
from kicaumine.preprocess import PipelineConfig, cleanse, run_pipeline

ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = [c for c in ALL_CHARS if c.isspace()]

# Pieces that trigger, join or split the rules: emoticon halves, '#', '@',
# RT, the three URL markers and their fragments, and every whitespace.
WORD_PIECES = [":", ")", "(", "#", "@", "RT", "R", "T", "http://", "https://", "www.",
               "h", "t", "p", "s", "w", "/", ".", "a", "x"]
PIECES = WORD_PIECES + WHITESPACE
noisy_text = st.lists(
    st.one_of(st.sampled_from(PIECES), st.characters()), max_size=40
).map("".join)


def first_mismatch(texts):
    return next((t for t in texts if cleanse(t) != reference.cleanse(t)), None)


def test_named_cases():
    expected = {
        "x@#": "x",
        "x@http://y": "x@",
        "a:)@": "a@",
        "a@:)": "a",
        "R#T x": "x",
        ":#) a": "a",
        "h::))ttp://q z": "z",
        "# RT RT y RT": "y RT",
        "RT@a RT b": "b",
    }
    for text, cleaned in expected.items():
        assert cleanse(text) == reference.cleanse(text) == cleaned, text


def test_every_whitespace_between_rules():
    texts = []
    for ws in WHITESPACE:
        texts += [f"{ws}RT{ws}R#T{ws}a:{ws})", f"RT{ws}", f"x@{ws}y", f"ht#tp:{ws}//a{ws}b"]
    assert first_mismatch(texts) is None


def test_every_short_string():
    alphabet = ":)(#@/.whtpR T"
    texts = (
        "".join(chars)
        for n in range(6)
        for chars in itertools.product(alphabet, repeat=n)
    )
    assert first_mismatch(texts) is None


@settings(max_examples=500)
@given(noisy_text)
def test_agrees_with_fixed_point(text):
    assert cleanse(text) == reference.cleanse(text)


# The whitespace that ASCII-minded code misses, between noisy words.
ODD_SPACES = ["\x85", "\xa0", "\u1680", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f"]
odd_spaced_text = st.lists(
    st.one_of(st.sampled_from(WORD_PIECES + ODD_SPACES + [" "]), st.characters()), max_size=40
).map("".join)


@settings(max_examples=500)
@given(odd_spaced_text)
def test_agrees_with_regex_cleanse(text):
    assert cleanse(text) == reference.cleanse(text)


def _time(text):
    return min(timeit.repeat(lambda: cleanse(text), number=1, repeat=5))


def test_time_is_linear_on_hostile_shapes():
    # Quadratic code takes about 16**2 = 256 times longer on the large
    # input; linear code about 16 times. Ratios, not times, so the
    # machine's speed does not matter.
    shapes = {
        "nested emoticons": lambda k: ":" * k + ")" * k,
        "RT run": lambda k: "RT " * k,
        "joined URL markers": lambda k: "ht#tp:/" * k,
        "one letter word": lambda k: "a" * (k // 2),
    }
    for name, shape in shapes.items():
        ratio = _time(shape(16_000)) / _time(shape(1_000))
        assert ratio < 64, (name, ratio)


def test_long_nested_record_through_pipeline():
    text = "bagus " + ":" * 8_000 + ")" * 8_000 + " sekali"
    doc = run_pipeline(Tweet("long", text), PipelineConfig(enable_stemming=False))
    assert doc.source_id == "long"
    assert doc.tokens == ("bagus", "sekali")
