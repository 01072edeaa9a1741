"""Reference implementation of the confix affix search.

This is the former search behind ``kicaumine.stemming.ConfixStemmer.stem``
(``_search``, ``_branch``, the ``_after_*`` stages and ``_strip_prefixes``),
which tries the 15 prefixes one ``startswith`` at a time and chains the
ending stages through callbacks. It is kept unchanged apart from this
docstring and the ``OracleSearch`` wrapper, and it is the oracle that
``tests/test_stemming.py`` checks the table-driven search against.
"""

_PARTICLES = ("lah", "kah", "pun")
_POSSESSIVES = ("nya", "ku", "mu")
_DERIV_SUFFIXES = ("kan", "an", "i")

_VOWELS = frozenset("aeiou")

# (prefix, restored initial consonant or None), longest first so e.g.
# "meng-" wins over "men-" and "me-".
_PREFIXES = (
    ("meng", "k"),
    ("meny", "s"),
    ("peng", "k"),
    ("peny", "s"),
    ("mem", "p"),
    ("men", "t"),
    ("pem", "p"),
    ("pen", "t"),
    ("ber", None),
    ("ter", None),
    ("me", None),
    ("pe", None),
    ("di", None),
    ("ke", None),
    ("se", None),
)

_MIN_STEM_LEN = 2
_MAX_PREFIX_STRIPS = 3


class OracleSearch:
    """The uncached affix search of the former ``ConfixStemmer``."""

    def __init__(self, root_words):
        self._roots = frozenset(root_words)

    def _search(self, word: str) -> str:
        """The uncached affix search behind :meth:`stem`."""
        if word in self._roots:
            return word
        found = self._after_particle(word)
        return found if found is not None else word

    def _branch(self, word, endings, next_stage):
        """Try the first matching ending stripped, then the word intact."""
        for ending in endings:
            if word.endswith(ending) and len(word) - len(ending) >= _MIN_STEM_LEN:
                stripped = word[: -len(ending)]
                if stripped in self._roots:
                    return stripped
                found = next_stage(stripped)
                if found is not None:
                    return found
                break
        return next_stage(word)

    def _after_particle(self, word):
        return self._branch(word, _PARTICLES, self._after_possessive)

    def _after_possessive(self, word):
        return self._branch(word, _POSSESSIVES, self._after_suffix)

    def _after_suffix(self, word):
        return self._branch(
            word, _DERIV_SUFFIXES, lambda w: self._strip_prefixes(w, _MAX_PREFIX_STRIPS)
        )

    def _strip_prefixes(self, word, strips_left):
        """Depth-first search over prefix removals, first dictionary hit wins."""
        if strips_left == 0:
            return None
        for prefix, restored in _PREFIXES:
            if not word.startswith(prefix):
                continue
            rest = word[len(prefix) :]
            if len(rest) < _MIN_STEM_LEN:
                continue
            candidates = [rest]
            # The elided consonant can only precede a vowel in the surface form.
            if restored is not None and rest[0] in _VOWELS:
                candidates.append(restored + rest)
            for candidate in candidates:
                if candidate in self._roots:
                    return candidate
            for candidate in candidates:
                found = self._strip_prefixes(candidate, strips_left - 1)
                if found is not None:
                    return found
        return None
