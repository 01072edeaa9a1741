"""Dictionary-checked confix stripping for Indonesian.

Reduces an inflected word to its dictionary root by speculatively
stripping affixes in a fixed stage order and accepting the first
candidate found in the root-word dictionary:

1. the word itself,
2. inflectional particles (-lah, -kah, -pun),
3. possessive pronouns (-ku, -mu, -nya),
4. the first matching derivational suffix (-kan, -an, -i),
5. up to three derivational prefixes (me-/mem-/men-/meng-/meny-,
   pe-/pem-/pen-/peng-/peny-, di-, ke-, se-, ber-, ter-), where the
   nasal variants also try the assimilated form with the elided
   root-initial consonant restored (meny+V -> s+V, men+V -> t+V,
   mem+V -> p+V, meng+V -> k+V, likewise for peN-).

Each strip is a branch, not a commitment: if the stripped continuation
never reaches a dictionary word, the search backtracks and continues
with the ending intact (an apparent "-nya" may be part of the root, as
in "bertanya"). If no candidate is ever found the original word is
returned unchanged, so the result is always either a known root or the
input itself.

Each stemmer memoizes its results, because tweets repeat a small working
vocabulary. The memo is bounded: once it holds ``_MEMO_MAX_ENTRIES``
words it stops inserting (it never evicts), and words longer than
``_MEMO_MAX_WORD_LEN`` characters are never stored, so hostile input
cannot make it grow without limit.
"""

import threading
from functools import lru_cache

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

_MEMO_MAX_ENTRIES = 1 << 15
_MEMO_MAX_WORD_LEN = 32


class ConfixStemmer:
    """Confix stripper bound to a root-word dictionary."""

    def __init__(self, root_words):
        # An empty dictionary is allowed and makes stemming the identity:
        # no candidate can ever be accepted.
        self._roots = frozenset(root_words)
        self._memo: dict[str, str] = {}
        # Instances are shared (see stemmer_for); the lock keeps the
        # size check and the insert together so the cap holds exactly.
        self._memo_lock = threading.Lock()

    def stem(self, word: str) -> str:
        """Return the dictionary root of ``word``, or ``word`` itself."""
        root = self._memo.get(word)
        if root is None:
            root = self._search(word)
            if len(word) <= _MEMO_MAX_WORD_LEN:
                with self._memo_lock:
                    if len(self._memo) < _MEMO_MAX_ENTRIES:
                        self._memo[word] = root
        return root

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


@lru_cache(maxsize=8)
def stemmer_for(root_words: frozenset) -> ConfixStemmer:
    """Shared stemmer instances keyed by their root dictionary."""
    return ConfixStemmer(root_words)
