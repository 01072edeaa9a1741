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

The search is table-driven. ``_PREFIX_TABLE`` files every prefix under
its first two letters, with its length precomputed and the longest-first
order kept, so a word's possible prefixes take one dict lookup and a word
that starts with none of them is done at once. Each ending set is tested
with a single ``str.endswith`` on the whole tuple before the matching
ending is looked for. A word is searched only in the stages it can enter:
one that ends with none of the nine endings skips the three ending stages
and goes straight to the prefix search, and one that also starts with no
prefix is returned as it is after the dictionary lookup. At most three
prefixes and one ending per stage are stripped, so the time per word is
linear in its length.

The stemmer keeps no memo of its own: ``preprocess._tokens``, which the
commands and ``run_pipeline`` call, memoizes the checked output tokens
of whole words, so it stems only the words that miss there.
"""

_PARTICLES = ("lah", "kah", "pun")
_POSSESSIVES = ("nya", "ku", "mu")
_DERIV_SUFFIXES = ("kan", "an", "i")
# Every ending of the three stages: a word ending in none of them skips them.
_ENDINGS = _PARTICLES + _POSSESSIVES + _DERIV_SUFFIXES

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


def _prefix_table(prefixes):
    """Map the first two letters of each prefix to its (prefix, length,
    restored) entries, in ``prefixes`` order.

    A word can only start with the prefixes filed under its own first two
    letters, so one lookup replaces a ``startswith`` per prefix. A shorter
    prefix would never be found under a two-letter key, so it is refused.
    """
    table: dict[str, list] = {}
    for prefix, restored in prefixes:
        if len(prefix) < 2:
            raise ValueError(f"prefix {prefix!r} is shorter than the two-letter table key")
        table.setdefault(prefix[:2], []).append((prefix, len(prefix), restored))
    return {key: tuple(entries) for key, entries in table.items()}


_PREFIX_TABLE = _prefix_table(_PREFIXES)

_MIN_STEM_LEN = 2
_MAX_PREFIX_STRIPS = 3


class ConfixStemmer:
    """Confix stripper bound to a root-word dictionary."""

    def __init__(self, root_words):
        # An empty dictionary is allowed and makes stemming the identity:
        # no candidate can ever be accepted.
        self._roots = frozenset(root_words)

    def stem(self, word: str) -> str:
        """Return the dictionary root of ``word``, or ``word`` itself."""
        if word in self._roots:
            return word
        if word.endswith(_ENDINGS):
            found = self._after_particle(word)
        elif word[:2] in _PREFIX_TABLE:
            # No ending stage can strip anything, so each hands the word
            # on intact to the prefix search.
            found = self._strip_prefixes(word, _MAX_PREFIX_STRIPS)
        else:
            return word
        return found if found is not None else word

    # Each ending stage tries the word with its ending stripped (a root,
    # then the next stage's search) and then, if that finds nothing, the
    # next stage on the word intact.

    def _after_particle(self, word):
        stripped = _strip_ending(word, _PARTICLES)
        if stripped is not None:
            if stripped in self._roots:
                return stripped
            found = self._after_possessive(stripped)
            if found is not None:
                return found
        return self._after_possessive(word)

    def _after_possessive(self, word):
        stripped = _strip_ending(word, _POSSESSIVES)
        if stripped is not None:
            if stripped in self._roots:
                return stripped
            found = self._after_suffix(stripped)
            if found is not None:
                return found
        return self._after_suffix(word)

    def _after_suffix(self, word):
        stripped = _strip_ending(word, _DERIV_SUFFIXES)
        if stripped is not None:
            if stripped in self._roots:
                return stripped
            found = self._strip_prefixes(stripped, _MAX_PREFIX_STRIPS)
            if found is not None:
                return found
        return self._strip_prefixes(word, _MAX_PREFIX_STRIPS)

    def _strip_prefixes(self, word, strips_left):
        """Depth-first search over prefix removals, first dictionary hit wins."""
        entries = _PREFIX_TABLE.get(word[:2])
        if entries is None:
            return None
        roots = self._roots
        for prefix, size, restored in entries:
            if not word.startswith(prefix) or len(word) - size < _MIN_STEM_LEN:
                continue
            rest = word[size:]
            if rest in roots:
                return rest
            # The elided consonant can only precede a vowel in the surface form.
            alternative = restored + rest if restored and rest[0] in _VOWELS else None
            if alternative is not None and alternative in roots:
                return alternative
            if strips_left > 1:
                found = self._strip_prefixes(rest, strips_left - 1)
                if found is None and alternative is not None:
                    found = self._strip_prefixes(alternative, strips_left - 1)
                if found is not None:
                    return found
        return None


def _strip_ending(word, endings):
    """``word`` without the first of ``endings`` that leaves a long enough stem, or None.

    An ending that would leave too short a stem lets the next one try, so a
    four-letter word ending in "-kan" may still take "-an".
    """
    if word.endswith(endings):
        for ending in endings:
            if word.endswith(ending) and len(word) - len(ending) >= _MIN_STEM_LEN:
                return word[: -len(ending)]
    return None
