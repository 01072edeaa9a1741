import itertools
import random
import timeit

import pytest
from hypothesis import given, settings, strategies as st

import reference
from kicaumine import stemming
from kicaumine.resources import load_root_words
from kicaumine.stemming import ConfixStemmer


@pytest.fixture(scope="module")
def roots():
    return load_root_words()


@pytest.fixture(scope="module")
def stemmer(roots):
    return ConfixStemmer(roots)


def build_verb_form(root):
    """Independent generation oracle: attach meN- with standard nasal
    assimilation (the inverse of what the stripper undoes)."""
    first = root[0]
    if first in "aeiou":
        return "meng" + root
    if first == "k":
        return "meng" + root[1:]
    if first == "s":
        return "meny" + root[1:]
    if first == "p":
        return "mem" + root[1:]
    if first == "t":
        return "men" + root[1:]
    if first in "bf":
        return "mem" + root
    if first in "cdjz":
        return "men" + root
    if first in "g h":
        return "meng" + root
    return "me" + root


# Roots chosen to cover every assimilation class and several plain prefixes.
RECOVERY_CASES = [
    ("pilih", "memilih"),
    ("pilih", "pemilihan"),
    ("pilih", "dipilih"),
    ("pilih", "terpilih"),
    ("pilih", "pilihan"),
    ("tulis", "menulis"),
    ("tulis", "penulis"),
    ("sapu", "menyapu"),
    ("kirim", "mengirim"),
    ("kirim", "pengiriman"),
    ("ambil", "mengambil"),
    ("atur", "mengatur"),
    ("beli", "membeli"),
    ("bantu", "membantu"),
    ("dukung", "mendukung"),
    ("dukung", "dukungan"),
    ("dengar", "mendengar"),
    ("lihat", "melihat"),
    ("lapor", "melapor"),
    ("kerja", "kerjanya"),
    ("menang", "kemenangan"),
    ("pimpin", "pemimpin"),
    ("pimpin", "kepemimpinan"),
    ("malam", "semalam"),
    ("kasih", "kasihan"),
    ("beri", "memberikan"),
    ("beri", "diberikan"),
    ("janji", "berjanji"),
    ("janji", "menjanjikan"),
    ("percaya", "kepercayaan"),
    ("bangun", "pembangunan"),
    ("makan", "memakan"),
    ("pakai", "berpakaian"),
    ("baik", "sebaiknya"),
    ("main", "mainkan"),
    ("tanya", "bertanyalah"),
]


class TestKnownDerivations:
    def test_noun_derivation(self, stemmer):
        assert stemmer.stem("pemilihan") == reference.stem("pemilihan") == "pilih"

    def test_verb_derivation(self, stemmer):
        assert stemmer.stem("memilih") == reference.stem("memilih") == "pilih"

    def test_root_is_fixed_point(self, stemmer):
        assert stemmer.stem("gubernur") == reference.stem("gubernur") == "gubernur"


class TestRecovery:
    @pytest.mark.parametrize("root,form", RECOVERY_CASES)
    def test_recovers_root(self, stemmer, root, form):
        assert stemmer.stem(form) == reference.stem(form) == root

    def test_generated_verb_forms(self, stemmer, roots):
        sample = [
            "ajar", "ukur", "ikut", "undang", "kata", "kunci", "kumpul",
            "sebut", "susun", "suara", "pantau", "periksa", "pikir",
            "tolak", "tarik", "tunggu", "bawa", "baca", "buat", "dorong",
            "duga", "jual", "jaga", "cari", "coba", "latih", "larang",
            "rawat", "masak", "nilai", "wakil",
        ]
        for root in sample:
            assert root in roots, f"oracle root {root!r} missing from dictionary"
            form = build_verb_form(root)
            assert stemmer.stem(form) == reference.stem(form) == root, f"{form} should stem to {root}"


class TestSafety:
    def test_unknown_word_returned_unchanged(self, stemmer):
        for word in ["pilgubjabar", "zzz"]:
            assert stemmer.stem(word) == reference.stem(word) == word

    def test_affix_lookalike_roots_are_protected(self, stemmer):
        for word in ["kalah", "salah", "sekolah", "makan", "terima", "tanya", "buku"]:
            assert stemmer.stem(word) == reference.stem(word) == word

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=18))
    def test_result_is_root_or_input(self, word):
        roots = load_root_words()
        result = ConfixStemmer(roots).stem(word)
        assert result == word or result in roots
        assert result  # never empty

    @given(st.text(alphabet="aeioubcdklmnprst", min_size=1, max_size=14))
    def test_idempotent(self, word):
        stemmer = ConfixStemmer(load_root_words())
        once = stemmer.stem(word)
        assert stemmer.stem(once) == once

    def test_empty_dictionary_means_identity(self):
        stemmer = ConfixStemmer(frozenset())
        assert stemmer.stem("pemilihan") == "pemilihan"


def affixed_forms(root):
    """Surface forms of ``root`` under the affixes the stripper knows."""
    stems = [root, build_verb_form(root)]
    stems += [prefix + root for prefix in ("di", "ter", "ber", "ke", "se", "peng", "memper")]
    endings = ("", "kan", "an", "i", "nya", "ku", "mu", "lah", "kahmu", "kannyapun", "anlah")
    return [stem + ending for stem in stems for ending in endings]


class TestMemo:
    """``stem``, asked twice, against ``reference.stem``."""

    def test_every_affixed_root_agrees_with_search(self, roots):
        stemmer = ConfixStemmer(roots)
        for root in sorted(roots):
            for form in affixed_forms(root):
                expected = reference.stem(form)
                assert stemmer.stem(form) == expected, form
                assert stemmer.stem(form) == expected, form  # and again

    @given(st.lists(st.text(alphabet="aeioubcdgklmnprstuy", min_size=1, max_size=40), max_size=30))
    def test_generated_words_agree_with_search(self, words):
        stemmer = ConfixStemmer(load_root_words())
        for word in words + words:
            assert stemmer.stem(word) == reference.stem(word)


# Prefix families as they attach to a stem; "meN"/"peN" assimilate.
PREFIX_FAMILIES = ("meN", "peN", "ber", "ter", "di", "ke", "se")
# "" stands for no ending at that stage.
ENDING_COMBOS = [
    suffix + possessive + particle
    for suffix in ("",) + stemming._DERIV_SUFFIXES
    for possessive in ("",) + stemming._POSSESSIVES
    for particle in ("",) + stemming._PARTICLES
]
# Nasal form before a consonant, and the consonant it elides before a vowel.
NASAL_BEFORE = {"k": ("ng", True), "s": ("ny", True), "p": ("m", True), "t": ("n", True),
                "b": ("m", False), "f": ("m", False), "c": ("n", False), "d": ("n", False),
                "j": ("n", False), "z": ("n", False), "g": ("ng", False), "h": ("ng", False)}


def attach(family, stem):
    """``family`` prefixed to ``stem``, with nasal assimilation for meN-/peN-.

    k/s/p/t are elided before a vowel ("kirim" -> "mengirim"), as the
    stripper's restored forms expect, and kept before a consonant.
    """
    if not family.endswith("N"):
        return family + stem
    head = family[:-1]
    if stem[0] in "aeiou":
        return head + "ng" + stem
    nasal, elides = NASAL_BEFORE.get(stem[0], ("", False))
    if elides and len(stem) > 1 and stem[1] in "aeiou":
        return head + nasal + stem[1:]
    return head + nasal + stem


def prefixed(root, chain):
    """``root`` under a chain of prefix families, innermost last."""
    stem = root
    for family in reversed(chain):
        stem = attach(family, stem)
    return stem


def chains(max_len):
    return [c for n in range(max_len + 1) for c in itertools.product(PREFIX_FAMILIES, repeat=n)]


def first_mismatch(search, roots, words):
    return next((w for w in words if search.stem(w) != reference.stem(w, roots)), None)


class TestAgainstOracle:
    """The table-driven search against ``reference.stem``'s full recursive search."""

    def test_every_root_under_every_prefix_chain(self, stemmer, roots):
        words = (prefixed(root, chain) for root in sorted(roots) for chain in chains(3))
        assert first_mismatch(stemmer, roots, words) is None

    def test_every_root_under_every_ending_combination(self, stemmer, roots):
        words = (
            prefixed(root, chain) + ending
            for root in sorted(roots)
            for chain in chains(1)
            for ending in ENDING_COMBOS
        )
        assert first_mismatch(stemmer, roots, words) is None

    def test_sample_of_prefix_chains_times_endings(self, stemmer, roots):
        # Chains of four as well: one prefix more than the search strips.
        rng = random.Random(11)
        root_list = sorted(roots)
        words = (
            prefixed(rng.choice(root_list), rng.choices(PREFIX_FAMILIES, k=rng.randint(0, 4)))
            + rng.choice(ENDING_COMBOS)
            for _ in range(100_000)
        )
        assert first_mismatch(stemmer, roots, words) is None

    def test_every_short_word_with_two_letter_roots(self):
        # Two-letter roots reach the edges of the length rules, e.g. "akan"
        # has too short a stem for "-kan" but not for "-an".
        letters = "aeiuknm"
        roots = {"".join(pair) for pair in itertools.product(letters, repeat=2)} | {"kena"}
        search = ConfixStemmer(roots)
        words = (
            "".join(chars) for n in range(7) for chars in itertools.product(letters, repeat=n)
        )
        assert first_mismatch(search, roots, words) is None
        assert search.stem("akan") == "ak"

    def test_seeded_random_short_strings(self, stemmer, roots):
        rng = random.Random(7)
        letters = "aeioukgnmypstrbdlhcj"
        words = (
            "".join(rng.choices(letters, k=rng.randint(0, 12))) for _ in range(200_000)
        )
        assert first_mismatch(stemmer, roots, words) is None

    def test_words_shorter_than_two(self, stemmer, roots):
        words = [""] + [chr(c) for c in range(0x250)]
        assert first_mismatch(stemmer, roots, words) is None

    def test_empty_dictionary(self, roots):
        search = ConfixStemmer(frozenset())
        words = [prefixed(root, ("meN", "di")) + "kannya" for root in sorted(roots)]
        assert first_mismatch(search, frozenset(), words) is None
        assert all(search.stem(w) == w for w in words)

    @settings(max_examples=500)
    @given(
        st.lists(
            st.sampled_from(
                [prefix for prefix, _ in stemming._PREFIXES]
                + list(ENDING_COMBOS[1:])
                + sorted(load_root_words())
                + list("aeioukgnmypst")
            ),
            max_size=12,
        ).map(lambda parts: "".join(parts)[:40])
    )
    def test_generated_affix_heavy_words(self, word):
        assert ConfixStemmer(load_root_words()).stem(word) == reference.stem(word)


class TestPrefixTable:
    def test_keys_are_the_first_two_letters_in_prefix_order(self):
        table = stemming._PREFIX_TABLE
        assert all(len(key) == 2 for key in table)
        flattened = [(prefix, restored) for entries in table.values()
                     for prefix, _, restored in entries]
        assert sorted(flattened, key=stemming._PREFIXES.index) == list(stemming._PREFIXES)
        for key, entries in table.items():
            assert [p for p, _, _ in entries] == [
                p for p, _ in stemming._PREFIXES if p.startswith(key)
            ]
            assert all(size == len(p) for p, size, _ in entries)

    @pytest.mark.parametrize("short", ["", "m"])
    def test_prefix_shorter_than_two_letters_is_refused(self, short):
        with pytest.raises(ValueError, match="shorter than the two-letter"):
            stemming._prefix_table(stemming._PREFIXES + ((short, None),))


class TestStagesEntered:
    """``stem`` enters only the stages a word can take an affix in.

    A word with none of the nine endings goes straight to the prefix
    search, and one that also starts with no prefix key is done after the
    dictionary lookup. Each route must agree with the reference's full search.
    """

    # Per route: words that take it, roots and non-roots alike.
    ROUTES = {
        "ending": ["memilihnya", "bertanya", "pemilihan", "sekali", "rumahku", "makanan", "xyzlah"],
        "prefix key only": ["memilih", "menulis", "bermain", "kemarin", "setuju", "dipukul"],
        "neither": ["kotak", "xyzzy", "rumah", "gubernur", "a", "zz"],
    }

    @staticmethod
    def route(word):
        if word.endswith(stemming._ENDINGS):
            return "ending"
        return "prefix key only" if word[:2] in stemming._PREFIX_TABLE else "neither"

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_each_route_agrees_with_search(self, route, stemmer, roots):
        words = self.ROUTES[route]
        assert [self.route(w) for w in words] == [route] * len(words)
        assert first_mismatch(stemmer, roots, words) is None

    def test_routes_read_as_expected(self, stemmer):
        assert [stemmer.stem(w) for w in ("memilihnya", "memilih", "kotak")] == [
            "pilih", "pilih", "kotak"
        ]

    def spy(self, monkeypatch):
        calls = []
        strip_ending, strip_prefixes = stemming._strip_ending, ConfixStemmer._strip_prefixes

        def ending_spy(word, endings):
            calls.append(("ending", word))
            return strip_ending(word, endings)

        def prefixes_spy(stemmer, word, strips_left):
            calls.append(("prefixes", word))
            return strip_prefixes(stemmer, word, strips_left)

        monkeypatch.setattr(stemming, "_strip_ending", ending_spy)
        monkeypatch.setattr(ConfixStemmer, "_strip_prefixes", prefixes_spy)
        return calls

    def test_a_word_with_neither_does_no_affix_search(self, stemmer, monkeypatch):
        calls = self.spy(monkeypatch)
        assert [stemmer.stem(w) for w in ("kotak", "xyzzy")] == ["kotak", "xyzzy"]
        assert calls == []

    def test_a_word_with_a_prefix_key_only_skips_the_ending_stages(self, stemmer, monkeypatch):
        calls = self.spy(monkeypatch)
        assert stemmer.stem("memilih") == "pilih"
        assert calls[0] == ("prefixes", "memilih")
        assert all(kind == "prefixes" for kind, _ in calls)

    def test_a_word_with_an_ending_enters_the_ending_stages(self, stemmer, monkeypatch):
        calls = self.spy(monkeypatch)
        assert stemmer.stem("memilihnya") == "pilih"
        assert calls[0] == ("ending", "memilihnya")


def _stem_time(word):
    stemmer = ConfixStemmer(load_root_words())
    return min(timeit.repeat(lambda: stemmer.stem(word), number=20, repeat=5))


def test_stem_time_is_linear_in_word_length():
    # Linear code takes about 16 times longer on the large input, quadratic
    # code about 256 times. These words are longer than the memo keeps, so
    # every call searches.
    shapes = {
        "repeated meng- with every ending": lambda k: "menge" * k + "kannyalah",
        "repeated mem- with -i and -nya": lambda k: "mempe" * k + "inya",
        "one letter word": lambda k: "a" * k,
    }
    for name, shape in shapes.items():
        ratio = _stem_time(shape(16_000)) / _stem_time(shape(1_000))
        assert ratio < 64, (name, ratio)
