import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

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
        assert stemmer.stem("pemilihan") == "pilih"

    def test_verb_derivation(self, stemmer):
        assert stemmer.stem("memilih") == "pilih"

    def test_root_is_fixed_point(self, stemmer):
        assert stemmer.stem("gubernur") == "gubernur"


class TestRecovery:
    @pytest.mark.parametrize("root,form", RECOVERY_CASES)
    def test_recovers_root(self, stemmer, root, form):
        assert stemmer.stem(form) == root

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
            assert stemmer.stem(form) == root, f"{form} should stem to {root}"


class TestSafety:
    def test_unknown_word_returned_unchanged(self, stemmer):
        assert stemmer.stem("pilgubjabar") == "pilgubjabar"
        assert stemmer.stem("zzz") == "zzz"

    def test_affix_lookalike_roots_are_protected(self, stemmer):
        for word in ["kalah", "salah", "sekolah", "makan", "terima", "tanya", "buku"]:
            assert stemmer.stem(word) == word

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
    """The memoized ``stem`` against the uncached search, kept as the oracle."""

    def test_every_affixed_root_agrees_with_search(self, roots):
        stemmer = ConfixStemmer(roots)
        oracle = ConfixStemmer(roots)
        for root in sorted(roots):
            for form in affixed_forms(root):
                expected = oracle._search(form)
                assert stemmer.stem(form) == expected, form
                assert stemmer.stem(form) == expected, form  # memo hit

    @given(st.lists(st.text(alphabet="aeioubcdgklmnprstuy", min_size=1, max_size=40), max_size=30))
    def test_generated_words_agree_with_search(self, words):
        stemmer = ConfixStemmer(load_root_words())
        for word in words + words:
            assert stemmer.stem(word) == stemmer._search(word)

    def test_memo_stops_at_cap_and_stays_correct(self, roots):
        stemmer = ConfixStemmer(roots)
        rng = random.Random(3)
        root_list = sorted(roots)
        words = set()
        while len(words) < stemming._MEMO_MAX_ENTRIES + 2000:
            words.add(
                rng.choice(("me", "di", "ber", "pe", "")) + rng.choice(root_list)
                + "".join(rng.choice("aiknu") for _ in range(rng.randint(0, 4)))
            )
        words = sorted(words)
        for word in words:
            assert stemmer.stem(word) == stemmer._search(word)
            assert len(stemmer._memo) <= stemming._MEMO_MAX_ENTRIES
        assert len(stemmer._memo) == stemming._MEMO_MAX_ENTRIES
        # Words past the cap are still stemmed correctly, just not stored.
        for word in words[-100:]:
            assert word not in stemmer._memo
            assert stemmer.stem(word) == stemmer._search(word)

    def test_long_words_are_stemmed_but_not_stored(self, roots):
        stemmer = ConfixStemmer(roots)
        long_word = "memper" + "tanggung" * 4 + "jawabkan"
        short_word = "x" * stemming._MEMO_MAX_WORD_LEN
        assert len(long_word) > stemming._MEMO_MAX_WORD_LEN
        assert stemmer.stem(long_word) == stemmer._search(long_word)
        assert stemmer.stem(short_word) == short_word
        assert long_word not in stemmer._memo
        assert short_word in stemmer._memo

    def test_shared_instance_respects_cap_under_threads(self, roots, monkeypatch):
        monkeypatch.setattr(stemming, "_MEMO_MAX_ENTRIES", 64)
        stemmer = ConfixStemmer(roots)
        root_list = sorted(roots)
        errors = []

        def work(offset):
            try:
                for i in range(400):
                    word = "di" + root_list[(offset * 37 + i) % len(root_list)] + "nya"
                    if stemmer.stem(word) != stemmer._search(word):
                        errors.append(word)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(stemmer._memo) == 64
