"""Case folding and scoring agree exactly with the reference's."""

import random
import sys
import threading
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import NEG, NEU, POS
from kicaumine import preprocess
from kicaumine.model import OOV_SKIP, OOV_SMOOTH, NbModel, _doc_scores, _ScoreTable, classify
from kicaumine.preprocess import Document, case_fold, tokenize

ALL_CHARS = [chr(c) for c in range(sys.maxunicode + 1)]


def first_mismatch(texts):
    return next((t for t in texts if case_fold(t) != reference.case_fold(t)), None)


class TestCaseFold:
    def test_every_code_point_alone(self):
        assert first_mismatch(ALL_CHARS) is None

    def test_every_code_point_between_letters(self):
        assert first_mismatch(["a" + c + "b" for c in ALL_CHARS]) is None

    def test_every_code_point_next_to_its_uppercase(self):
        assert first_mismatch([c + c.upper() for c in ALL_CHARS]) is None

    @settings(max_examples=300)
    @given(
        st.text(
            alphabet=st.one_of(
                # dotted capital I, sigmas, combining marks, superscripts,
                # vulgar fractions, digits, punctuation and whitespace
                st.sampled_from("İıIiΣσςAaZzé̇́̀²³¹ⁿ½¼⅓⅞ 0.,!#:)\t\n 　"),
                st.characters(),
            ),
            max_size=80,
        )
    )
    def test_agrees_on_text(self, text):
        expected = reference.case_fold(text)
        assert case_fold(text) == expected
        assert preprocess._fold_tokens(text) == tokenize(expected)


class TestLetterTable:
    def test_cap_holds_and_output_is_unchanged(self, monkeypatch):
        cap = preprocess._LETTER_TABLE_MAX_ENTRIES
        table = preprocess._LetterTable()
        monkeypatch.setattr(preprocess, "_LETTERS", table)
        # More distinct non-letters than the cap, then letters the full
        # table can no longer store.
        junk = [c for c in ALL_CHARS[0x2000:] if not c.isalpha()][: cap + 500]
        letters = [c for c in ALL_CHARS[0x4E00:] if c.isalpha()][:500]
        texts = ["x" + "".join(junk[i : i + 64]) + "y" for i in range(0, len(junk), 64)]
        texts += ["1" + c + "!" + c.upper() for c in letters]
        for text in texts:
            assert case_fold(text) == reference.case_fold(text)
        assert len(table) == cap
        for text in texts:
            assert case_fold(text) == reference.case_fold(text)
        assert len(table) == cap

    def test_cap_holds_under_threads(self, monkeypatch):
        cap = preprocess._LETTER_TABLE_MAX_ENTRIES
        table = preprocess._LetterTable()
        monkeypatch.setattr(preprocess, "_LETTERS", table)
        # Words of letters only never reach the table, so feed non-letters.
        junk = [c for c in ALL_CHARS[0x2000:] if not c.isalpha()][: 2 * cap]
        chunk = len(junk) // 8
        errors = []

        def fold(start):
            text = "x" + "".join(junk[start : start + chunk])
            if case_fold(text) != reference.case_fold(text):
                errors.append(start)

        threads = [threading.Thread(target=fold, args=(i * chunk,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(table) == cap


def columns(model):
    """``model``'s per-label documents, token totals and counts, and its vocabulary size."""
    labels = model.labels
    docs = [model.docs_per_class[lab] for lab in labels]
    tokens = [model.tokens_per_class[lab] for lab in labels]
    return docs, tokens, len(model.vocabulary), [model.token_counts[lab] for lab in labels]


def reference_scores(model, tokens, oov_mode):
    return reference.class_scores(*columns(model), model.vocabulary, tokens, oov_mode == OOV_SKIP)


def random_case(rng):
    labels = rng.choice([(NEG, POS), (NEG, POS, NEU), (POS, NEU)])
    vocab = ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 4))) for _ in range(40)]
    vocab = sorted(set(vocab))
    token_counts = {
        lab: {t: rng.randint(1, 30) for t in rng.sample(vocab, rng.randint(1, len(vocab)))}
        for lab in labels
    }
    model = NbModel(
        labels=labels,
        docs_per_class={lab: rng.randint(1, 50) for lab in labels},
        token_counts=token_counts,
    )
    pool = vocab + ["zz", "zzy", "qq"]  # the last three are never in the model
    tokens = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
    return model, Document(source_id="d", tokens=tuple(tokens))


class TestScores:
    @pytest.mark.parametrize("oov_mode", [OOV_SMOOTH, OOV_SKIP])
    @settings(max_examples=150)
    @given(seed=st.integers(0, 10**9))
    def test_bit_identical_to_oracle(self, oov_mode, seed):
        model, doc = random_case(random.Random(seed))
        expected, oov = reference_scores(model, doc.tokens, oov_mode)
        table = model._score_table()
        table.build(doc.tokens)
        got, got_oov = _doc_scores(table, doc.tokens, oov_mode)
        assert (got, got_oov) == (expected, oov)
        prediction = classify(model, doc, oov_mode=oov_mode)
        assert prediction.label == model.labels[reference.best(expected)]
        assert list(prediction.posteriors.values()) == reference.posteriors(expected)
        assert list(prediction.posteriors) == list(model.labels)
        assert prediction.oov_tokens == oov

    def test_empty_document_is_priors(self):
        model, _ = random_case(random.Random(7))
        empty = Document(source_id="e", tokens=())
        scores, _ = reference_scores(model, (), OOV_SMOOTH)
        expected = [reference.log_prior(model.docs_per_class[lab], model.total_docs)
                    for lab in model.labels]
        assert scores == expected
        assert _doc_scores(model._score_table(), empty.tokens, OOV_SMOOTH) == (expected, 0)


def bits(floats):
    return array("d", floats).tobytes()


def reference_rows(docs, class_tokens, vocabulary_size, counts, vocab):
    """Each ``vocab`` token's log likelihood per class, and the priors and OOV terms."""
    rows = {
        token: tuple(
            reference.log_likelihood(class_counts.get(token, 0), n, vocabulary_size)
            for class_counts, n in zip(counts, class_tokens)
        )
        for token in vocab
    }
    priors = [reference.log_prior(n, sum(docs)) for n in docs]
    oov = [reference.log_likelihood(0, n, vocabulary_size) for n in class_tokens]
    return rows, priors, oov


class TestRows:
    """Rows exist for the built vocabulary tokens only, bit for bit the reference's."""

    @settings(max_examples=150)
    @given(seed=st.integers(0, 10**9))
    def test_rows_match_eager_oracle(self, seed):
        rng = random.Random(seed)
        n_labels = rng.randint(2, 3)
        pool = [f"t{i}" for i in range(30)]
        vocab = rng.sample(pool, rng.randint(1, 20))
        # Counts may be 0 or missing, as for a fold's tokens in cross_validate.
        counts = [
            {t: rng.randint(0, 40) for t in rng.sample(vocab, rng.randint(0, len(vocab)))}
            for _ in range(n_labels)
        ]
        args = (
            [rng.randint(1, 50) for _ in range(n_labels)],
            [sum(c.values()) + rng.randint(0, 20) for c in counts],
            len(vocab) + rng.randint(0, 10),
            counts,
        )
        table = _ScoreTable(*args, frozenset(vocab))
        rows, priors, oov = reference_rows(*args, vocab)
        mode = rng.choice([OOV_SMOOTH, OOV_SKIP])
        built = rng.choices(pool, k=rng.randint(0, 20))
        table.build(built)
        assert table.rows.keys() == set(built) & set(vocab)
        for token in set(vocab) - set(built):
            with pytest.raises(KeyError):
                _doc_scores(table, [token], mode)
        tokens = rng.choices(pool, k=rng.randint(0, 40))
        table.build(tokens)
        assert table.rows.keys() == (set(built) | set(tokens)) & set(vocab)
        assert _doc_scores(table, tokens, mode) == reference.class_scores(
            *args, set(vocab), tokens, mode == OOV_SKIP
        )
        assert bits(table.log_priors) == bits(priors)
        assert bits(table.oov_log_lik) == bits(oov)
        table.build(pool)
        assert table.rows.keys() == rows.keys()
        for token in vocab:
            assert bits(table.rows[token]) == bits(rows[token])

    @settings(max_examples=100)
    @given(seed=st.integers(0, 10**9))
    def test_model_table_matches_eager_oracle(self, seed):
        model, doc = random_case(random.Random(seed))
        table = model._score_table()
        assert table.vocab == model.vocabulary
        table.build(doc.tokens)
        for mode in (OOV_SMOOTH, OOV_SKIP):
            assert _doc_scores(table, doc.tokens, mode) == reference_scores(model, doc.tokens, mode)
        assert table.rows.keys() == set(doc.tokens) & model.vocabulary
        table.build(model.vocabulary)
        rows, _, _ = reference_rows(*columns(model), model.vocabulary)
        for token in model.vocabulary:
            assert bits(table.rows[token]) == bits(rows[token])
