import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NEG, NEU, POS, make_doc
import reference
import synthdata
from kicaumine import evaluation
from kicaumine.corpus import SentimentLabel
from kicaumine.exceptions import (
    DegenerateTrainingError,
    KicaumineError,
    ModelFormatError,
    SplitError,
    TrainingError,
)
from kicaumine.model import (
    OOV_SKIP,
    OOV_SMOOTH,
    NbModel,
    _class_counts,
    _doc_scores,
    _int_counts,
    _model,
    classify,
    load_model,
    save_model,
    train,
)


def rational_class_score(model, tokens, label):
    """Exact product-form score: prior times per-token smoothed likelihoods."""
    prior = Fraction(model.docs_per_class[label], model.total_docs)
    denominator = model.tokens_per_class[label] + len(model.vocabulary)
    score = prior
    for token in tokens:
        count = model.token_counts[label].get(token, 0)
        score *= Fraction(count + 1, denominator)
    return score


def rational_argmax(model, tokens):
    """Label with the largest exact score; ties to the earliest label."""
    best_label, best_score = None, None
    for label in model.labels:
        score = rational_class_score(model, tokens, label)
        if best_score is None or score > best_score:
            best_label, best_score = label, score
    return best_label


def log_priors(model):
    """Each label's log prior, from the model's score table."""
    return dict(zip(model.labels, model._score_table().log_priors))


def log_likelihood(model, token, label):
    """The score table's log likelihood of ``token`` under ``label``."""
    table = model._score_table()
    table.build((token,))
    row = table.rows[token] if token in table.vocab else table.oov_log_lik
    return row[model.labels.index(label)]


def log_scores(model, tokens, oov_mode=OOV_SMOOTH):
    """Each label's log score of ``tokens``."""
    table = model._score_table()
    table.build(tokens)
    scores, _ = _doc_scores(table, tokens, oov_mode)
    return dict(zip(model.labels, scores))


def random_count_model(rng):
    """A structurally valid model built from random count tables."""
    n_labels = rng.choice([2, 2, 3])
    labels = tuple(SentimentLabel)[:n_labels]
    vocab = [f"tok{chr(ord('a') + i)}" for i in range(rng.randint(1, 12))]
    token_counts = {}
    for lab in labels:
        chosen = rng.sample(vocab, rng.randint(0, len(vocab)))
        token_counts[lab] = {tok: rng.randint(1, 9) for tok in chosen}
    # the union must be non-empty: force one token if all classes came up empty
    if not any(token_counts.values()):
        token_counts[labels[0]] = {vocab[0]: rng.randint(1, 9)}
    return NbModel(
        labels=labels,
        docs_per_class={lab: rng.randint(1, 40) for lab in labels},
        token_counts=token_counts,
    )


def payload(model):
    """``model`` as ``reference.nb_model``'s payload."""
    return {
        "alpha": 1,
        "docs_per_class": {lab.value: n for lab, n in model.docs_per_class.items()},
        "labels": [lab.value for lab in model.labels],
        "schema_version": 1,
        "token_counts": {lab.value: counts for lab, counts in model.token_counts.items()},
        "tokens_per_class": {lab.value: n for lab, n in model.tokens_per_class.items()},
    }


def trained(docs):
    """``payload(train(docs))``, or the class and text of the error it raises."""
    got = outcome(lambda: train(docs))
    return payload(got) if isinstance(got, NbModel) else got


def expected_training(docs):
    """What ``trained(docs)`` must be: the error naming the first unlabeled or
    empty document, else the reference's model or refusal."""
    bad = next((doc for doc in docs if doc.label is None or not doc.tokens), None)
    if bad is not None:
        problem = "is unlabeled" if bad.label is None else "has no tokens"
        return (TrainingError, f"document {bad.source_id!r} {problem}")
    try:
        return reference.nb_model((doc.label.value, doc.tokens) for doc in docs)
    except reference.Refused as refusal:
        degenerate = refusal.message.startswith("training needs")
        return (DegenerateTrainingError if degenerate else TrainingError, refusal.message)


class TestTrain:
    def test_hand_counted_fixture(self, toy_docs, toy_model):
        assert toy_model.total_docs == 3
        assert toy_model.docs_per_class == {POS: 2, NEG: 1}
        assert toy_model.vocabulary == {"calon", "bagus", "mantap", "buruk"}
        assert toy_model.tokens_per_class == {POS: 4, NEG: 2}
        # brute-force recount oracle: re-derive every count from the raw docs
        for lab in toy_model.labels:
            expected = Counter()
            for doc in toy_docs:
                if doc.label is lab:
                    expected.update(doc.tokens)
            assert toy_model.token_counts[lab] == expected
            assert toy_model.tokens_per_class[lab] == sum(expected.values())

    def test_labels_in_canonical_order(self, toy_model):
        assert toy_model.labels == (NEG, POS)

    def test_single_class_is_degenerate(self):
        docs = [make_doc("1", ["a"], POS), make_doc("2", ["b"], POS)]
        with pytest.raises(DegenerateTrainingError):
            train(docs)

    def test_empty_input_is_an_error(self):
        with pytest.raises(TrainingError):
            train([])

    def test_unlabeled_document_rejected(self):
        with pytest.raises(TrainingError, match="unlabeled"):
            train([make_doc("1", ["a"]), make_doc("2", ["b"], NEG)])

    def test_empty_document_rejected(self):
        with pytest.raises(TrainingError, match="no tokens"):
            train([make_doc("1", [], POS), make_doc("2", ["b"], NEG)])

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, NEG, POS, NEU]),
                st.lists(st.sampled_from(["a", "b", "cc", "d"]), max_size=4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_former_counting_loop(self, spec):
        docs = [make_doc(f"d{i}", tokens, label) for i, (label, tokens) in enumerate(spec)]
        assert trained(docs) == expected_training(docs)


class TestTrainOracle:
    """``train`` and ``_class_counts`` read their documents once, and count
    what ``reference.class_counts`` and ``reference.nb_model`` count."""

    BAD = {
        "unlabeled": lambda doc: make_doc(doc.source_id, doc.tokens),
        "empty": lambda doc: make_doc(doc.source_id, (), doc.label),
        "unlabeled and empty": lambda doc: make_doc(doc.source_id, ()),
    }

    @pytest.mark.parametrize("position", [0, 20, 39])
    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("container", [list, iter])
    def test_bad_document_named_as_before(self, position, kind, container):
        docs = synthdata.two_class_corpus(n_docs=40, seed=position)
        docs[position] = self.BAD[kind](docs[position])
        if position != 39:
            docs[-1] = self.BAD["unlabeled"](docs[-1])  # a later bad document is not named
        problem = "has no tokens" if kind == "empty" else "is unlabeled"
        expected = (TrainingError, f"document {docs[position].source_id!r} {problem}")
        assert outcome(lambda: train(container(docs))) == expected

    @pytest.mark.parametrize("container", [list, iter])
    def test_empty_collection_refused_as_before(self, container):
        expected = (TrainingError, "no documents to train on")
        assert outcome(lambda: train(container([]))) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("container", [list, iter])
    def test_same_model_as_before(self, seed, container, tmp_path):
        docs = synthdata.two_class_corpus(n_docs=300, seed=seed)
        assert_same_model(train(container(docs)), docs, tmp_path)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, NEG, POS, NEU]),
                st.lists(st.sampled_from(["a", "b", "cc", "d"]), max_size=4),
            ),
            max_size=12,
        )
    )
    def test_matches_former_code(self, spec):
        docs = [make_doc(f"d{i}", tokens, label) for i, (label, tokens) in enumerate(spec)]
        expected = expected_training(docs)
        assert trained(docs) == trained(iter(docs)) == expected
        pairs = [(label, tuple(tokens)) for label, tokens in spec]
        counts = reference.class_counts(pairs)
        for got in (_class_counts(pairs), _class_counts(iter(pairs))):
            assert got == counts
            assert [list(table) for table in got] == [list(table) for table in counts]
            assert [list(c) for c in got[2].values()] == [list(c) for c in counts[2].values()]


def assert_same_model(got, docs, tmp_path):
    """``got`` is the reference's model of ``docs``: counts, order and saved bytes."""
    expected = reference.nb_model((doc.label.value, doc.tokens) for doc in docs)
    assert payload(got) == expected
    first_seen = reference.class_counts((doc.label, doc.tokens) for doc in docs)[0]
    assert list(got.docs_per_class) == list(first_seen)
    assert [list(c) for c in got.token_counts.values()] == [
        list(c) for c in expected["token_counts"].values()
    ]
    save_model(got, tmp_path / "got.json")
    assert (tmp_path / "got.json").read_bytes() == reference.model_bytes(expected)


class TestModelOfPairs:
    """``_model``, which ``train`` and the commands count through, against the reference.

    The commands pass ``(label, tokens)`` pairs, each labeled and non-empty,
    with no ``Document``; the model must be the reference's.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_model_and_bytes(self, seed, tmp_path):
        docs = synthdata.two_class_corpus(n_docs=300, seed=seed)
        assert_same_model(_model((doc.label, doc.tokens) for doc in docs), docs, tmp_path)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([NEG, POS, NEU]),
                st.lists(st.sampled_from(["a", "b", "cc", "d"]), min_size=1, max_size=4),
            ),
            max_size=12,
        )
    )
    def test_matches_former_train(self, spec):
        docs = [make_doc(f"d{i}", tokens, label) for i, (label, tokens) in enumerate(spec)]
        expected = expected_training(docs)
        pairs = [(label, tuple(tokens)) for label, tokens in spec]
        got = outcome(lambda: _model(iter(pairs)))
        assert (payload(got) if isinstance(got, NbModel) else got) == expected
        if isinstance(got, NbModel):
            assert [list(c) for c in got.token_counts.values()] == [
                list(c) for c in expected["token_counts"].values()
            ]


class TestPriorsAndLikelihoods:
    def test_priors(self, toy_model):
        assert log_priors(toy_model) == {POS: math.log(2 / 3), NEG: math.log(1 / 3)}

    def test_priors_normalize(self, toy_model):
        assert sum(map(math.exp, log_priors(toy_model).values())) == pytest.approx(1.0, abs=1e-9)

    def test_seen_token_likelihood(self, toy_model):
        assert log_likelihood(toy_model, "bagus", POS) == math.log(3 / 8)
        assert log_likelihood(toy_model, "bagus", NEG) == math.log(1 / 6)

    def test_unseen_token_likelihood(self, toy_model):
        assert "jelek" not in toy_model._score_table().vocab
        assert log_likelihood(toy_model, "jelek", POS) == math.log(1 / 8)
        assert "jelek" not in toy_model._score_table().rows

    @settings(max_examples=40)
    @given(st.integers(0, 10**6))
    def test_likelihoods_normalize_over_vocabulary(self, seed):
        model = random_count_model(random.Random(seed))
        assert model._score_table().vocab == model.vocabulary
        for lab in model.labels:
            total = sum(math.exp(log_likelihood(model, tok, lab)) for tok in model.vocabulary)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestLogScore:
    def test_single_token_document(self, toy_model):
        assert log_scores(toy_model, ["bagus"])[POS] == pytest.approx(math.log(1 / 4), abs=1e-12)

    def test_empty_document_reduces_to_prior(self, toy_model):
        assert log_scores(toy_model, []) == log_priors(toy_model)

    def test_exp_matches_product_exhaustively(self, toy_model):
        vocab = sorted(toy_model.vocabulary)
        for length in range(4):
            for tokens in itertools.product(vocab, repeat=length):
                scores = log_scores(toy_model, tokens)
                for lab in toy_model.labels:
                    product = float(rational_class_score(toy_model, tokens, lab))
                    assert math.exp(scores[lab]) == pytest.approx(product, rel=1e-9)


class TestClassify:
    def test_positive_single_token(self, toy_model):
        prediction = classify(toy_model, make_doc("d", ["bagus"]))
        assert prediction.label is POS
        assert prediction.posteriors[POS] == pytest.approx(0.25 / (0.25 + 1 / 18), abs=1e-12)
        assert prediction.posteriors[POS] == pytest.approx(0.8182, abs=1e-4)

    def test_shared_token_goes_to_larger_class(self, toy_model):
        prediction = classify(toy_model, make_doc("d", ["calon"]))
        assert prediction.label is POS

    def test_empty_document_falls_back_to_priors(self, toy_model):
        prediction = classify(toy_model, make_doc("d", []))
        assert prediction.label is POS
        assert prediction.posteriors[POS] == pytest.approx(2 / 3, abs=1e-12)
        assert prediction.posteriors[NEG] == pytest.approx(1 / 3, abs=1e-12)

    def test_posteriors_normalized(self, toy_model):
        prediction = classify(toy_model, make_doc("d", ["bagus", "buruk", "zzz"]))
        assert sum(prediction.posteriors.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 for p in prediction.posteriors.values())

    def test_oov_tokens_counted_with_multiplicity(self, toy_model):
        prediction = classify(toy_model, make_doc("d", ["zzz", "zzz", "bagus", "qqq"]))
        assert prediction.oov_tokens == 3

    def test_all_oov_still_classified(self, toy_model):
        prediction = classify(toy_model, make_doc("d", ["xx", "yy", "zz"]))
        assert prediction.label in toy_model.labels
        assert prediction.oov_tokens == 3
        # hand check: neg (1/3)(1/6)^3 = 1/648 beats pos (2/3)(1/8)^3 = 1/768,
        # so enough OOV tokens overcome the larger class's prior
        assert prediction.label is NEG

    def test_skip_mode_ignores_oov(self, toy_model):
        prediction = classify(toy_model, make_doc("d", ["xx", "yy"]), oov_mode="skip")
        assert prediction.posteriors[POS] == pytest.approx(2 / 3, abs=1e-12)

    def test_bad_oov_mode_rejected(self, toy_model):
        with pytest.raises(ValueError):
            classify(toy_model, make_doc("d", []), oov_mode="drop")

    def test_deterministic(self, toy_model):
        doc = make_doc("d", ["bagus", "calon", "zzz"])
        assert classify(toy_model, doc) == classify(toy_model, doc)

    def test_exact_tie_resolves_to_earliest_label(self):
        model = NbModel(
            labels=(NEG, POS),
            docs_per_class={NEG: 1, POS: 1},
            token_counts={NEG: {"a": 1}, POS: {"b": 1}},
        )
        prediction = classify(model, make_doc("d", []))
        assert prediction.label is NEG

    def test_argmax_matches_rational_oracle(self, toy_model):
        vocab = sorted(toy_model.vocabulary)
        for length in range(4):
            for tokens in itertools.product(vocab, repeat=length):
                expected = rational_argmax(toy_model, tokens)
                assert classify(toy_model, make_doc("d", list(tokens))).label is expected

    def test_scale_invariance_of_rational_argmax(self, toy_model):
        # multiplying every class score by a constant cannot move the argmax
        tokens = ("bagus", "calon")
        scores = {
            lab: rational_class_score(toy_model, tokens, lab) for lab in toy_model.labels
        }
        for scale in (Fraction(1, 7), Fraction(3), Fraction(1000000, 17)):
            scaled = {lab: s * scale for lab, s in scores.items()}
            assert max(scaled, key=scaled.get) == max(scores, key=scores.get)


def saved_payload(model, tmp_path):
    """The JSON object that ``save_model`` writes for ``model``."""
    path = tmp_path / "model.json"
    save_model(model, path)
    return json.loads(path.read_text(encoding="utf-8"))


def load_payload(payload, tmp_path):
    """``load_model`` of a file holding ``payload`` as JSON."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_model(path)


class TestModelValidation:
    def test_alpha_fixed_at_one(self, toy_model, tmp_path):
        # The constant is not a model parameter; a model file stating
        # another integer is refused.
        assert "alpha" not in NbModel.__slots__
        payload = saved_payload(toy_model, tmp_path)
        payload["alpha"] = 2
        message = "^model file is inconsistent: smoothing constant is fixed at 1$"
        with pytest.raises(ModelFormatError, match=message):
            load_payload(payload, tmp_path)

    def test_zero_count_entries_rejected(self):
        with pytest.raises(ValueError):
            NbModel(
                labels=(NEG, POS),
                docs_per_class={NEG: 1, POS: 1},
                token_counts={NEG: {"a": 0}, POS: {"b": 1}},
            )

    def test_vocabulary_is_union_over_classes(self, toy_model):
        union = set()
        for lab in toy_model.labels:
            union |= set(toy_model.token_counts[lab])
        assert toy_model.vocabulary == union


def outcome(call):
    """What ``call()`` returned, or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:
        return (type(exc), str(exc))


# Count values and tokens a JSON file or a caller could hand the checks.
COUNT_VALUES = st.one_of(
    st.integers(-2, 4), st.integers(), st.floats(), st.booleans(), st.text(max_size=2), st.none()
)
TOKENS = st.one_of(st.text(max_size=3), st.none(), st.just(0))

LISTED_TABLES = [
    {"a": True},
    {"a": False},
    {"a": 1.0},
    {"a": 0.5},
    {"a": 0},
    {"a": -3},
    {"": 2},
    {"a": 1, "": 2},
    {"a": float("nan"), "b": 0},
    {"a": 0.5, "b": "x"},
    {"a": "x", "b": 0.5},
    {"a": 2, None: 1},
    {},
]


class TestCountChecks:
    """``_int_counts`` and ``NbModel`` against ``reference.int_counts`` and
    ``reference.table_problem``.

    Every table is refused with the same error, or accepted. The tables
    reach past what a model file can hold (tokens that are not strings,
    counts that are not integers), as a library caller can pass them.
    """

    def assert_int_counts_agree(self, counts):
        try:
            expected = reference.int_counts(counts, "token_counts")
        except reference.Refused as refusal:
            expected = (ModelFormatError, refusal.message)
        got = outcome(lambda: _int_counts(counts, "token_counts"))
        if expected is counts:
            assert got is counts
        else:
            assert got == expected

    def assert_tables_agree(self, tables, docs):
        labels = (NEG, POS)
        got = outcome(lambda: NbModel(labels, dict(zip(labels, docs)), dict(zip(labels, tables))))
        names = [lab.value for lab in labels]
        problem = outcome(
            lambda: reference.table_problem(names, dict(zip(names, docs)), dict(zip(names, tables)))
        )
        if problem is None:
            assert isinstance(got, NbModel)
        else:
            assert got == (problem if isinstance(problem, tuple) else (ValueError, problem))

    @pytest.mark.parametrize("counts", LISTED_TABLES, ids=repr)
    def test_listed_tables(self, counts):
        self.assert_int_counts_agree(counts)
        self.assert_tables_agree([{"ok": 1}, counts], [1, 1])
        self.assert_tables_agree([counts, {"ok": 1}], [1, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=3), COUNT_VALUES, max_size=6))
    def test_int_counts(self, counts):
        self.assert_int_counts_agree(counts)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.dictionaries(TOKENS, COUNT_VALUES, max_size=5), min_size=2, max_size=2),
        st.lists(st.integers(-1, 3), min_size=2, max_size=2),
    )
    def test_model_tables(self, tables, docs):
        self.assert_tables_agree(tables, docs)


class TestSaveLoad:
    def test_round_trip_preserves_counts(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        loaded = load_model(path)
        assert loaded.labels == toy_model.labels
        assert loaded.docs_per_class == dict(toy_model.docs_per_class)
        assert loaded.token_counts == {
            lab: dict(counts) for lab, counts in toy_model.token_counts.items()
        }
        assert loaded.tokens_per_class == dict(toy_model.tokens_per_class)

    def test_round_trip_preserves_predictions(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        loaded = load_model(path)
        doc = make_doc("d", ["bagus", "zzz"])
        assert classify(loaded, doc) == classify(toy_model, doc)

    @settings(max_examples=200)
    @given(
        n_labels=st.sampled_from([2, 3]),
        counts=st.lists(
            st.dictionaries(
                st.text(st.sampled_from('ab"\\\n\x00,: }é\u2028\U0001f600'), min_size=1),
                st.integers(1, 10**15),
                max_size=6,
            ),
            min_size=3,
            max_size=3,
        ),
        docs=st.lists(st.integers(1, 10**6), min_size=3, max_size=3),
    )
    def test_text_is_json_dumps_indent_2(self, tmp_path_factory, n_labels, counts, docs):
        # save_model writes the indented layout itself; json.dumps(indent=2)
        # is the layout it keeps. A class may have an empty token map.
        labels = tuple(SentimentLabel)[:n_labels]
        if not any(counts[:n_labels]):
            counts[0] = {"a": 1}
        model = NbModel(
            labels=labels,
            docs_per_class=dict(zip(labels, docs)),
            token_counts=dict(zip(labels, counts)),
        )
        payload = {
            "schema_version": 1,
            "alpha": 1,
            "labels": [lab.value for lab in labels],
            "docs_per_class": {lab.value: model.docs_per_class[lab] for lab in labels},
            "tokens_per_class": {lab.value: model.tokens_per_class[lab] for lab in labels},
            "token_counts": {lab.value: model.token_counts[lab] for lab in labels},
        }
        path = tmp_path_factory.mktemp("indent") / "model.json"
        save_model(model, path)
        expected = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_truncated_file_rejected(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        text = path.read_text(encoding="utf-8").replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0")])
    def test_version_that_is_not_an_integer_rejected(self, version, shown, toy_model, tmp_path):
        # Equal to 1 in Python, but not the integer 1, as counts and alpha must be.
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"schema_version": 1', f'"schema_version": {version}'),
                        encoding="utf-8")
        message = f"unsupported model schema version {shown} (expected 1)"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    def test_inconsistent_totals_rejected(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        text = path.read_text(encoding="utf-8").replace('"negative": 2,', '"negative": 3,', 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "bad", [1.9, 1.0, True, "1"], ids=["float", "whole-float", "bool", "str"]
    )
    @pytest.mark.parametrize("field", ["docs_per_class", "token_counts", "tokens_per_class"])
    def test_non_integer_count_rejected(self, toy_model, tmp_path, field, bad):
        payload = saved_payload(toy_model, tmp_path)
        counts = payload[field]["positive"]
        if field == "token_counts":
            counts = counts["bagus"]
            payload[field]["positive"]["bagus"] = bad
        else:
            payload[field]["positive"] = bad
        assert type(counts) is int
        with pytest.raises(ModelFormatError, match=f"{field} holds a non-integer count"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize(
        "bad", [1.9, 1.0, True, "1"], ids=["float", "whole-float", "bool", "str"]
    )
    def test_non_integer_alpha_rejected(self, toy_model, tmp_path, bad):
        payload = saved_payload(toy_model, tmp_path)
        assert payload["alpha"] == 1
        payload["alpha"] = bad
        with pytest.raises(ModelFormatError, match="alpha must be an integer"):
            load_payload(payload, tmp_path)


def reference_outcome(docs, k, seed, oov):
    """``reference.fold_accuracies`` of ``docs`` (or "refused"), its per-fold skip
    counts, and every score, as :func:`kfold_outcome` records them."""
    pairs = [(doc.label.value, doc.tokens) for doc in sorted(docs, key=lambda d: d.source_id)]
    skips, scored = [], []

    def on_fold(fold, labels, fold_scored, skipped):
        if skipped:
            skips.append((fold, skipped))
        if fold_scored:
            scored.append((labels, fold_scored))

    try:
        result = reference.fold_accuracies(pairs, k, seed, oov, on_fold)
    except reference.Refused:
        result = "refused"
    return result, skips, scored


def kfold_outcome(run, monkeypatch):
    """What ``run(on_skip)`` returned or raised, its per-fold skip counts, and every score.

    ``evaluation._confusion`` is wrapped to record, for each fold, the
    labels and each test document's label, tokens, scores and OOV count,
    so the fold tables are compared float for float, not only through
    accuracies.
    """
    scored = []
    skips = []
    confusion = evaluation._confusion

    def recording(table, labels, gold, oov_mode):
        scored.append((
            tuple(lab.value for lab in labels),
            [(label.value, tokens, _doc_scores(table, tokens, oov_mode)) for label, tokens in gold],
        ))
        return confusion(table, labels, gold, oov_mode)

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "_confusion", recording)
        try:
            result = run(lambda fold, skipped: skips.append((fold, skipped)))
        except KicaumineError as exc:
            result = (type(exc), str(exc))
    return result, skips, scored


def gold_like_corpus(rng, n_docs, labels, empty_share):
    vocab = ["calon", "bagus", "buruk", "mantap", "kalah", "menang", "pilih", "janji"]
    docs = []
    for i in range(n_docs):
        tokens = [] if rng.random() < empty_share else rng.choices(vocab, k=rng.randint(1, 6))
        docs.append(make_doc(f"d{i:03d}", tokens, rng.choice(labels)))
    return docs


class TestTrainWithout:
    """Each fold scored without its test documents, against a retrain per fold.

    ``evaluation.cross_validate`` scores each fold from the counts without
    building a model; ``reference.fold_accuracies`` trains each fold's
    model on the other folds' documents. Both must give the same
    accuracies, scores and skip counts, and refuse the same folds, under
    either OOV mode.
    """

    def assert_folds_match(self, docs, k, seed, monkeypatch):
        # eval --k passes its gold documents as (label, tokens) pairs in id order.
        pairs = [(doc.label, doc.tokens) for doc in sorted(docs, key=lambda d: d.source_id)]
        for oov in (OOV_SMOOTH, OOV_SKIP):
            expected = reference_outcome(docs, k, seed, oov)
            got = kfold_outcome(
                lambda on_skip: evaluation._fold_accuracies(pairs, k, seed, oov, on_skip),
                monkeypatch,
            )
            assert got[1:] == expected[1:]
            assert (got[0] if isinstance(got[0], list) else "refused") == expected[0]
            if isinstance(got[0], list):
                assert evaluation.cross_validate(docs, k, seed, oov) == got[0]
        return got

    @pytest.mark.parametrize("k,seed", [(2, 0), (3, 7), (5, 42), (10, 1), (40, 3)])
    def test_random_corpora(self, k, seed, monkeypatch):
        rng = random.Random(seed)
        docs = gold_like_corpus(rng, 40, [NEG, POS, NEU], empty_share=0.15)
        result, _, scored = self.assert_folds_match(docs, k, seed, monkeypatch)
        assert len(result) == k
        assert sum(len(fold) for _, fold in scored) == 40

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fold_losing_a_class(self, seed, monkeypatch):
        # One neutral document: the fold that tests it trains on two classes.
        docs = gold_like_corpus(random.Random(seed), 12, [NEG, POS], empty_share=0.0)
        docs.append(make_doc("zz-neutral", ["netral"], NEU))
        _, skips, scored = self.assert_folds_match(docs, 4, seed, monkeypatch)
        assert len(skips) == 1 and skips[0][1] == 1
        assert sorted(len(labels) for labels, _ in scored) == [2, 3, 3, 3]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fold_left_with_one_class_raises_like_train(self, seed, monkeypatch):
        docs = [make_doc(f"p{i}", ["bagus"], POS) for i in range(5)]
        docs.append(make_doc("n0", ["buruk"], NEG))
        result, _, _ = self.assert_folds_match(docs, 3, seed, monkeypatch)
        assert result == (
            DegenerateTrainingError, "training needs at least two classes, got ['positive']"
        )

    def test_all_training_documents_empty_raises_like_train(self, monkeypatch):
        docs = [make_doc("a", ["bagus"], POS), make_doc("b", [], NEG), make_doc("c", [], POS)]
        self.assert_folds_match(docs, 3, 0, monkeypatch)
        docs = [make_doc("a", [], POS), make_doc("b", [], NEG)]
        result, _, _ = self.assert_folds_match(docs, 2, 0, monkeypatch)
        assert result == (TrainingError, "no documents to train on")

    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_unlabeled_document_named_by_id_as_before(self, k):
        # cross_validate names the first unlabeled non-empty document in the
        # order given, not in id order, after checking k.
        docs = list(reversed(gold_like_corpus(random.Random(4), 8, [NEG, POS], empty_share=0.0)))
        docs[0] = make_doc(docs[0].source_id, ())  # unlabeled and empty: not counted
        for i in (1, 5):
            docs[i] = make_doc(docs[i].source_id, docs[i].tokens)
        expected = {
            1: (SplitError, "k must be at least 2, got 1"),
            3: (TrainingError, f"document {docs[1].source_id!r} is unlabeled"),
            9: (SplitError, "k=9 exceeds the 8 available documents"),
        }
        assert outcome(lambda: evaluation.cross_validate(docs, k, 0)) == expected[k]

    def test_log_calls_bounded_by_test_tokens(self, monkeypatch):
        # A vocabulary far larger than any fold's test tokens: the former
        # loop took one log per vocabulary word, class and fold.
        rng = random.Random(11)
        vocab = ["".join(letters) for letters in itertools.product("abcdefghij", "klmnopqrst", "uvwx")]
        docs = [
            make_doc(f"d{i:03d}", rng.choices(vocab, k=rng.randint(1, 8)), lab)
            for i, lab in enumerate(itertools.islice(itertools.cycle([NEG, POS, NEU]), 90))
        ]
        k, n_labels = 10, 3
        bound = (sum(len(set(d.tokens)) for d in docs) + 2 * k) * n_labels
        calls = []
        log = math.log

        def counting_log(x):
            calls.append(x)
            return log(x)

        expected = reference_outcome(docs, k, 3, OOV_SMOOTH)[0]
        monkeypatch.setattr(math, "log", counting_log)
        assert evaluation.cross_validate(docs, k, 3, OOV_SMOOTH) == expected
        assert len(calls) <= bound
        # One log per vocabulary word, class and fold would break the bound.
        corpus_vocab = {t for d in docs for t in d.tokens}
        assert k * len(corpus_vocab) * n_labels // 2 > 2 * bound
