import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NEG, NEU, POS, make_doc
import reference
from kicaumine import evaluation
from kicaumine.corpus import Tweet
from kicaumine.evaluation import evaluate, k_fold, sentiment_report, split
from kicaumine.exceptions import ConfigError, EvaluationError, SplitError, UnknownLabelError
from kicaumine.model import OOV_SKIP, OOV_SMOOTH, Prediction, classify, train


def numbered_docs(n, label=POS):
    return [make_doc(f"d{i:02d}", ["tok"], label) for i in range(n)]


@pytest.fixture
def three_class_model():
    """Each class has one telltale token; hand-verified prediction table:

    [jelek] -> negative (2/5 * 4/6 beats 2/5 * 1/6 and 1/5 * 1/4)
    [bagus] -> positive (symmetric)
    [biasa] -> neutral  (1/5 * 1/2 beats 2/5 * 1/6)
    """
    docs = [
        make_doc("n1", ["jelek", "jelek"], NEG),
        make_doc("n2", ["jelek"], NEG),
        make_doc("p1", ["bagus", "bagus"], POS),
        make_doc("p2", ["bagus"], POS),
        make_doc("u1", ["biasa"], NEU),
    ]
    return train(docs)


class TestSplit:
    def test_eighty_twenty(self):
        docs = numbered_docs(10)
        train_part, test_part = split(docs, 0.8, seed=42)
        assert len(train_part) == 8 and len(test_part) == 2
        train_ids = {d.source_id for d in train_part}
        test_ids = {d.source_id for d in test_part}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {d.source_id for d in docs}

    def test_deterministic(self):
        docs = numbered_docs(10)
        assert split(docs, 0.8, seed=42) == split(docs, 0.8, seed=42)

    def test_permutation_stable(self):
        docs = numbered_docs(9)
        forward = split(docs, 0.7, seed=5)
        backward = split(list(reversed(docs)), 0.7, seed=5)
        assert forward == backward

    def test_different_seeds_differ(self):
        docs = numbered_docs(30)
        assert split(docs, 0.5, seed=1) != split(docs, 0.5, seed=2)

    def test_single_document_rejected(self):
        with pytest.raises(SplitError):
            split(numbered_docs(1), 0.8, seed=1)

    def test_bad_fraction_rejected(self):
        for fraction in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(SplitError):
                split(numbered_docs(10), fraction, seed=1)

    def test_fraction_leaving_empty_side_rejected(self):
        with pytest.raises(SplitError):
            split(numbered_docs(2), 0.05, seed=1)


class TestKFold:
    def test_five_folds_of_ten(self):
        docs = numbered_docs(10)
        folds = k_fold(docs, 5, seed=42)
        assert len(folds) == 5
        seen = []
        for train_part, test_part in folds:
            assert len(test_part) == 2
            assert len(train_part) == 8
            assert {d.source_id for d in train_part}.isdisjoint(
                {d.source_id for d in test_part}
            )
            seen.extend(d.source_id for d in test_part)
        assert sorted(seen) == sorted(d.source_id for d in docs)

    def test_leave_one_out_boundary(self):
        docs = numbered_docs(4)
        folds = k_fold(docs, 4, seed=0)
        assert all(len(test) == 1 for _, test in folds)

    def test_uneven_sizes_differ_by_at_most_one(self):
        folds = k_fold(numbered_docs(7), 3, seed=0)
        sizes = [len(test) for _, test in folds]
        assert sorted(sizes) == [2, 2, 3]

    def test_k_below_two_rejected(self):
        with pytest.raises(SplitError):
            k_fold(numbered_docs(5), 1, seed=0)

    def test_k_exceeding_docs_rejected(self):
        with pytest.raises(SplitError):
            k_fold(numbered_docs(3), 4, seed=0)

    def test_deterministic(self):
        docs = numbered_docs(12)
        assert k_fold(docs, 3, seed=9) == k_fold(docs, 3, seed=9)


class _SliceCounter(list):
    """A list that counts the items its slices copy."""

    def __init__(self, items):
        super().__init__(items)
        self.copied = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            self.copied += len(item)
        return item


class TestFoldWork:
    def test_cross_validate_copies_each_document_once_under_leave_one_out(self, monkeypatch):
        # k_fold builds every fold's training list, k times n documents in
        # all; cross_validate reads only the test slices, n documents. It
        # shuffles the documents' (label, tokens) pairs, and a distinct
        # token per document tells the pairs apart.
        n = 60
        docs = [
            make_doc(f"d{i:02d}", ["bagus" if i % 2 else "buruk", "calon", "x" * (i + 1)],
                     POS if i % 2 else NEG)
            for i in range(n)
        ]
        orders = []
        shuffled = evaluation._shuffled

        def counted(docs, seed):
            orders.append(_SliceCounter(shuffled(docs, seed)))
            return orders[-1]

        monkeypatch.setattr(evaluation, "_shuffled", counted)
        accuracies = evaluation.cross_validate(docs, n, seed=3)
        assert len(accuracies) == n
        assert [order.copied for order in orders] == [n]
        folds = k_fold(docs, n, seed=3)
        assert orders[1].copied == n * n
        assert len(set(orders[0])) == n
        assert [[(doc.label, doc.tokens) for doc in test] for _, test in folds] == [
            [pair] for pair in orders[0]
        ]


class TestEvaluate:
    def test_hand_filled_confusion_matrix(self, three_class_model):
        # 10 documents: 7 land on the diagonal, neutral is never predicted
        gold = (
            [make_doc(f"a{i}", ["jelek"], NEG) for i in range(3)]
            + [make_doc("a3", ["bagus"], NEG)]
            + [make_doc(f"b{i}", ["bagus"], POS) for i in range(4)]
            + [make_doc("c0", ["jelek"], NEU), make_doc("c1", ["bagus"], NEU)]
        )
        metrics = evaluate(three_class_model, gold)
        assert metrics.n_test == 10
        assert metrics.accuracy == pytest.approx(0.7)
        assert metrics.confusion[NEG] == {NEG: 3, POS: 1, NEU: 0}
        assert metrics.confusion[POS] == {NEG: 0, POS: 4, NEU: 0}
        assert metrics.confusion[NEU] == {NEG: 1, POS: 1, NEU: 0}
        assert metrics.per_class[NEG].precision == pytest.approx(3 / 4)
        assert metrics.per_class[NEG].recall == pytest.approx(3 / 4)
        assert metrics.per_class[NEG].f1 == pytest.approx(3 / 4)
        assert metrics.per_class[POS].precision == pytest.approx(2 / 3)
        assert metrics.per_class[POS].recall == pytest.approx(1.0)
        assert metrics.per_class[POS].f1 == pytest.approx(0.8)
        # the model never predicts neutral: zero-denominator convention
        assert metrics.per_class[NEU] == (0.0, 0.0, 0.0)

    def test_perfect_single_document(self, three_class_model):
        metrics = evaluate(three_class_model, [make_doc("x", ["jelek"], NEG)])
        assert metrics.accuracy == 1.0

    def test_mass_conservation(self, three_class_model):
        gold = [make_doc(f"g{i}", ["jelek" if i % 2 else "bagus"], NEG) for i in range(7)]
        metrics = evaluate(three_class_model, gold)
        cells = sum(sum(row.values()) for row in metrics.confusion.values())
        assert cells == metrics.n_test == 7

    def test_accuracy_equals_micro_recall(self, three_class_model):
        gold = (
            [make_doc(f"g{i}", ["jelek"], NEG) for i in range(4)]
            + [make_doc(f"h{i}", ["bagus"], POS) for i in range(3)]
            + [make_doc("u", ["biasa"], NEU)]
        )
        metrics = evaluate(three_class_model, gold)
        micro_recall = sum(metrics.confusion[lab][lab] for lab in three_class_model.labels) / sum(
            sum(row.values()) for row in metrics.confusion.values()
        )
        assert metrics.accuracy == pytest.approx(micro_recall)

    @pytest.mark.parametrize("oov_mode", [OOV_SMOOTH, OOV_SKIP])
    def test_confusion_tabulates_classify(self, three_class_model, oov_mode):
        # Tied models and OOV-only documents included: evaluate predicts
        # without building a Prediction, and must pick classify's label.
        rng = random.Random(5)
        vocab = ["jelek", "bagus", "biasa", "asing", "lain"]
        tied = train([make_doc("p", ["bagus"], POS), make_doc("n", ["jelek"], NEG)])
        for model in (three_class_model, tied):
            gold = [
                make_doc(f"g{i}", rng.choices(vocab, k=rng.randint(0, 4)), rng.choice(model.labels))
                for i in range(60)
            ]
            expected = {g: {p: 0 for p in model.labels} for g in model.labels}
            for doc in gold:
                expected[doc.label][classify(model, doc, oov_mode).label] += 1
            assert evaluate(model, gold, oov_mode).confusion == expected

    def test_empty_gold_rejected(self, three_class_model):
        with pytest.raises(EvaluationError):
            evaluate(three_class_model, [])

    def test_unlabeled_gold_rejected(self, three_class_model):
        with pytest.raises(EvaluationError):
            evaluate(three_class_model, [make_doc("x", ["jelek"])])

    def test_label_outside_model_rejected(self, toy_model):
        with pytest.raises(UnknownLabelError):
            evaluate(toy_model, [make_doc("x", ["bagus"], NEU)])


class TestSentimentReport:
    def predictions(self, rows):
        """rows: list of (text, label) -> (Tweet, Prediction) pairs."""
        pairs = []
        for i, (text, label) in enumerate(rows):
            prediction = Prediction(label=label, posteriors={label: 1.0}, oov_tokens=0)
            pairs.append((Tweet(str(i), text), prediction))
        return pairs

    def test_group_percentages(self):
        pairs = self.predictions(
            [("a #ridwankamil", POS)] * 3 + [("b #ridwankamil", NEG)]
        )
        reports = {r.group_key: r for r in sentiment_report(pairs, {"ridwankamil"})}
        group = reports["ridwankamil"]
        assert group.counts[POS] == 3 and group.counts[NEG] == 1
        assert group.percentages[POS] == pytest.approx(0.75)
        assert group.percentages[NEG] == pytest.approx(0.25)

    def test_empty_predictions_only_all_group(self):
        reports = sentiment_report([], {"ridwankamil"})
        assert [r.group_key for r in reports] == ["all"]
        assert reports[0].total == 0
        assert reports[0].percentages == {}

    def test_tweet_with_two_tracked_hashtags_counts_in_both(self):
        pairs = self.predictions([("x #a #b", POS)])
        reports = {r.group_key: r for r in sentiment_report(pairs, {"a", "b"})}
        assert reports["a"].counts[POS] == 1
        assert reports["b"].counts[POS] == 1
        assert reports["all"].counts[POS] == 1

    @pytest.mark.parametrize("tags", [{"all"}, {"#All", "a"}, {"all", "#"}])
    def test_tag_named_all_rejected(self, tags):
        pairs = self.predictions([("x #all", POS), ("y", NEG)])
        with pytest.raises(ConfigError, match="collides"):
            sentiment_report(pairs, tags)
        with pytest.raises(ConfigError, match="collides"):
            sentiment_report([], tags)

    @pytest.mark.parametrize("tags", [{"", "a"}, {"#", "a"}, {"##"}])
    def test_empty_tag_rejected(self, tags):
        pairs = self.predictions([("x #a", POS), ("y #", NEG)])
        with pytest.raises(ConfigError, match="hashtag entries must be non-empty"):
            sentiment_report(pairs, tags)
        with pytest.raises(ConfigError, match="hashtag entries must be non-empty"):
            sentiment_report([], tags)

    def test_tags_equal_after_normalizing_are_one_group(self):
        pairs = self.predictions([("x #a", POS), ("y", NEG)])
        reports = sentiment_report(pairs, {"a", "#a", "A"})
        assert [r.group_key for r in reports] == ["all", "a"]
        assert reports[0].total == 2
        assert reports[1].total == 1

    def test_case_insensitive_membership(self):
        pairs = self.predictions([("coblos #PilgubJabar", POS)])
        reports = {r.group_key: r for r in sentiment_report(pairs, {"pilgubjabar"})}
        assert reports["pilgubjabar"].total == 1

    def test_percentages_sum_to_one_for_nonempty_groups(self):
        pairs = self.predictions(
            [("x #a", POS), ("y #a", NEG), ("z #a", NEU), ("w #b", POS), ("v", NEG)]
        )
        for report in sentiment_report(pairs, {"a", "b"}):
            if report.total:
                assert sum(report.percentages.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_group_first_then_sorted_tags(self):
        pairs = self.predictions([("x #b #a", POS)])
        keys = [r.group_key for r in sentiment_report(pairs, {"b", "a"})]
        assert keys == ["all", "a", "b"]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["x", "#a", "#A", "#ab", "#b", "#all", "#", "#é"]), max_size=4),
                st.sampled_from([NEG, POS, NEU]),
            ),
            max_size=8,
        ),
        st.sets(st.sampled_from(["a", "#a", "A", "b", "ab", "é", "all", "", "#", "c"]), max_size=4),
    )
    def test_agrees_with_reference_rollup(self, rows, tags):
        texts = [(" ".join(words) or "x", label) for words, label in rows]
        try:
            reports = sentiment_report(self.predictions(texts), tags)
        except ConfigError:
            reports = "refused"
        else:
            reports = [
                {"group": r.group_key, "total": r.total,
                 "counts": {lab.value: n for lab, n in r.counts.items()},
                 "percentages": {lab.value: share for lab, share in r.percentages.items()}}
                for r in reports
            ]
        try:
            expected = reference.rollup([(text, label.value) for text, label in texts], tags)
        except reference.Refused:
            expected = "refused"
        assert reports == expected
