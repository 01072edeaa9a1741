"""Splitting, cross-validation, metrics against manual gold labels, and
sentiment rollups.

Shuffles are driven by ``random.Random(seed)`` (Mersenne Twister) over
documents first sorted by id, so identical (documents, seed) pairs give
identical splits regardless of input order or platform.
"""

import random
from collections import Counter, namedtuple
from itertools import chain

from .corpus import SentimentLabel, Tweet, _hashtag_rollup, _Record
from .exceptions import EvaluationError, SplitError, TrainingError, UnknownLabelError
from .model import (
    OOV_SMOOTH,
    NbModel,
    Prediction,
    _best,
    _class_counts,
    _doc_scores,
    _ScoreTable,
    _trained_labels,
)
from .preprocess import Document


ClassMetrics = namedtuple("ClassMetrics", ("precision", "recall", "f1"))


class EvalMetrics(_Record):
    """Confusion matrix (gold row, predicted column) and derived scores.

    Precision, recall, and F1 fall back to 0.0 when their denominator is
    zero, keeping the metrics total for classes the model never predicts
    (or gold never contains).
    """

    __slots__ = _fields = ("confusion", "accuracy", "per_class", "n_test")

    def as_dict(self) -> dict:
        return {
            "n_test": self.n_test,
            "accuracy": self.accuracy,
            "confusion": {
                gold.value: {pred.value: count for pred, count in row.items()}
                for gold, row in self.confusion.items()
            },
            "per_class": {
                lab.value: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                for lab, m in self.per_class.items()
            },
        }


class SentimentReport(_Record):
    """Label counts and shares for one tweet group (hashtag or 'all')."""

    __slots__ = _fields = ("group_key", "counts", "percentages")

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _shuffled(docs: list[Document], seed: int) -> list[Document]:
    ordered = sorted(docs, key=lambda d: d.source_id)
    random.Random(seed).shuffle(ordered)
    return ordered


def split(
    docs: list[Document], train_fraction: float, seed: int
) -> tuple[list[Document], list[Document]]:
    """Deterministic shuffle-then-cut split into training and test parts.

    The cut point is ``round(train_fraction * len(docs))``; both sides
    must come out non-empty or SplitError is raised.
    """
    if len(docs) < 2:
        raise SplitError(f"need at least 2 documents to split, got {len(docs)}")
    if not 0.0 < train_fraction < 1.0:
        raise SplitError(f"train_fraction must be in (0, 1), got {train_fraction}")
    ordered = _shuffled(docs, seed)
    cut = round(train_fraction * len(ordered))
    if cut < 1 or cut >= len(ordered):
        raise SplitError(
            f"train_fraction {train_fraction} leaves an empty side for {len(docs)} documents"
        )
    return ordered[:cut], ordered[cut:]


def _fold_slices(docs: list[Document], k: int, seed: int) -> tuple[list[Document], list]:
    """``docs`` shuffled, and the (start, stop) bounds of each fold's test slice of it.

    Fold sizes differ by at most one. k must be between 2 and the number
    of documents (k equal to the count gives leave-one-out).
    """
    if k < 2:
        raise SplitError(f"k must be at least 2, got {k}")
    if k > len(docs):
        raise SplitError(f"k={k} exceeds the {len(docs)} available documents")
    ordered = _shuffled(docs, seed)
    base, extra = divmod(len(ordered), k)
    bounds = []
    start = 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return ordered, bounds


def k_fold(
    docs: list[Document], k: int, seed: int
) -> list[tuple[list[Document], list[Document]]]:
    """Partition into k folds; each document tests exactly once.

    Returns one (training, test) pair of new lists per fold, so the pairs
    hold k times as many documents as ``docs``; :func:`cross_validate`
    reads only the test slices. Fold sizes differ by at most one. k must
    be between 2 and the number of documents (k equal to the count gives
    leave-one-out).
    """
    ordered, bounds = _fold_slices(docs, k, seed)
    return [(ordered[:start] + ordered[stop:], ordered[start:stop]) for start, stop in bounds]


def _confusion(
    table: _ScoreTable, labels: tuple[SentimentLabel, ...], gold: list[Document], oov_mode: str
) -> dict[SentimentLabel, dict[SentimentLabel, int]]:
    """Gold-row, predicted-column counts of ``gold`` scored by ``table``.

    The prediction is the label :func:`~kicaumine.model.classify` picks,
    by the same rule.
    """
    confusion = {g: {p: 0 for p in labels} for g in labels}
    for doc in gold:
        scores, _ = _doc_scores(table, doc.tokens, oov_mode)
        confusion[doc.label][labels[_best(scores)]] += 1
    return confusion


def evaluate(model: NbModel, gold: list[Document], oov_mode: str = OOV_SMOOTH) -> EvalMetrics:
    """Classify gold documents and tabulate the confusion matrix.

    Every gold document must carry a label known to the model.
    """
    if not gold:
        raise EvaluationError("no gold documents to evaluate")
    for doc in gold:
        if doc.label is None:
            raise EvaluationError(f"gold document {doc.source_id!r} is unlabeled")
        if doc.label not in model.labels:
            raise UnknownLabelError(
                f"gold document {doc.source_id!r} labeled {doc.label} outside model labels"
            )
    table = model._score_table()
    table.build(chain.from_iterable(doc.tokens for doc in gold))
    confusion = _confusion(table, model.labels, gold, oov_mode)
    n_test = len(gold)
    correct = sum(confusion[lab][lab] for lab in model.labels)
    per_class = {}
    for lab in model.labels:
        tp = confusion[lab][lab]
        predicted = sum(confusion[g][lab] for g in model.labels)
        actual = sum(confusion[lab].values())
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[lab] = ClassMetrics(precision, recall, f1)
    return EvalMetrics(
        confusion=confusion,
        accuracy=correct / n_test,
        per_class=per_class,
        n_test=n_test,
    )


def cross_validate(
    docs: list[Document], k: int, seed: int, oov_mode: str = OOV_SMOOTH
) -> list[float]:
    """Accuracy of each of the :func:`k_fold` folds of ``docs``.

    A fold is scored as :func:`evaluate` scores the model that
    :func:`~kicaumine.model.train` builds from the other folds' non-empty
    documents, with the same floats and errors, but no model is built.
    The non-empty documents are counted once; each fold then counts its
    own test documents, derives the fold model's labels, priors,
    vocabulary size and class denominators from the difference, and
    computes log-likelihood rows only for its test tokens. A token whose
    whole count lies in the fold gets no row and scores as OOV, as the
    fold model never saw it. Only the folds' test slices are built, and
    the work is linear in the tokens, not in k times the documents or
    the vocabulary.

    Test documents whose label has no training documents in their fold
    are skipped (``eval --k`` prints one line per fold that skips any);
    a fold left with none raises EvaluationError.
    """
    return _fold_accuracies(docs, k, seed, oov_mode, lambda fold, skipped: None)


def _summed(counts_per_class: dict) -> Counter:
    """Each token's count over all the classes of a :func:`_class_counts` Counter dict."""
    totals = Counter()
    for counts in counts_per_class.values():
        totals.update(counts)
    return totals


def _fold_accuracies(docs, k, seed, oov_mode, on_skip) -> list[float]:
    """:func:`cross_validate`, reporting each fold's skipped test documents.

    ``on_skip(fold, skipped)`` is called, with the fold's number from 1,
    for each fold that skips any, before that fold is scored or raises.
    """
    ordered, bounds = _fold_slices(docs, k, seed)
    docs_per_class, tokens_per_class, token_counts = _class_counts(docs)
    if None in docs_per_class:
        doc = next(d for d in docs if d.label is None and d.tokens)
        raise TrainingError(f"document {doc.source_id!r} is unlabeled")
    token_totals = _summed(token_counts)
    accuracies = []
    for i, (start, stop) in enumerate(bounds, start=1):
        test_docs = ordered[start:stop]
        held_docs, held_tokens, held_counts = _class_counts(test_docs)
        train_docs = {lab: n - held_docs.get(lab, 0) for lab, n in docs_per_class.items()}
        if not any(train_docs.values()):
            raise TrainingError("no documents to train on")
        labels = _trained_labels(train_docs)
        held_totals = _summed(held_counts)
        kept = frozenset(token for token, n in held_totals.items() if n < token_totals[token])
        table = _ScoreTable(
            [train_docs[lab] for lab in labels],
            [tokens_per_class[lab] - held_tokens.get(lab, 0) for lab in labels],
            len(token_totals) - (len(held_totals) - len(kept)),
            [token_counts[lab] for lab in labels],
            kept,
            [held_counts.get(lab, {}) for lab in labels],
        )
        table.build(kept)
        usable_test = [d for d in test_docs if d.label in labels]
        skipped = len(test_docs) - len(usable_test)
        if skipped:
            on_skip(i, skipped)
        if not usable_test:
            raise EvaluationError(f"fold {i} has no evaluable test documents")
        confusion = _confusion(table, labels, usable_test, oov_mode)
        accuracies.append(sum(confusion[lab][lab] for lab in labels) / len(usable_test))
    return accuracies


def sentiment_report(
    predictions: list[tuple[Tweet, Prediction]], group_by: frozenset[str] | set[str]
) -> list[SentimentReport]:
    """Aggregate predicted labels per tracked hashtag plus an 'all' group.

    A tweet counts toward every tracked hashtag its text contains
    (case-insensitive) and always toward 'all'; a tracked hashtag named
    'all' would share that group, and one that is empty without its '#'
    would match every tweet holding a '#': both raise ConfigError. Tags
    that differ only by case or a leading '#' are one group. Shares are
    emitted only for non-empty groups and sum to one within each. With no
    predictions at all, only the empty 'all' group is reported.
    """
    labeled_texts = ((tweet.text, prediction.label) for tweet, prediction in predictions)
    return [
        SentimentReport(group_key=key, counts=counts, percentages=shares)
        for key, counts, shares in _hashtag_rollup(labeled_texts, group_by)
    ]
