"""Reference implementation of ``eval --k``'s fold loop.

This is the loop that ``kicaumine.cli.cmd_eval`` ran before k-fold scoring
moved to ``kicaumine.evaluation.cross_validate``: it counts the gold
documents once, builds each fold's ``NbModel`` by subtracting the fold's
test documents (``train_without``) and scores the fold with
``evaluation.evaluate``. ``TrainingCounts``, ``_count``,
``count_documents``, ``train_without`` and ``_model_from_counts`` are the
former ``kicaumine.model`` functions, and ``fold_accuracies`` is the former
body of ``cmd_eval``'s k-fold branch up to the accuracy list. They are
kept unchanged apart from this docstring, the imports, the logger and the
function wrapping the loop, and they are the oracle that
``tests/test_model.py`` checks ``cross_validate`` against. ``_count`` and
``_model_from_counts`` over the observed labels are also the counting
loop that ``model.train`` ran before it counted through
``model._class_counts``, and the oracle for ``train``. Each fold model is
scored through ``kernel_oracle``'s eager score table, which takes one log
per vocabulary word and class, as the model's own table did when this
loop ran.
"""

import logging
from collections import Counter
from typing import Collection, Iterable, NamedTuple

import kernel_oracle
from kicaumine.corpus import SentimentLabel
from kicaumine.evaluation import evaluate, k_fold
from kicaumine.exceptions import DegenerateTrainingError, EvaluationError, TrainingError
from kicaumine.model import NbModel
from kicaumine.preprocess import Document

logger = logging.getLogger(__name__)


def _canonical_label_order(labels: Iterable[SentimentLabel]) -> tuple[SentimentLabel, ...]:
    wanted = set(labels)
    return tuple(lab for lab in SentimentLabel if lab in wanted)


class TrainingCounts(NamedTuple):
    """Per-class document and token counts of a labeled document collection."""

    docs_per_class: Counter
    token_counts: dict[SentimentLabel, Counter]


def _count(docs: Iterable[Document], label_set: Collection[SentimentLabel]) -> TrainingCounts:
    """Count documents into per-class tallies, with the checks of :func:`train`.

    Every document must carry a label from ``label_set`` and a non-empty
    token list; violations raise TrainingError naming the document.
    """
    docs_per_class: Counter = Counter()
    token_counts: dict[SentimentLabel, Counter] = {lab: Counter() for lab in label_set}
    for doc in docs:
        if doc.label is None:
            raise TrainingError(f"document {doc.source_id!r} is unlabeled")
        if doc.label not in label_set:
            raise TrainingError(
                f"document {doc.source_id!r} labeled {doc.label} outside the label set"
            )
        if doc.empty:
            raise TrainingError(f"document {doc.source_id!r} has no tokens")
        docs_per_class[doc.label] += 1
        token_counts[doc.label].update(doc.tokens)
    return TrainingCounts(docs_per_class, token_counts)


def count_documents(docs: Iterable[Document]) -> TrainingCounts:
    """Count a gold collection once, for repeated :func:`train_without` calls.

    Empty documents are skipped, since training cannot use them; the rest
    are counted under their observed labels with the checks of
    :func:`train`.
    """
    usable = [d for d in docs if not d.empty]
    return _count(usable, {d.label for d in usable} - {None})


def train_without(counts: TrainingCounts, held_out: Iterable[Document]) -> NbModel:
    """Train on the counted documents minus ``held_out``, by subtraction.

    ``counts`` comes from :func:`count_documents`, and ``held_out`` is part
    of the collection it counted; empty held-out documents are skipped as
    they were there. The result equals :func:`train` on the remaining
    non-empty documents, errors included, at the cost of the held-out
    tokens plus one pass over each class vocabulary instead of a recount of
    every token.
    """
    removed = _count((d for d in held_out if not d.empty), counts.token_counts.keys())
    for lab, tokens in removed.token_counts.items():
        if removed.docs_per_class[lab] > counts.docs_per_class[lab] or any(
            n > counts.token_counts[lab][t] for t, n in tokens.items()
        ):
            raise ValueError("held-out documents are not part of the counted collection")
    # Counter subtraction keeps only positive counts, so classes and tokens
    # left with nothing drop out, as they would from a recount.
    docs_per_class = counts.docs_per_class - removed.docs_per_class
    if not docs_per_class:
        raise TrainingError("no documents to train on")
    remaining = {
        lab: counts.token_counts[lab] - removed.token_counts[lab] for lab in docs_per_class
    }
    return _model_from_counts(set(docs_per_class), TrainingCounts(docs_per_class, remaining))


def _model_from_counts(
    label_set: Collection[SentimentLabel], counts: TrainingCounts
) -> NbModel:
    """Drop classes without documents, reject fewer than two, build the model."""
    docs_per_class, token_counts = counts
    token_counts = dict(token_counts)
    for lab in sorted(label_set, key=lambda l: l.value):
        if docs_per_class[lab] == 0:
            logger.warning("label %s has no training documents; dropping it", lab)
            del token_counts[lab]
    effective = _canonical_label_order(token_counts)
    if len(effective) < 2:
        raise DegenerateTrainingError(
            f"training needs at least two classes, got {[str(l) for l in effective]}"
        )
    return NbModel(
        labels=effective,
        docs_per_class={lab: docs_per_class[lab] for lab in effective},
        token_counts={lab: dict(token_counts[lab]) for lab in effective},
    )


def fold_accuracies(docs: list[Document], k: int, seed: int, oov: str) -> list[float]:
    """Each fold's accuracy, as ``eval --k`` computed it before ``cross_validate``."""
    folds = k_fold(docs, k, seed)
    counts = count_documents(docs)
    accuracies = []
    for i, (_, test_docs) in enumerate(folds, start=1):
        # Same model as train() on the fold's non-empty training docs.
        fold_model = train_without(counts, test_docs)
        object.__setattr__(fold_model, "_table", kernel_oracle.model_table(fold_model))
        usable_test = [d for d in test_docs if d.label in fold_model.labels]
        skipped = len(test_docs) - len(usable_test)
        if skipped:
            logger.warning(
                "fold %d: skipping %d test doc(s) with labels absent from the fold model",
                i,
                skipped,
            )
        if not usable_test:
            raise EvaluationError(f"fold {i} has no evaluable test documents")
        metrics = evaluate(fold_model, usable_test, oov_mode=oov)
        accuracies.append(metrics.accuracy)
    return accuracies
