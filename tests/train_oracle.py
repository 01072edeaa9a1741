"""``train``'s former labeled-row parser and document counter.

``labeled_tweet`` is the former ``kicaumine._train._labeled_tweet``, which
called ``SentimentLabel`` and ``LabelSource`` on each row's label fields;
``class_counts`` and ``train`` are the former ``kicaumine.model._class_counts``
and ``train``, which grouped each label's token tuples in a list before
counting them and scanned the documents a second time to name a bad one.
They are kept unchanged apart from this docstring, their names and their
imports. ``tests/test_cli.py`` checks that ``_train._labeled_row`` refuses
each bad row with the error, and the text, that ``labeled_tweet`` raised,
and ``tests/test_model.py`` checks the single-pass ``train`` and
``_class_counts`` against the other two. They stay because
``tests/reference.py`` models a refusal by its exit status alone, and no
command hands the library ``train`` an unlabeled or empty document: the
reference reaches neither these error texts nor the refusal naming the
first such document.
"""

from collections import Counter
from itertools import chain

from kicaumine.corpus import LabeledTweet, LabelSource, SentimentLabel, Tweet
from kicaumine.exceptions import TrainingError
from kicaumine.model import NbModel, _trained_labels
from kicaumine.preprocess import Document


def labeled_tweet(record: dict) -> LabeledTweet:
    tweet = Tweet(
        id=record["id"],
        text=record["text"],
        created_at=record.get("created_at"),
        declared_lang=record.get("lang"),
    )
    return LabeledTweet(
        tweet=tweet,
        label=SentimentLabel(record["label"]),
        source=LabelSource(record.get("label_source", "manual")),
    )


def class_counts(docs: list[Document]) -> tuple[dict, dict, dict]:
    """Per label of the non-empty ``docs``: documents, tokens, and each token's count."""
    groups: dict = {}
    for doc in docs:
        if doc.tokens:
            groups.setdefault(doc.label, []).append(doc.tokens)
    return (
        {lab: len(group) for lab, group in groups.items()},
        {lab: sum(map(len, group)) for lab, group in groups.items()},
        {lab: Counter(chain.from_iterable(group)) for lab, group in groups.items()},
    )


def train(docs: list[Document]) -> NbModel:
    """Count a labeled document collection into an immutable model.

    Every document must carry a label and a non-empty token list; the
    first that does not raises TrainingError naming it. Fewer than two
    classes is a degenerate problem and raises.
    """
    if not docs:
        raise TrainingError("no documents to train on")
    docs_per_class, _, token_counts = class_counts(docs)
    if None in docs_per_class or sum(docs_per_class.values()) != len(docs):
        doc = next(d for d in docs if d.label is None or d.empty)
        problem = "is unlabeled" if doc.label is None else "has no tokens"
        raise TrainingError(f"document {doc.source_id!r} {problem}")
    labels = _trained_labels(docs_per_class)
    return NbModel(
        labels=labels,
        docs_per_class=docs_per_class,
        token_counts={lab: dict(token_counts[lab]) for lab in labels},
    )
