import json

import pytest

from kicaumine.corpus import SentimentLabel
from kicaumine.model import train
from kicaumine.preprocess import Document

NEG = SentimentLabel.NEGATIVE
POS = SentimentLabel.POSITIVE
NEU = SentimentLabel.NEUTRAL


def make_doc(doc_id, tokens, label=None):
    return Document(source_id=doc_id, tokens=tuple(tokens), label=label)


@pytest.fixture
def toy_docs():
    """Two positive documents and one negative one; the shared hand fixture.

    Hand-counted facts used throughout: 3 documents, priors 2/3 and 1/3,
    vocabulary {calon, bagus, mantap, buruk}, class token totals 4 and 2.
    """
    return [
        make_doc("p1", ["calon", "bagus"], POS),
        make_doc("p2", ["bagus", "mantap"], POS),
        make_doc("n1", ["calon", "buruk"], NEG),
    ]


@pytest.fixture
def toy_model(toy_docs):
    return train(toy_docs)


# Ten gold tweets of words, five positive and five negative, and four
# gold-positive tweets that preprocess to no tokens, as (id, text, label).
WORD_GOLD = [
    *((f"p{i}", text, "positive") for i, text in enumerate([
        "calon bagus menang", "kerja bagus mantap", "hebat sukses menang", "bagus calon hebat",
        "menang mantap kerja",
    ])),
    *((f"n{i}", text, "negative") for i, text in enumerate([
        "calon buruk gagal", "kerja buruk jelek", "gagal kalah buruk", "jelek calon kalah",
        "buruk gagal bagus",
    ])),
]
EMPTY_GOLD = [(f"e{i}", "123 :) http://t.co/x", "positive") for i in range(4)]


def write_gold_export(export, gold, rows):
    """Write ``rows`` as a tweet export at ``export`` and their labels as a gold CSV at ``gold``."""
    export.write_text("".join(json.dumps({"id": i, "text": t}) + "\n" for i, t, _ in rows),
                      encoding="utf-8")
    gold.write_text("id,label\n" + "".join(f"{i},{label}\n" for i, _, label in rows),
                    encoding="utf-8")
