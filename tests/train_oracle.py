"""``train``'s former two-pass path, from the labeled file to the model.

``read_strict_jsonl`` is the former ``kicaumine.corpus._read_strict_jsonl``,
which returned every parsed record in a dict keyed by id; ``labeled_tweet``
is the former ``kicaumine._train._labeled_tweet``, which called
``SentimentLabel`` and ``LabelSource`` on each row's label fields;
``read_labeled_corpus`` and ``preprocess_labeled`` are the former
``kicaumine._train._read_labeled_corpus`` and ``_preprocess_labeled``, which
built a list of every ``LabeledTweet`` and then a list of every non-empty
``Document``; ``class_counts`` and ``train`` are the former
``kicaumine.model._class_counts`` and ``train``, which grouped each label's
token tuples in a list before counting them and scanned the documents a
second time to name a bad one; ``cmd_train`` is the former
``kicaumine._train.cmd_train``. They are kept unchanged apart from this
docstring, their names and their imports, and they are the oracle that
``tests/test_model.py`` and ``tests/test_cli.py`` check the single-pass
``train`` against.
"""

from collections import Counter
from itertools import chain

from kicaumine.config import RunConfig
from kicaumine.corpus import (
    _UTF8_BOM,
    LabeledTweet,
    LabelSource,
    SentimentLabel,
    Tweet,
    decode_json,
)
from kicaumine.exceptions import ConfigError, EmptyCorpusError, TrainingError
from kicaumine.model import NbModel, _trained_labels, save_model
from kicaumine.preprocess import Document
from kicaumine.resources import _pipeline_config, _say


def read_strict_jsonl(path, kind: str, parse) -> dict:
    """Parse each record of a JSONL file written by this package, keyed by id.

    Every non-blank line must be a UTF-8 JSON object with a string ``id``
    seen nowhere earlier in the file, and ``parse(record)`` must accept it;
    anything else stops the command with ConfigError naming ``path:line``.
    A UTF-8 byte-order mark opening the first line is dropped.
    """
    parsed = {}
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if lineno == 1:
                raw = raw.removeprefix(_UTF8_BOM)
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = decode_json(line)
                if not isinstance(record, dict):
                    raise TypeError("record is not a JSON object")
                if not isinstance(record.get("id"), str):
                    raise TypeError("id must be a string")
                if record["id"] in parsed:
                    raise ConfigError(f"{path}:{lineno}: duplicate {kind} id {record['id']!r}")
                parsed[record["id"]] = parse(record)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
    return parsed


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


def read_labeled_corpus(path) -> list[LabeledTweet]:
    """Read the labeled-corpus JSONL written by the collect command."""
    labeled = list(read_strict_jsonl(path, "labeled-corpus", labeled_tweet).values())
    if not labeled:
        raise EmptyCorpusError(f"no labeled tweets in {path}")
    return labeled


def preprocess_labeled(labeled, pipeline):
    """Preprocess labeled tweets, dropping empty documents with a count."""
    from kicaumine.preprocess import run_pipeline

    docs = []
    dropped = 0
    for item in labeled:
        doc = run_pipeline(item, pipeline)
        if doc.empty:
            dropped += 1
        else:
            docs.append(doc)
    if dropped:
        _say(f"dropped {dropped} document(s) that preprocessed to empty")
    return docs


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


def cmd_train(config: RunConfig) -> int:
    config.require_files("input")
    if config.model is None:
        raise ConfigError("--model is required (path to write the trained model)")
    pipeline = _pipeline_config(config)
    labeled = read_labeled_corpus(config.input)
    docs = preprocess_labeled(labeled, pipeline)
    model = train(docs)
    save_model(model, config.model)
    _say(
        f"trained on {model.total_docs} documents over"
        f" {'/'.join(lab.value for lab in model.labels)}; model written to {config.model}"
    )
    return 0
