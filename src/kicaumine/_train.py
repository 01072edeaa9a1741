"""The train command: preprocess a labeled corpus and write the model."""

from itertools import chain

from .config import RunConfig
from .corpus import (
    _LABEL_SOURCES,
    _SENTIMENT_LABELS,
    LabelSource,
    SentimentLabel,
    _check_label,
    _check_tweet,
    _member,
    _read_strict_jsonl,
)
from .exceptions import ConfigError, EmptyCorpusError
from .resources import _nonempty_pairs, _pipeline_config, _say


def _labeled_row(record: dict) -> tuple[str, SentimentLabel]:
    """``(text, label)`` of a labeled-corpus row.

    The row is checked as building ``LabeledTweet(Tweet(...), ...)`` from
    it checks it, in the same order and with the same errors, but no
    record is built.
    """
    tweet_id, text = record["id"], record["text"]
    _check_tweet(tweet_id, text)
    label = _member(SentimentLabel, _SENTIMENT_LABELS, record["label"])
    _check_label(label, _member(LabelSource, _LABEL_SOURCES, record.get("label_source", "manual")))
    return text, label


def _labeled_pairs(path, pipeline):
    """Yield ``(label, tokens)`` of each row of the labeled-corpus JSONL at ``path``.

    Each row is preprocessed as it is read, and none is kept; rows that
    preprocess to no tokens are dropped and counted by ``_nonempty_pairs``.
    A file with no row raises EmptyCorpusError.
    """
    rows = _read_strict_jsonl(path, "labeled-corpus", _labeled_row)
    first = next(rows, None)
    if first is None:
        raise EmptyCorpusError(f"no labeled tweets in {path}")
    labeled_texts = ((label, text) for _, (text, label) in chain([first], rows))
    yield from _nonempty_pairs(labeled_texts, pipeline)


def cmd_train(config: RunConfig) -> int:
    from .model import _model, save_model

    config.require_files("input")
    if config.model is None:
        raise ConfigError("--model is required (path to write the trained model)")
    model = _model(_labeled_pairs(config.input, _pipeline_config(config)))
    save_model(model, config.model)
    _say(
        f"trained on {model.total_docs} documents over"
        f" {'/'.join(lab.value for lab in model.labels)}; model written to {config.model}"
    )
    return 0
