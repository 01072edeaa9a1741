"""The train command: preprocess a labeled corpus and write the model."""

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
from .resources import _pipeline_config, _say


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

    Each row is preprocessed as it is read, and none is kept; a row that
    preprocesses to no tokens is not yielded. Once the file is read, those
    rows are reported, and a file with no row raises EmptyCorpusError.
    """
    from .preprocess import _tokens

    rows = dropped = 0
    for _, (text, label) in _read_strict_jsonl(path, "labeled-corpus", _labeled_row):
        rows += 1
        tokens = _tokens(text, pipeline)
        if tokens:
            yield label, tokens
        else:
            dropped += 1
    if not rows:
        raise EmptyCorpusError(f"no labeled tweets in {path}")
    if dropped:
        _say(f"dropped {dropped} document(s) that preprocessed to empty")


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
