"""The train command: preprocess a labeled corpus and write the model."""

from .config import RunConfig
from .corpus import (
    _LABEL_SOURCES,
    _SENTIMENT_LABELS,
    LabeledTweet,
    LabelSource,
    SentimentLabel,
    Tweet,
    _member,
    _read_strict_jsonl,
)
from .exceptions import ConfigError, EmptyCorpusError
from .resources import _pipeline_config, _say


def _labeled_tweet(record: dict) -> LabeledTweet:
    tweet = Tweet(
        id=record["id"],
        text=record["text"],
        created_at=record.get("created_at"),
        declared_lang=record.get("lang"),
    )
    return LabeledTweet(
        tweet=tweet,
        label=_member(SentimentLabel, _SENTIMENT_LABELS, record["label"]),
        source=_member(LabelSource, _LABEL_SOURCES, record.get("label_source", "manual")),
    )


def _documents(path, pipeline):
    """Yield the non-empty document of each row of the labeled-corpus JSONL at ``path``.

    Each row is preprocessed as it is read, and none is kept.
    Once the file is read, the rows that preprocessed to empty are
    reported, and a file with no row raises EmptyCorpusError.
    """
    from .preprocess import _document

    rows = dropped = 0
    for _, item in _read_strict_jsonl(path, "labeled-corpus", _labeled_tweet):
        rows += 1
        doc = _document(item.tweet.id, item.tweet.text, item.label, pipeline)
        if doc.empty:
            dropped += 1
        else:
            yield doc
    if not rows:
        raise EmptyCorpusError(f"no labeled tweets in {path}")
    if dropped:
        _say(f"dropped {dropped} document(s) that preprocessed to empty")


def cmd_train(config: RunConfig) -> int:
    from .model import save_model, train

    config.require_files("input")
    if config.model is None:
        raise ConfigError("--model is required (path to write the trained model)")
    model = train(_documents(config.input, _pipeline_config(config)))
    save_model(model, config.model)
    _say(
        f"trained on {model.total_docs} documents over"
        f" {'/'.join(lab.value for lab in model.labels)}; model written to {config.model}"
    )
    return 0
