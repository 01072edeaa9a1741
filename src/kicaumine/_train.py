"""The train command: preprocess a labeled corpus and write the model."""

from .config import RunConfig
from .corpus import LabeledTweet, LabelSource, SentimentLabel, Tweet, _read_strict_jsonl
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
        label=SentimentLabel(record["label"]),
        source=LabelSource(record.get("label_source", "manual")),
    )


def _read_labeled_corpus(path) -> list[LabeledTweet]:
    """Read the labeled-corpus JSONL written by the collect command."""
    labeled = list(_read_strict_jsonl(path, "labeled-corpus", _labeled_tweet).values())
    if not labeled:
        raise EmptyCorpusError(f"no labeled tweets in {path}")
    return labeled


def _preprocess_labeled(labeled, pipeline):
    """Preprocess labeled tweets, dropping empty documents with a count."""
    from .preprocess import run_pipeline

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


def cmd_train(config: RunConfig) -> int:
    from .model import save_model, train

    config.require_files("input")
    if config.model is None:
        raise ConfigError("--model is required (path to write the trained model)")
    pipeline = _pipeline_config(config)
    labeled = _read_labeled_corpus(config.input)
    docs = _preprocess_labeled(labeled, pipeline)
    model = train(docs)
    save_model(model, config.model)
    _say(
        f"trained on {model.total_docs} documents over"
        f" {'/'.join(lab.value for lab in model.labels)}; model written to {config.model}"
    )
    return 0
