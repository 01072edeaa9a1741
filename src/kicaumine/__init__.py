"""kicaumine: emoticon-supervised Indonesian tweet sentiment mining.

Pipeline: ingest tweet exports, filter by hashtag and language, label by
emoticon, preprocess (cleanse, case fold, tokenize, stopwords, POS,
stem), train a multinomial Naive Bayes classifier with add-one
smoothing, and evaluate against manual gold labels.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it. Each module is imported on
# first access (PEP 562), so a command pays only for the modules it uses.
_EXPORTS = {
    "ConfixStemmer": "stemming",
    "CorpusStats": "corpus",
    "Document": "preprocess",
    "EvalMetrics": "evaluation",
    "LabelSource": "corpus",
    "LabeledTweet": "corpus",
    "NbModel": "model",
    "PipelineConfig": "preprocess",
    "PosTag": "config",
    "Prediction": "model",
    "SentimentReport": "evaluation",
    "SentimentLabel": "corpus",
    "Tweet": "corpus",
    "case_fold": "preprocess",
    "classify": "model",
    "cleanse": "preprocess",
    "cross_validate": "evaluation",
    "default_pipeline_config": "resources",
    "distant_label": "corpus",
    "evaluate": "evaluation",
    "filter_hashtags": "corpus",
    "filter_language": "corpus",
    "ingest_jsonl": "corpus",
    "k_fold": "evaluation",
    "load_model": "model",
    "pos_tag": "preprocess",
    "remove_stopwords": "preprocess",
    "run_pipeline": "preprocess",
    "save_model": "model",
    "sentiment_report": "evaluation",
    "split": "evaluation",
    "tokenize": "preprocess",
    "train": "model",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
