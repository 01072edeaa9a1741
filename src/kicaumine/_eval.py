"""The eval command: score the classifier against manual gold labels."""

from functools import reduce
from itertools import chain
from operator import add

from .config import RunConfig
from .corpus import _SENTIMENT_LABELS, CorpusStats, SentimentLabel, _tweet_fields
from .exceptions import ConfigError, EmptyCorpusError, EvaluationError
from .resources import _emit, _nonempty_pairs, _pipeline_config, _render, _say

# Ids named in one warning line; the rest are only counted.
_MAX_LOGGED_IDS = 10


def _read_gold_csv(path) -> dict[str, SentimentLabel]:
    """Gold file: CSV with header `id,label`, labels negative/positive/neutral.

    The whole file is decoded before any row is read, so a file that is
    not UTF-8 is refused as such at any size. Once the header matches with
    its names trimmed, columns are read by position, so `id, label` works
    too. A leading UTF-8 byte-order mark is dropped.
    """
    import csv
    import io

    def refusal(problem: str) -> ConfigError:
        # The location is formatted only for a bad row, not for every row.
        return ConfigError(f"{path}:{reader.line_num}: {problem}")

    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8-sig")
    except UnicodeDecodeError:
        raise ConfigError(f"gold file {path} is not UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    gold = {}
    try:
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != ["id", "label"]:
            raise ConfigError(f"gold file {path} must have the header 'id,label'")
        for row in reader:
            if not row:
                continue
            tweet_id = row[0].strip()
            label_name = row[1].strip().lower() if len(row) > 1 else ""
            if not tweet_id:
                raise refusal("empty gold id")
            if tweet_id in gold:
                raise refusal(f"duplicate gold id {tweet_id!r}")
            label = _SENTIMENT_LABELS.get(label_name)
            if label is None:
                raise refusal(f"unknown gold label {label_name!r} for id {tweet_id!r}")
            gold[tweet_id] = label
    except csv.Error as exc:
        raise refusal(f"bad gold CSV: {exc}") from None
    if not gold:
        raise EvaluationError(f"gold file {path} has no rows")
    return gold


def _format_metrics(metrics, fmt: str) -> str:
    labels = list(metrics.confusion)
    scores = [(lab.value, metrics.per_class[lab]) for lab in labels]
    rows = [
        ("label", "precision", "recall", "f1"),
        *((name, f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f1:.6f}") for name, m in scores),
        ("accuracy", f"{metrics.accuracy:.6f}", "", ""),
    ]
    width = max(len(lab.value) for lab in labels) + 2
    lines = [
        "confusion matrix (rows: gold, columns: predicted)",
        " " * width + "".join(lab.value.rjust(width) for lab in labels),
        *(
            gold.value.ljust(width)
            + "".join(str(metrics.confusion[gold][pred]).rjust(width) for pred in labels)
            for gold in labels
        ),
        "",
        f"{'label'.ljust(width)}{'precision':>10}{'recall':>10}{'f1':>10}",
        *(
            f"{name.ljust(width)}{m.precision:>10.4f}{m.recall:>10.4f}{m.f1:>10.4f}"
            for name, m in scores
        ),
        "",
        f"accuracy: {metrics.accuracy:.4f} ({metrics.n_test} documents)",
    ]
    return _render(fmt, metrics.as_dict(), rows, lines)


def _format_kfold(result: dict, fmt: str) -> str:
    # Rows and lines are generators, as their number grows with k.
    folds = result["fold_accuracies"]
    spread = (result["max_accuracy"] - result["min_accuracy"]) / 2
    rows = chain(
        [("fold", "accuracy")],
        ((i, f"{acc:.6f}") for i, acc in enumerate(folds, start=1)),
        [("mean", f"{result['mean_accuracy']:.6f}")],
    )
    lines = chain(
        (f"fold {i}: accuracy {acc:.4f}" for i, acc in enumerate(folds, start=1)),
        [
            f"mean accuracy: {result['mean_accuracy']:.4f} ± {spread:.4f}"
            f" (min {result['min_accuracy']:.4f}, max {result['max_accuracy']:.4f})"
        ],
    )
    return _render(fmt, result, rows, lines)


def _gold_pairs(config: RunConfig, pipeline) -> list[tuple]:
    """Join the gold CSV against the input tweets: ``(label, tokens)`` per gold tweet, by id.

    Gold tweets that preprocess to no tokens are dropped and counted by
    ``_nonempty_pairs``, after the join and before any mode sees them.
    """
    gold = _read_gold_csv(config.gold)
    stats = CorpusStats()
    with open(config.input, "rb") as handle:
        texts = {
            tweet_id: text
            for tweet_id, text, _, _ in _tweet_fields(handle, stats)
            if tweet_id in gold
        }
    if stats.total_ingested == stats.rejected_malformed:
        raise EmptyCorpusError(f"no valid tweets in {config.input}")
    missing = sorted(tweet_id for tweet_id in gold if tweet_id not in texts)
    if missing:
        shown = ", ".join(map(repr, missing[:_MAX_LOGGED_IDS]))
        if len(missing) > _MAX_LOGGED_IDS:
            shown += f", ... and {len(missing) - _MAX_LOGGED_IDS} more"
        _say(f"{len(missing)} gold id(s) missing from the corpus and excluded: {shown}")
    if not texts:
        raise EvaluationError("no gold ids matched the corpus")
    labeled_texts = ((gold[tweet_id], texts[tweet_id]) for tweet_id in sorted(texts))
    return list(_nonempty_pairs(labeled_texts, pipeline))


def _known(pairs: list[tuple], model, what: str, model_name: str) -> list[tuple]:
    """The ``pairs`` whose label ``model`` knows; the others are counted in one line."""
    known = [pair for pair in pairs if pair[0] in model.labels]
    skipped = len(pairs) - len(known)
    if skipped:
        _say(f"skipping {skipped} {what} with labels absent from the {model_name}")
    return known


def cmd_eval(config: RunConfig) -> int:
    from .evaluation import _fold_accuracies, _metrics, _split
    from .model import _model, load_model

    required = ["input", "gold"] if config.k or config.model is None else ["input", "gold", "model"]
    config.require_files(*required)
    pipeline = _pipeline_config(config)
    pairs = _gold_pairs(config, pipeline)

    if config.k:
        accuracies = _fold_accuracies(
            pairs,
            config.k,
            config.seed,
            config.oov,
            lambda fold, skipped: _say(
                f"fold {fold}: skipping {skipped} test doc(s)"
                " with labels absent from the fold model"
            ),
        )
        result = {
            "k": config.k,
            "seed": config.seed,
            "fold_accuracies": accuracies,
            # Added left to right: from Python 3.12, sum() rounds floats otherwise.
            "mean_accuracy": reduce(add, accuracies) / len(accuracies),
            "min_accuracy": min(accuracies),
            "max_accuracy": max(accuracies),
        }
        _emit(_format_kfold(result, config.format), config.out)
        return 0

    if config.model is not None:
        model = load_model(config.model)
        test = _known(pairs, model, "gold doc(s)", "model")
        if not test:
            raise EvaluationError("no gold documents with labels the model knows")
    else:
        # Self-contained holdout: train on a split of the gold data itself.
        train_pairs, test_pairs = _split(pairs, config.train_fraction, config.seed)
        model = _model(train_pairs)
        test = _known(test_pairs, model, "test doc(s)", "holdout model")
        if not test:
            raise EvaluationError("holdout test side has no evaluable documents")
    _emit(_format_metrics(_metrics(model, test, config.oov), config.format), config.out)
    return 0
