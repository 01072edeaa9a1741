"""The eval command: score the classifier against manual gold labels."""

import json

from .config import RunConfig
from .corpus import CorpusStats, SentimentLabel, iter_tweets
from .exceptions import ConfigError, EmptyCorpusError, EvaluationError
from .resources import _csv_writer, _emit, _pipeline_config, _say

# Ids named in one warning line; the rest are only counted.
_MAX_LOGGED_IDS = 10

# Each gold label, by its trimmed lowercase name in the gold file.
_GOLD_LABELS = {label.value: label for label in SentimentLabel}


def _read_gold_csv(path) -> dict[str, SentimentLabel]:
    """Gold file: CSV with header `id,label`, labels negative/positive/neutral.

    Once the header matches with its names trimmed, columns are read by
    position, so `id, label` works too. A leading UTF-8 byte-order mark is
    dropped.
    """
    import csv

    def refusal(problem: str) -> ConfigError:
        # The location is formatted only for a bad row, not for every row.
        return ConfigError(f"{path}:{reader.line_num}: {problem}")

    gold = {}
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
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
                label = _GOLD_LABELS.get(label_name)
                if label is None:
                    raise refusal(f"unknown gold label {label_name!r} for id {tweet_id!r}")
                gold[tweet_id] = label
    except UnicodeDecodeError:
        raise ConfigError(f"gold file {path} is not UTF-8") from None
    except csv.Error as exc:
        raise refusal(f"bad gold CSV: {exc}") from None
    if not gold:
        raise EvaluationError(f"gold file {path} has no rows")
    return gold


def _format_metrics(metrics, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(metrics.as_dict(), sort_keys=True, indent=2)
    labels = list(metrics.confusion)
    if fmt == "csv":
        buffer, writer = _csv_writer()
        writer.writerow(["label", "precision", "recall", "f1"])
        for lab in labels:
            m = metrics.per_class[lab]
            writer.writerow([lab.value, f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f1:.6f}"])
        writer.writerow(["accuracy", f"{metrics.accuracy:.6f}", "", ""])
        return buffer.getvalue()
    width = max(len(lab.value) for lab in labels) + 2
    lines = ["confusion matrix (rows: gold, columns: predicted)"]
    header = " " * width + "".join(lab.value.rjust(width) for lab in labels)
    lines.append(header)
    for gold_lab in labels:
        row = metrics.confusion[gold_lab]
        cells = "".join(str(row[pred]).rjust(width) for pred in labels)
        lines.append(gold_lab.value.ljust(width) + cells)
    lines.append("")
    lines.append(f"{'label'.ljust(width)}{'precision':>10}{'recall':>10}{'f1':>10}")
    for lab in labels:
        m = metrics.per_class[lab]
        lines.append(
            f"{lab.value.ljust(width)}{m.precision:>10.4f}{m.recall:>10.4f}{m.f1:>10.4f}"
        )
    lines.append("")
    lines.append(f"accuracy: {metrics.accuracy:.4f} ({metrics.n_test} documents)")
    return "\n".join(lines)


def _format_kfold(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, sort_keys=True, indent=2)
    if fmt == "csv":
        buffer, writer = _csv_writer()
        writer.writerow(["fold", "accuracy"])
        for i, acc in enumerate(result["fold_accuracies"], start=1):
            writer.writerow([i, f"{acc:.6f}"])
        writer.writerow(["mean", f"{result['mean_accuracy']:.6f}"])
        return buffer.getvalue()
    lines = [
        f"fold {i}: accuracy {acc:.4f}"
        for i, acc in enumerate(result["fold_accuracies"], start=1)
    ]
    spread = (result["max_accuracy"] - result["min_accuracy"]) / 2
    lines.append(
        f"mean accuracy: {result['mean_accuracy']:.4f} "
        f"± {spread:.4f} (min {result['min_accuracy']:.4f}, max {result['max_accuracy']:.4f})"
    )
    return "\n".join(lines)


def _gold_documents(config: RunConfig, pipeline):
    """Join the gold CSV against the input tweets and preprocess them."""
    from .preprocess import _document

    gold = _read_gold_csv(config.gold)
    stats = CorpusStats()
    with open(config.input, "rb") as handle:
        by_id = {t.id: t for t in iter_tweets(handle, stats) if t.id in gold}
    if stats.total_ingested == stats.rejected_malformed:
        raise EmptyCorpusError(f"no valid tweets in {config.input}")
    missing = sorted(tweet_id for tweet_id in gold if tweet_id not in by_id)
    if missing:
        shown = ", ".join(missing[:_MAX_LOGGED_IDS])
        if len(missing) > _MAX_LOGGED_IDS:
            shown += f", ... and {len(missing) - _MAX_LOGGED_IDS} more"
        _say(f"{len(missing)} gold id(s) missing from the corpus and excluded: {shown}")
    docs = [_document(by_id[tweet_id], gold[tweet_id], pipeline) for tweet_id in sorted(by_id)]
    if not docs:
        raise EvaluationError("no gold ids matched the corpus")
    return docs


def cmd_eval(config: RunConfig) -> int:
    from .evaluation import _fold_accuracies, evaluate, split
    from .model import load_model, train

    required = ["input", "gold"] if config.k or config.model is None else ["input", "gold", "model"]
    config.require_files(*required)
    pipeline = _pipeline_config(config)
    docs = _gold_documents(config, pipeline)

    if config.k:
        accuracies = _fold_accuracies(
            docs,
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
            "mean_accuracy": sum(accuracies) / len(accuracies),
            "min_accuracy": min(accuracies),
            "max_accuracy": max(accuracies),
        }
        _emit(_format_kfold(result, config.format), config.out)
        return 0

    if config.model is not None:
        model = load_model(config.model)
        gold_docs = [d for d in docs if d.label in model.labels]
        skipped = len(docs) - len(gold_docs)
        if skipped:
            _say(f"skipping {skipped} gold doc(s) with labels absent from the model")
        if not gold_docs:
            raise EvaluationError("no gold documents with labels the model knows")
        metrics = evaluate(model, gold_docs, oov_mode=config.oov)
    else:
        # Self-contained holdout: train on a split of the gold data itself.
        usable = [d for d in docs if not d.empty]
        train_docs, test_docs = split(usable, config.train_fraction, config.seed)
        holdout_model = train(train_docs)
        test_docs = [d for d in test_docs if d.label in holdout_model.labels]
        if not test_docs:
            raise EvaluationError("holdout test side has no evaluable documents")
        metrics = evaluate(holdout_model, test_docs, oov_mode=config.oov)
    _emit(_format_metrics(metrics, config.format), config.out)
    return 0
