"""Command-line interface: collect, train, classify, eval, report.

The subcommands mirror the pipeline stages so every intermediate artifact
(labeled corpus, model, predictions) lands in an inspectable file.
Diagnostics go to stderr, data to stdout or the requested output file,
and identical inputs plus an identical seed reproduce identical bytes.
"""

import argparse
import csv
import io
import json
import logging
import sys
from contextlib import nullcontext
from itertools import islice

from .config import (
    FORMATS,
    OOV_CHOICES,
    RunConfig,
    build_config,
    _parse_keep_tags,
    _parse_tags,
)
from .corpus import (
    CorpusStats,
    LabeledTweet,
    LabelSource,
    SentimentLabel,
    Tweet,
    distant_label,
    filter_hashtags,
    filter_language,
    ingest_jsonl,
    iter_tweets,
)
from .evaluation import evaluate, k_fold, sentiment_report, split
from .exceptions import (
    ConfigError,
    EmptyCorpusError,
    EvaluationError,
    KicaumineError,
)
from .model import (
    Prediction,
    classify,
    count_documents,
    load_model,
    save_model,
    train,
    train_without,
)
from .preprocess import PipelineConfig, run_pipeline
from .resources import (
    atomic_writer,
    load_hashtags,
    load_pos_lexicon,
    load_root_words,
    load_stopwords,
    load_wordlist,
)

logger = logging.getLogger("kicaumine")

# Ids named in one warning line; the rest are only counted.
_MAX_LOGGED_IDS = 10

# Tweets that classify reads, then scores, then writes, per round. One
# tweet per round ran about 10% slower: between two tweets, each stage's
# code and data left the CPU caches.
_CLASSIFY_CHUNK = 256


# ---------------------------------------------------------------------------
# shared plumbing


def _pipeline_config(config: RunConfig) -> PipelineConfig:
    return PipelineConfig(
        stopword_list=load_stopwords(config.stopwords),
        enable_stopwords=config.enable_stopwords,
        enable_pos=config.enable_pos,
        pos_keep_tags=config.pos_keep_tags,
        enable_stemming=config.enable_stemming,
        pos_lexicon=load_pos_lexicon(config.pos_lexicon),
        root_words=load_root_words(config.stem_roots),
    )


def _effective_hashtags(config: RunConfig) -> frozenset[str]:
    if config.hashtags_file is not None:
        tags = load_hashtags(config.hashtags_file)
        if not tags:
            raise ConfigError(f"hashtag file {config.hashtags_file} has no entries")
        return tags
    return config.hashtags


def _read_strict_jsonl(path, kind: str, parse) -> dict:
    """Parse each record of a JSONL file written by this package, keyed by id.

    Every non-blank line must be a UTF-8 JSON object with a string ``id``
    seen nowhere earlier in the file, and ``parse(record)`` must accept it;
    anything else stops the command with ConfigError naming ``path:line``.
    """
    parsed = {}
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError("record is not a JSON object")
                if not isinstance(record.get("id"), str):
                    raise TypeError("id must be a string")
                if record["id"] in parsed:
                    raise ConfigError(f"{path}:{lineno}: duplicate {kind} id {record['id']!r}")
                parsed[record["id"]] = parse(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad {kind} record: {exc}") from exc
    return parsed


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


def _tweet_record(tweet: Tweet) -> dict:
    record = {"id": tweet.id, "text": tweet.text}
    if tweet.created_at is not None:
        record["created_at"] = tweet.created_at
    if tweet.declared_lang is not None:
        record["lang"] = tweet.declared_lang
    return record


def _write_jsonl(path, records) -> int:
    """Write records as JSON Lines to ``path`` (stdout when None); return how many."""
    count = 0
    with nullcontext(sys.stdout) if path is None else atomic_writer(path) as handle:
        for count, record in enumerate(records, start=1):
            handle.write(json.dumps(record, sort_keys=True, ensure_ascii=False))
            handle.write("\n")
    return count


def _read_gold_csv(path) -> dict[str, SentimentLabel]:
    """Gold file: CSV with header `id,label`, labels negative/positive/neutral.

    Once the header matches with its names trimmed, columns are read by
    position, so `id, label` works too.
    """
    gold = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [f.strip() for f in header] != ["id", "label"]:
                raise ConfigError(f"gold file {path} must have the header 'id,label'")
            for row in reader:
                if not row:
                    continue
                tweet_id, label_name = (cell.strip() for cell in (row + ["", ""])[:2])
                label_name = label_name.lower()
                where = f"{path}:{reader.line_num}"
                if not tweet_id:
                    raise ConfigError(f"{where}: empty gold id")
                if tweet_id in gold:
                    raise ConfigError(f"{where}: duplicate gold id {tweet_id!r}")
                try:
                    gold[tweet_id] = SentimentLabel(label_name)
                except ValueError:
                    raise ConfigError(
                        f"{where}: unknown gold label {label_name!r} for id {tweet_id!r}"
                    ) from None
    except UnicodeDecodeError:
        raise ConfigError(f"gold file {path} is not UTF-8") from None
    if not gold:
        raise EvaluationError(f"gold file {path} has no rows")
    return gold


def _prediction(record: dict) -> Prediction:
    posteriors = record.get("posteriors", {})
    if not isinstance(posteriors, dict):
        raise TypeError("posteriors must be a JSON object")
    return Prediction(
        label=SentimentLabel(record["label"]),
        posteriors={SentimentLabel(name): float(p) for name, p in posteriors.items()},
        oov_tokens=int(record.get("oov_tokens", 0)),
    )


def _read_predictions(path) -> dict[str, Prediction]:
    """Predictions JSONL as written by the classify command, keyed by id."""
    return _read_strict_jsonl(path, "prediction", _prediction)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with atomic_writer(out_path) as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _preprocess_labeled(labeled, pipeline):
    """Preprocess labeled tweets, dropping empty documents with a count."""
    docs = []
    dropped = 0
    for item in labeled:
        doc = run_pipeline(item, pipeline)
        if doc.empty:
            dropped += 1
        else:
            docs.append(doc)
    if dropped:
        logger.warning("dropped %d document(s) that preprocessed to empty", dropped)
    return docs


# ---------------------------------------------------------------------------
# output formatting


def _format_stats(stats, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(stats.as_dict(), sort_keys=True, indent=2)
    rows = sorted(stats.as_dict().items())
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows)


def _format_metrics(metrics, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(metrics.as_dict(), sort_keys=True, indent=2)
    labels = list(metrics.confusion)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
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


def _format_reports(reports, fmt: str) -> str:
    labels = list(SentimentLabel)
    if fmt == "json":
        payload = [
            {
                "group": r.group_key,
                "total": r.total,
                "counts": {lab.value: r.counts[lab] for lab in labels},
                "percentages": {lab.value: r.percentages[lab] for lab in r.percentages},
            }
            for r in reports
        ]
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["group", "label", "count", "percentage"])
        for r in reports:
            for lab in labels:
                pct = f"{r.percentages[lab]:.6f}" if r.percentages else ""
                writer.writerow([r.group_key, lab.value, r.counts[lab], pct])
        return buffer.getvalue()
    width = max(len(r.group_key) for r in reports) + 2
    lines = [f"{'group'.ljust(width)}{'total':>7}" + "".join(f"{lab.value:>18}" for lab in labels)]
    for r in reports:
        cells = ""
        for lab in labels:
            if r.percentages:
                cells += f"{r.counts[lab]:>8} ({r.percentages[lab] * 100:5.1f}%)"
            else:
                cells += f"{r.counts[lab]:>8}         "
        lines.append(f"{r.group_key.ljust(width)}{r.total:>7}" + cells)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_collect(config: RunConfig) -> int:
    config.require_files("input")
    if config.out_labeled is None or config.out_unlabeled is None:
        raise ConfigError("--out-labeled and --out-unlabeled are required")
    tags = _effective_hashtags(config)
    wordlist = load_wordlist(config.wordlist)

    with open(config.input, "rb") as handle:
        try:
            tweets, stats = ingest_jsonl(handle)
        except EmptyCorpusError:
            raise EmptyCorpusError(f"no valid tweets in {config.input}") from None
    on_topic = filter_hashtags(tweets, tags)
    stats.rejected_hashtag += len(tweets) - len(on_topic)
    indonesian, delta = filter_language(on_topic, wordlist, config.lang_threshold)
    stats.add(delta)
    labeled, unlabeled, delta = distant_label(indonesian)
    stats.add(delta)
    if not stats.check_partition():
        raise RuntimeError("internal error: corpus stats do not partition the input")

    _write_jsonl(
        config.out_labeled,
        (
            {**_tweet_record(lt.tweet), "label": lt.label.value, "label_source": lt.source.value}
            for lt in labeled
        ),
    )
    _write_jsonl(config.out_unlabeled, (_tweet_record(t) for t in unlabeled))
    logger.info(
        "collected %d labeled and %d unlabeled tweets", len(labeled), len(unlabeled)
    )
    _emit(_format_stats(stats, config.format), config.out)
    return 0


def cmd_train(config: RunConfig) -> int:
    config.require_files("input")
    if config.model is None:
        raise ConfigError("--model is required (path to write the trained model)")
    pipeline = _pipeline_config(config)
    labeled = _read_labeled_corpus(config.input)
    docs = _preprocess_labeled(labeled, pipeline)
    model = train(docs)
    save_model(model, config.model)
    logger.info(
        "trained on %d documents over %s; model written to %s",
        model.total_docs,
        "/".join(lab.value for lab in model.labels),
        config.model,
    )
    return 0


def cmd_classify(config: RunConfig) -> int:
    config.require_files("input", "model")
    pipeline = _pipeline_config(config)
    model = load_model(config.model)

    def records(handle):
        tweets = iter_tweets(handle, CorpusStats())
        while chunk := list(islice(tweets, _CLASSIFY_CHUNK)):
            predictions = [
                classify(model, run_pipeline(tweet, pipeline), oov_mode=config.oov)
                for tweet in chunk
            ]
            for tweet, prediction in zip(chunk, predictions):
                yield {
                    "id": tweet.id,
                    "label": prediction.label.value,
                    "posteriors": {lab.value: p for lab, p in prediction.posteriors.items()},
                    "oov_tokens": prediction.oov_tokens,
                }

    with open(config.input, "rb") as handle:
        count = _write_jsonl(config.out, records(handle))
    logger.info("classified %d tweet(s)", count)
    return 0


def _gold_documents(config: RunConfig, pipeline: PipelineConfig):
    """Join the gold CSV against the input tweets and preprocess them."""
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
        logger.warning(
            "%d gold id(s) missing from the corpus and excluded: %s", len(missing), shown
        )
    docs = []
    for tweet_id in sorted(by_id):
        item = LabeledTweet(by_id[tweet_id], gold[tweet_id], LabelSource.MANUAL)
        docs.append(run_pipeline(item, pipeline))
    if not docs:
        raise EvaluationError("no gold ids matched the corpus")
    return docs


def cmd_eval(config: RunConfig) -> int:
    required = ["input", "gold"] if config.k or config.model is None else ["input", "gold", "model"]
    config.require_files(*required)
    pipeline = _pipeline_config(config)
    docs = _gold_documents(config, pipeline)

    if config.k:
        folds = k_fold(docs, config.k, config.seed)
        counts = count_documents(docs)
        accuracies = []
        for i, (_, test_docs) in enumerate(folds, start=1):
            # Same model as train() on the fold's non-empty training docs.
            fold_model = train_without(counts, test_docs)
            usable_test = [d for d in test_docs if d.label in fold_model.labels]
            skipped = len(test_docs) - len(usable_test)
            if skipped:
                logger.warning(
                    "fold %d: skipping %d test doc(s) with labels absent from the fold model",
                    i,
                    skipped,
                )
            if not usable_test:
                raise EvaluationError(f"fold {i} has no evaluable test documents")
            metrics = evaluate(fold_model, usable_test, oov_mode=config.oov)
            accuracies.append(metrics.accuracy)
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
            logger.warning(
                "skipping %d gold doc(s) with labels absent from the model", skipped
            )
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


def cmd_report(config: RunConfig) -> int:
    config.require_files("input", "predictions")
    tags = _effective_hashtags(config)
    predictions = _read_predictions(config.predictions)
    with open(config.input, "rb") as handle:
        by_id = {t.id: t for t in iter_tweets(handle, CorpusStats()) if t.id in predictions}
    pairs = []
    unmatched = 0
    for tweet_id, prediction in predictions.items():
        tweet = by_id.get(tweet_id)
        if tweet is None:
            unmatched += 1
            continue
        pairs.append((tweet, prediction))
    if unmatched:
        logger.warning("%d prediction(s) reference ids missing from the corpus", unmatched)
    reports = sentiment_report(pairs, tags)
    _emit(_format_reports(reports, config.format), config.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--input", help="input file for this command")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=FORMATS, default=None, help="output format (default table)"
    )


def _add_pipeline_flags(parser):
    parser.add_argument("--stopwords", help="stopword list file (default: bundled)")
    parser.add_argument("--pos-lexicon", dest="pos_lexicon", help="POS lexicon file (default: bundled)")
    parser.add_argument("--stem-roots", dest="stem_roots", help="root-word dictionary file (default: bundled)")
    parser.add_argument(
        "--disable-stopwords",
        dest="enable_stopwords",
        action="store_const",
        const=False,
        default=None,
        help="skip the stopword removal stage",
    )
    parser.add_argument(
        "--enable-pos",
        dest="enable_pos",
        action="store_const",
        const=True,
        default=None,
        help="enable the POS tag filter stage",
    )
    parser.add_argument(
        "--disable-stemming",
        dest="enable_stemming",
        action="store_const",
        const=False,
        default=None,
        help="skip the stemming stage",
    )
    parser.add_argument(
        "--pos-keep-tags",
        dest="pos_keep_tags",
        help="comma-separated tags kept by the POS filter (noun,verb,adj,other)",
    )


def _add_hashtag_flags(parser):
    parser.add_argument("--hashtags", help="comma-separated hashtags (without '#')")
    parser.add_argument(
        "--hashtags-file", dest="hashtags_file", help="hashtag set file, one tag per line"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kicaumine",
        description="Emoticon-supervised tweet sentiment mining pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect", help="ingest, filter, and emoticon-label tweets")
    _add_common(p_collect)
    _add_hashtag_flags(p_collect)
    p_collect.add_argument("--out-labeled", dest="out_labeled", help="labeled corpus output path")
    p_collect.add_argument(
        "--out-unlabeled", dest="out_unlabeled", help="unlabeled corpus output path"
    )
    p_collect.add_argument("--wordlist", help="language wordlist file (default: bundled)")
    p_collect.add_argument(
        "--lang-threshold",
        dest="lang_threshold",
        type=float,
        help="minimum dictionary-word ratio to keep a tweet (default 0.5)",
    )

    p_train = sub.add_parser("train", help="preprocess a labeled corpus and train the model")
    _add_common(p_train)
    _add_pipeline_flags(p_train)
    p_train.add_argument("--model", help="model output path")

    p_classify = sub.add_parser("classify", help="classify tweets with a trained model")
    _add_common(p_classify)
    _add_pipeline_flags(p_classify)
    p_classify.add_argument("--model", help="trained model path")
    p_classify.add_argument(
        "--oov", choices=OOV_CHOICES, default=None, help="unseen-token handling (default smooth)"
    )

    p_eval = sub.add_parser("eval", help="score the classifier against manual gold labels")
    _add_common(p_eval)
    _add_pipeline_flags(p_eval)
    p_eval.add_argument("--model", help="trained model path (omit to train on a gold split)")
    p_eval.add_argument("--gold", help="gold labels CSV (header: id,label)")
    p_eval.add_argument(
        "--k",
        nargs="?",
        const=10,
        type=int,
        default=None,
        help="k-fold cross-validation with retraining (default k=10 when given)",
    )
    p_eval.add_argument("--seed", type=int, help="shuffle seed (default 42)")
    p_eval.add_argument(
        "--train-fraction",
        dest="train_fraction",
        type=float,
        help="training share for the holdout mode (default 0.8)",
    )
    p_eval.add_argument(
        "--oov", choices=OOV_CHOICES, default=None, help="unseen-token handling (default smooth)"
    )

    p_report = sub.add_parser("report", help="per-hashtag sentiment percentage rollup")
    _add_common(p_report)
    _add_hashtag_flags(p_report)
    p_report.add_argument("--predictions", help="predictions JSONL from the classify command")

    return parser


_CONFIG_KEYS = (
    "input",
    "model",
    "out",
    "out_labeled",
    "out_unlabeled",
    "predictions",
    "gold",
    "stopwords",
    "pos_lexicon",
    "stem_roots",
    "wordlist",
    "hashtags_file",
    "lang_threshold",
    "enable_stopwords",
    "enable_pos",
    "enable_stemming",
    "train_fraction",
    "seed",
    "k",
    "format",
    "oov",
)


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for key in _CONFIG_KEYS:
        if hasattr(args, key):
            overrides[key] = getattr(args, key)
    if getattr(args, "hashtags", None):
        overrides["hashtags"] = _parse_tags(args.hashtags)
    if getattr(args, "pos_keep_tags", None):
        overrides["pos_keep_tags"] = _parse_keep_tags(args.pos_keep_tags)
    return build_config(config_path=args.config, **overrides)


_COMMANDS = {
    "collect": cmd_collect,
    "train": cmd_train,
    "classify": cmd_classify,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KicaumineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
