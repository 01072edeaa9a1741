"""Command-line interface: collect, train, classify, eval, report.

The subcommands mirror the pipeline stages so every intermediate artifact
(labeled corpus, model, predictions) lands in an inspectable file.
Diagnostics go to stderr, data to stdout or the requested output file,
and identical inputs plus an identical seed reproduce identical bytes.
"""

import argparse
import json
import shutil
import sys
from contextlib import nullcontext
from itertools import chain, islice
from json.encoder import encode_basestring
from operator import itemgetter

from .config import (
    DEFAULT_K,
    DEFAULT_LANG_THRESHOLD,
    DEFAULT_SEED,
    DEFAULT_TRAIN_FRACTION,
    FORMATS,
    OOV_MODES,
    RunConfig,
    build_config,
    flag_name,
    parse_setting,
)
from .corpus import (
    CorpusStats,
    LabeledTweet,
    LabelSource,
    SentimentLabel,
    Tweet,
    _DISTANT_LABELS,
    _emoticon_outcome,
    _hashtag_rollup,
    _hashtag_test,
    _language_test,
    decode_json,
    iter_tweets,
)
from .exceptions import (
    ConfigError,
    EmptyCorpusError,
    EvaluationError,
    KicaumineError,
)
from .resources import (
    atomic_writer,
    load_hashtags,
    load_pos_lexicon,
    load_root_words,
    load_stopwords,
    load_wordlist,
)

# The model, preprocessing and evaluation modules are imported by the
# commands that run them, so that collect and report never load them, and
# tempfile by collect alone.

# Ids named in one warning line; the rest are only counted.
_MAX_LOGGED_IDS = 10

# Tweets that classify reads, then scores, then writes, per round. One
# tweet per round ran about 10% slower: between two tweets, each stage's
# code and data left the CPU caches.
_CLASSIFY_CHUNK = 256


# ---------------------------------------------------------------------------
# shared plumbing


def _say(line: str) -> None:
    """Write one diagnostic line to stderr.

    A line that stderr cannot take, because it is closed or fails, is
    dropped: a diagnostic never changes a command's data or exit status.
    """
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        pass


def _pipeline_config(config: RunConfig):
    from .preprocess import PipelineConfig

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


# The label members of a distantly labeled tweet's line, by outcome.
_LABEL_MEMBERS = {
    outcome: (
        f', "label": {encode_basestring(label.value)}'
        f', "label_source": {encode_basestring(LabelSource.DISTANT.value)}'
    )
    for outcome, label in _DISTANT_LABELS.items()
}


def _tweet_line(tweet: Tweet, label_members: str = "") -> str:
    """``tweet``'s JSON line, with ``label_members`` after its id.

    The line is the one ``json.dumps(record, sort_keys=True,
    ensure_ascii=False)`` writes for the record of the tweet's fields
    (``lang`` for its declared language), with ``created_at`` and ``lang``
    left out when they are None.
    """
    created = "" if tweet.created_at is None else (
        f'"created_at": {encode_basestring(tweet.created_at)}, '
    )
    lang = "" if tweet.declared_lang is None else (
        f', "lang": {encode_basestring(tweet.declared_lang)}'
    )
    return (
        f'{{{created}"id": {encode_basestring(tweet.id)}{label_members}{lang}'
        f', "text": {encode_basestring(tweet.text)}}}\n'
    )


def _output(path):
    """A context giving stdout when ``path`` is None, else an atomic writer to ``path``."""
    return nullcontext(sys.stdout) if path is None else atomic_writer(path)


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
                tweet_id, label_name = (cell.strip() for cell in (row + ["", ""])[:2])
                label_name = label_name.lower()
                if not tweet_id:
                    raise refusal("empty gold id")
                if tweet_id in gold:
                    raise refusal(f"duplicate gold id {tweet_id!r}")
                try:
                    gold[tweet_id] = SentimentLabel(label_name)
                except ValueError:
                    raise refusal(
                        f"unknown gold label {label_name!r} for id {tweet_id!r}"
                    ) from None
    except UnicodeDecodeError:
        raise ConfigError(f"gold file {path} is not UTF-8") from None
    except csv.Error as exc:
        raise refusal(f"bad gold CSV: {exc}") from None
    if not gold:
        raise EvaluationError(f"gold file {path} has no rows")
    return gold


def _prediction_label(record: dict) -> SentimentLabel:
    """The label of a predictions record, once every field of it is valid.

    The fields are checked in the order a ``Prediction`` is built from
    them: posteriors type, label, each posterior's label and float, then
    ``oov_tokens``.
    """
    posteriors = record.get("posteriors", {})
    if not isinstance(posteriors, dict):
        raise TypeError("posteriors must be a JSON object")
    label = SentimentLabel(record["label"])
    for name, p in posteriors.items():
        SentimentLabel(name)
        float(p)
    int(record.get("oov_tokens", 0))
    return label


def _emit(text: str, out_path) -> None:
    """Write ``text`` to ``out_path`` (stdout when None), ending with a newline."""
    with _output(out_path) as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


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


# ---------------------------------------------------------------------------
# output formatting


def _csv_writer():
    """A CSV writer with LF line ends and the text buffer it writes to."""
    import csv
    import io

    buffer = io.StringIO()
    return buffer, csv.writer(buffer, lineterminator="\n")


def _format_stats(stats, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(stats.as_dict(), sort_keys=True, indent=2)
    rows = sorted(stats.as_dict().items())
    if fmt == "csv":
        buffer, writer = _csv_writer()
        writer.writerow(["field", "value"])
        writer.writerows(rows)
        return buffer.getvalue()
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows)


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


def _format_reports(groups, fmt: str) -> str:
    """``corpus._hashtag_rollup``'s (key, counts, shares) groups in format ``fmt``."""
    labels = list(SentimentLabel)
    if fmt == "json":
        payload = [
            {
                "group": key,
                "total": sum(counts.values()),
                "counts": {lab.value: counts[lab] for lab in labels},
                "percentages": {lab.value: shares[lab] for lab in shares},
            }
            for key, counts, shares in groups
        ]
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        buffer, writer = _csv_writer()
        writer.writerow(["group", "label", "count", "percentage"])
        for key, counts, shares in groups:
            for lab in labels:
                pct = f"{shares[lab]:.6f}" if shares else ""
                writer.writerow([key, lab.value, counts[lab], pct])
        return buffer.getvalue()
    width = max(len(key) for key, _, _ in groups) + 2
    lines = [f"{'group'.ljust(width)}{'total':>7}" + "".join(f"{lab.value:>18}" for lab in labels)]
    for key, counts, shares in groups:
        cells = ""
        for lab in labels:
            if shares:
                cells += f"{counts[lab]:>8} ({shares[lab] * 100:5.1f}%)"
            else:
                cells += f"{counts[lab]:>8}         "
        lines.append(f"{key.ljust(width)}{sum(counts.values()):>7}" + cells)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_collect(config: RunConfig) -> int:
    import tempfile

    config.require_files("input")
    if config.out_labeled is None or config.out_unlabeled is None:
        raise ConfigError("--out-labeled and --out-unlabeled are required")
    tags = _effective_hashtags(config)
    wordlist = load_wordlist(config.wordlist)
    stats = CorpusStats()
    # The unlabeled lines wait in a spool until the labeled target is
    # written and closed, so two FIFOs read one after the other complete,
    # and when both flags name one path the unlabeled file wins.
    with (
        open(config.input, "rb") as handle,
        tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool,
    ):
        tweets = iter_tweets(handle, stats)
        # An export with no valid tweet is reported before bad filter settings.
        first = next(tweets, None)
        if first is None:
            raise EmptyCorpusError(f"no valid tweets in {config.input}")
        on_topic = _hashtag_test(tags)
        in_language = _language_test(wordlist, config.lang_threshold)
        with atomic_writer(config.out_labeled) as labeled:
            for tweet in chain((first,), tweets):
                lowered = tweet.text.lower()
                if not on_topic(lowered):
                    stats.rejected_hashtag += 1
                    continue
                if not in_language(lowered):
                    stats.rejected_language += 1
                    continue
                outcome = _emoticon_outcome(tweet.text)
                setattr(stats, outcome, getattr(stats, outcome) + 1)
                if outcome in _DISTANT_LABELS:
                    labeled.write(_tweet_line(tweet, _LABEL_MEMBERS[outcome]))
                elif outcome == "unlabeled":
                    spool.write(_tweet_line(tweet))
            if not stats.check_partition():
                raise RuntimeError("internal error: corpus stats do not partition the input")
        spool.seek(0)
        with atomic_writer(config.out_unlabeled) as unlabeled:
            shutil.copyfileobj(spool, unlabeled)
    _say(
        f"collected {stats.labeled_positive + stats.labeled_negative} labeled"
        f" and {stats.unlabeled} unlabeled tweets"
    )
    _emit(_format_stats(stats, config.format), config.out)
    return 0


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


def cmd_classify(config: RunConfig) -> int:
    from .model import _posteriors, load_model
    from .preprocess import run_pipeline

    config.require_files("input", "model")
    pipeline = _pipeline_config(config)
    model = load_model(config.model)
    table, oov_mode = model._score_table(), config.oov
    # Each line is the record {id, label, oov_tokens, posteriors} as
    # json.dumps(record, sort_keys=True, ensure_ascii=False) writes it: keys
    # sorted, and each posterior, always finite, in float.__repr__.
    names = [lab.value for lab in model.labels]
    heads = [f', "label": {encode_basestring(name)}, "oov_tokens": ' for name in names]
    key_order = sorted(range(len(names)), key=names.__getitem__)
    in_key_order = itemgetter(*key_order)
    tail = (
        ', "posteriors": {'
        + ", ".join(f"{encode_basestring(names[j])}: %r" for j in key_order)
        + "}}\n"
    )
    count = 0
    with open(config.input, "rb") as handle, _output(config.out) as out:
        tweets = iter_tweets(handle, CorpusStats())
        while chunk := list(islice(tweets, _CLASSIFY_CHUNK)):
            token_lists = [run_pipeline(tweet, pipeline).tokens for tweet in chunk]
            table.build(chain.from_iterable(token_lists))
            scored = [_posteriors(table, tokens, oov_mode) for tokens in token_lists]
            out.write(
                "".join(
                    f'{{"id": {encode_basestring(tweet.id)}{heads[best]}{oov}'
                    f"{tail % in_key_order(posteriors)}"
                    for tweet, (best, posteriors, oov) in zip(chunk, scored)
                )
            )
            count += len(chunk)
    _say(f"classified {count} tweet(s)")
    return 0


def _gold_documents(config: RunConfig, pipeline):
    """Join the gold CSV against the input tweets and preprocess them."""
    from .preprocess import run_pipeline

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
    docs = []
    for tweet_id in sorted(by_id):
        item = LabeledTweet(by_id[tweet_id], gold[tweet_id], LabelSource.MANUAL)
        docs.append(run_pipeline(item, pipeline))
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


def cmd_report(config: RunConfig) -> int:
    config.require_files("input", "predictions")
    tags = _effective_hashtags(config)
    labels = _read_strict_jsonl(config.predictions, "prediction", _prediction_label)
    with open(config.input, "rb") as handle:
        tweets = iter_tweets(handle, CorpusStats())
        groups = _hashtag_rollup(((t.text, labels[t.id]) for t in tweets if t.id in labels), tags)
    # The 'all' group counts every matched tweet, and iter_tweets yields each
    # id once, so each matched tweet has a distinct prediction.
    unmatched = len(labels) - sum(groups[0][1].values())
    if unmatched:
        _say(f"{unmatched} prediction(s) reference ids missing from the corpus")
    _emit(_format_reports(groups, config.format), config.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# Settings that several commands take as flags.
_COMMON = ("input", "out", "format")
_PIPELINE = (
    "stopwords",
    "pos_lexicon",
    "stem_roots",
    "enable_stopwords",
    "enable_pos",
    "enable_stemming",
    "pos_keep_tags",
)
_HASHTAGS = ("hashtags", "hashtags_file")

# Per command: its help line and the settings it takes as flags, in the
# order --help lists them after --config.
_COMMAND_FLAGS = {
    "collect": (
        "ingest, filter, and emoticon-label tweets",
        _COMMON + _HASHTAGS + ("out_labeled", "out_unlabeled", "wordlist", "lang_threshold"),
    ),
    "train": ("preprocess a labeled corpus and train the model", _COMMON + _PIPELINE + ("model",)),
    "classify": ("classify tweets with a trained model", _COMMON + _PIPELINE + ("model", "oov")),
    "eval": (
        "score the classifier against manual gold labels",
        _COMMON + _PIPELINE + ("model", "gold", "k", "seed", "train_fraction", "oov"),
    ),
    "report": ("per-hashtag sentiment percentage rollup", _COMMON + _HASHTAGS + ("predictions",)),
}

# One help text per setting.
_FLAG_HELP = {
    "input": "input file for this command",
    "model": "model path: train writes it, classify reads it; eval without it "
    "trains on a gold split",
    "out": "output file (default: stdout)",
    "out_labeled": "labeled corpus output path",
    "out_unlabeled": "unlabeled corpus output path",
    "predictions": "predictions JSONL from the classify command",
    "gold": "gold labels CSV (header: id,label)",
    "stopwords": "stopword list file (default: bundled)",
    "pos_lexicon": "POS lexicon file (default: bundled)",
    "stem_roots": "root-word dictionary file (default: bundled)",
    "wordlist": "language wordlist file (default: bundled)",
    "hashtags_file": "hashtag set file, one tag per line",
    "hashtags": "comma-separated hashtags (without '#')",
    "lang_threshold": "minimum dictionary-word ratio to keep a tweet "
    f"(default {DEFAULT_LANG_THRESHOLD})",
    "enable_stopwords": "skip the stopword removal stage",
    "enable_pos": "enable the POS tag filter stage",
    "enable_stemming": "skip the stemming stage",
    "pos_keep_tags": "comma-separated tags kept by the POS filter (noun,verb,adj,other)",
    "train_fraction": f"training share for the holdout mode (default {DEFAULT_TRAIN_FRACTION})",
    "seed": f"shuffle seed (default {DEFAULT_SEED})",
    "k": "k-fold cross-validation, all folds scored from one count of the gold data "
    f"(default k={DEFAULT_K} when given)",
    "format": f"output format: {', '.join(FORMATS)} (default table)",
    "oov": f"unseen-token handling: {', '.join(OOV_MODES)} (default smooth)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kicaumine",
        description="Emoticon-supervised tweet sentiment mining pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, keys) in _COMMAND_FLAGS.items():
        flags = sub.add_parser(command, help=summary)
        flags.add_argument("--config", help="key=value config file; flags override it")
        for key in keys:
            default = RunConfig._defaults[key]
            if isinstance(default, bool):
                how = {"action": "store_const", "const": not default}
            elif key == "k":
                how = {"nargs": "?", "const": DEFAULT_K}
            else:
                how = {}
            flags.add_argument(flag_name(key), dest=key, help=_FLAG_HELP[key], **how)
    return parser


def _config_from_args(args) -> RunConfig:
    """The run settings of ``args``, each string value parsed as its config-file line's."""
    overrides = {}
    for key in RunConfig._fields:
        value = getattr(args, key, None)
        if isinstance(value, str):
            try:
                value = parse_setting(key, value)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        overrides[key] = value
    return build_config(config_path=args.config, **overrides)


_COMMANDS = {
    "collect": cmd_collect,
    "train": cmd_train,
    "classify": cmd_classify,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        _say(f"error: {exc}")
        return 2
    except (KicaumineError, OSError) as exc:
        _say(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
