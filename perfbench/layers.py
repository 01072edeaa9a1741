"""In-process replay of the CLI commands with a span around every layer call.

Each command is replayed by calling the public functions of the
``kicaumine`` modules in the order the command uses them. Every stage
runs over the whole corpus inside one span, so per-call overhead stays
out of the numbers. A stage that the workload switches off still gets a
span around its switch, so it reads as the cost of that check.

Spans record name, start, end, parent and a command id, and stay in
memory until the benchmark writes them out. A span's self time is its
duration minus the durations of its children. Counters are recorded at
the same boundaries, so ratios are measured where the work happens.
"""

import csv
import json
import os
import time
from collections import Counter

from kicaumine import corpus, evaluation, model, preprocess, resources, stemming

# Spans whose cost the ``setup_s`` probe (classify on an empty input)
# already contains: resource loading and model loading.
SETUP_SPANS = frozenset({"resources.load", "model.load"})

LANG_THRESHOLD = 0.5


class Tracer:
    """Spans kept in memory until the benchmark ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, command, start, end, parent]
        self._open: list[int] = []

    def span(self, name: str, command: str) -> "_Span":
        return _Span(self, name, command)

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "command": c, "start": s, "end": e, "parent": p}
            for n, c, s, e, p in self.spans
        ]


class _Span:
    __slots__ = ("tracer", "name", "command", "index")

    def __init__(self, tracer, name, command):
        self.tracer = tracer
        self.name = name
        self.command = command

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        self.index = len(tracer.spans)
        tracer._open.append(self.index)
        tracer.spans.append([self.name, self.command, 0.0, 0.0, parent])
        tracer.spans[self.index][2] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        self.tracer.spans[self.index][3] = end
        self.tracer._open.pop()
        return False


def span_cost(samples: int = 20000) -> float:
    """Measured seconds one empty span adds, for the tracing overhead."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("x", "calibration"):
            pass
    return (time.perf_counter() - start) / samples


class CheckFailed(Exception):
    """The in-process replay disagrees with the CLI's outputs."""


def _read_tweets(tr, cmd, path, counts):
    with tr.span("corpus.ingest", cmd):
        with open(path, encoding="utf-8") as handle:
            tweets, stats = corpus.ingest_jsonl(handle)
    counts["corpus.ingest_records"] += stats.total_ingested
    counts["corpus.ingest_bytes"] += os.path.getsize(path)
    return tweets, stats


def _load_pipeline(tr, cmd, workload):
    with tr.span("resources.load", cmd):
        config = preprocess.PipelineConfig(
            stopword_list=resources.load_stopwords(),
            enable_stopwords=True,
            enable_pos=workload.pos,
            pos_keep_tags=preprocess.DEFAULT_POS_KEEP_TAGS,
            enable_stemming=workload.stemming,
            pos_lexicon=resources.load_pos_lexicon(),
            root_words=resources.load_root_words(),
        )
    return config


def _preprocess(tr, cmd, items, config, counts, check):
    """Run the preprocessing chain stage by stage over all ``items``."""
    tweets = [item.tweet if isinstance(item, corpus.LabeledTweet) else item for item in items]
    with tr.span("preprocess.cleanse", cmd):
        texts = [preprocess.cleanse(t.text) for t in tweets]
    with tr.span("preprocess.case_fold", cmd):
        texts = [preprocess.case_fold(t) for t in texts]
    with tr.span("preprocess.tokenize", cmd):
        tokens = [preprocess.tokenize(t) for t in texts]
    tokens_in = sum(map(len, tokens))
    with tr.span("preprocess.stopwords", cmd):
        if config.enable_stopwords:
            tokens = [preprocess.remove_stopwords(t, config.stopword_list) for t in tokens]
    kept = sum(map(len, tokens))
    with tr.span("preprocess.pos", cmd):
        if config.enable_pos:
            keep = config.pos_keep_tags
            tokens = [
                [e.token for e in preprocess.pos_tag(t, config.pos_lexicon) if e.tag in keep]
                for t in tokens
            ]
    stem_inputs = tokens
    with tr.span("stemming.stem", cmd):
        if config.enable_stemming:
            # A fresh stemmer per command, as each CLI process starts with one.
            stemmer = stemming.ConfixStemmer(config.root_words)
            tokens = [[stemmer.stem(w) for w in t] for t in tokens]
    with tr.span("preprocess.document", cmd):
        docs = [
            preprocess.Document(
                source_id=tweet.id,
                tokens=tuple(t),
                label=item.label if isinstance(item, corpus.LabeledTweet) else None,
            )
            for item, tweet, t in zip(items, tweets, tokens)
        ]

    counts["preprocess.cleanse_chars"] += sum(len(t.text) for t in tweets)
    counts["preprocess.stopword_in"] += tokens_in
    counts["preprocess.stopword_dropped"] += tokens_in - kept
    counts["preprocess.tokens_out"] += sum(len(d.tokens) for d in docs)
    counts["preprocess.empty_docs"] += sum(1 for d in docs if d.empty)
    if config.enable_stemming:
        words = [w for t in stem_inputs for w in t]
        counts["stemming.calls"] += len(words)
        counts["stemming.distinct"] += len(set(words))
        counts["stemming.changed"] += sum(
            1 for a, b in zip(words, (w for t in tokens for w in t)) if a != b
        )
    if check:
        expected = [preprocess.run_pipeline(item, config) for item in items]
        if docs != expected:
            raise CheckFailed(f"{cmd}: staged documents differ from run_pipeline's output")
    return docs


def _score_table(tr, cmd, nb_model):
    with tr.span("model.score_table", cmd):
        model.classify(nb_model, preprocess.Document(source_id="score-table", tokens=()))


def _read_jsonl_labels(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line)["label"] for line in handle if line.strip()]


def run_sequence(tr, iteration, workload, files, tags, eval_seed, cli_outputs, check, done):
    """Replay the workload's command sequence once; return its counters.

    ``cli_outputs`` holds what the CLI wrote (stats, accuracy, report) so
    that, with ``check``, the replay is compared against it. ``done`` is
    called with each command id as soon as that command's replay ends.
    """
    counts: Counter = Counter()

    # collect
    cmd = f"{iteration}:collect"
    with tr.span("resources.load", cmd):
        wordlist = resources.load_wordlist()
    tweets, stats = _read_tweets(tr, cmd, files.export, counts)
    with tr.span("corpus.hashtag_filter", cmd):
        on_topic = corpus.filter_hashtags(tweets, tags)
    stats.rejected_hashtag += len(tweets) - len(on_topic)
    with tr.span("corpus.language_filter", cmd):
        indonesian, delta = corpus.filter_language(on_topic, wordlist, LANG_THRESHOLD)
    stats.add(delta)
    with tr.span("corpus.label", cmd):
        labeled, unlabeled, delta = corpus.distant_label(indonesian)
    stats.add(delta)
    counts["corpus.kept"] += len(labeled) + len(unlabeled)
    counts["corpus.total"] += stats.total_ingested
    if check and stats.as_dict() != cli_outputs["stats"]:
        raise CheckFailed("collect: staged corpus stats differ from the CLI's")

    done(cmd)

    # train
    cmd = f"{iteration}:train"
    config = _load_pipeline(tr, cmd, workload)
    docs = [d for d in _preprocess(tr, cmd, labeled, config, counts, check) if not d.empty]
    with tr.span("model.train", cmd):
        trained = model.train(docs)
    with tr.span("model.save", cmd):
        model.save_model(trained, files.traced_model)
    counts["model.vocab_size"] += len(trained.vocabulary)
    counts["model.bytes"] += os.path.getsize(files.traced_model)
    if check and files.traced_model.read_bytes() != files.model.read_bytes():
        raise CheckFailed("train: staged model differs from the CLI's model file")

    done(cmd)

    # classify
    cmd = f"{iteration}:classify"
    config = _load_pipeline(tr, cmd, workload)
    with tr.span("model.load", cmd):
        loaded = model.load_model(files.model)
    tweets, _ = _read_tweets(tr, cmd, files.unlabeled, counts)
    docs = _preprocess(tr, cmd, tweets, config, counts, check)
    _score_table(tr, cmd, loaded)
    with tr.span("model.classify", cmd):
        predictions = [model.classify(loaded, d) for d in docs]
    counts["model.oov_tokens"] += sum(p.oov_tokens for p in predictions)
    counts["model.scored_tokens"] += sum(len(d.tokens) for d in docs)
    if check and [p.label.value for p in predictions] != _read_jsonl_labels(files.predictions):
        raise CheckFailed("classify: staged labels differ from the CLI's prediction file")

    done(cmd)

    # report
    cmd = f"{iteration}:report"
    tweets, _ = _read_tweets(tr, cmd, files.unlabeled, counts)
    with tr.span("evaluation.report", cmd):
        reports = evaluation.sentiment_report(list(zip(tweets, predictions)), tags)
    if check:
        got = {r.group_key: {lab.value: n for lab, n in r.counts.items()} for r in reports}
        if got != cli_outputs["report"]:
            raise CheckFailed("report: staged group counts differ from the CLI's report")

    done(cmd)

    # eval
    cmd = f"{iteration}:eval"
    config = _load_pipeline(tr, cmd, workload)
    tweets, _ = _read_tweets(tr, cmd, files.export, counts)
    with open(files.gold, encoding="utf-8", newline="") as handle:
        gold = {row["id"]: corpus.SentimentLabel(row["label"]) for row in csv.DictReader(handle)}
    by_id = {t.id: t for t in tweets}
    items = [
        corpus.LabeledTweet(by_id[i], gold[i], corpus.LabelSource.MANUAL)
        for i in sorted(gold)
        if i in by_id
    ]
    docs = _preprocess(tr, cmd, items, config, counts, check)
    accuracy = None
    with tr.span("evaluation.k_fold", cmd):
        if workload.k >= 2:
            accuracies = []
            for train_docs, test_docs in evaluation.k_fold(docs, workload.k, eval_seed):
                with tr.span("model.train", cmd):
                    fold_model = model.train([d for d in train_docs if not d.empty])
                _score_table(tr, cmd, fold_model)
                test_docs = [d for d in test_docs if d.label in fold_model.labels]
                with tr.span("evaluation.evaluate", cmd):
                    metrics = evaluation.evaluate(fold_model, test_docs)
                accuracies.append(metrics.accuracy)
            accuracy = sum(accuracies) / len(accuracies)
    if accuracy is None:
        with tr.span("model.load", cmd):
            loaded = model.load_model(files.model)
        _score_table(tr, cmd, loaded)
        gold_docs = [d for d in docs if d.label in loaded.labels]
        with tr.span("evaluation.evaluate", cmd):
            accuracy = evaluation.evaluate(loaded, gold_docs).accuracy
    if check and accuracy != cli_outputs["accuracy"]:
        raise CheckFailed("eval: staged accuracy differs from the CLI's")
    done(cmd)
    return counts
