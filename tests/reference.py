"""A plain, slow reference of every command's data outputs, written from README.md.

It imports nothing from ``kicaumine`` and reads the bundled word files
itself. Each rule is spelled out the simplest way README states it: no
memo, no lookup tables, no shortcut, no streaming. ``expected_outputs``
runs a whole export through collect -> train -> classify -> report ->
eval and returns the exit status and the exact bytes of every file and
of every ``--format json`` stdout; ``tests/test_reference.py`` compares
the package's runs with it. The per-layer functions (``read_export``,
``in_language``, ``cleanse``, ``case_fold``, ``tokens``, ``stem``,
``nb_model``, ``class_scores``, ``fold_accuracies``, ``rollup``) are
also the expected values of the other tests' hand-picked cases.

A refusal is ``Refused(status)``: only the exit status is modelled here.
The diagnostics' texts are pinned by ``tests/test_diagnostics.py``.
"""

import csv
import io
import json
import math
import random
from functools import cache
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "src" / "kicaumine" / "data"

LABELS = ("negative", "positive", "neutral")  # the fixed label order
STATS_FIELDS = (
    "total_ingested", "rejected_malformed", "rejected_hashtag", "rejected_language",
    "rejected_ambiguous_emoticon", "labeled_positive", "labeled_negative", "unlabeled",
    "flagged_overlong",
)
TWEET_CHAR_LIMIT = 140
URL_MARKERS = ("http://", "https://", "www.")
# The tags the POS filter keeps by default, as `--help` names them.
POS_KEEP = frozenset({"noun", "verb", "adj", "other"})

PARTICLES = ("lah", "kah", "pun")
POSSESSIVES = ("nya", "ku", "mu")
SUFFIXES = ("kan", "an", "i")
# (prefix, the consonant a nasal prefix elides before a vowel), longest first.
PREFIXES = (
    ("meng", "k"), ("meny", "s"), ("peng", "k"), ("peny", "s"),
    ("mem", "p"), ("men", "t"), ("pem", "p"), ("pen", "t"), ("ber", None), ("ter", None),
    ("me", None), ("pe", None), ("di", None), ("ke", None), ("se", None),
)
MIN_STEM = 2
MAX_PREFIXES = 3


class Refused(Exception):
    """A command stops with exit status ``status`` and writes nothing more."""

    def __init__(self, status):
        super().__init__(status)
        self.status = status


# -- word files -----------------------------------------------------------


def word_entries(name):
    """A bundled word file's entries, lowercased: trimmed lines, comments and blanks skipped."""
    text = (DATA / name).read_text(encoding="utf-8-sig")
    entries = [line.strip().lower() for line in text.split("\n")]
    return [entry for entry in entries if entry and not entry.startswith("#")]


@cache
def word_set(name):
    return frozenset(word_entries(name))


@cache
def pos_lexicon():
    """Word -> tag; of two lines naming one word the later wins."""
    pairs = (entry.partition("\t") for entry in word_entries("pos_lexicon_id.tsv"))
    return {word: tag.strip() for word, _, tag in pairs}


# -- tweet exports and collect --------------------------------------------


def read_export(data: bytes):
    """The accepted ``(id, text, created_at, lang)`` rows of an export, and its stats."""
    stats = dict.fromkeys(STATS_FIELDS, 0)
    rows, seen = [], set()
    for raw in data.removeprefix(b"\xef\xbb\xbf").split(b"\n"):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            stats["total_ingested"] += 1
            stats["rejected_malformed"] += 1
            continue
        if not line:
            continue
        stats["total_ingested"] += 1
        row = _tweet_row(line)
        if row is None or row[0] in seen:
            stats["rejected_malformed"] += 1
            continue
        seen.add(row[0])
        if len(row[1]) > TWEET_CHAR_LIMIT:
            stats["flagged_overlong"] += 1
        rows.append(row)
    return rows, stats


def _tweet_row(line):
    try:
        record = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if not isinstance(record, dict):
        return None
    tweet_id, text = record.get("id"), record.get("text")
    if not (isinstance(tweet_id, str) and tweet_id and isinstance(text, str) and text.strip()):
        return None
    created_at, lang = (record.get(key) for key in ("created_at", "lang"))
    created_at = created_at if isinstance(created_at, str) else None
    lang = lang if isinstance(lang, str) else None
    try:
        (tweet_id + text + (created_at or "") + (lang or "")).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which no output can hold
        return None
    return tweet_id, text, created_at, lang


def hashtags(tags, reserved=None):
    """Tracked tags, lowercased without '#', sorted; ``Refused(2)`` on an empty or reserved one."""
    normalized = sorted({tag.lstrip("#").lower() for tag in tags})
    if "" in normalized or reserved in normalized:
        raise Refused(2)
    return normalized


def in_language(text, words, threshold):
    """At least ``threshold`` of the lowercased text's letter-only words are in ``words``."""
    letter_words = [word for word in text.lower().split() if word.isalpha()]
    if not letter_words:
        return False
    hits = sum(1 for word in letter_words if word in words)
    return hits / len(letter_words) >= threshold


def emoticon_outcome(text):
    if ":)" in text and ":(" in text:
        return "rejected_ambiguous_emoticon"
    if ":)" in text:
        return "labeled_positive"
    return "labeled_negative" if ":(" in text else "unlabeled"


def json_line(record):
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


def collect(export: bytes, tags, threshold, words=None):
    """The labeled and unlabeled files' bytes and the stats dict of ``collect``.

    ``words`` is the language test's wordlist, the bundled one by default.
    """
    rows, stats = read_export(export)
    if not rows:
        raise Refused(1)
    needles = ["#" + tag for tag in hashtags(tags)]
    words = word_set("wordlist_id.txt") if words is None else words
    if not words:
        raise Refused(2)
    labeled, unlabeled = [], []
    for row in rows:
        text = row[1]
        if not any(needle in text.lower() for needle in needles):
            stats["rejected_hashtag"] += 1
        elif not in_language(text, words, threshold):
            stats["rejected_language"] += 1
        else:
            outcome = emoticon_outcome(text)
            stats[outcome] += 1
            fields = zip(("id", "text", "created_at", "lang"), row)
            record = {key: value for key, value in fields if value is not None}
            if outcome == "unlabeled":
                unlabeled.append(json_line(record))
            elif outcome != "rejected_ambiguous_emoticon":
                label = outcome.removeprefix("labeled_")
                labeled.append(json_line({**record, "label": label, "label_source": "distant"}))
    return "".join(labeled).encode(), "".join(unlabeled).encode(), stats


# -- preprocessing ----------------------------------------------------------


def cut_at_url(word):
    cuts = [at for at in (word.find(marker) for marker in URL_MARKERS) if at != -1]
    return word[: min(cuts)] if cuts else word


def cleanse_word(word):
    word = cut_at_url(word)
    at = word.find("@")
    if at != -1 and at < len(word) - 1:
        word = word[:at]
    word = word.replace("#", "")
    while ":)" in word or ":(" in word:
        word = word.replace(":)", "").replace(":(", "")
    return cut_at_url(word)


def cleansed_words(text):
    """The text's words, cleansed, without the empty ones and the leading ``RT`` ones."""
    words = [word for word in map(cleanse_word, text.split()) if word]
    start = 0
    while start < len(words) and words[start] == "RT":
        start += 1
    return words[start:]


def cleanse(text):
    return " ".join(cleansed_words(text))


def fold(text):
    """Lowercase, every non-letter a delimiter: the maximal runs of letters."""
    return "".join(char if char.isalpha() else " " for char in text.lower()).split()


def case_fold(text):
    return " ".join(fold(text))


def tokens(text, use_stopwords=True, use_pos=False, use_stemming=True):
    """The tokens of a tweet's text, the chain run word by word."""
    out = []
    for word in cleansed_words(text):
        for token in fold(word):
            if use_stopwords and token in word_set("stopwords_id.txt"):
                continue
            if use_pos and pos_lexicon().get(token, "other") not in POS_KEEP:
                continue
            out.append(stem(token) if use_stemming else token)
    return tuple(out)


def stem(word, roots=None):
    """The dictionary root of ``word``, or ``word``: particles, possessives,
    suffixes, then up to three prefixes, each stripped and then intact."""
    roots = word_set("root_words_id.txt") if roots is None else roots
    if word in roots:
        return word
    return _after_ending(word, 0, roots) or word


def _after_ending(word, stage, roots):
    stages = (PARTICLES, POSSESSIVES, SUFFIXES)
    if stage == len(stages):
        return _after_prefix(word, MAX_PREFIXES, roots)
    for ending in stages[stage]:
        if word.endswith(ending) and len(word) - len(ending) >= MIN_STEM:
            stripped = word[: -len(ending)]
            if stripped in roots:
                return stripped
            found = _after_ending(stripped, stage + 1, roots)
            if found:
                return found
            break
    return _after_ending(word, stage + 1, roots)


def _after_prefix(word, strips, roots):
    for prefix, elided in PREFIXES:
        rest = word[len(prefix) :]
        if not word.startswith(prefix) or len(rest) < MIN_STEM:
            continue
        candidates = [rest]
        if elided and rest[0] in "aeiou":
            candidates.append(elided + rest)
        for candidate in candidates:
            if candidate in roots:
                return candidate
        if strips > 1:
            for candidate in candidates:
                found = _after_prefix(candidate, strips - 1, roots)
                if found:
                    return found
    return None


# -- Naive Bayes --------------------------------------------------------------


def nb_model(pairs):
    """The model payload counted from ``(label, tokens)`` pairs; empty ones skipped."""
    docs, counts = {}, {}
    for label, doc_tokens in pairs:
        if not doc_tokens:
            continue
        docs[label] = docs.get(label, 0) + 1
        class_counts = counts.setdefault(label, {})
        for token in doc_tokens:
            class_counts[token] = class_counts.get(token, 0) + 1
    labels = [label for label in LABELS if label in docs]
    if len(labels) < 2:
        raise Refused(1)
    return {
        "alpha": 1,
        "docs_per_class": {label: docs[label] for label in labels},
        "labels": labels,
        "schema_version": 1,
        "token_counts": {label: counts[label] for label in labels},
        "tokens_per_class": {label: sum(counts[label].values()) for label in labels},
    }


def model_bytes(model):
    return (json.dumps(model, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode()


def class_scores(docs, class_tokens, vocabulary_size, counts, vocabulary, doc_tokens, skip_oov):
    """Per-class log scores of ``doc_tokens`` and their OOV count.

    Per class: the log prior, then the OOV term, then each distinct known
    token's count times its log likelihood, in first-occurrence order.
    """
    occurrences = {}
    for token in doc_tokens:
        occurrences[token] = occurrences.get(token, 0) + 1
    oov = sum(n for token, n in occurrences.items() if token not in vocabulary)
    scores = []
    for j in range(len(docs)):
        score = log_prior(docs[j], sum(docs))
        if oov and not skip_oov:
            score += oov * log_likelihood(0, class_tokens[j], vocabulary_size)
        for token, n in occurrences.items():
            if token in vocabulary:
                score += n * log_likelihood(
                    counts[j].get(token, 0), class_tokens[j], vocabulary_size
                )
        scores.append(score)
    return scores, oov


def log_prior(class_docs, total_docs):
    return math.log(class_docs / total_docs)


def log_likelihood(count, class_tokens, vocabulary_size):
    """A token's add-one smoothed log likelihood; an unseen token's ``count`` is 0."""
    return math.log((count + 1) / (class_tokens + vocabulary_size))


def model_scores(model, doc_tokens, oov_mode):
    labels = model["labels"]
    vocabulary = set().union(*(model["token_counts"][label] for label in labels))
    return class_scores(
        [model["docs_per_class"][label] for label in labels],
        [model["tokens_per_class"][label] for label in labels],
        len(vocabulary),
        [model["token_counts"][label] for label in labels],
        vocabulary,
        doc_tokens,
        oov_mode == "skip",
    )


def best(scores):
    """Index of the highest score; exact ties go to the earliest."""
    return scores.index(max(scores))


def posteriors(scores):
    weights = [math.exp(score - scores[best(scores)]) for score in scores]
    return [weight / sum(weights) for weight in weights]


def predict(model, doc_tokens, oov_mode):
    return model["labels"][best(model_scores(model, doc_tokens, oov_mode)[0])]


def metrics(model, gold, oov_mode):
    """``eval``'s JSON value for ``(label, tokens)`` pairs whose labels the model has."""
    labels = model["labels"]
    confusion = {g: {p: 0 for p in labels} for g in labels}
    for label, doc_tokens in gold:
        confusion[label][predict(model, doc_tokens, oov_mode)] += 1
    per_class = {}
    for label in labels:
        tp = confusion[label][label]
        predicted = sum(confusion[g][label] for g in labels)
        actual = sum(confusion[label].values())
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = {"precision": precision, "recall": recall, "f1": f1}
    accuracy = sum(confusion[label][label] for label in labels) / len(gold)
    return {"n_test": len(gold), "accuracy": accuracy, "confusion": confusion,
            "per_class": per_class}


def shuffled(pairs, seed):
    ordered = list(pairs)
    random.Random(seed).shuffle(ordered)
    return ordered


def fold_accuracies(pairs, k, seed, oov_mode, on_fold=None):
    """Each fold's accuracy, its model retrained on the other folds' documents.

    ``pairs`` are in id order. ``on_fold(number, labels, test pairs with
    their scores, skipped)`` is called for each fold before it is scored.
    """
    if not 2 <= k <= len(pairs):
        raise Refused(1)
    ordered = shuffled(pairs, seed)
    accuracies = []
    start = 0
    for i in range(k):
        stop = start + len(pairs) // k + (1 if i < len(pairs) % k else 0)
        test = ordered[start:stop]
        model = nb_model(ordered[:start] + ordered[stop:])
        usable = [pair for pair in test if pair[0] in model["labels"]]
        if on_fold is not None:
            scored = [(label, doc, model_scores(model, doc, oov_mode)) for label, doc in usable]
            on_fold(i + 1, tuple(model["labels"]), scored, len(test) - len(usable))
        if not usable:
            raise Refused(1)
        correct = sum(predict(model, doc, oov_mode) == label for label, doc in usable)
        accuracies.append(correct / len(usable))
        start = stop
    return accuracies


# -- report --------------------------------------------------------------------


def rollup(labeled_texts, tags):
    """``report``'s JSON value: label counts and shares for 'all', then each tag."""
    tags = hashtags(tags, reserved="all")
    groups = [("all", lambda lowered: True)]
    if labeled_texts:
        groups += [(tag, lambda lowered, tag=tag: "#" + tag in lowered) for tag in tags]
    value = []
    for key, holds in groups:
        counts = dict.fromkeys(LABELS, 0)
        for text, label in labeled_texts:
            if holds(text.lower()):
                counts[label] += 1
        total = sum(counts.values())
        shares = {label: counts[label] / total for label in LABELS} if total else {}
        value.append({"group": key, "total": total, "counts": counts, "percentages": shares})
    return value


# -- the commands, end to end ---------------------------------------------------


def read_gold(data: bytes):
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise Refused(2) from None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or [cell.strip() for cell in rows[0]] != ["id", "label"]:
        raise Refused(2)
    gold = {}
    for row in rows[1:]:
        if not row:
            continue
        tweet_id = row[0].strip()
        label = row[1].strip().lower() if len(row) > 1 else ""
        if not tweet_id or tweet_id in gold or label not in LABELS:
            raise Refused(2)
        gold[tweet_id] = label
    if not gold:
        raise Refused(1)
    return gold


def summary(value):
    """A command's ``--format json`` stdout."""
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


def _status(step, outputs, key):
    """Run ``step`` for the command ``key``: its status goes to ``outputs``."""
    try:
        result = step()
    except Refused as refusal:
        outputs[key] = refusal.status
        return None
    outputs[key] = 0
    return result


def expected_outputs(export: bytes, gold: bytes, flags: dict) -> dict:
    """The exit status and output bytes of each command on ``export`` and ``gold``.

    ``flags`` holds ``tags``, ``threshold``, ``stopwords``, ``pos``,
    ``stemming``, ``oov``, ``seed``, ``train_fraction`` and ``k``. Keys
    are those of ``tests/test_reference.py``'s runs; a command that a
    failed one feeds is not run, and a file it would write is None.
    """
    out = {}
    use = (flags["stopwords"], flags["pos"], flags["stemming"])
    oov = flags["oov"]
    collected = _status(lambda: collect(export, flags["tags"], flags["threshold"]), out, "collect")
    out["labeled"], out["unlabeled"], stats = collected or (None, None, None)
    out["collect.stdout"] = summary(stats) if collected else b""
    if not collected:
        return out

    def train():
        rows = [json.loads(line) for line in out["labeled"].decode().split("\n") if line]
        if not rows:
            raise Refused(1)
        return nb_model((row["label"], tokens(row["text"], *use)) for row in rows)

    model = _status(train, out, "train")
    out["train.stdout"], out["model"] = b"", model_bytes(model) if model else None
    if model:
        predicted = {}
        lines = []
        for tweet_id, text, _, _ in read_export(out["unlabeled"])[0]:
            scores, n_oov = model_scores(model, tokens(text, *use), oov)
            label = model["labels"][best(scores)]
            predicted[tweet_id] = (text, label)
            shares = dict(zip(model["labels"], posteriors(scores)))
            lines.append(
                json_line({"id": tweet_id, "label": label, "oov_tokens": n_oov, "posteriors": shares})
            )
        out["classify"], out["classify.stdout"] = 0, b""
        out["predictions"] = "".join(lines).encode()
        value = _status(lambda: rollup(list(predicted.values()), flags["tags"]), out, "report")
        out["report.stdout"] = summary(value) if value is not None else b""

    def gold_pairs():
        labels = read_gold(gold)
        rows, stats = read_export(export)
        if stats["total_ingested"] == stats["rejected_malformed"]:
            raise Refused(1)
        texts = {tweet_id: text for tweet_id, text, _, _ in rows if tweet_id in labels}
        if not texts:
            raise Refused(1)
        return [(labels[tweet_id], tokens(texts[tweet_id], *use)) for tweet_id in sorted(texts)]

    def by_model():
        test = [pair for pair in gold_pairs() if pair[0] in model["labels"]]
        if not test:
            raise Refused(1)
        return metrics(model, test, oov)

    def holdout():
        usable = [pair for pair in gold_pairs() if pair[1]]
        if len(usable) < 2:
            raise Refused(1)
        ordered = shuffled(usable, flags["seed"])
        cut = round(flags["train_fraction"] * len(ordered))
        if cut < 1 or cut >= len(ordered):
            raise Refused(1)
        holdout_model = nb_model(ordered[:cut])
        test = [pair for pair in ordered[cut:] if pair[0] in holdout_model["labels"]]
        if not test:
            raise Refused(1)
        return metrics(holdout_model, test, oov)

    def k_fold():
        k, seed = flags["k"], flags["seed"]
        accuracies = fold_accuracies(gold_pairs(), k, seed, oov)
        return {"k": k, "seed": seed, "fold_accuracies": accuracies,
                "mean_accuracy": sum(accuracies) / k,
                "min_accuracy": min(accuracies), "max_accuracy": max(accuracies)}

    modes = {"eval-holdout": holdout, "eval-k": k_fold}
    if model:
        modes = {"eval-model": by_model, **modes}
    for key, mode in modes.items():
        value = _status(mode, out, key)
        out[f"{key}.stdout"] = summary(value) if value is not None else b""
    return out
