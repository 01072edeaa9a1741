"""A plain, slow reference of every command, written from README.md.

It imports nothing from ``kicaumine`` and reads the bundled word files
itself. Each rule is spelled out the simplest way README states it: no
memo, no lookup tables, no shortcut, no streaming. ``run`` takes one
command line and the bytes of the files it names, and returns its exit
status and the exact bytes of its stdout and stderr, storing the files
it writes; ``tests/test_reference.py`` runs the same command lines
through the package and compares. The per-layer functions
(``read_export``, ``in_language``, ``cleanse``, ``case_fold``,
``tokens``, ``stem``, ``class_counts``, ``nb_model``, ``class_scores``,
``fold_accuracies``, ``rollup``, and the strict readers ``labeled_row``,
``prediction_label``, ``read_gold``, ``int_counts`` and
``table_problem``) are also the expected values of the other tests'
hand-picked cases.

A refusal is ``Refused(status, message)``: the command prints
``error: <message>`` and exits with ``status``. Where README gives a
reason as a standard-library exception's text, the reference makes the
call README names and passes its text on.
"""

import csv
import io
import json
import math
import random
from enum import Enum
from functools import cache, reduce
from operator import add
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
    """A command stops with ``error: <message>`` and exit status ``status``,
    and writes nothing more."""

    def __init__(self, status, message):
        super().__init__(status, message)
        self.status, self.message = status, message


class SentimentLabel(Enum):
    """The label names. A lookup of any other value raises Enum's ValueError,
    whose text README's strict readers pass on."""

    NEGATIVE = "negative"
    POSITIVE = "positive"
    NEUTRAL = "neutral"


class LabelSource(Enum):
    DISTANT = "distant"
    MANUAL = "manual"


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
    """Tracked tags, lowercased without '#', sorted; a reserved, then an empty one is refused."""
    normalized = sorted({tag.lstrip("#").lower() for tag in tags})
    if reserved in normalized:
        raise Refused(2, f"hashtag {reserved!r} collides with the total group")
    if "" in normalized:
        raise Refused(2, "hashtag entries must be non-empty")
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


def collect(export: bytes, path, tags, threshold, words=None):
    """The labeled and unlabeled files' bytes and the stats dict of ``collect``
    on the export ``export`` read from ``path``.

    ``words`` is the language test's wordlist, the bundled one by default.
    """
    rows, stats = read_export(export)
    if not rows:
        raise Refused(1, f"no valid tweets in {path}")
    needles = ["#" + tag for tag in hashtags(tags)]
    words = word_set("wordlist_id.txt") if words is None else words
    if not words:
        raise Refused(2, "language wordlist must not be empty")
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


def class_counts(pairs):
    """Per label of the non-empty ``(label, tokens)`` pairs: documents, tokens, and
    each token's count; labels and tokens in the order they are first seen."""
    docs, counts = {}, {}
    for label, doc_tokens in pairs:
        if not doc_tokens:
            continue
        docs[label] = docs.get(label, 0) + 1
        label_counts = counts.setdefault(label, {})
        for token in doc_tokens:
            label_counts[token] = label_counts.get(token, 0) + 1
    return docs, {label: sum(n.values()) for label, n in counts.items()}, counts


def nb_model(pairs):
    """The model payload counted from ``(label, tokens)`` pairs; empty ones skipped."""
    docs, tokens_per_class, counts = class_counts(pairs)
    if not docs:
        raise Refused(1, "no documents to train on")
    labels = [label for label in LABELS if label in docs]
    if len(labels) < 2:
        raise Refused(1, f"training needs at least two classes, got {labels}")
    return {
        "alpha": 1,
        "docs_per_class": {label: docs[label] for label in labels},
        "labels": labels,
        "schema_version": 1,
        "token_counts": {label: counts[label] for label in labels},
        "tokens_per_class": {label: tokens_per_class[label] for label in labels},
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
    return [weight / reduce(add, weights) for weight in weights]


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
    if k < 2:
        raise Refused(1, f"k must be at least 2, got {k}")
    if k > len(pairs):
        raise Refused(1, f"k={k} exceeds the {len(pairs)} available documents")
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
            raise Refused(1, f"fold {i + 1} has no evaluable test documents")
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


# -- the strict readers ----------------------------------------------------------


def decode_json(line):
    """The JSON value of ``line``: ``json.JSONDecoder().raw_decode``, which must
    end at the line's end; nesting past the recursion limit is a ValueError."""
    try:
        value, end = json.JSONDecoder().raw_decode(line)
    except RecursionError:
        raise ValueError("JSON value nested too deeply") from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return value


def read_strict(data: bytes, path, kind, parse):
    """``{id: parse(record)}`` of a labeled-corpus or predictions file, in file order.

    A bad line is refused with status 2 naming ``path:line``: the text of
    the KeyError, TypeError, ValueError or OverflowError that reading it
    raises, or its id's repetition.
    """
    parsed = {}
    for number, raw in enumerate(data.split(b"\n"), start=1):
        if number == 1:
            raw = raw.removeprefix(b"\xef\xbb\xbf")
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
                raise Refused(2, f"{path}:{number}: duplicate {kind} id {record['id']!r}")
            parsed[record["id"]] = parse(record)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise Refused(2, f"{path}:{number}: bad {kind} record: {exc}") from None
    return parsed


def labeled_row(record):
    """``(text, label)`` of a labeled-corpus record, checked in README's order."""
    tweet_id, text = record["id"], record["text"]
    if not isinstance(text, str):
        raise TypeError(f"tweet text must be a str, got {type(text).__name__}")
    if not tweet_id:
        raise ValueError("tweet id must be non-empty")
    if not text.strip():
        raise ValueError(f"tweet {tweet_id!r} has empty text")
    label = SentimentLabel(record["label"]).value
    source = LabelSource(record.get("label_source", "manual")).value
    if (source, label) == ("distant", "neutral"):
        raise ValueError("distant supervision cannot produce neutral labels")
    return text, label


def prediction_label(record):
    """The label of a predictions record, once each field converts as README states."""
    shares = record.get("posteriors", {})
    if not isinstance(shares, dict):
        raise TypeError("posteriors must be a JSON object")
    label = SentimentLabel(record["label"]).value
    for name, share in shares.items():
        SentimentLabel(name)
        float(share)
    int(record.get("oov_tokens", 0))
    return label


def read_gold(data: bytes, path):
    """``{id: label}`` of a gold CSV: the whole file decoded as ``utf-8-sig``, then
    read by ``csv.reader`` over ``io.StringIO(text, newline="")``."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise Refused(2, f"gold file {path} is not UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))

    def refusal(problem):
        return Refused(2, f"{path}:{reader.line_num}: {problem}")

    gold = {}
    try:
        header = next(reader, None)
        if header is None or [name.strip() for name in header] != ["id", "label"]:
            raise Refused(2, f"gold file {path} must have the header 'id,label'")
        for row in reader:
            if not row:
                continue
            tweet_id = row[0].strip()
            label = row[1].strip().lower() if len(row) > 1 else ""
            if not tweet_id:
                raise refusal("empty gold id")
            if tweet_id in gold:
                raise refusal(f"duplicate gold id {tweet_id!r}")
            if label not in LABELS:
                raise refusal(f"unknown gold label {label!r} for id {tweet_id!r}")
            gold[tweet_id] = label
    except csv.Error as exc:
        raise refusal(f"bad gold CSV: {exc}") from None
    if not gold:
        raise Refused(1, f"gold file {path} has no rows")
    return gold


def load_model(data: bytes):
    """The payload of a model file, checked in README's order; a fault is refused with status 1."""
    try:
        payload = decode_json(data.decode("utf-8").strip(" \t\n\r"))
    except ValueError as exc:
        raise Refused(1, f"model file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise Refused(1, "model file must hold a JSON object")
    version = payload.get("schema_version")
    if type(version) is not int or version != 1:
        raise Refused(1, f"unsupported model schema version {version!r} (expected 1)")
    try:
        labels = [SentimentLabel(name).value for name in payload["labels"]]
        docs = {SentimentLabel(name).value: n
                for name, n in int_counts(payload["docs_per_class"], "docs_per_class").items()}
        counts = {SentimentLabel(name).value: int_counts(table, "token_counts")
                  for name, table in payload["token_counts"].items()}
        totals = {SentimentLabel(name).value: n for name, n
                  in int_counts(payload["tokens_per_class"], "tokens_per_class").items()}
        alpha = payload.get("alpha", 1)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise Refused(1, f"model file is malformed: {exc}") from None
    if type(alpha) is not int:
        raise Refused(1, f"alpha must be an integer, got {alpha!r}")
    if alpha != 1:
        raise Refused(1, "model file is inconsistent: smoothing constant is fixed at 1")
    problem = table_problem(labels, docs, counts)
    if problem:
        raise Refused(1, f"model file is inconsistent: {problem}")
    if totals != {label: sum(counts[label].values()) for label in labels}:
        raise Refused(1, "stored per-class token totals do not match token counts")
    return {"labels": labels, "docs_per_class": docs, "token_counts": counts,
            "tokens_per_class": totals}


def int_counts(counts, field):
    """``counts`` once each of its values is exactly an int (JSON ``true`` is not)."""
    for count in counts.values():
        if type(count) is not int:
            raise Refused(1, f"{field} holds a non-integer count {count!r}")
    return counts


def table_problem(labels, docs, counts):
    """The first fault README lists for a model's labels and count tables, or None."""
    if len(labels) < 2:
        return "a model needs at least two labels"
    if len(set(labels)) != len(labels):
        return "duplicate labels"
    if set(docs) != set(labels):
        return "docs_per_class must cover exactly the model labels"
    if set(counts) != set(labels):
        return "token_counts must cover exactly the model labels"
    for label in labels:
        if docs[label] < 1:
            return f"label {label} has no documents"
        for token, count in counts[label].items():
            if not token or count < 1:
                return f"bad count for token {token!r} in class {label}"
    if not any(counts[label] for label in labels):
        return "empty vocabulary"
    return None


# -- the commands ------------------------------------------------------------------

DEFAULT_FLAGS = {
    "--hashtags": "pilgubjabar,ridwankamil,deddymizwar,dedimulyadi,pilkadajabar",
    "--lang-threshold": "0.5", "--oov": "smooth", "--seed": "42", "--train-fraction": "0.8",
    "--k": "0", "--format": "table",
}
TOGGLES = ("--disable-stopwords", "--enable-pos", "--disable-stemming")
MAX_SHOWN_IDS = 10


def run(argv, files: dict):
    """The exit status, stdout and stderr bytes of the command line ``argv``.

    ``files`` maps each path to the bytes it holds: the command reads its
    inputs from it and stores the files it writes in it. Flags are read as
    ``--flag value``, the toggles alone; ``--out`` is read by ``classify``
    only. stdout is modelled for ``--format json`` and for predictions
    printed without ``--out``; for another format it is None.
    """
    command, args = argv[0], list(argv[1:])
    flags = dict(DEFAULT_FLAGS)
    while args:
        flag = args.pop(0)
        flags[flag] = True if flag in TOGGLES else args.pop(0)
    lines = []
    try:
        missing = [f"{flag[2:]}: no such file: {flags[flag]}"
                   for flag in _inputs(command, flags) if flags[flag] not in files]
        if missing:
            raise Refused(2, "; ".join(missing))
        status, stdout = 0, COMMANDS[command](flags, files, lines.append)
    except Refused as refusal:
        status, stdout = refusal.status, b""
        lines.append(f"error: {refusal.message}")
    return status, stdout, "".join(line + "\n" for line in lines).encode()


def _inputs(command, flags):
    """The flags naming the files ``command`` reads, in the order a missing one is reported."""
    if command == "eval":
        by_model = "--model" in flags and not int(flags["--k"])
        return ("--input", "--gold", "--model") if by_model else ("--input", "--gold")
    return {"classify": ("--input", "--model"), "report": ("--input", "--predictions")}.get(
        command, ("--input",))


def summary(value, flags):
    """A command's stdout for ``value``: its JSON under ``--format json``."""
    if flags["--format"] != "json":
        return None
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode()


def _use(flags):
    """The stopword, POS and stemming toggles of ``tokens``."""
    return ("--disable-stopwords" not in flags, "--enable-pos" in flags,
            "--disable-stemming" not in flags)


def collect_command(flags, files, say):
    path = flags["--input"]
    labeled, unlabeled, stats = collect(
        files[path], path, flags["--hashtags"].split(","), float(flags["--lang-threshold"])
    )
    files[flags["--out-labeled"]], files[flags["--out-unlabeled"]] = labeled, unlabeled
    n_labeled = stats["labeled_positive"] + stats["labeled_negative"]
    say(f"collected {n_labeled} labeled and {stats['unlabeled']} unlabeled tweets")
    return summary(stats, flags)


def train_command(flags, files, say):
    path = flags["--input"]
    rows = read_strict(files[path], path, "labeled-corpus", labeled_row)
    if not rows:
        raise Refused(1, f"no labeled tweets in {path}")
    pairs = nonempty([(label, text) for text, label in rows.values()], flags, say)
    model = nb_model(pairs)
    files[flags["--model"]] = model_bytes(model)
    say(f"trained on {len(pairs)} documents over {'/'.join(model['labels'])};"
        f" model written to {flags['--model']}")
    return b""


def classify_command(flags, files, say):
    model = load_model(files[flags["--model"]])
    lines = []
    rows = read_export(files[flags["--input"]])[0]
    for tweet_id, text, _, _ in rows:
        scores, n_oov = model_scores(model, tokens(text, *_use(flags)), flags["--oov"])
        shares = dict(zip(model["labels"], posteriors(scores)))
        label = model["labels"][best(scores)]
        lines.append(json_line({"id": tweet_id, "label": label, "oov_tokens": n_oov,
                                "posteriors": shares}))
    say(f"classified {len(rows)} tweet(s)")
    predictions = "".join(lines).encode()
    if "--out" not in flags:
        return predictions
    files[flags["--out"]] = predictions
    return b""


def report_command(flags, files, say):
    path = flags["--predictions"]
    labels = read_strict(files[path], path, "prediction", prediction_label)
    tweets = read_export(files[flags["--input"]])[0]
    matched = [(text, labels[tweet_id]) for tweet_id, text, _, _ in tweets if tweet_id in labels]
    value = rollup(matched, flags["--hashtags"].split(","))
    if len(labels) > len(matched):
        say(f"{len(labels) - len(matched)} prediction(s) reference ids missing from the corpus")
    return summary(value, flags)


def nonempty(labeled_texts, flags, say):
    """``(label, tokens)`` of each ``(label, text)`` whose tokens are not empty;
    the others are dropped and counted in one line."""
    pairs = [(label, tokens(text, *_use(flags))) for label, text in labeled_texts]
    kept = [pair for pair in pairs if pair[1]]
    if len(kept) < len(pairs):
        say(f"dropped {len(pairs) - len(kept)} document(s) that preprocessed to empty")
    return kept


def gold_pairs(flags, files, say):
    """``(label, tokens)`` of each gold id found in the export whose tokens are
    not empty, in id order."""
    labels = read_gold(files[flags["--gold"]], flags["--gold"])
    rows, stats = read_export(files[flags["--input"]])
    if stats["total_ingested"] == stats["rejected_malformed"]:
        raise Refused(1, f"no valid tweets in {flags['--input']}")
    texts = {tweet_id: text for tweet_id, text, _, _ in rows if tweet_id in labels}
    missing = sorted(set(labels) - set(texts))
    if missing:
        shown = ", ".join(map(repr, missing[:MAX_SHOWN_IDS]))
        if len(missing) > MAX_SHOWN_IDS:
            shown += f", ... and {len(missing) - MAX_SHOWN_IDS} more"
        say(f"{len(missing)} gold id(s) missing from the corpus and excluded: {shown}")
    if not texts:
        raise Refused(1, "no gold ids matched the corpus")
    return nonempty([(labels[tweet_id], texts[tweet_id]) for tweet_id in sorted(texts)], flags, say)


def known(pairs, model, say, what, model_name):
    """The ``pairs`` whose label ``model`` has; the others are counted in one line."""
    usable = [pair for pair in pairs if pair[0] in model["labels"]]
    if len(usable) < len(pairs):
        say(f"skipping {len(pairs) - len(usable)} {what} with labels absent from the {model_name}")
    return usable


def eval_command(flags, files, say):
    pairs = gold_pairs(flags, files, say)
    oov, seed, k = flags["--oov"], int(flags["--seed"]), int(flags["--k"])
    if k:
        def on_fold(number, labels, scored, skipped):
            if skipped:
                say(f"fold {number}: skipping {skipped} test doc(s)"
                    " with labels absent from the fold model")

        accuracies = fold_accuracies(pairs, k, seed, oov, on_fold)
        return summary({"k": k, "seed": seed, "fold_accuracies": accuracies,
                        "mean_accuracy": reduce(add, accuracies) / k,
                        "min_accuracy": min(accuracies), "max_accuracy": max(accuracies)}, flags)
    if "--model" in flags:
        model = load_model(files[flags["--model"]])
        test = known(pairs, model, say, "gold doc(s)", "model")
        if not test:
            raise Refused(1, "no gold documents with labels the model knows")
        return summary(metrics(model, test, oov), flags)
    if len(pairs) < 2:
        raise Refused(1, f"need at least 2 documents to split, got {len(pairs)}")
    fraction = float(flags["--train-fraction"])
    ordered = shuffled(pairs, seed)
    cut = round(fraction * len(ordered))
    if cut < 1 or cut >= len(ordered):
        raise Refused(1, f"train_fraction {fraction} leaves an empty side"
                         f" for {len(pairs)} documents")
    model = nb_model(ordered[:cut])
    test = known(ordered[cut:], model, say, "test doc(s)", "holdout model")
    if not test:
        raise Refused(1, "holdout test side has no evaluable documents")
    return summary(metrics(model, test, oov), flags)


COMMANDS = {"collect": collect_command, "train": train_command, "classify": classify_command,
            "report": report_command, "eval": eval_command}
