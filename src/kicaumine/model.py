"""Multinomial Naive Bayes with add-one smoothing.

Training counts documents and token occurrences per class; classification
picks the class maximizing prior times the product of per-token
likelihoods ``(count + 1) / (class_tokens + vocabulary_size)``. Scoring
runs in log space, which preserves the argmax while avoiding underflow on
long documents, and the normalizing document probability is dropped
because it is constant across classes. Each model caches a score table
of per-token log-likelihood rows. Rows are computed in one batch for the
tokens of the documents about to be scored, never on lookup. So the words
no document uses cost nothing, and scoring a document is one dictionary
lookup per distinct vocabulary token.
"""

import json
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import chain, repeat

from .config import OOV_MODES, OOV_SKIP, OOV_SMOOTH
from .corpus import SentimentLabel, _Record, decode_json
from .exceptions import DegenerateTrainingError, ModelFormatError, TrainingError
from .preprocess import Document
from .resources import atomic_writer

MODEL_SCHEMA_VERSION = 1


class Prediction(_Record):
    """Classification outcome: winning label plus normalized posteriors."""

    __slots__ = _fields = ("label", "posteriors", "oov_tokens")


class _ScoreTable:
    """Log-space scores of a model's counts over the tokens in ``vocab``.

    The per-label arguments are in label order: ``docs_per_class[j]``,
    ``tokens_per_class[j]`` and ``token_counts[j]`` (token to count, absent
    meaning 0) describe the j-th label's class. When ``held_counts`` is
    given, a token's count in the j-th class is ``token_counts[j]`` less
    ``held_counts[j]`` (absent meaning 0 in both), which is how a fold of
    :func:`~kicaumine.evaluation.cross_validate` leaves its test documents
    out. ``vocab`` is a set. Once :meth:`build` has seen a token in it,
    ``rows[token][j]`` is its log likelihood under the j-th label;
    ``oov_log_lik[j]`` is that of a token outside ``vocab``, which has no row.
    """

    __slots__ = ("vocab", "rows", "log_priors", "oov_log_lik", "_columns")

    def __init__(
        self, docs_per_class, tokens_per_class, vocabulary_size, token_counts, vocab,
        held_counts=None,
    ):
        total_docs = sum(docs_per_class)
        self.log_priors = tuple(math.log(n / total_docs) for n in docs_per_class)
        denoms = [n + vocabulary_size for n in tokens_per_class]
        self.vocab = vocab
        self.rows = {}
        self.oov_log_lik = tuple(math.log(1 / denom) for denom in denoms)
        held = repeat({}) if held_counts is None else held_counts
        self._columns = list(zip(token_counts, held, denoms))

    def build(self, tokens: Iterable[str]) -> None:
        """Compute the rows of those ``tokens`` in the vocabulary that have none yet.

        One pass per class computes all of them. Concurrent builds of one
        row compute equal rows, so the race between their stores is benign.
        """
        rows = self.rows
        new = [token for token in self.vocab.intersection(tokens) if token not in rows]
        columns = [
            [math.log((counts.get(t, 0) - held.get(t, 0) + 1) / denom) for t in new]
            for counts, held, denom in self._columns
        ]
        rows.update(zip(new, zip(*columns)))


class NbModel(_Record):
    """Trained classifier state: per-class document and token counts.

    ``labels`` is ordered (negative, positive, neutral restricted to the
    trained subset) and that order breaks exact score ties. The smoothing
    constant is fixed at one. Derived views (``total_docs``,
    ``tokens_per_class``, ``vocabulary``) are computed at construction;
    instances are immutable and safe to share across threads.
    """

    _fields = ("labels", "docs_per_class", "token_counts")
    __slots__ = (*_fields, "total_docs", "tokens_per_class", "vocabulary", "_table")

    def __init__(
        self,
        labels: tuple[SentimentLabel, ...],
        docs_per_class: Mapping[SentimentLabel, int],
        token_counts: Mapping[SentimentLabel, Mapping[str, int]],
    ):
        if len(labels) < 2:
            raise ValueError("a model needs at least two labels")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        if set(docs_per_class) != set(labels):
            raise ValueError("docs_per_class must cover exactly the model labels")
        if set(token_counts) != set(labels):
            raise ValueError("token_counts must cover exactly the model labels")
        for lab in labels:
            if docs_per_class[lab] < 1:
                raise ValueError(f"label {lab} has no documents")
            counts = token_counts[lab]
            # Checks run in C pass the common valid table; the per-token loop
            # runs only when they fail, to raise what it has always raised.
            # A NaN first count makes min() NaN, so it too takes the loop.
            try:
                valid = all(counts) and min(counts.values(), default=1) >= 1
            except TypeError:
                valid = False
            if not valid:
                for token, count in counts.items():
                    if not token or count < 1:
                        raise ValueError(f"bad count for token {token!r} in class {lab}")
        vocabulary = frozenset().union(*(token_counts[lab] for lab in labels))
        if not vocabulary:
            raise ValueError("empty vocabulary")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "docs_per_class", docs_per_class)
        object.__setattr__(self, "token_counts", token_counts)
        object.__setattr__(self, "total_docs", sum(docs_per_class.values()))
        object.__setattr__(
            self,
            "tokens_per_class",
            {lab: sum(token_counts[lab].values()) for lab in labels},
        )
        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "_table", None)

    def __getstate__(self):
        # The score table is a cache: copies and pickles leave it behind.
        return tuple(None if name == "_table" else getattr(self, name) for name in self.__slots__)

    def _score_table(self) -> _ScoreTable:
        # Benign race: concurrent first calls build identical tables.
        table = self._table
        if table is None:
            labels = self.labels
            table = _ScoreTable(
                [self.docs_per_class[lab] for lab in labels],
                [self.tokens_per_class[lab] for lab in labels],
                len(self.vocabulary),
                [self.token_counts[lab] for lab in labels],
                self.vocabulary,
            )
            object.__setattr__(self, "_table", table)
        return table


def _trained_labels(docs_per_class: Mapping[SentimentLabel, int]) -> tuple[SentimentLabel, ...]:
    """The classes with documents, in canonical order; fewer than two raise."""
    labels = tuple(lab for lab in SentimentLabel if docs_per_class.get(lab, 0) > 0)
    if len(labels) < 2:
        raise DegenerateTrainingError(
            f"training needs at least two classes, got {[str(l) for l in labels]}"
        )
    return labels


def _class_counts(docs: list[Document]) -> tuple[dict, dict, dict]:
    """Per label of the non-empty ``docs``: documents, tokens, and each token's count."""
    groups: dict = {}
    for doc in docs:
        if doc.tokens:
            groups.setdefault(doc.label, []).append(doc.tokens)
    return (
        {lab: len(group) for lab, group in groups.items()},
        {lab: sum(map(len, group)) for lab, group in groups.items()},
        {lab: Counter(chain.from_iterable(group)) for lab, group in groups.items()},
    )


def train(docs: list[Document]) -> NbModel:
    """Count a labeled document collection into an immutable model.

    Every document must carry a label and a non-empty token list; the
    first that does not raises TrainingError naming it. Fewer than two
    classes is a degenerate problem and raises.
    """
    if not docs:
        raise TrainingError("no documents to train on")
    docs_per_class, _, token_counts = _class_counts(docs)
    if None in docs_per_class or sum(docs_per_class.values()) != len(docs):
        doc = next(d for d in docs if d.label is None or d.empty)
        problem = "is unlabeled" if doc.label is None else "has no tokens"
        raise TrainingError(f"document {doc.source_id!r} {problem}")
    labels = _trained_labels(docs_per_class)
    return NbModel(
        labels=labels,
        docs_per_class=docs_per_class,
        token_counts={lab: dict(token_counts[lab]) for lab in labels},
    )


def _doc_scores(table: _ScoreTable, tokens: Iterable[str], oov_mode: str) -> tuple[list[float], int]:
    """Per-label log scores of ``tokens`` under ``table``, and their OOV count."""
    if oov_mode not in OOV_MODES:
        raise ValueError(f"oov_mode must be one of {OOV_MODES}, got {oov_mode!r}")
    vocab, rows = table.vocab, table.rows
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    known = []
    oov = 0
    for token, count in counts.items():
        # Membership first: an OOV token has no row, and a vocabulary
        # token that was never built raises KeyError.
        if token in vocab:
            known.append((count, rows[token]))
        else:
            oov += count
    add_oov = oov_mode != OOV_SKIP and oov != 0
    # Per class: prior, then the OOV term, then the known tokens in
    # first-occurrence order; this fixed order keeps scores reproducible.
    scores = []
    for j, score in enumerate(table.log_priors):
        if add_oov:
            score += oov * table.oov_log_lik[j]
        for count, row in known:
            score += count * row[j]
        scores.append(score)
    return scores, oov


def _best(scores: list[float]) -> int:
    """Index of the highest score; exact ties go to the earliest."""
    return max(range(len(scores)), key=scores.__getitem__)


def _posteriors(
    table: _ScoreTable, tokens: Iterable[str], oov_mode: str
) -> tuple[int, list[float], int]:
    """Winning label index, posteriors in label order, and OOV count of ``tokens``.

    Posteriors are ``exp(score - max score)`` renormalized to sum to one,
    so they are finite: the top weight is 1. Exact ties resolve to the
    earliest label.
    """
    scores, oov = _doc_scores(table, tokens, oov_mode)
    best = _best(scores)
    top = scores[best]
    weights = [math.exp(s - top) for s in scores]
    total = sum(weights)
    return best, [w / total for w in weights], oov


def classify(model: NbModel, doc: Document, oov_mode: str = OOV_SMOOTH) -> Prediction:
    """Pick the maximum-score class and normalize scores into posteriors.

    Posteriors are ``exp(score - max score)`` renormalized to sum to one.
    Exact ties resolve to the earliest label in the model's order. An
    empty document degrades to the class priors.
    """
    table = model._score_table()
    table.build(doc.tokens)
    best, posteriors, oov = _posteriors(table, doc.tokens, oov_mode)
    labels = model.labels
    return Prediction(label=labels[best], posteriors=dict(zip(labels, posteriors)), oov_tokens=oov)


def _indented(value, pad: str) -> str:
    """A flat JSON list or object laid out as ``indent=2`` lays it out.

    ``pad`` is the members' indent. ``json.dumps`` drops to its pure-Python
    encoder whenever ``indent`` is set, so the line breaks go into the
    separator instead, which keeps its C encoder.
    """
    text = json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",\n" + pad, ": "))
    if not value:
        return text
    return f"{text[0]}\n{pad}{text[1:-1]}\n{pad[:-2]}{text[-1]}"


def save_model(model: NbModel, path) -> None:
    """Serialize the model as a single JSON document (integer counts only).

    The text is what ``json.dumps(..., sort_keys=True, ensure_ascii=False,
    indent=2)`` writes, plus a newline. The file at ``path`` is replaced
    atomically.
    """
    labels = model.labels
    docs = _indented({lab.value: model.docs_per_class[lab] for lab in labels}, "    ")
    totals = _indented({lab.value: model.tokens_per_class[lab] for lab in labels}, "    ")
    token_counts = ",\n    ".join(
        f"{json.dumps(lab.value)}: {_indented(model.token_counts[lab], ' ' * 6)}"
        for lab in sorted(labels, key=lambda label: label.value)
    )
    text = (
        "{\n"
        '  "alpha": 1,\n'
        f'  "docs_per_class": {docs},\n'
        f'  "labels": {_indented([lab.value for lab in labels], "    ")},\n'
        f'  "schema_version": {MODEL_SCHEMA_VERSION},\n'
        f'  "token_counts": {{\n    {token_counts}\n  }},\n'
        f'  "tokens_per_class": {totals}\n'
        "}\n"
    )
    with atomic_writer(path) as handle:
        handle.write(text)


_INT_TYPE = frozenset({int})


def _int_counts(counts: dict, field: str) -> dict:
    """``counts`` itself once every value is exactly an ``int``.

    JSON floats, booleans and strings are refused rather than converted,
    so a count of ``1.9`` cannot load as 1.
    """
    if not _INT_TYPE.issuperset(map(type, counts.values())):
        bad = next(count for count in counts.values() if type(count) is not int)
        raise ModelFormatError(f"{field} holds a non-integer count {bad!r}")
    return counts


def load_model(path) -> NbModel:
    """Rebuild a model saved by :func:`save_model`, verifying its counts.

    Raises ModelFormatError on a file that is not UTF-8, malformed JSON,
    an unsupported schema version, a count that is not a JSON integer, an
    ``alpha`` other than the integer 1, or internally inconsistent counts
    (e.g. a stored class total that does not match its token map).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        # The whitespace json.loads skips; a UnicodeDecodeError is a ValueError.
        payload = decode_json(data.decode("utf-8").strip(" \t\n\r"))
    except ValueError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(
            f"unsupported model schema version {version!r} (expected {MODEL_SCHEMA_VERSION})"
        )
    try:
        labels = tuple(SentimentLabel(name) for name in payload["labels"])
        docs_per_class = {
            SentimentLabel(name): count
            for name, count in _int_counts(payload["docs_per_class"], "docs_per_class").items()
        }
        token_counts = {
            SentimentLabel(name): _int_counts(table, "token_counts")
            for name, table in payload["token_counts"].items()
        }
        stored_totals = {
            SentimentLabel(name): count
            for name, count in _int_counts(payload["tokens_per_class"], "tokens_per_class").items()
        }
        alpha = payload.get("alpha", 1)
        if type(alpha) is not int:
            raise ModelFormatError(f"alpha must be an integer, got {alpha!r}")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelFormatError(f"model file is malformed: {exc}") from exc
    if alpha != 1:
        raise ModelFormatError("model file is inconsistent: smoothing constant is fixed at 1")
    try:
        model = NbModel(labels=labels, docs_per_class=docs_per_class, token_counts=token_counts)
    except ValueError as exc:
        raise ModelFormatError(f"model file is inconsistent: {exc}") from exc
    if stored_totals != dict(model.tokens_per_class):
        raise ModelFormatError("stored per-class token totals do not match token counts")
    return model
