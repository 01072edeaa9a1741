"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The classifier criteria check the implementation against exact rational
arithmetic and hand-computed values; the pipeline criteria check
invariants over large randomized corpora; the end-to-end criteria check
the bundled demo corpus and byte-level determinism of the CLI.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import NEG, POS, make_doc
from synthdata import two_class_corpus
from kicaumine.cli import main
from kicaumine.corpus import SentimentLabel
from kicaumine.evaluation import evaluate, split
from kicaumine.model import (
    NbModel,
    classify,
    load_model,
    save_model,
    train,
)
from kicaumine.preprocess import (
    case_fold,
    cleanse,
    remove_stopwords,
    run_pipeline,
    tokenize,
)
from kicaumine.corpus import Tweet
from kicaumine.resources import default_pipeline_config, demo_corpus_path


def report(criterion, passed=True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture
def toy_model():
    docs = [
        make_doc("p1", ["calon", "bagus"], POS),
        make_doc("p2", ["bagus", "mantap"], POS),
        make_doc("n1", ["calon", "buruk"], NEG),
    ]
    return train(docs)


def exact_scores(model, tokens):
    """Exact rational product scores: prior times smoothed likelihoods."""
    scores = {}
    for label in model.labels:
        score = Fraction(model.docs_per_class[label], model.total_docs)
        denominator = model.tokens_per_class[label] + len(model.vocabulary)
        for token in tokens:
            count = model.token_counts[label].get(token, 0)
            score *= Fraction(count + 1, denominator)
        scores[label] = score
    return scores


def exact_argmax(model, tokens):
    scores = exact_scores(model, tokens)
    best = model.labels[0]
    for label in model.labels[1:]:
        if scores[label] > scores[best]:
            best = label
    return best


class TestCriterion1BruteForceEquivalence:
    def test_all_short_documents_agree_with_rational_oracle(self, toy_model):
        started = time.perf_counter()
        vocabulary = sorted(toy_model.vocabulary)
        checked = 0
        for length in range(4):
            for tokens in itertools.product(vocabulary, repeat=length):
                expected = exact_argmax(toy_model, tokens)
                got = classify(toy_model, make_doc("d", list(tokens))).label
                assert got is expected, f"disagreement on {tokens}"
                checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 85
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        report("1 brute-force agreement on all 85 short documents")


class TestCriterion2SmoothingNormalization:
    def test_random_count_tables_normalize(self):
        rng = random.Random(20180627)
        labels_pool = tuple(SentimentLabel)
        for _ in range(100):
            n_labels = rng.choice([2, 3])
            labels = labels_pool[:n_labels]
            vocabulary = [f"w{chr(ord('a') + i)}" for i in range(rng.randint(1, 15))]
            token_counts = {}
            for label in labels:
                chosen = rng.sample(vocabulary, rng.randint(0, len(vocabulary)))
                token_counts[label] = {tok: rng.randint(1, 12) for tok in chosen}
            if not any(token_counts.values()):
                token_counts[labels[0]] = {vocabulary[0]: 1}
            model = NbModel(
                labels=labels,
                docs_per_class={label: rng.randint(1, 60) for label in labels},
                token_counts=token_counts,
            )
            table = model._score_table()
            assert table.vocab == model.vocabulary
            table.build(table.vocab)
            for j in range(len(model.labels)):
                total = sum(math.exp(table.rows[token][j]) for token in table.vocab)
                assert abs(total - 1.0) <= 1e-9
            prior_total = sum(map(math.exp, table.log_priors))
            assert abs(prior_total - 1.0) <= 1e-9
        report("2 smoothing and prior normalization on 100 random models")


class TestCriterion3HandOracleFixture:
    def test_hand_computed_values(self, toy_model):
        table = toy_model._score_table()
        table.build(["bagus"])
        pos, neg = toy_model.labels.index(POS), toy_model.labels.index(NEG)
        assert table.log_priors[pos] == math.log(2 / 3)
        assert table.rows["bagus"][pos] == math.log(3 / 8)
        assert table.rows["bagus"][neg] == math.log(1 / 6)
        prediction = classify(toy_model, make_doc("d", ["bagus"]))
        assert prediction.label is POS
        assert abs(prediction.posteriors[POS] - 0.8182) <= 1e-4
        report("3 hand-oracle fixture values")


class TestCriterion4SyntheticRecovery:
    def test_recovers_known_multinomials(self):
        started = time.perf_counter()
        docs = two_class_corpus(n_docs=1000, seed=7, min_len=5, max_len=15)
        train_docs, test_docs = split(docs, 0.8, seed=42)
        model = train(train_docs)
        metrics = evaluate(model, test_docs)
        elapsed = time.perf_counter() - started
        assert metrics.n_test == 200
        assert metrics.accuracy >= 0.90, f"accuracy {metrics.accuracy:.3f}"
        assert elapsed < 5.0, f"took {elapsed:.3f}s"
        report(f"4 synthetic recovery (accuracy {metrics.accuracy:.3f})")


def random_tweetish_corpus(n, seed):
    """Randomized tweet-like strings: words, tags, mentions, URLs,
    emoticons, digits, unicode, and pathological fragments."""
    rng = random.Random(seed)
    words = [
        "bagus", "Buruk", "CALON", "gubernur", "pemilihan", "menang",
        "kalah", "yang", "dan", "seru2", "mantap!!", "jawa-barat",
        "café", "señor", "ΣΙΓΜΑ", "İstanbul", "ёлка", "b)c", "a:(b",
    ]
    pieces = (
        [lambda: rng.choice(words)] * 8
        + [
            lambda: "#" + rng.choice(["pilgubJabar", "RidwanKamil", "x", "123"]),
            lambda: "@" + rng.choice(["user", "si_calon", "x:"]),
            lambda: rng.choice(["http://t.co/abc", "https://x.y/z?a=1", "www.contoh.id"]),
            lambda: rng.choice([":)", ":(", "::))", ":(:))", ":-)", "): :"]),
            lambda: str(rng.randint(0, 99999)),
            lambda: rng.choice(["!!!", "...", "?!", "~", "^_^"]),
        ]
    )
    corpus = []
    for _ in range(n):
        k = rng.randint(1, 12)
        text = " ".join(rng.choice(pieces)() for _ in range(k))
        if rng.random() < 0.25:
            text = "RT " + text
        if rng.random() < 0.1:
            text = text.replace(" ", "  ", 1)
        corpus.append(text)
    return corpus


class TestCriterion5PreprocessingInvariants:
    def test_invariants_over_randomized_corpus(self):
        config = default_pipeline_config()
        violations = 0
        for i, text in enumerate(random_tweetish_corpus(10_000, seed=99)):
            cleaned = cleanse(text)
            if cleanse(cleaned) != cleaned:
                violations += 1
            folded = case_fold(text)
            if case_fold(folded) != folded:
                violations += 1
            tokens = tokenize(case_fold(cleaned))
            after_stop = remove_stopwords(tokens, config.stopword_list)
            if len(after_stop) > len(tokens):
                violations += 1
            if not text.strip():
                continue
            doc = run_pipeline(Tweet(str(i), text), config)
            if len(doc.tokens) > len(after_stop):
                violations += 1
            for token in doc.tokens:
                if not token.isalpha() or token != token.lower():
                    violations += 1
        assert violations == 0
        report("5 preprocessing invariants on 10,000 randomized strings")


class TestCriterion6DistantLabelingPartition:
    def test_demo_corpus_per_line_outcomes(self, tmp_path, capsys):
        code = main(
            [
                "collect",
                "--input", demo_corpus_path(),
                "--out-labeled", str(tmp_path / "labeled.jsonl"),
                "--out-unlabeled", str(tmp_path / "unlabeled.jsonl"),
                "--format", "json",
            ]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["total_ingested"] == 6
        outcome_sum = (
            stats["rejected_malformed"]
            + stats["rejected_hashtag"]
            + stats["rejected_language"]
            + stats["rejected_ambiguous_emoticon"]
            + stats["labeled_positive"]
            + stats["labeled_negative"]
            + stats["unlabeled"]
        )
        assert outcome_sum == 6
        labeled = {
            row["id"]: row["label"]
            for row in map(
                json.loads, (tmp_path / "labeled.jsonl").read_text().splitlines()
            )
        }
        unlabeled = [
            row["id"]
            for row in map(
                json.loads, (tmp_path / "unlabeled.jsonl").read_text().splitlines()
            )
        ]
        # traced per-line outcomes of the bundled six-tweet fixture
        assert labeled == {"t1": "positive", "t2": "positive", "t3": "negative"}
        assert unlabeled == ["t4"]
        assert stats["rejected_ambiguous_emoticon"] == 1  # t5: both emoticons
        assert stats["rejected_language"] == 1  # t6: English text
        report("6 distant-labeling partition on the demo corpus")


def run_full_pipeline(workdir, capsys):
    """collect -> train -> classify -> eval -> report, artifacts on disk."""
    labeled = workdir / "labeled.jsonl"
    unlabeled = workdir / "unlabeled.jsonl"
    model_path = workdir / "model.json"
    predictions = workdir / "predictions.jsonl"
    metrics_path = workdir / "metrics.json"
    report_path = workdir / "report.csv"
    gold = workdir / "gold.csv"
    gold.write_text("id,label\nt1,positive\nt2,positive\nt3,negative\n", encoding="utf-8")
    steps = [
        [
            "collect",
            "--input", demo_corpus_path(),
            "--out-labeled", str(labeled),
            "--out-unlabeled", str(unlabeled),
            "--out", str(workdir / "stats.json"),
            "--format", "json",
        ],
        ["train", "--input", str(labeled), "--model", str(model_path)],
        [
            "classify",
            "--input", str(unlabeled),
            "--model", str(model_path),
            "--out", str(predictions),
        ],
        [
            "eval",
            "--input", demo_corpus_path(),
            "--gold", str(gold),
            "--model", str(model_path),
            "--format", "json",
            "--out", str(metrics_path),
        ],
        [
            "report",
            "--input", str(unlabeled),
            "--predictions", str(predictions),
            "--format", "csv",
            "--out", str(report_path),
        ],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    capsys.readouterr()
    return [
        workdir / "stats.json",
        labeled,
        unlabeled,
        model_path,
        predictions,
        metrics_path,
        report_path,
    ]


class TestCriterion7DeterminismAndRoundTrip:
    def test_two_runs_byte_identical(self, tmp_path, capsys):
        first_dir = tmp_path / "run1"
        second_dir = tmp_path / "run2"
        first_dir.mkdir()
        second_dir.mkdir()
        first = run_full_pipeline(first_dir, capsys)
        second = run_full_pipeline(second_dir, capsys)
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
        report("7a end-to-end byte-identical artifacts")

    def test_save_load_round_trip(self, tmp_path, toy_model):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        loaded = load_model(path)
        assert loaded.labels == toy_model.labels
        assert loaded.docs_per_class == dict(toy_model.docs_per_class)
        assert loaded.token_counts == {
            lab: dict(cnt) for lab, cnt in toy_model.token_counts.items()
        }
        for tokens in ([], ["bagus"], ["calon", "zzz"], ["buruk", "buruk"]):
            doc = make_doc("d", tokens)
            assert classify(loaded, doc) == classify(toy_model, doc)
        report("7b model save/load round trip")


class TestCriterion8MetricsCorrectness:
    def test_hand_computed_confusion_and_scores(self):
        docs = [
            make_doc("n1", ["jelek", "jelek"], NEG),
            make_doc("n2", ["jelek"], NEG),
            make_doc("p1", ["bagus", "bagus"], POS),
            make_doc("p2", ["bagus"], POS),
            make_doc("u1", ["biasa"], SentimentLabel.NEUTRAL),
        ]
        model = train(docs)
        neutral = SentimentLabel.NEUTRAL
        gold = (
            [make_doc(f"a{i}", ["jelek"], NEG) for i in range(3)]
            + [make_doc("a3", ["bagus"], NEG)]
            + [make_doc(f"b{i}", ["bagus"], POS) for i in range(4)]
            + [make_doc("c0", ["jelek"], neutral), make_doc("c1", ["bagus"], neutral)]
        )
        metrics = evaluate(model, gold)
        assert metrics.n_test == 10
        assert metrics.accuracy == pytest.approx(0.7)
        assert metrics.confusion[NEG] == {NEG: 3, POS: 1, neutral: 0}
        assert metrics.confusion[POS] == {NEG: 0, POS: 4, neutral: 0}
        assert metrics.confusion[neutral] == {NEG: 1, POS: 1, neutral: 0}
        assert metrics.per_class[NEG].precision == pytest.approx(0.75)
        assert metrics.per_class[NEG].recall == pytest.approx(0.75)
        assert metrics.per_class[POS].precision == pytest.approx(2 / 3)
        assert metrics.per_class[POS].recall == pytest.approx(1.0)
        # neutral never predicted and twice missed: 0/0 precision -> 0.0
        assert metrics.per_class[neutral] == (0.0, 0.0, 0.0)
        report("8 hand-computed metrics fixture")
