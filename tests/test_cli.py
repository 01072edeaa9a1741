import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import EMPTY_GOLD, NEG, NEU, POS, WORD_GOLD, write_gold_export
import reference
import synthdata
from kicaumine import _classify, _eval, _report, _train, model, resources
from kicaumine.cli import main
from kicaumine.config import FORMATS, RunConfig
from kicaumine.corpus import CorpusStats, LabeledTweet, LabelSource, iter_tweets
from kicaumine.exceptions import ConfigError, KicaumineError
from kicaumine.model import OOV_MODES, classify, load_model, save_model, train
from kicaumine.preprocess import Document, run_pipeline
from kicaumine.resources import default_pipeline_config, demo_corpus_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


@pytest.fixture
def collected(tmp_path, capsys):
    labeled = tmp_path / "labeled.jsonl"
    unlabeled = tmp_path / "unlabeled.jsonl"
    code, out, _ = run(
        [
            "collect",
            "--input", demo_corpus_path(),
            "--out-labeled", str(labeled),
            "--out-unlabeled", str(unlabeled),
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    return labeled, unlabeled, json.loads(out)


@pytest.fixture
def toy_model_file(tmp_path):
    docs = [
        Document("p1", ("calon", "bagus"), POS),
        Document("p2", ("bagus", "mantap"), POS),
        Document("n1", ("calon", "buruk"), NEG),
    ]
    path = tmp_path / "toy_model.json"
    save_model(train(docs), path)
    return path


class TestCollect:
    def test_csv_stats_match_json(self, collected, tmp_path, capsys):
        stats = collected[2]
        code, out, _ = run(
            [
                "collect",
                "--input", demo_corpus_path(),
                "--out-labeled", str(tmp_path / "l.jsonl"),
                "--out-unlabeled", str(tmp_path / "u.jsonl"),
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == ["field,value"] + [f"{k},{v}" for k, v in sorted(stats.items())]

    def test_demo_corpus_outcomes(self, collected):
        labeled, unlabeled, stats = collected
        assert stats["total_ingested"] == 6
        assert stats["labeled_positive"] == 2
        assert stats["labeled_negative"] == 1
        assert stats["unlabeled"] == 1
        assert stats["rejected_ambiguous_emoticon"] == 1
        assert stats["rejected_language"] == 1
        assert stats["rejected_malformed"] == 0
        assert stats["rejected_hashtag"] == 0
        rows = read_jsonl(collected[0])
        assert {(r["id"], r["label"]) for r in rows} == {
            ("t1", "positive"),
            ("t2", "positive"),
            ("t3", "negative"),
        }
        assert all(r["label_source"] == "distant" for r in rows)
        assert [r["id"] for r in read_jsonl(collected[1])] == ["t4"]

    def test_hashtag_rejections_keep_partition(self, tmp_path, capsys):
        corpus = tmp_path / "tweets.jsonl"
        rows = [
            {"id": "1", "text": "bagus sekali #pilgubjabar :)"},
            {"id": "2", "text": "bagus sekali tanpa tagar :)"},
        ]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        code, out, _ = run(
            [
                "collect",
                "--input", str(corpus),
                "--out-labeled", str(tmp_path / "l.jsonl"),
                "--out-unlabeled", str(tmp_path / "u.jsonl"),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["rejected_hashtag"] == 1
        outcome = sum(
            stats[key]
            for key in (
                "rejected_malformed",
                "rejected_hashtag",
                "rejected_language",
                "rejected_ambiguous_emoticon",
                "labeled_positive",
                "labeled_negative",
                "unlabeled",
            )
        )
        assert outcome == stats["total_ingested"] == 2

    def test_indented_hashtags_file_entry_matches(self, tmp_path, capsys):
        corpus = tmp_path / "tweets.jsonl"
        rows = [
            {"id": "1", "text": "bagus sekali #pilgubjabar :)"},
            {"id": "2", "text": "buruk sekali #pilgubjabar :("},
        ]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        tags = tmp_path / "tags.txt"
        tags.write_text(" pilgubjabar\n\tridwankamil \n", encoding="utf-8")
        code, out, _ = run(
            [
                "collect",
                "--input", str(corpus),
                "--hashtags-file", str(tags),
                "--out-labeled", str(tmp_path / "l.jsonl"),
                "--out-unlabeled", str(tmp_path / "u.jsonl"),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["rejected_hashtag"] == 0
        assert [r["id"] for r in read_jsonl(tmp_path / "l.jsonl")] == ["1", "2"]

    def test_non_utf8_line_counted_as_malformed(self, toy_model_file, tmp_path, capsys):
        corpus = tmp_path / "tweets.jsonl"
        corpus.write_bytes(
            json.dumps({"id": "1", "text": "bagus sekali #pilgubjabar :)"}).encode() + b"\n"
            + b'{"id": "2", "text": "bagus \xff #pilgubjabar"}\n'
            + json.dumps({"id": "3", "text": "buruk sekali #pilgubjabar :("}).encode() + b"\n"
        )
        code, out, _ = run(
            [
                "collect",
                "--input", str(corpus),
                "--out-labeled", str(tmp_path / "l.jsonl"),
                "--out-unlabeled", str(tmp_path / "u.jsonl"),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        stats = CorpusStats(**json.loads(out))
        assert stats.total_ingested == 3
        assert stats.rejected_malformed == 1
        assert stats.check_partition()
        code, out, _ = run(
            ["classify", "--input", str(corpus), "--model", str(toy_model_file)], capsys
        )
        assert code == 0
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["1", "3"]

    def test_byte_order_mark_dropped(self, tmp_path, capsys):
        corpus = tmp_path / "tweets.jsonl"
        corpus.write_bytes(
            b"\xef\xbb\xbf"
            + json.dumps({"id": "1", "text": "bagus sekali #pilgubjabar :)"}).encode() + b"\n"
            + json.dumps({"id": "2", "text": "buruk sekali #pilgubjabar :("}).encode() + b"\n"
        )
        code, out, _ = run(
            [
                "collect",
                "--input", str(corpus),
                "--out-labeled", str(tmp_path / "l.jsonl"),
                "--out-unlabeled", str(tmp_path / "u.jsonl"),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        stats = CorpusStats(**json.loads(out))
        assert stats.total_ingested == 2
        assert stats.rejected_malformed == 0
        assert stats.check_partition()
        kept = read_jsonl(tmp_path / "l.jsonl") + read_jsonl(tmp_path / "u.jsonl")
        assert sorted(record["id"] for record in kept) == ["1", "2"]

    def test_missing_input_reported_eagerly(self, tmp_path, capsys):
        code, out, err = run(
            [
                "collect",
                "--input", str(tmp_path / "absent.jsonl"),
                "--out-labeled", str(tmp_path / "a"),
                "--out-unlabeled", str(tmp_path / "b"),
            ],
            capsys,
        )
        assert code == 2
        assert "absent.jsonl" in err
        assert not (tmp_path / "a").exists()  # no partial outputs

    def test_stats_go_to_stdout_logs_to_stderr(self, tmp_path):
        # a real subprocess so stream separation is observed end to end
        proc = subprocess.run(
            [
                sys.executable, "-m", "kicaumine.cli",
                "collect",
                "--input", demo_corpus_path(),
                "--out-labeled", str(tmp_path / "l.jsonl"),
                "--out-unlabeled", str(tmp_path / "u.jsonl"),
                "--format", "json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)  # stdout is pure data
        assert "collected" in proc.stderr

    def collect_argv(self, labeled, unlabeled):
        return [
            "collect",
            "--input", demo_corpus_path(),
            "--out-labeled", str(labeled),
            "--out-unlabeled", str(unlabeled),
        ]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_targets_read_one_after_the_other(self, collected, tmp_path):
        fifos = [tmp_path / "labeled.fifo", tmp_path / "unlabeled.fifo"]
        for fifo in fifos:
            os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.extend(f.read_bytes() for f in fifos), daemon=True
        )
        reader.start()
        # A subprocess, so that a collect blocked on opening a FIFO fails the
        # test by its timeout instead of hanging it.
        proc = subprocess.run(
            [sys.executable, "-m", "kicaumine.cli", *self.collect_argv(*fifos)],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        reader.join(timeout=10)
        assert received == [collected[0].read_bytes(), collected[1].read_bytes()]

    def test_same_path_for_both_targets_keeps_unlabeled(self, collected, tmp_path, capsys):
        both = tmp_path / "both.jsonl"
        code, _, _ = run(self.collect_argv(both, both), capsys)
        assert code == 0
        assert both.read_bytes() == collected[1].read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["both.jsonl", "labeled.jsonl", "unlabeled.jsonl"]


class TestTrain:
    def test_model_round_trips(self, collected, tmp_path, capsys):
        labeled, _, _ = collected
        model_path = tmp_path / "model.json"
        code, _, _ = run(
            ["train", "--input", str(labeled), "--model", str(model_path)], capsys
        )
        assert code == 0
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        assert payload["labels"] == ["negative", "positive"]
        assert payload["docs_per_class"] == {"negative": 1, "positive": 2}

    def test_byte_identical_across_runs(self, collected, tmp_path, capsys):
        labeled, _, _ = collected
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        assert run(["train", "--input", str(labeled), "--model", str(first)], capsys)[0] == 0
        assert run(["train", "--input", str(labeled), "--model", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_corpus_preprocessing_to_nothing_fails_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "1", "text": ":) 123", "label": "positive", "label_source": "manual"},
            {"id": "2", "text": "4567 !!!", "label": "negative", "label_source": "manual"},
        ]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        code, _, err = run(
            ["train", "--input", str(corpus), "--model", str(tmp_path / "m.json")], capsys
        )
        assert code == 1
        assert "no documents" in err

    def test_degenerate_corpus_fails_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "1", "text": "bagus", "label": "positive", "label_source": "manual"})
            + "\n",
            encoding="utf-8",
        )
        code, _, err = run(
            ["train", "--input", str(corpus), "--model", str(tmp_path / "m.json")], capsys
        )
        assert code == 1
        assert "two classes" in err

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "a", "text": 5, "label": "positive"},
            {"id": "a", "text": ["bagus"], "label": "positive"},
            {"id": 5, "text": "bagus", "label": "positive"},
            ["a", "bagus", "positive"],
            {"id": "a", "text": "bagus", "label": "happy"},
        ],
    )
    def test_bad_record_types_rejected(self, tmp_path, capsys, record):
        corpus = tmp_path / "corpus.jsonl"
        good = {"id": "b", "text": "buruk", "label": "negative"}
        corpus.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        code, _, err = run(["train", "--input", str(corpus), "--model", str(model_path)], capsys)
        assert code == 2
        assert f"{corpus}:2: bad labeled-corpus record" in err
        assert "Traceback" not in err
        assert not model_path.exists()


    def test_duplicate_id_rejected(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "a", "text": "bagus", "label": "positive"},
            {"id": "b", "text": "buruk", "label": "negative"},
            {"id": "a", "text": "bagus", "label": "positive"},
        ]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        model_path = tmp_path / "m.json"
        code, _, err = run(["train", "--input", str(corpus), "--model", str(model_path)], capsys)
        assert code == 2
        assert f"{corpus}:3: duplicate labeled-corpus id 'a'" in err
        assert not model_path.exists()

    def test_byte_order_mark_dropped(self, collected, tmp_path, capsys):
        labeled, _, _ = collected
        marked = tmp_path / "marked.jsonl"
        marked.write_bytes(b"\xef\xbb\xbf" + labeled.read_bytes())
        plain_model, marked_model = tmp_path / "plain.json", tmp_path / "marked.json"
        assert run(["train", "--input", str(labeled), "--model", str(plain_model)], capsys)[0] == 0
        code, _, err = run(["train", "--input", str(marked), "--model", str(marked_model)], capsys)
        assert code == 0, err
        assert marked_model.read_bytes() == plain_model.read_bytes()


class TestClassify:
    def test_known_token_posterior(self, toy_model_file, tmp_path, capsys):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "q1", "text": "bagus"}) + "\n", encoding="utf-8")
        out_path = tmp_path / "pred.jsonl"
        code, _, _ = run(
            [
                "classify",
                "--input", str(tweets),
                "--model", str(toy_model_file),
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        rows = read_jsonl(out_path)
        assert rows[0]["label"] == "positive"
        assert rows[0]["posteriors"]["positive"] == pytest.approx(0.8182, abs=1e-4)
        assert rows[0]["oov_tokens"] == 0

    def test_empty_input_empty_output(self, toy_model_file, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out_path = tmp_path / "pred.jsonl"
        code, _, _ = run(
            [
                "classify",
                "--input", str(empty),
                "--model", str(toy_model_file),
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == ""

    def test_all_oov_tweet_still_classified(self, toy_model_file, tmp_path, capsys):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(
            json.dumps({"id": "q1", "text": "zzz qqq xxxy"}) + "\n", encoding="utf-8"
        )
        code, out, _ = run(
            ["classify", "--input", str(tweets), "--model", str(toy_model_file)], capsys
        )
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["oov_tokens"] == 3
        assert row["label"] in ("negative", "positive")

    def test_oov_skip_mode_flag(self, toy_model_file, tmp_path, capsys):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "q1", "text": "zzz"}) + "\n", encoding="utf-8")
        code, out, _ = run(
            [
                "classify",
                "--input", str(tweets),
                "--model", str(toy_model_file),
                "--oov", "skip",
            ],
            capsys,
        )
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["posteriors"]["positive"] == pytest.approx(2 / 3, abs=1e-9)


# Characters that json.dumps escapes (quotes, backslashes, control
# characters) and some that it writes as they are under ensure_ascii=False
# (DEL, the line and paragraph separators U+2028 and U+2029, a byte-order
# mark, a non-BMP emoji).
ESCAPED = [
    '"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\n", "\t", "\r",
    "\u2028", "\u2029", "\ufeff", "\U0001f600", "\xe9",
]
json_strings = st.text(
    st.sampled_from(ESCAPED) | st.characters(exclude_categories=("Cs",)), min_size=1, max_size=12
)
tweet_records = st.lists(
    st.fixed_dictionaries(
        {
            "id": json_strings,
            "text": st.builds(
                "bagus calon {} #pilgubjabar {}".format,
                json_strings,
                st.sampled_from([":)", ":(", ""]),
            ),
        },
        optional={"created_at": json_strings | st.integers(), "lang": json_strings},
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda record: record["id"],
)


def dumped(record):
    return json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.fixture(scope="module")
def json_line_models(tmp_path_factory):
    """Model files with two and with three labels."""
    docs = [
        Document("p", ("bagus", "calon"), POS),
        Document("n", ("buruk",), NEG),
        Document("u", ("calon",), NEU),
    ]
    paths = []
    for n_labels in (2, 3):
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(train(docs[:n_labels]), path)
        paths.append(path)
    return paths


class TestJsonLines:
    """Hand-written JSON lines equal json.dumps(record, sort_keys=True, ensure_ascii=False)."""

    def run_in(self, argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0

    @settings(max_examples=60, deadline=None)
    @given(records=tweet_records)
    def test_collect_lines(self, records):
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            export = work / "in.jsonl"
            export.write_text("".join(map(dumped, records)), encoding="utf-8")
            self.run_in(
                [
                    "collect", "--input", str(export), "--lang-threshold", "0",
                    "--out-labeled", str(work / "l.jsonl"),
                    "--out-unlabeled", str(work / "u.jsonl"),
                ]
            )
            by_id = {r["id"]: r for r in records}
            for name in ("l.jsonl", "u.jsonl"):
                text = (work / name).read_bytes().decode("utf-8")
                for line in text.split("\n")[:-1]:
                    got = json.loads(line)
                    expected = {k: v for k, v in by_id[got["id"]].items() if type(v) is str}
                    if "label" in got:
                        expected["label"] = got["label"]
                        expected["label_source"] = "distant"
                    assert line + "\n" == dumped(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        records=tweet_records,
        n_labels=st.sampled_from([2, 3]),
        oov=st.sampled_from(OOV_MODES),
    )
    def test_classify_lines(self, json_line_models, records, n_labels, oov):
        model_path = json_line_models[n_labels - 2]
        with tempfile.TemporaryDirectory() as work:
            export = Path(work) / "in.jsonl"
            export.write_text("".join(map(dumped, records)), encoding="utf-8")
            out = Path(work) / "pred.jsonl"
            self.run_in(
                [
                    "classify", "--input", str(export), "--model", str(model_path),
                    "--oov", oov, "--out", str(out),
                ]
            )
            text = out.read_bytes().decode("utf-8")
        model, pipeline = load_model(model_path), default_pipeline_config()
        expected = []
        for tweet in iter_tweets(map(dumped, records), CorpusStats()):
            prediction = classify(model, run_pipeline(tweet, pipeline), oov_mode=oov)
            record = {
                "id": tweet.id,
                "label": prediction.label.value,
                "posteriors": {lab.value: p for lab, p in prediction.posteriors.items()},
                "oov_tokens": prediction.oov_tokens,
            }
            expected.append(dumped(record))
        assert text == "".join(expected)


class TestBoundedMemory:
    WORDS = ["pemberitahuannya", "kepemimpinannya", "pembangunannya", "keberhasilannya"]
    TEXT = " ".join(word * 2 for word in WORDS * 10)

    def peak_bytes(self, model, tmp_path, n):
        tweets = tmp_path / f"in{n}.jsonl"
        with open(tweets, "w", encoding="utf-8") as handle:
            for i in range(n):
                handle.write(json.dumps({"id": f"tweet{i:07d}", "text": self.TEXT}) + "\n")
        argv = ["classify", "--input", str(tweets), "--model", str(model)]
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(tmp_path / "pred.jsonl")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, tweets.stat().st_size

    def test_classify_peak_grows_far_less_than_input(self, toy_model_file, tmp_path):
        n = 600  # more tweets than classify holds at once
        self.peak_bytes(toy_model_file, tmp_path, 10)  # one-time caches
        small_peak, small_size = self.peak_bytes(toy_model_file, tmp_path, n)
        large_peak, large_size = self.peak_bytes(toy_model_file, tmp_path, 8 * n)
        assert large_peak - small_peak < (large_size - small_size) / 4

    def test_collect_peak_grows_far_less_than_input(self, tmp_path):
        def peak_bytes(n):
            tweets = tmp_path / f"in{n}.jsonl"
            with open(tweets, "w", encoding="utf-8") as handle:
                for i in range(n):
                    text = f"{self.TEXT} #pilgubjabar {':)' if i % 2 else ''}"
                    handle.write(json.dumps({"id": f"tweet{i:07d}", "text": text}) + "\n")
            argv = [
                "collect",
                "--input", str(tweets),
                "--out-labeled", str(tmp_path / "l.jsonl"),
                "--out-unlabeled", str(tmp_path / "u.jsonl"),
                "--wordlist", str(tmp_path / "words.txt"),
                "--out", str(tmp_path / "stats.json"),
                "--format", "json",
            ]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, tweets.stat().st_size

        (tmp_path / "words.txt").write_text(
            "".join(f"{word * 2}\n" for word in self.WORDS), encoding="utf-8"
        )
        n = 600
        peak_bytes(10)  # one-time caches
        small_peak, small_size = peak_bytes(n)
        large_peak, large_size = peak_bytes(8 * n)
        stats = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
        assert (stats["labeled_positive"], stats["unlabeled"]) == (4 * n, 4 * n)
        assert large_peak - small_peak < (large_size - small_size) / 4

    def test_train_peak_grows_far_less_than_input(self, tmp_path):
        # train holds the labeled rows' ids and the counts, not the rows.
        def peak_bytes(n):
            corpus = tmp_path / f"labeled{n}.jsonl"
            with open(corpus, "w", encoding="utf-8") as handle:
                for i in range(n):
                    label = "positive" if i % 2 else "negative"
                    handle.write(json.dumps({"id": f"tweet{i:07d}", "text": self.TEXT,
                                             "label": label, "label_source": "distant"}) + "\n")
            argv = ["train", "--input", str(corpus), "--model", str(tmp_path / "model.json")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, corpus.stat().st_size

        n = 600
        peak_bytes(10)  # one-time caches
        small_peak, small_size = peak_bytes(n)
        large_peak, large_size = peak_bytes(8 * n)
        payload = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert payload["docs_per_class"] == {"negative": 4 * n, "positive": 4 * n}
        assert large_peak - small_peak < (large_size - small_size) / 4

    def test_report_peak_grows_far_less_than_input(self, tmp_path):
        # report holds the predictions' ids and labels, not the tweets' texts.
        text = f"{self.TEXT * 3} #pilgubjabar"  # about 3.7 KB

        def peak_bytes(n):
            tweets, predictions = tmp_path / f"in{n}.jsonl", tmp_path / f"pred{n}.jsonl"
            with open(tweets, "w", encoding="utf-8") as t, open(predictions, "w") as p:
                for i in range(n):
                    t.write(json.dumps({"id": f"tweet{i:07d}", "text": text}) + "\n")
                    p.write(
                        json.dumps({"id": f"tweet{i:07d}", "label": "positive", "oov_tokens": 0,
                                    "posteriors": {"negative": 0.25, "positive": 0.75}}) + "\n"
                    )
            argv = ["report", "--input", str(tweets), "--predictions", str(predictions),
                    "--out", str(tmp_path / "report.json"), "--format", "json"]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, tweets.stat().st_size

        n = 300
        peak_bytes(10)  # one-time caches
        small_peak, small_size = peak_bytes(n)
        large_peak, large_size = peak_bytes(8 * n)
        groups = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        totals = {group["group"]: group["total"] for group in groups}
        assert (totals["all"], totals["pilgubjabar"]) == (8 * n, 8 * n)
        assert large_peak - small_peak < (large_size - small_size) / 4


class TestEval:
    def write_gold(self, tmp_path, rows):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,label\n" + "".join(f"{i},{l}\n" for i, l in rows), encoding="utf-8")
        return gold

    def test_model_against_gold(self, collected, toy_model_file, tmp_path, capsys):
        gold = self.write_gold(
            tmp_path, [("t1", "positive"), ("t2", "positive"), ("t3", "negative")]
        )
        code, out, _ = run(
            [
                "eval",
                "--input", demo_corpus_path(),
                "--gold", str(gold),
                "--model", str(toy_model_file),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_test"] == 3
        assert 0.0 <= payload["accuracy"] <= 1.0

    def test_missing_gold_ids_warned_and_excluded(self, toy_model_file, tmp_path, capsys):
        gold = self.write_gold(tmp_path, [("t1", "positive"), ("ghost", "negative")])
        code, out, err = run(
            [
                "eval",
                "--input", demo_corpus_path(),
                "--gold", str(gold),
                "--model", str(toy_model_file),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert err == "1 gold id(s) missing from the corpus and excluded: 'ghost'\n"
        assert json.loads(out)["n_test"] == 1

    def test_missing_gold_ids_log_line_is_bounded(self, toy_model_file, tmp_path, capsys):
        ghosts = [f"ghost{i:02d}" for i in range(25)]
        gold = self.write_gold(tmp_path, [("t1", "positive")] + [(g, "negative") for g in ghosts])
        code, _, err = run(
            [
                "eval",
                "--input", demo_corpus_path(),
                "--gold", str(gold),
                "--model", str(toy_model_file),
            ],
            capsys,
        )
        assert code == 0
        assert err == (
            "25 gold id(s) missing from the corpus and excluded: "
            + ", ".join(map(repr, ghosts[:10]))
            + ", ... and 15 more\n"
        )

    def test_no_matching_gold_ids_is_an_error(self, toy_model_file, tmp_path, capsys):
        gold = self.write_gold(tmp_path, [("ghost", "positive")])
        code, _, err = run(
            [
                "eval",
                "--input", demo_corpus_path(),
                "--gold", str(gold),
                "--model", str(toy_model_file),
            ],
            capsys,
        )
        assert code == 1
        assert "no gold ids" in err

    def test_kfold_deterministic(self, tmp_path, capsys):
        corpus = tmp_path / "tweets.jsonl"
        rows = []
        for i in range(6):
            rows.append({"id": f"p{i}", "text": f"bagus mantap hebat nomor {i} :)"})
            rows.append({"id": f"n{i}", "text": f"buruk jelek kalah nomor {i} :("})
        corpus.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        gold = self.write_gold(
            tmp_path,
            [(f"p{i}", "positive") for i in range(6)] + [(f"n{i}", "negative") for i in range(6)],
        )
        argv = [
            "eval",
            "--input", str(corpus),
            "--gold", str(gold),
            "--k", "3",
            "--seed", "7",
            "--format", "json",
        ]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert len(payload["fold_accuracies"]) == 3
        assert payload["min_accuracy"] <= payload["mean_accuracy"] <= payload["max_accuracy"]

    def kfold_argv(self, tmp_path, positives, negatives, neutrals, k):
        """``eval --k`` over a written corpus and gold file of the given sizes."""
        texts = {
            "p": "bagus mantap hebat nomor {} :)",
            "n": "buruk jelek kalah nomor {} :(",
            "z": "biasa saja netral nomor {}",
        }
        labels = {"p": "positive", "n": "negative", "z": "neutral"}
        ids = [
            f"{prefix}{i}"
            for prefix, count in (("p", positives), ("n", negatives), ("z", neutrals))
            for i in range(count)
        ]
        corpus = tmp_path / "tweets.jsonl"
        corpus.write_text(
            "".join(json.dumps({"id": i, "text": texts[i[0]].format(i[1:])}) + "\n" for i in ids),
            encoding="utf-8",
        )
        gold = self.write_gold(tmp_path, [(i, labels[i[0]]) for i in ids])
        return ["eval", "--input", str(corpus), "--gold", str(gold), "--k", str(k), "--seed", "7"]

    def test_kfold_fold_losing_a_class_skips_its_test_docs(self, tmp_path, capsys):
        # The only neutral document tests in one fold, whose model has no
        # neutral class; a class with no training documents is left out of
        # the fold model rather than dropped from it, so only the skip is
        # reported.
        argv = self.kfold_argv(tmp_path, 6, 6, 1, 3)
        code, out, err = run(argv + ["--format", "json"], capsys)
        assert (code, err) == (
            0, "fold 1: skipping 1 test doc(s) with labels absent from the fold model\n"
        )
        assert json.loads(out)["fold_accuracies"] == [1.0, 1.0, 1.0]

    def test_kfold_fold_left_with_one_class_exits_1(self, tmp_path, capsys):
        argv = self.kfold_argv(tmp_path, 5, 1, 0, 3)
        result = run(argv, capsys)
        assert result == (1, "", "error: training needs at least two classes, got ['positive']\n")

    def test_kfold_fold_with_no_evaluable_test_docs_exits_1(self, tmp_path, capsys):
        # Leave-one-out: the fold testing the lone neutral document skips it.
        argv = self.kfold_argv(tmp_path, 2, 2, 1, 5)
        result = run(argv, capsys)
        assert result == (
            1,
            "",
            "fold 1: skipping 1 test doc(s) with labels absent from the fold model\n"
            "error: fold 1 has no evaluable test documents\n",
        )

    def test_holdout_mode_without_model(self, tmp_path, capsys):
        corpus = tmp_path / "tweets.jsonl"
        rows = [
            {"id": f"p{i}", "text": f"bagus mantap nomor {i}"} for i in range(5)
        ] + [
            {"id": f"n{i}", "text": f"buruk jelek nomor {i}"} for i in range(5)
        ]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        gold = self.write_gold(
            tmp_path,
            [(f"p{i}", "positive") for i in range(5)] + [(f"n{i}", "negative") for i in range(5)],
        )
        code, out, _ = run(
            [
                "eval",
                "--input", str(corpus),
                "--gold", str(gold),
                "--train-fraction", "0.8",
                "--seed", "3",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["n_test"] == 2


    def test_duplicate_gold_id_rejected(self, toy_model_file, tmp_path, capsys):
        gold = self.write_gold(
            tmp_path, [("t1", "positive"), ("t2", "positive"), ("t1", "negative")]
        )
        code, out, err = run(
            [
                "eval",
                "--input", demo_corpus_path(),
                "--gold", str(gold),
                "--model", str(toy_model_file),
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"{gold}:4: duplicate gold id 't1'" in err

    @pytest.mark.parametrize("separator", [", ", " ,"])
    def test_gold_header_with_spaces(self, separator, toy_model_file, tmp_path, capsys):
        outputs = []
        for sep in (",", separator):
            gold = tmp_path / "gold.csv"
            rows = ["id,label", "t1,positive", "t2,positive", "t3,negative"]
            gold.write_text("".join(row.replace(",", sep) + "\n" for row in rows), encoding="utf-8")
            argv = ["eval", "--input", demo_corpus_path(), "--gold", str(gold)]
            code, out, _ = run(argv + ["--model", str(toy_model_file), "--format", "json"], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_gold_with_byte_order_mark(self, toy_model_file, tmp_path, capsys):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            gold = tmp_path / "gold.csv"
            gold.write_text("id,label\nt1,positive\nt3,negative\n", encoding=encoding)
            argv = ["eval", "--input", demo_corpus_path(), "--gold", str(gold)]
            code, out, err = run(argv + ["--model", str(toy_model_file), "--format", "json"], capsys)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "row, message",
        [
            (",positive", "empty gold id"),
            ("t2,happy", "unknown gold label 'happy' for id 't2'"),
            ("t2", "unknown gold label '' for id 't2'"),
        ],
        ids=["empty-id", "unknown-label", "one-cell"],
    )
    def test_bad_gold_row_names_line(self, row, message, toy_model_file, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text(f"id,label\nt1,positive\n{row}\n", encoding="utf-8")
        argv = ["eval", "--input", demo_corpus_path(), "--gold", str(gold)]
        code, out, err = run(argv + ["--model", str(toy_model_file)], capsys)
        assert code == 2
        assert out == ""
        assert f"{gold}:3: {message}" in err

    @pytest.mark.parametrize("padding_rows", [0, 800])
    def test_not_utf8_refused_before_any_row_at_any_size(self, padding_rows, toy_model_file,
                                                         tmp_path, capsys):
        # A duplicate id on line 3 and a byte that is not UTF-8 at the end,
        # in a file smaller and one larger than a text stream's 8 KB chunk.
        gold = tmp_path / "g.csv"
        padding = b"".join(b"x%d,positive\n" % n for n in range(padding_rows))
        gold.write_bytes(b"id,label\nt1,positive\nt1,negative\n" + padding + b"t2,positive\xff\n")
        assert (gold.stat().st_size > 8192) == (padding_rows > 0)
        argv = ["eval", "--input", demo_corpus_path(), "--gold", str(gold)]
        code, out, err = run(argv + ["--model", str(toy_model_file)], capsys)
        assert (code, out, err) == (2, "", f"error: gold file {gold} is not UTF-8\n")

    def test_k_of_one_rejected(self, tmp_path, capsys):
        gold = self.write_gold(tmp_path, [("t1", "positive"), ("t2", "negative")])
        argv = ["eval", "--input", demo_corpus_path(), "--gold", str(gold)]
        code, out, err = run(argv + ["--k", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "k must be 0 (off) or at least 2, got 1" in err
        config = tmp_path / "run.conf"
        config.write_text("k=1\n", encoding="utf-8")
        assert run(argv + ["--config", str(config)], capsys)[0] == 2


def gold_outcome(path):
    """``_eval._read_gold_csv(path)`` as (id, label) pairs in order, or the
    exit status and text of the error it raised."""
    try:
        return [(tweet_id, label.value) for tweet_id, label in _eval._read_gold_csv(path).items()]
    except KicaumineError as exc:
        return (2 if isinstance(exc, ConfigError) else 1, str(exc))


# Gold-file bodies after a standard header, by case.
GOLD_BODIES = {
    "plain": b"t1,positive\nt2,negative\nt3,neutral\n",
    "blank-rows": b"\nt1,positive\n\n\nt2,negative\n\n",
    "one-cell-row": b"t1,positive\nt2\n",
    "one-empty-cell-row": b"t1,positive\n\"\"\n",
    "whitespace-only-id": b"t1,positive\n   ,negative\n",
    "tab-only-id": b"t1,positive\n\t,negative\n",
    "extra-columns": b"t1,positive,extra\nt2,negative,,more,cells\n",
    "padded-upper-case-labels": b"t1, Positive \nt2,NEGATIVE\n t3 ,\tNeutral\t\n",
    "empty-label": b"t1,positive\nt2,\n",
    "blank-label": b"t1,positive\nt2,   \n",
    "unknown-label": b"t1,positive\nt2,happy\n",
    "label-of-dotted-capital-i": "t1,posİtive\n".encode("utf-8"),
    "duplicate-id": b"t1,positive\nt2,negative\nt1,negative\n",
    "duplicate-after-trim": b"t1,positive\n t1 ,negative\n",
    "quoted-comma": b'"t,1",positive\n"t2","neg,ative"\n',
    "quoted-newline": b'"t\n1",positive\n"t\n2",negative\nt3,positive\n',
    "duplicate-after-quoted-newline": b'"t\n1",positive\n"t\n1",negative\n',
    "unknown-after-quoted-newline": b'"t\n1",positive\nt2,"bad\nlabel"\n',
    "unterminated-quote": b't1,positive\n"t2,negative\n',
    "oversized-field": b"t1,positive\nt2," + b"x" * 200_000 + b"\n",
    "not-utf-8": b"t1,positive\nt2,\xffnegative\n",
    "utf-8-ids": "t1,positive\ntwé,negative\n".encode("utf-8"),
    "crlf": b"t1,positive\r\nt2,negative\r\n",
    "no-rows": b"",
    "only-blank-rows": b"\n\n",
}


class TestGoldReader:
    """``_eval._read_gold_csv`` against ``reference.read_gold``.

    Each file must give the same (id, label) pairs in the same order, or
    the same exit status with the same text, ``path:line`` included.
    """

    def assert_same(self, path):
        try:
            expected = list(reference.read_gold(path.read_bytes(), path).items())
        except reference.Refused as refusal:
            expected = (refusal.status, refusal.message)
        assert gold_outcome(path) == expected
        return expected

    @pytest.mark.parametrize("case", list(GOLD_BODIES))
    @pytest.mark.parametrize("header", [b"id,label\n", b"\xef\xbb\xbfid,label\n", b" id , label\n"])
    def test_agrees_with_former_reader(self, case, header, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_bytes(header + GOLD_BODIES[case])
        self.assert_same(path)

    @pytest.mark.parametrize(
        "content", [b"", b"\n", b"label,id\nt1,positive\n", b"id\nt1,positive\n", b"\xffid,label\n"]
    )
    def test_bad_header_agrees(self, content, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_bytes(content)
        assert isinstance(self.assert_same(path), tuple)

    def test_messages_name_the_line(self, tmp_path):
        path = tmp_path / "gold.csv"
        expected = {
            "one-cell-row": f"{path}:3: unknown gold label '' for id 't2'",
            "whitespace-only-id": f"{path}:3: empty gold id",
            "unknown-label": f"{path}:3: unknown gold label 'happy' for id 't2'",
            "duplicate-id": f"{path}:4: duplicate gold id 't1'",
            "duplicate-after-quoted-newline": f"{path}:5: duplicate gold id 't\\n1'",
            "unknown-after-quoted-newline": f"{path}:5: unknown gold label 'bad\\nlabel' for id 't2'",
        }
        for case, message in expected.items():
            path.write_bytes(b"id,label\n" + GOLD_BODIES[case])
            assert self.assert_same(path) == (2, message), case
        path.write_bytes(b"id,label\n" + GOLD_BODIES["padded-upper-case-labels"])
        assert self.assert_same(path) == [("t1", "positive"), ("t2", "negative"), ("t3", "neutral")]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.text(alphabet=st.sampled_from(list('t1 ,"\n\r\tPosNegpositivenegativeneutral')),
                    max_size=24),
            max_size=6,
        )
    )
    def test_random_bodies_agree(self, lines):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work, "gold.csv")
            path.write_text("id,label\n" + "\n".join(lines), encoding="utf-8", newline="")
            self.assert_same(path)


def noisy_text(rng, tokens, words):
    """``tokens`` mixed with bundled ``words`` and tweet noise, as one tweet text."""
    out = ["RT"] if rng.random() < 0.2 else []
    for token in tokens:
        if rng.random() < 0.3:
            out.append(rng.choice(words))
        out.append(rng.choice([token, token.upper(), f"#{token}", f"{token}:)", f"@{token}"])
                   if rng.random() < 0.3 else token)
    if rng.random() < 0.2:
        out.append("http://t.co/x")
    return " ".join(out)


def bundled_words():
    """The bundled stopwords, POS lexicon and root words."""
    return resources.load_stopwords(), resources.load_pos_lexicon(), resources.load_root_words()


def gold_corpus(tmp_path, seed):
    """A noisy export and a gold CSV over it, neither in id order.

    Some gold texts preprocess to nothing, some gold labels are neutral
    (a class no training document has), and one gold id is missing from
    the export. Returns the paths and the gold labels by id.
    """
    rng = random.Random(seed)
    stopwords, lexicon, roots = bundled_words()
    words = sorted(lexicon)[:300] + sorted(roots)[:300] + sorted(stopwords)[:50]
    export = tmp_path / "export.jsonl"
    gold = tmp_path / "gold.csv"
    docs = synthdata.two_class_corpus(n_docs=300, seed=seed)
    rng.shuffle(docs)
    labels = {}
    with export.open("w", encoding="utf-8") as handle:
        for doc in docs:
            empty = rng.random() < 0.05
            text = "123 :) http://t.co/x" if empty else noisy_text(rng, doc.tokens, words)
            handle.write(json.dumps({"id": doc.source_id, "text": text}) + "\n")
            if rng.random() < 0.9:
                labels[doc.source_id] = NEU if rng.random() < 0.03 else doc.label
    labels["ghost"] = NEU  # gold id missing from the export
    write_gold(gold, labels)
    return export, gold, labels


def write_gold(path, labels):
    """Write ``labels`` as a gold CSV, in descending id order."""
    rows = "".join(f"{i},{labels[i].value}\n" for i in sorted(labels, reverse=True))
    path.write_text("id,label\n" + rows, encoding="utf-8")


def former_gold_documents(export, labels, pipeline):
    """The gold documents as ``eval`` built them before: ``run_pipeline`` on a ``LabeledTweet``."""
    with export.open("rb") as handle:
        by_id = {t.id: t for t in iter_tweets(handle, CorpusStats())}
    return [
        run_pipeline(LabeledTweet(by_id[i], labels[i], LabelSource.MANUAL), pipeline)
        for i in sorted(labels)
        if i in by_id
    ]


class TestGoldDocuments:
    """``_eval._gold_pairs`` gives the labels and tokens of the former path's non-empty documents.

    That path made a manual ``LabeledTweet`` of each gold tweet and ran it
    through ``run_pipeline``, in id order; the empty ones are dropped and
    counted in one line.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("enable_pos", [False, True])
    @pytest.mark.parametrize("enable_stemming", [False, True])
    def test_same_documents_as_labeled_tweets(self, seed, enable_pos, enable_stemming, tmp_path):
        export, gold, labels = gold_corpus(tmp_path, seed)
        config = RunConfig(
            input=str(export), gold=str(gold), enable_pos=enable_pos, enable_stemming=enable_stemming
        )
        with redirect_stderr(io.StringIO()) as err:
            got = _eval._gold_pairs(config, resources._pipeline_config(config))
        expected = former_gold_documents(export, labels, resources._pipeline_config(config))
        assert got == [(doc.label, doc.tokens) for doc in expected if not doc.empty]
        dropped = len(labels) - 1 - len(got)
        assert dropped > 0 and got
        assert err.getvalue().endswith(f"\ndropped {dropped} document(s) that preprocessed to empty\n")


class TestEvalModesOnPairs:
    """``eval``'s holdout and ``--k`` modes print what the public ``Document`` API computes.

    The command passes ``(label, tokens)`` pairs to ``evaluation._split``,
    ``model._model``, ``evaluation._metrics`` and ``evaluation._fold_accuracies``;
    the public ``split``, ``train``, ``evaluate`` and ``cross_validate``, on the
    former path's documents, must give the same output.
    """

    def run_eval(self, *argv):
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = main(["eval", *argv, "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("test_side_neutral", [False, True])
    def test_holdout(self, seed, test_side_neutral, tmp_path):
        from kicaumine.evaluation import evaluate, split

        export, gold, labels = gold_corpus(tmp_path, seed)
        if test_side_neutral:
            # Neutral only on the test side: the holdout model lacks the class.
            # The split depends on the ids alone, so relabeling keeps it.
            labels = {i: POS if lab is NEU else lab for i, lab in labels.items()}
            docs = former_gold_documents(export, labels, default_pipeline_config())
            _, test_docs = split([d for d in docs if not d.empty], 0.8, seed)
            labels[test_docs[0].source_id] = labels[test_docs[-1].source_id] = NEU
            write_gold(gold, labels)
        docs = former_gold_documents(export, labels, default_pipeline_config())
        train_docs, test_docs = split([d for d in docs if not d.empty], 0.8, seed)
        holdout_model = train(train_docs)
        known = [d for d in test_docs if d.label in holdout_model.labels]
        skipped = len(test_docs) - len(known)
        assert skipped == (2 if test_side_neutral else 0)
        code, out, err = self.run_eval("--input", str(export), "--gold", str(gold), "--seed", str(seed))
        assert code == 0
        assert out == _eval._format_metrics(evaluate(holdout_model, known), "json") + "\n"
        expected_err = (
            "1 gold id(s) missing from the corpus and excluded: 'ghost'\n"
            f"dropped {sum(d.empty for d in docs)} document(s) that preprocessed to empty\n"
        )
        if skipped:
            expected_err += (
                f"skipping {skipped} test doc(s) with labels absent from the holdout model\n"
            )
        assert err == expected_err

    @pytest.mark.parametrize("seed, oov", [(1, "smooth"), (2, "smooth"), (3, "skip")],
                             ids=["1", "2", "3-oov-skip"])
    def test_k_fold(self, seed, oov, tmp_path):
        from kicaumine.evaluation import cross_validate

        export, gold, labels = gold_corpus(tmp_path, seed)
        # Neutral gold documents are too few for every fold to train on them.
        body = gold.read_text(encoding="utf-8").replace(",neutral\n", ",positive\n")
        gold.write_text(body, encoding="utf-8")
        labels = {i: POS if lab is NEU else lab for i, lab in labels.items()}
        docs = former_gold_documents(export, labels, default_pipeline_config())
        code, out, _ = self.run_eval(
            "--input", str(export), "--gold", str(gold), "--k", "5", "--seed", str(seed),
            "--oov", oov,
        )
        assert code == 0
        expected = cross_validate([d for d in docs if not d.empty], 5, seed, oov)
        assert json.loads(out)["fold_accuracies"] == expected

    def test_oov_skip_changes_every_mode(self, tmp_path):
        # Positive training documents hold many tokens, so each unseen token
        # costs the positive class more: under smooth the test documents,
        # "bagus" and three unseen words, go negative; under skip, positive.
        unseen = ("".join(letters) for letters in itertools.product("zqxv", repeat=4))
        rows = [(f"p{i}", "bagus mantap hebat sukses menang", "positive") for i in range(10)]
        rows += [(f"n{i}", "buruk", "negative") for i in range(10)]
        rows += [(f"u{i}", " ".join(["bagus", *itertools.islice(unseen, 3)]), "positive")
                 for i in range(10)]
        export, gold, labeled = (tmp_path / name for name in ("in.jsonl", "gold.csv", "l.jsonl"))
        export.write_text("".join(json.dumps({"id": i, "text": t}) + "\n" for i, t, _ in rows))
        gold.write_text("id,label\n" + "".join(f"{i},{label}\n" for i, _, label in rows))
        labeled.write_text("".join(json.dumps({"id": i, "text": t, "label": label}) + "\n"
                                   for i, t, label in rows if i[0] != "u"))
        model_path = tmp_path / "model.json"
        assert main(["train", "--input", str(labeled), "--model", str(model_path)]) == 0
        for mode in (["--model", str(model_path)], [], ["--k", "2"]):
            argv = ["--input", str(export), "--gold", str(gold), *mode]
            smooth, skip = (self.run_eval(*argv, *oov) for oov in ([], ["--oov", "skip"]))
            assert smooth[0] == skip[0] == 0
            assert smooth[1] != skip[1], mode


class TestEmptyGoldDocuments:
    """Every ``eval`` mode drops the gold tweets that preprocess to no tokens.

    On an export of ten word tweets and four that preprocess to nothing,
    ``--model``, the holdout and ``--k`` each print the stdout they print
    on the ten alone, and stderr says once that four were dropped. The
    reference gives the same bytes.
    """

    MODES = {
        "model": (["--model", "model.json"], {"n_test": 10}),
        "holdout": (["--train-fraction", "0.5"], {"n_test": 5}),
        "k": (["--k", "2"], {"fold_accuracies": [0.8, 1.0]}),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_each_mode_prints_what_it_prints_without_them(self, mode, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.chdir(tmp_path)
        write_gold_export(tmp_path / "words.jsonl", tmp_path / "words.csv", WORD_GOLD)
        write_gold_export(tmp_path / "all.jsonl", tmp_path / "all.csv", WORD_GOLD + EMPTY_GOLD)
        (tmp_path / "labeled.jsonl").write_text("".join(
            json.dumps({"id": i, "text": text, "label": label}) + "\n"
            for i, text, label in WORD_GOLD
        ), encoding="utf-8")
        assert main(["train", "--input", "labeled.jsonl", "--model", "model.json"]) == 0
        capsys.readouterr()
        flags, expected = self.MODES[mode]
        outcomes = {}
        for name in ("words", "all"):
            argv = ["eval", "--input", f"{name}.jsonl", "--gold", f"{name}.csv", *flags,
                    "--format", "json"]
            files = {path: Path(path).read_bytes() for path in argv if Path(path).is_file()}
            code, out, err = outcomes[name] = run(argv, capsys)
            assert reference.run(argv, files) == (code, out.encode(), err.encode())
        assert outcomes["words"] == (0, outcomes["all"][1], "")
        assert outcomes["all"][2] == "dropped 4 document(s) that preprocessed to empty\n"
        assert json.loads(outcomes["all"][1]).items() >= expected.items()


class TestTrainOracle:
    """``train`` writes the reference's model and its exact stderr lines (``reference.run``)."""

    EMPTY_ROW = {"id": "e", "text": "123 :) http://t.co/x", "label": "negative"}

    @staticmethod
    def rows(seed):
        rng = random.Random(seed)
        stopwords, lexicon, roots = bundled_words()
        words = sorted(lexicon)[:300] + sorted(roots)[:300] + sorted(stopwords)[:50]
        rows = []
        for i, doc in enumerate(synthdata.two_class_corpus(n_docs=200, seed=seed)):
            row = {"id": doc.source_id, "text": noisy_text(rng, doc.tokens, words),
                   "label": doc.label.value}
            if i % 3:
                row["label_source"] = "distant" if i % 3 == 1 else "manual"
            rows.append(row)
            if i % 50 == 0:
                rows.append({**TestTrainOracle.EMPTY_ROW, "id": f"e{i}"})
        return rows

    # name: (rows of the corpus from rows(seed), exit status)
    CASES = {
        "valid": (lambda rows: rows, 0),
        "one empty row, last": (lambda rows: [r for r in rows if r["id"][0] != "e"]
                                + [TestTrainOracle.EMPTY_ROW], 0),
        "unknown last label": (lambda rows: rows + [{**rows[0], "id": "z", "label": "happy"}], 2),
        "distant neutral last": (lambda rows: rows + [{**rows[0], "id": "z", "label": "neutral",
                                                       "label_source": "distant"}], 2),
        "duplicate last id": (lambda rows: rows + [rows[1]], 2),
        "no rows": (lambda rows: [], 1),
        "every row empty": (lambda rows: [{**TestTrainOracle.EMPTY_ROW, "id": r["id"]}
                                          for r in rows[:5]], 1),
        "one class": (lambda rows: [r for r in rows if r["label"] == "positive"], 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("enable_pos", [False, True])
    @pytest.mark.parametrize("enable_stemming", [False, True])
    def test_same_model_and_messages(self, case, enable_pos, enable_stemming, tmp_path, capsys):
        build, status = self.CASES[case]
        corpus, model_path = tmp_path / "labeled.jsonl", tmp_path / "model.json"
        rows = build(self.rows(1 + enable_pos + 2 * enable_stemming))
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        argv = ["train", "--input", str(corpus), "--model", str(model_path)]
        argv += ["--enable-pos"] * enable_pos + ["--disable-stemming"] * (not enable_stemming)
        files = {str(corpus): corpus.read_bytes()}
        expected = reference.run(argv, files)
        code, out, err = run(argv, capsys)
        written = model_path.read_bytes() if model_path.exists() else None
        assert expected[0] == status
        expected_model = files.get(str(model_path))
        assert (code, out.encode(), err.encode(), written) == (*expected, expected_model)


class TestReport:
    def test_percentage_rollup(self, toy_model_file, tmp_path, capsys):
        tweets = tmp_path / "in.jsonl"
        rows = [
            {"id": "1", "text": "bagus #ridwankamil"},
            {"id": "2", "text": "bagus sekali #ridwankamil"},
            {"id": "3", "text": "mantap #ridwankamil"},
            {"id": "4", "text": "buruk #ridwankamil"},
        ]
        tweets.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        predictions = tmp_path / "pred.jsonl"
        assert (
            run(
                [
                    "classify",
                    "--input", str(tweets),
                    "--model", str(toy_model_file),
                    "--out", str(predictions),
                ],
                capsys,
            )[0]
            == 0
        )
        code, out, _ = run(
            [
                "report",
                "--input", str(tweets),
                "--predictions", str(predictions),
                "--hashtags", "ridwankamil",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = {entry["group"]: entry for entry in json.loads(out)}
        group = payload["ridwankamil"]
        assert group["counts"]["positive"] == 3
        assert group["counts"]["negative"] == 1
        assert group["percentages"]["positive"] == pytest.approx(0.75)

    def test_csv_percentages(self, toy_model_file, tmp_path, capsys):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(
            json.dumps({"id": "1", "text": "bagus #pilgubjabar"}) + "\n", encoding="utf-8"
        )
        predictions = tmp_path / "pred.jsonl"
        run(
            [
                "classify",
                "--input", str(tweets),
                "--model", str(toy_model_file),
                "--out", str(predictions),
            ],
            capsys,
        )
        code, out, _ = run(
            [
                "report",
                "--input", str(tweets),
                "--predictions", str(predictions),
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "group,label,count,percentage"
        all_rows = [l.split(",") for l in lines[1:] if l.startswith("all,")]
        assert sum(float(r[3]) for r in all_rows) == pytest.approx(1.0, abs=1e-9)

    def test_empty_predictions_empty_report(self, tmp_path, capsys):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "1", "text": "x #a"}) + "\n", encoding="utf-8")
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text("", encoding="utf-8")
        code, out, _ = run(
            [
                "report",
                "--input", str(tweets),
                "--predictions", str(predictions),
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert [entry["group"] for entry in payload] == ["all"]


    def test_duplicate_prediction_id_rejected(self, tmp_path, capsys):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "1", "text": "bagus #a"}) + "\n", encoding="utf-8")
        predictions = tmp_path / "pred.jsonl"
        records = [("1", "positive"), ("2", "negative"), ("1", "negative")]
        predictions.write_text(
            "".join(json.dumps({"id": i, "label": l}) + "\n" for i, l in records),
            encoding="utf-8",
        )
        code, out, err = run(
            ["report", "--input", str(tweets), "--predictions", str(predictions)], capsys
        )
        assert code == 2
        assert out == ""
        assert f"{predictions}:3: duplicate prediction id '1'" in err

    def test_byte_order_mark_dropped(self, toy_model_file, tmp_path, capsys):
        demo = demo_corpus_path()
        predictions = tmp_path / "pred.jsonl"
        classify = ["classify", "--input", demo, "--model", str(toy_model_file)]
        assert run([*classify, "--out", str(predictions)], capsys)[0] == 0
        marked = tmp_path / "marked.jsonl"
        marked.write_bytes(b"\xef\xbb\xbf" + predictions.read_bytes())
        plain = run(["report", "--input", demo, "--predictions", str(predictions)], capsys)
        code, out, err = run(["report", "--input", demo, "--predictions", str(marked)], capsys)
        assert code == 0, err
        assert (code, out, err) == plain

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "1", "label": "positive", "posteriors": [1]},
            {"id": "1", "label": "positive", "posteriors": "positive"},
            {"id": 1, "label": "positive"},
            ["1", "positive"],
        ],
    )
    def test_bad_prediction_record_types_rejected(self, tmp_path, capsys, record):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "1", "text": "bagus #a"}) + "\n", encoding="utf-8")
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, out, err = run(
            ["report", "--input", str(tweets), "--predictions", str(predictions)], capsys
        )
        assert code == 2
        assert out == ""
        assert f"{predictions}:1: bad prediction record" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tags", ["all", "x,#ALL"])
    def test_hashtag_named_all_rejected(self, tmp_path, capsys, tags):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "1", "text": "bagus #all"}) + "\n", encoding="utf-8")
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text(json.dumps({"id": "1", "label": "positive"}) + "\n", encoding="utf-8")
        code, out, err = run(
            [
                "report",
                "--input", str(tweets),
                "--predictions", str(predictions),
                "--hashtags", tags,
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "'all' collides with the total group" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_hashtag_rejected(self, tmp_path, capsys, source):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "1", "text": "bagus #x"}) + "\n", encoding="utf-8")
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text(json.dumps({"id": "1", "label": "positive"}) + "\n", encoding="utf-8")
        if source == "flag":
            tag_args = ["--hashtags", "#,pilgubjabar"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("hashtags = #,pilgubjabar\n", encoding="utf-8")
            tag_args = ["--config", str(config)]
        code, out, err = run(
            ["report", "--input", str(tweets), "--predictions", str(predictions)] + tag_args,
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "hashtag entries must be non-empty" in err

    def test_predictions_joined_in_any_order(self, tmp_path, capsys):
        # The join keys each prediction by id: shuffling the predictions or
        # adding ids the export lacks changes no report, and each id the
        # export lacks is one warning count.
        tweets = tmp_path / "in.jsonl"
        texts = ["bagus #a", "buruk #b", "biasa #A #b", "mantap", "kurang #a"]
        rows = [{"id": f"t{i}", "text": text} for i, text in enumerate(texts)]
        rows.append({"id": "t1", "text": "duplicate id, dropped #a"})
        tweets.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        labels = ["positive", "negative", "neutral", "positive", "negative"]
        matched = [{"id": f"t{i}", "label": label} for i, label in enumerate(labels)]
        ghosts = [{"id": f"ghost{i}", "label": "positive"} for i in range(3)]
        shuffled = [matched[3], ghosts[0], matched[0], matched[4], ghosts[1], matched[2]]
        shuffled += [ghosts[2], matched[1]]
        for fmt in FORMATS:
            outputs = []
            for name, records in (("in_order", matched), ("shuffled", shuffled)):
                predictions = tmp_path / f"{name}.jsonl"
                predictions.write_text(
                    "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
                )
                code, out, err = run(
                    [
                        "report",
                        "--input", str(tweets),
                        "--predictions", str(predictions),
                        "--hashtags", "a,b",
                        "--format", fmt,
                    ],
                    capsys,
                )
                assert code == 0
                outputs.append((out, err))
            assert outputs[0][1] == ""
            assert outputs[1] == (
                outputs[0][0],
                "3 prediction(s) reference ids missing from the corpus\n",
            )
            if fmt == "json":
                assert [group["total"] for group in json.loads(outputs[0][0])] == [5, 3, 2]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("report", []),
            ("report", ["--format", "csv"]),
            ("report", ["--out", "{tmp}/r.txt"]),
            ("collect", ["--out-labeled", "{tmp}/l", "--out-unlabeled", "{tmp}/u"]),
        ],
        ids=["report-table", "report-csv", "report-out", "collect"],
    )
    def test_hashtag_not_utf8_exits_2(self, command, extra, tmp_path, capsys):
        # A command-line byte that is not UTF-8 arrives as a lone surrogate.
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text(json.dumps({"id": "t1", "label": "positive"}) + "\n")
        argv = [command, "--input", demo_corpus_path(), "--hashtags", "ab\udcff"]
        if command == "report":
            argv += ["--predictions", str(predictions)]
        code, out, err = run(argv + [arg.format(tmp=tmp_path) for arg in extra], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: hashtag 'ab\\udcff' is not valid UTF-8"]
        assert sorted(os.listdir(tmp_path)) == ["pred.jsonl"]

    def test_hashtag_argv_bytes_not_utf8(self, tmp_path):
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text(json.dumps({"id": "t1", "label": "positive"}) + "\n")
        result = subprocess.run(
            [
                sys.executable, "-m", "kicaumine.cli", "report",
                "--input", demo_corpus_path(),
                "--predictions", str(predictions),
                "--hashtags", b"ab\xff",
                "--out", str(tmp_path / "r.txt"),
            ],
            capture_output=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(b"error: ") and b"Traceback" not in result.stderr
        assert not (tmp_path / "r.txt").exists()


LABEL_NAMES = st.sampled_from(["negative", "positive", "neutral", "bogus"])
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(10**308, 10**400), st.floats(),
    st.text(max_size=3), st.sampled_from(["1.5", "nan", "-inf", "7"]), st.lists(st.integers()),
)


@st.composite
def prediction_records(draw):
    """A predictions record as classify writes it, with up to two fields spoiled."""
    record = {
        "id": "t1",
        "label": draw(LABEL_NAMES),
        "oov_tokens": draw(st.integers(0, 9)),
        "posteriors": draw(st.dictionaries(LABEL_NAMES, st.floats(0, 1), max_size=3)),
    }
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(
            ["label", "oov_tokens", "posteriors", "posterior", "posterior name", "drop"]
        ))
        if field in ("posterior", "posterior name"):
            posteriors = record.get("posteriors")
            posteriors = dict(posteriors) if isinstance(posteriors, dict) else {}
            if field == "posterior":
                posteriors[draw(LABEL_NAMES)] = draw(JSON_SCALARS)
            else:
                posteriors[draw(st.one_of(st.none(), st.integers(-1, 2)))] = 0.5
            record["posteriors"] = posteriors
        elif field == "drop":
            record.pop(draw(st.sampled_from(["label", "oov_tokens", "posteriors"])), None)
        else:
            record[field] = draw(JSON_SCALARS)
    return record


def parse_outcome(parse, record):
    try:
        return parse(record)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return (type(exc), str(exc))


class TestPredictionLabel:
    """``report`` keeps a record's label only once the whole record is valid."""

    VALID = {"id": "t1", "label": "positive", "oov_tokens": 0,
             "posteriors": {"negative": 0.25, "positive": 0.75}}
    # Each value that the label lookups miss, or that is not already a float
    # (posteriors) or an int (oov_tokens), with the field it goes in.
    FALLBACKS = [
        *({"label": value} for value in (None, 1, 1.5, True, ["positive"], "bogus", "Positive")),
        *({"posteriors": {name: 0.5}} for name in (None, 1, "bogus", "")),
        *({"posteriors": {"positive": value}} for value in (
            1, True, "1.5", "nan", "x", 10**400, None, [0.5], {"p": 1})),
        *({"oov_tokens": value} for value in (
            1.5, float("inf"), float("nan"), "7", "x", True, 10**400, None, [1])),
    ]

    def check(self, record):
        expected = parse_outcome(reference.prediction_label, record)
        assert parse_outcome(lambda r: _report._prediction_label(r).value, record) == expected

    @settings(max_examples=500, deadline=None)
    @given(prediction_records())
    def test_agrees_with_building_a_prediction(self, record):
        self.check(record)

    @pytest.mark.parametrize("spoiled", FALLBACKS)
    def test_each_fallback_agrees(self, spoiled):
        self.check({**self.VALID, **spoiled})


@st.composite
def labeled_rows(draw):
    """A labeled-corpus row as collect or a person writes it, with up to two fields spoiled."""
    record = {"id": "t1", "text": "bagus", "label": draw(LABEL_NAMES)}
    if draw(st.booleans()):
        record["label_source"] = draw(st.sampled_from(["distant", "manual"]))
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(
            ["id", "text", "label", "label_source", "created_at", "lang", "drop"]
        ))
        if field == "drop":
            record.pop(draw(st.sampled_from(sorted(record))))
        else:
            record[field] = draw(st.one_of(
                st.sampled_from(["", " ", "distant", "manual", "bogus"]), LABEL_NAMES, JSON_SCALARS
            ))
    return record


def labeled_row(record):
    text, label = _train._labeled_row(record)
    return text, label.value


class TestLabeledTweet:
    """``train`` reads a labeled row as ``reference.labeled_row`` does.

    ``_train._labeled_row`` builds no record: it must raise the same error,
    or give the same text and label.
    """

    @settings(max_examples=300, deadline=None)
    @given(labeled_rows())
    def test_agrees_with_former_reader(self, record):
        assume(isinstance(record.get("id"), str))  # the strict reader refuses any other id first
        assert parse_outcome(labeled_row, record) == parse_outcome(reference.labeled_row, record)


# JSON that json.loads fails on with other errors than a JSONDecodeError:
# nesting past the recursion limit, and (CPython 3.11 and later) an integer
# of more digits than int() converts.
DEEP = "[" * 100_000
HOSTILE_LINES = [DEEP, '{"id": "deep", "text": ' + DEEP, '{"id": "big", "n": ' + "1" * 5_000 + "}"]
# Lone surrogate escapes: in a text, which collect writes, and in an id,
# which classify writes.
SURROGATE_LINES = [
    '{"id": "s1", "text": "bagus calon \\ud800 #pilgubjabar :)"}',
    '{"id": "s\\udc00", "text": "bagus calon #pilgubjabar :)"}',
]
EXPORT_HOSTILE_LINES = HOSTILE_LINES + SURROGATE_LINES


class TestHostileJson:
    def exports(self, tmp_path):
        """The demo corpus, and the same with the hostile lines appended."""
        demo = tmp_path / "demo.jsonl"
        shutil.copyfile(demo_corpus_path(), demo)
        hostile = tmp_path / "hostile.jsonl"
        hostile.write_text(
            demo.read_text(encoding="utf-8") + "\n".join(EXPORT_HOSTILE_LINES) + "\n",
            encoding="utf-8",
        )
        return demo, hostile

    def test_collect_counts_them_as_malformed(self, tmp_path, capsys):
        outputs = {}
        for export in self.exports(tmp_path):
            labeled, unlabeled = tmp_path / f"{export.stem}.l", tmp_path / f"{export.stem}.u"
            code, out, _ = run(
                [
                    "collect",
                    "--input", str(export),
                    "--out-labeled", str(labeled),
                    "--out-unlabeled", str(unlabeled),
                    "--format", "json",
                ],
                capsys,
            )
            assert code == 0
            outputs[export.stem] = (json.loads(out), labeled.read_bytes(), unlabeled.read_bytes())
        demo, hostile = outputs["demo"], outputs["hostile"]
        extra = len(EXPORT_HOSTILE_LINES)
        assert hostile[0] == {
            **demo[0],
            "total_ingested": demo[0]["total_ingested"] + extra,
            "rejected_malformed": demo[0]["rejected_malformed"] + extra,
        }
        assert hostile[1:] == demo[1:]

    @pytest.mark.parametrize("command", ["classify", "eval", "report"])
    def test_readers_skip_them(self, command, toy_model_file, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,label\nt1,positive\nt3,negative\n", encoding="utf-8")
        predictions = tmp_path / "pred.jsonl"
        predictions.write_text(
            json.dumps({"id": "t1", "label": "positive"}) + "\n", encoding="utf-8"
        )
        argv = {
            "classify": ["classify", "--model", str(toy_model_file)],
            "eval": ["eval", "--gold", str(gold), "--model", str(toy_model_file)],
            "report": ["report", "--predictions", str(predictions)],
        }[command]
        results = [run(argv + ["--input", str(export)], capsys) for export in self.exports(tmp_path)]
        assert results[0][0] == 0
        assert results[1] == results[0]

    @pytest.mark.parametrize(
        "kind, first_line",
        [
            ("labeled", {"id": "a", "text": "bagus", "label": "positive"}),
            ("predictions", {"id": "t1", "label": "positive"}),
        ],
    )
    @pytest.mark.parametrize("hostile", HOSTILE_LINES[1:], ids=["deep", "huge-int"])
    def test_strict_reader_names_the_line(self, kind, first_line, hostile, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(first_line) + "\n" + hostile + "\n", encoding="utf-8")
        if kind == "labeled":
            argv = ["train", "--input", str(bad), "--model", str(tmp_path / "m.json")]
        else:
            argv = ["report", "--input", demo_corpus_path(), "--predictions", str(bad)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        [message] = err.splitlines()
        assert message.startswith(f"error: {bad}:2: bad ")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "model_text",
        ['{"labels": ' + DEEP, '{"alpha": ' + "1" * 5_000 + "}"],
        ids=["deep", "huge-int"],
    )
    def test_model_file_exits_1(self, model_text, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(model_text, encoding="utf-8")
        code, out, err = run(
            ["classify", "--input", demo_corpus_path(), "--model", str(model)], capsys
        )
        assert (code, out) == (1, "")
        [message] = err.splitlines()
        assert message.startswith("error: ")

    @pytest.mark.parametrize("command", ["classify", "eval"])
    def test_non_utf8_model_file_exits_1(self, command, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b"\xff\xfe{}")
        gold = tmp_path / "gold.csv"
        gold.write_text("id,label\nt1,positive\n", encoding="utf-8")
        argv = [command, "--input", demo_corpus_path(), "--model", str(model)]
        if command == "eval":
            argv += ["--gold", str(gold)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        [message] = err.splitlines()
        assert message.startswith("error: model file is not valid JSON: ")

    @pytest.mark.parametrize(
        "fields",
        [
            '"oov_tokens": Infinity',
            '"oov_tokens": 1e400',
            '"posteriors": {"positive": 1' + "0" * 400 + "}",
        ],
        ids=["infinity", "float-overflow", "huge-posterior"],
    )
    def test_prediction_number_overflow_names_the_line(self, fields, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps({"id": "t1", "label": "positive"})
            + '\n{"id": "t2", "label": "negative", '
            + fields
            + "}\n",
            encoding="utf-8",
        )
        argv = ["report", "--input", demo_corpus_path(), "--predictions", str(bad)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        [message] = err.splitlines()
        assert message.startswith(f"error: {bad}:2: bad prediction record: ")

    def test_oversized_gold_field_names_the_line(self, toy_model_file, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("id,label\nt1,positive\nt2," + "x" * 200_000 + "\n", encoding="utf-8")
        argv = ["eval", "--input", demo_corpus_path(), "--gold", str(gold)]
        code, out, err = run(argv + ["--model", str(toy_model_file)], capsys)
        assert (code, out) == (2, "")
        [message] = err.splitlines()
        assert message.startswith(f"error: {gold}:3: bad gold CSV: ")


NOT_UTF8 = b"\xff\xfe"
TRAIN_WITH = "train --input {labeled} --model {out}/m.json"
COLLECT_WITH = "collect --input {demo} --out-labeled {out}/l.jsonl --out-unlabeled {out}/u.jsonl"

# Each strict input: its content with a non-UTF-8 line 2, and the command that reads it.
STRICT_INPUTS = {
    "labeled": (
        b'{"id": "a", "text": "bagus", "label": "positive"}\n{"id": "b", "text": "' + NOT_UTF8 + b'"}\n',
        "train --input {bad} --model {out}/m.json",
    ),
    "predictions": (
        b'{"id": "t1", "label": "positive"}\n{"id": "' + NOT_UTF8 + b'"}\n',
        "report --input {demo} --predictions {bad}",
    ),
    "gold": (b"id,label\nt2," + NOT_UTF8 + b"\n", "eval --input {demo} --gold {bad} --model {model}"),
    "config": (b"seed=1\n# " + NOT_UTF8 + b"\n", "train --config {bad}"),
    "stopwords": (b"bagus\n" + NOT_UTF8 + b"\n", TRAIN_WITH + " --stopwords {bad}"),
    "pos-lexicon": (b"bagus\tADJ\n" + NOT_UTF8 + b"\n", TRAIN_WITH + " --pos-lexicon {bad}"),
    "stem-roots": (b"bagus\n" + NOT_UTF8 + b"\n", TRAIN_WITH + " --stem-roots {bad}"),
    "wordlist": (b"bagus\n" + NOT_UTF8 + b"\n", COLLECT_WITH + " --wordlist {bad}"),
    "hashtags-file": (b"pilgubjabar\n" + NOT_UTF8 + b"\n", COLLECT_WITH + " --hashtags-file {bad}"),
}


@pytest.mark.parametrize("kind", list(STRICT_INPUTS))
def test_strict_input_not_utf8_exits_2(kind, collected, toy_model_file, tmp_path, capsys):
    content, command = STRICT_INPUTS[kind]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    paths = dict(
        bad=bad, labeled=collected[0], model=toy_model_file, out=outputs, demo=demo_corpus_path()
    )
    code, out, err = run([word.format(**paths) for word in command.split()], capsys)
    assert code == 2
    assert out == ""
    [message] = [line for line in err.splitlines() if line.startswith("error:")]
    assert str(bad) in message
    if kind in ("labeled", "predictions"):
        assert f"{bad}:2:" in message
    assert not os.listdir(outputs)


# Per command: its arguments, where each input in angle brackets is a
# pipe in the piped run and the file it carries in the plain one.
PIPED_INPUTS = {
    "collect": "collect --input <demo> --out-labeled l.jsonl --out-unlabeled u.jsonl --format json",
    "train": "train --input <labeled> --model m.json",
    "classify": "classify --input <demo> --model {model} --out p.jsonl",
    "report": "report --input <demo> --predictions <predictions> --format csv",
    "eval": "eval --input <demo> --gold <gold> --model {model} --format json",
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", list(PIPED_INPUTS))
def test_inputs_may_be_pipes(command, collected, toy_model_file, tmp_path, capsys):
    # Each command opens each input once and only reads it, so a pipe gives
    # the outputs, stdout and stderr of the file that it carries.
    predictions = tmp_path / "predictions.jsonl"
    assert main(["classify", "--input", demo_corpus_path(), "--model", str(toy_model_file),
                 "--out", str(predictions)]) == 0
    gold = tmp_path / "gold.csv"
    gold.write_text("id,label\nt1,positive\nt2,positive\nt3,negative\n", encoding="utf-8")
    sources = dict(demo=demo_corpus_path(), labeled=collected[0], predictions=predictions,
                   gold=gold, model=toy_model_file)
    # The children run in their own directories, so the package's own
    # directory goes on their path.
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(resources.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    results = []
    for run_name in ("plain", "piped"):
        work = tmp_path / run_name
        work.mkdir()
        argv, feeders = [], []
        for word in PIPED_INPUTS[command].split():
            if word.startswith("<"):
                name = word[1:-1]
                word = str(sources[name])
                if run_name == "piped":
                    pipe = work / f"{name}.pipe"
                    os.mkfifo(pipe)
                    data = Path(word).read_bytes()
                    feeders.append(threading.Thread(target=pipe.write_bytes, args=(data,),
                                                    daemon=True))
                    word = str(pipe)
            argv.append(word.format(**sources))
        for feeder in feeders:
            feeder.start()
        # A subprocess, so that a command blocked on a pipe fails the test by
        # its timeout instead of hanging it.
        child = subprocess.run([sys.executable, "-m", "kicaumine.cli", *argv], cwd=work,
                               env=env, capture_output=True, timeout=60)
        assert child.returncode == 0, child.stderr
        for feeder in feeders:
            feeder.join(timeout=10)
            assert not feeder.is_alive()
        outputs = {path.name: path.read_bytes() for path in work.iterdir() if path.is_file()}
        results.append((child.stdout, child.stderr, outputs))
    assert results[0] == results[1]
    assert results[0][0] or results[0][2]


PREVIOUS = "previous content\n"

def classify_to(path, model):
    """Run classify on the demo corpus into ``path``; return the exit status."""
    return main(
        ["classify", "--input", demo_corpus_path(), "--model", str(model), "--out", str(path)]
    )


WRITERS = {
    "save_model": lambda path, model: save_model(
        train([Document("p", ("bagus",), POS), Document("n", ("buruk",), NEG)]), path
    ),
    "classify": classify_to,
    "emit": lambda path, model: resources._emit("new text", path),
}


@pytest.fixture(scope="module")
def outside_model(tmp_path_factory):
    """A model file outside the directory a test writes into."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    docs = [Document("p", ("bagus", "calon"), POS), Document("n", ("buruk",), NEG)]
    save_model(train(docs), path)
    return path


class TestAtomicWrites:
    def test_failure_mid_write_keeps_previous_file(self, tmp_path, monkeypatch, outside_model):
        out = tmp_path / "out.jsonl"
        out.write_text(PREVIOUS, encoding="utf-8")
        scored = []
        posteriors = model._posteriors

        def fail_on_second(*args):
            scored.append(args)
            if len(scored) == 2:
                raise RuntimeError("scoring failed mid-write")
            return posteriors(*args)

        # One tweet per round: the first line is written before the failure.
        monkeypatch.setattr(_classify, "_CLASSIFY_CHUNK", 1)
        monkeypatch.setattr(model, "_posteriors", fail_on_second)
        with pytest.raises(RuntimeError, match="mid-write"):
            classify_to(out, outside_model)
        assert out.read_text(encoding="utf-8") == PREVIOUS
        assert os.listdir(tmp_path) == ["out.jsonl"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_previous_file(
        self, tmp_path, monkeypatch, capsys, outside_model, writer
    ):
        out = tmp_path / "out"
        out.write_text(PREVIOUS, encoding="utf-8")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        # A library writer raises; a command reports the error and exits 1.
        try:
            status = WRITERS[writer](out, outside_model)
        except OSError as exc:
            error = str(exc)
        else:
            assert status == 1
            error = capsys.readouterr().err
        assert "replace refused" in error
        assert out.read_text(encoding="utf-8") == PREVIOUS
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_success_replaces_and_leaves_no_temp_file(self, tmp_path, outside_model, writer):
        out = tmp_path / "out"
        out.write_text(PREVIOUS, encoding="utf-8")
        assert not WRITERS[writer](out, outside_model)
        fresh = tmp_path / "fresh"
        assert not WRITERS[writer](fresh, outside_model)
        assert out.read_bytes() == fresh.read_bytes() != PREVIOUS.encode()
        assert sorted(os.listdir(tmp_path)) == ["fresh", "out"]

    def test_symlink_target_updated_link_kept(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text(PREVIOUS, encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        resources._emit("new text", link)
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == "new text\n"

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_existing_permission_bits_kept(self, tmp_path, outside_model, writer):
        out = tmp_path / "out"
        out.write_text(PREVIOUS, encoding="utf-8")
        out.chmod(0o600)
        assert not WRITERS[writer](out, outside_model)
        assert out.read_text(encoding="utf-8") != PREVIOUS
        assert out.stat().st_mode & 0o777 == 0o600

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_cli_out_to_piped_stdout(self, toy_model_file, tmp_path):
        tweets = tmp_path / "in.jsonl"
        tweets.write_text(json.dumps({"id": "q1", "text": "bagus"}) + "\n", encoding="utf-8")
        command = [
            sys.executable, "-m", "kicaumine.cli",
            "classify", "--input", str(tweets), "--model", str(toy_model_file),
        ]
        plain = subprocess.run(command, stdout=subprocess.PIPE, check=True)
        piped = subprocess.run(
            command + ["--out", "/dev/stdout"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == plain.stdout != b""
        assert sorted(os.listdir(tmp_path)) == sorted(["in.jsonl", "toy_model.json"])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_non_regular_target_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
        )
        reader.start()
        resources._emit("new text", fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ["new text\n"]
        assert os.listdir(tmp_path) == ["pipe"]


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys, collected):
        labeled, _, _ = collected
        config = tmp_path / "run.conf"
        config.write_text(
            f"input={labeled}\nmodel={tmp_path / 'from_file.json'}\nenable_stemming=false\n",
            encoding="utf-8",
        )
        override = tmp_path / "override.json"
        code, _, _ = run(
            ["train", "--config", str(config), "--model", str(override)], capsys
        )
        assert code == 0
        assert override.exists()
        assert not (tmp_path / "from_file.json").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("no_such_key=1\n", encoding="utf-8")
        code, _, err = run(["train", "--config", str(config)], capsys)
        assert code == 2
        assert "no_such_key" in err

    def test_bad_boolean_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("enable_pos=yes\n", encoding="utf-8")
        code, _, err = run(["train", "--config", str(config)], capsys)
        assert code == 2
        assert "true or false" in err
