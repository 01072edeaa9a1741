import json
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

from conftest import NEG, POS
from kicaumine import cli
from kicaumine.cli import main
from kicaumine.corpus import CorpusStats
from kicaumine.model import save_model, train
from kicaumine.preprocess import Document
from kicaumine.resources import demo_corpus_path


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

    def test_missing_gold_ids_warned_and_excluded(
        self, toy_model_file, tmp_path, capsys, caplog
    ):
        gold = self.write_gold(tmp_path, [("t1", "positive"), ("ghost", "negative")])
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
        assert any("ghost" in record.message for record in caplog.records)
        assert json.loads(out)["n_test"] == 1

    def test_missing_gold_ids_log_line_is_bounded(
        self, toy_model_file, tmp_path, capsys, caplog
    ):
        ghosts = [f"ghost{i:02d}" for i in range(25)]
        gold = self.write_gold(tmp_path, [("t1", "positive")] + [(g, "negative") for g in ghosts])
        code, _, _ = run(
            [
                "eval",
                "--input", demo_corpus_path(),
                "--gold", str(gold),
                "--model", str(toy_model_file),
            ],
            capsys,
        )
        assert code == 0
        [message] = [
            r.getMessage() for r in caplog.records if "missing from the corpus" in r.getMessage()
        ]
        assert message == (
            "25 gold id(s) missing from the corpus and excluded: "
            + ", ".join(ghosts[:10])
            + ", ... and 15 more"
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

    @pytest.mark.parametrize(
        "row, message",
        [(",positive", "empty gold id"), ("t2,happy", "unknown gold label 'happy' for id 't2'")],
        ids=["empty-id", "unknown-label"],
    )
    def test_bad_gold_row_names_line(self, row, message, toy_model_file, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text(f"id,label\nt1,positive\n{row}\n", encoding="utf-8")
        argv = ["eval", "--input", demo_corpus_path(), "--gold", str(gold)]
        code, out, err = run(argv + ["--model", str(toy_model_file)], capsys)
        assert code == 2
        assert out == ""
        assert f"{gold}:3: {message}" in err

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


PREVIOUS = "previous content\n"

WRITERS = {
    "save_model": lambda path: save_model(
        train([Document("p", ("bagus",), POS), Document("n", ("buruk",), NEG)]), path
    ),
    "write_jsonl": lambda path: cli._write_jsonl(path, [{"id": "1"}, {"id": "2"}]),
    "emit": lambda path: cli._emit("new text", path),
}


class TestAtomicWrites:
    def test_failure_mid_write_keeps_previous_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text(PREVIOUS, encoding="utf-8")

        def records():
            yield {"id": "1"}
            raise RuntimeError("input failed mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            cli._write_jsonl(out, records())
        assert out.read_text(encoding="utf-8") == PREVIOUS
        assert os.listdir(tmp_path) == ["out.jsonl"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        out = tmp_path / "out"
        out.write_text(PREVIOUS, encoding="utf-8")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            WRITERS[writer](out)
        assert out.read_text(encoding="utf-8") == PREVIOUS
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_success_replaces_and_leaves_no_temp_file(self, tmp_path, writer):
        out = tmp_path / "out"
        out.write_text(PREVIOUS, encoding="utf-8")
        WRITERS[writer](out)
        fresh = tmp_path / "fresh"
        WRITERS[writer](fresh)
        assert out.read_bytes() == fresh.read_bytes() != PREVIOUS.encode()
        assert sorted(os.listdir(tmp_path)) == ["fresh", "out"]

    def test_symlink_target_updated_link_kept(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text(PREVIOUS, encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        cli._emit("new text", link)
        assert link.is_symlink()
        assert real.read_text(encoding="utf-8") == "new text\n"

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_existing_permission_bits_kept(self, tmp_path, writer):
        out = tmp_path / "out"
        out.write_text(PREVIOUS, encoding="utf-8")
        out.chmod(0o600)
        WRITERS[writer](out)
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
        cli._emit("new text", fifo)
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
