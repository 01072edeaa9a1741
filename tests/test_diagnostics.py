"""Each command's stderr bytes on the demo corpus, run as a real process.

The diagnostics are pinned byte for byte: their texts, their order, and
where the ``error:`` line falls among them. A run with stderr closed must
print the same data and exit with the same status as one with it open.
So are the exits on a failing stdout: closed, full (``/dev/full``) or a
pipe whose reader is gone. Each child runs with ``PYTHONUNBUFFERED``
unset, so its stdout is buffered as by default and a failing final
flush shows.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kicaumine.resources import demo_corpus_path

SRC = Path(__file__).resolve().parents[1] / "src"
DEMO = demo_corpus_path()

# A labeled record whose words are all stopwords, so it preprocesses to empty.
EMPTY_DOC = '{"id": "e1", "label": "positive", "label_source": "distant", "text": "yang dan :)"}\n'
GHOST_PREDICTION = (
    '{"id": "ghost", "label": "positive", "oov_tokens": 0, '
    '"posteriors": {"negative": 0.5, "positive": 0.5}}\n'
)
SKIP_LINE = "fold {}: skipping {} test doc(s) with labels absent from the fold model\n"


def cli(*args, cwd, redirect="", stdout=subprocess.PIPE):
    """Run ``python -m kicaumine.cli`` with ``args`` in ``cwd``; (status, stdout, stderr).

    ``redirect`` is a shell redirection applied to the child, such as
    ``2>&-``; ``stdout`` is passed to ``subprocess.run``.
    """
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "kicaumine.cli", *args]
    if redirect:
        argv = ["sh", "-c", f'exec "$0" "$@" {redirect}', *argv]
    result = subprocess.run(argv, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE)
    return result.returncode, result.stdout, result.stderr


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the demo corpus's labeled corpus, model and predictions."""
    work = tmp_path_factory.mktemp("diagnostics")
    status, _, _ = cli(
        "collect", "--input", DEMO, "--out-labeled", "labeled.jsonl",
        "--out-unlabeled", "unlabeled.jsonl", cwd=work,
    )
    assert status == 0
    status, _, _ = cli("train", "--input", "labeled.jsonl", "--model", "model.json", cwd=work)
    assert status == 0
    status, _, _ = cli(
        "classify", "--input", DEMO, "--model", "model.json", "--out", "predictions.jsonl",
        cwd=work,
    )
    assert status == 0
    labeled = (work / "labeled.jsonl").read_text(encoding="utf-8")
    (work / "labeled_empty.jsonl").write_text(labeled + EMPTY_DOC, encoding="utf-8")
    (work / "model_bad.json").write_bytes(b"\xff\xfe not UTF-8\n")
    predictions = (work / "predictions.jsonl").read_text(encoding="utf-8")
    (work / "predictions_ghost.jsonl").write_text(predictions + GHOST_PREDICTION, encoding="utf-8")
    (work / "gold.csv").write_text(
        "id,label\nt1,positive\nt2,positive\nt3,negative\nt4,neutral\nghost,negative\n",
        encoding="utf-8",
    )
    (work / "gold5.csv").write_text(
        "id,label\nt1,positive\nt2,positive\nt3,negative\nt4,negative\nt5,neutral\n",
        encoding="utf-8",
    )
    (work / "gold6.csv").write_text(
        "id,label\nt1,positive\nt2,positive\nt3,negative\nt4,negative\nt5,neutral\nt6,negative\n",
        encoding="utf-8",
    )
    return work


COLLECT = (
    "collect", "--input", DEMO, "--out-labeled", "l.jsonl", "--out-unlabeled", "u.jsonl",
    "--format", "json",
)

CASES = {
    "collect": (COLLECT, 0, "collected 3 labeled and 1 unlabeled tweets\n"),
    "train": (
        ("train", "--input", "labeled_empty.jsonl", "--model", "m.json"),
        0,
        "dropped 1 document(s) that preprocessed to empty\n"
        "trained on 3 documents over negative/positive; model written to m.json\n",
    ),
    "classify": (
        ("classify", "--input", DEMO, "--model", "model.json", "--out", "p.jsonl"),
        0,
        "classified 6 tweet(s)\n",
    ),
    "report": (
        ("report", "--input", DEMO, "--predictions", "predictions_ghost.jsonl"),
        0,
        "1 prediction(s) reference ids missing from the corpus\n",
    ),
    "eval-model": (
        ("eval", "--input", DEMO, "--gold", "gold.csv", "--model", "model.json"),
        0,
        "1 gold id(s) missing from the corpus and excluded: ghost\n"
        "skipping 1 gold doc(s) with labels absent from the model\n",
    ),
    # The gold join, with its missing-id line, runs before the model is read.
    "eval-model-bad-model": (
        ("eval", "--input", DEMO, "--gold", "gold.csv", "--model", "model_bad.json"),
        1,
        "1 gold id(s) missing from the corpus and excluded: ghost\n"
        "error: model file is not valid JSON: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n",
    ),
    "eval-k-skips": (
        ("eval", "--input", DEMO, "--gold", "gold6.csv", "--k", "2", "--seed", "4"),
        0,
        SKIP_LINE.format(1, 1) + SKIP_LINE.format(2, 2),
    ),
    "eval-k-skip-then-error": (
        ("eval", "--input", DEMO, "--gold", "gold6.csv", "--k", "4", "--seed", "1"),
        1,
        SKIP_LINE.format(3, 1) + "error: fold 3 has no evaluable test documents\n",
    ),
    # The holdout model of seed 5 trains on two classes, and its test side
    # holds only the neutral document.
    "eval-holdout-skip-then-error": (
        ("eval", "--input", DEMO, "--gold", "gold5.csv", "--seed", "5"),
        1,
        "skipping 1 test doc(s) with labels absent from the holdout model\n"
        "error: holdout test side has no evaluable documents\n",
    ),
    "missing-input": (
        ("report", "--input", "nope.jsonl", "--predictions", "predictions.jsonl"),
        2,
        "error: input: no such file: nope.jsonl\n",
    ),
    "directory-input": (
        ("train", "--input", ".", "--model", "m.json"),
        2,
        "error: input: is a directory: .\n",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stderr_bytes(work, case):
    argv, status, stderr = CASES[case]
    result = cli(*argv, cwd=work)
    assert (result[0], result[2]) == (status, stderr.encode())


@pytest.mark.parametrize(
    "case", ["collect", "train", "report", "eval-model", "eval-k-skip-then-error", "missing-input"]
)
def test_closed_stderr_changes_no_result(work, case):
    # A diagnostic line that cannot be written is dropped; the data and the
    # exit status are those of a run whose stderr is open.
    argv, status, _ = CASES[case]
    open_run = cli(*argv, cwd=work)
    closed_run = cli(*argv, cwd=work, redirect="2>&-")
    assert closed_run[:2] == open_run[:2]
    assert closed_run[0] == status


# Each command that prints its data to stdout, and its diagnostics before
# the one it cannot print.
STDOUT_CASES = {
    "collect": (COLLECT, "collected 3 labeled and 1 unlabeled tweets\n"),
    "classify": (("classify", "--input", DEMO, "--model", "model.json"), ""),
    "report": (("report", "--input", DEMO, "--predictions", "predictions.jsonl"), ""),
    "eval": (
        ("eval", "--input", DEMO, "--gold", "gold5.csv", "--model", "model.json"),
        "skipping 1 gold doc(s) with labels absent from the model\n",
    ),
}


@pytest.mark.parametrize("case", sorted(STDOUT_CASES))
def test_closed_stdout_prints_one_error_line(work, case):
    argv, before = STDOUT_CASES[case]
    expected = before + "error: stdout is closed\n"
    assert cli(*argv, cwd=work, redirect=">&-") == (1, b"", expected.encode())


def _ignored_flush_error(error: str) -> str:
    """The lines the interpreter prints when its final flush of stdout fails."""
    return (
        "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
        f"{error}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_reported_at_exit(work):
    # The stats fit stdout's buffer, so the first write to /dev/full is the
    # final flush: the interpreter reports it and exits 120.
    argv, _, stderr = CASES["collect"]
    expected = stderr + _ignored_flush_error("OSError: [Errno 28] No space left on device")
    assert cli(*argv, cwd=work, redirect=">/dev/full") == (120, b"", expected.encode())


def _cli_to_closed_pipe(*args, cwd):
    """``cli`` with stdout a pipe that has no reader, so every write fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return cli(*args, cwd=cwd, stdout=write_end)
    finally:
        os.close(write_end)


def test_broken_pipe_mid_run_is_an_error_line(work, tmp_path):
    # Predictions past stdout's buffer: a write inside the command fails.
    lines = Path(DEMO).read_text(encoding="utf-8").splitlines()
    many = tmp_path / "many.jsonl"
    with many.open("w", encoding="utf-8") as handle:
        for n in range(400):
            record = json.loads(lines[n % len(lines)])
            record["id"] = f"m{n}"
            handle.write(json.dumps(record) + "\n")
    argv = ("classify", "--input", str(many), "--model", "model.json")
    assert _cli_to_closed_pipe(*argv, cwd=work) == (1, None, b"error: [Errno 32] Broken pipe\n")


def test_broken_pipe_at_exit_reported(work):
    # Predictions that fit stdout's buffer: only the final flush fails.
    argv = ("classify", "--input", DEMO, "--model", "model.json")
    expected = "classified 6 tweet(s)\n" + _ignored_flush_error(
        "BrokenPipeError: [Errno 32] Broken pipe"
    )
    assert _cli_to_closed_pipe(*argv, cwd=work) == (120, None, expected.encode())
