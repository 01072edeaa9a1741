"""Each command's stderr bytes on the demo corpus, run as a real process.

The diagnostics are pinned byte for byte: their texts, their order, and
where the ``error:`` line falls among them. A run with stderr closed must
print the same data and exit with the same status as one with it open.
"""

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


def cli(*args, cwd, closed_stderr=False):
    """Run ``python -m kicaumine.cli`` with ``args`` in ``cwd``; (status, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "kicaumine.cli", *args]
    if closed_stderr:
        argv = ["sh", "-c", 'exec "$0" "$@" 2>&-', *argv]
    result = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stderr_bytes(work, case):
    argv, status, stderr = CASES[case]
    result = cli(*argv, cwd=work)
    assert (result[0], result[2]) == (status, stderr.encode())


@pytest.mark.parametrize("case", ["collect", "train", "eval-k-skip-then-error", "missing-input"])
def test_closed_stderr_changes_no_result(work, case):
    # A diagnostic line that cannot be written is dropped; the data and the
    # exit status are those of a run whose stderr is open.
    argv, status, _ = CASES[case]
    open_run = cli(*argv, cwd=work)
    closed_run = cli(*argv, cwd=work, closed_stderr=True)
    assert closed_run[:2] == open_run[:2]
    assert closed_run[0] == status

