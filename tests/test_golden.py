"""Golden artifacts: every command's outputs against committed sha256 hashes.

Three small seeded exports from ``perfbench/synth.py`` (campaign; POS on
with stemming off; noisy) go through collect -> train -> classify ->
report -> eval (``--model``, holdout and ``--k``) in process, in every
``--format``. The sha256 of each output file and of stdout must match
``golden.json``. One corpus is also run in a child process under a fixed
``PYTHONHASHSEED``, so that the hashes are pinned under two string-hash
seeds: no artifact may depend on the order in which sets, dicts or
Counters keyed by strings were filled.

``golden.json`` changes only with a change whose purpose is to change
the output. Posteriors go through ``math.exp``, so the file records the
Python version that produced it; a mismatch on another version is
reported with both versions.

To regenerate after an intended output change, run
``python tests/test_golden.py`` from the repository root.
"""

import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
DATA = REPO / "src" / "kicaumine" / "data"
FORMATS = ("table", "json", "csv")
TAGS = "pilgubjabar,ridwankamil,deddymizwar,dedimulyadi,pilkadajabar"

# name: (corpus style, export lines, seed, pipeline flags)
CORPORA = {
    "campaign": ("campaign", 600, 7101, []),
    "pos-nostem": ("campaign", 600, 7102, ["--enable-pos", "--disable-stemming"]),
    "noisy": ("noisy", 200, 7103, []),
}


def _synth():
    spec = importlib.util.spec_from_file_location("_golden_synth", REPO / "perfbench" / "synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corpus_hashes(name: str, work: Path) -> dict[str, str]:
    """Run every command on corpus ``name`` in ``work``; hash each output."""
    from kicaumine.cli import main

    style, lines, seed, flags = CORPORA[name]
    export, gold = work / "export.jsonl", work / "gold.csv"
    _synth().CorpusGenerator(DATA, seed, style).write(lines, export, gold, "heldout")
    labeled, unlabeled = work / "labeled.jsonl", work / "unlabeled.jsonl"
    model, predictions = work / "model.json", work / "predictions.jsonl"
    hashes = {}

    def run(key, argv, files=()):
        with redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        assert code == 0, f"{key} exited {code}"
        hashes[f"{name}/{key}/stdout"] = _sha(out.getvalue().encode("utf-8"))
        for path in files:
            hashes[f"{name}/{key}/{path.name}"] = _sha(path.read_bytes())

    for fmt in FORMATS:
        run(f"collect.{fmt}", ["collect", "--input", str(export), "--hashtags", TAGS,
                               "--out-labeled", str(labeled), "--out-unlabeled", str(unlabeled),
                               "--format", fmt], (labeled, unlabeled))
    run("train", ["train", "--input", str(labeled), "--model", str(model), *flags], (model,))
    run("classify", ["classify", "--input", str(unlabeled), "--model", str(model),
                     "--out", str(predictions), *flags], (predictions,))
    run("classify.stdout", ["classify", "--input", str(unlabeled), "--model", str(model), *flags])
    for fmt in FORMATS:
        run(f"report.{fmt}", ["report", "--input", str(unlabeled), "--predictions",
                              str(predictions), "--hashtags", TAGS, "--format", fmt])
        base = ["eval", "--input", str(export), "--gold", str(gold), *flags, "--format", fmt]
        run(f"eval-model.{fmt}", [*base, "--model", str(model)])
        run(f"eval-holdout.{fmt}", [*base, "--seed", "5"])
        run(f"eval-kfold.{fmt}", [*base, "--k", "5", "--seed", "5"])
    out_file = work / "eval.out"
    run("eval-kfold.file", ["eval", "--input", str(export), "--gold", str(gold), *flags,
                            "--k", "5", "--format", "json", "--out", str(out_file)], (out_file,))

    # A model with as many documents in each class and tweets with none of
    # its words: under --oov skip their scores tie exactly.
    rows = labeled.read_text(encoding="utf-8").splitlines()
    by_label = {lab: [r for r in rows if json.loads(r)["label"] == lab]
                for lab in ("positive", "negative")}
    size = min(map(len, by_label.values()))
    balanced, unseen = work / "balanced.jsonl", work / "unseen.jsonl"
    balanced.write_text("".join(r + "\n" for lab in by_label for r in by_label[lab][:size]),
                        encoding="utf-8")
    unseen.write_text('{"id": "u1", "text": "qqzx vvxq"}\n{"id": "u2", "text": "RT :)"}\n',
                      encoding="utf-8")
    run("train-balanced", ["train", "--input", str(balanced), "--model", str(model), *flags],
        (model,))
    run("classify-tie", ["classify", "--input", str(unseen), "--model", str(model),
                         "--oov", "skip", *flags])
    return hashes


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_artifacts_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = corpus_hashes(name, tmp_path)
    expected = {key: value for key, value in golden["hashes"].items() if key.startswith(name + "/")}
    changed = sorted(key for key in expected.keys() | actual.keys()
                     if expected.get(key) != actual.get(key))
    assert not changed, (
        f"{len(changed)} artifact hash(es) differ from golden.json (recorded on Python "
        f"{golden['python']}, running {platform.python_version()}): {changed}"
    )


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["hashes"]
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    paths = [str(REPO / "src"), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    path = os.pathsep.join(filter(None, paths))
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, pathlib; from test_golden import corpus_hashes; "
         "print(json.dumps(corpus_hashes(sys.argv[1], pathlib.Path(sys.argv[2]))))",
         "noisy", str(tmp_path)],
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    hashes = json.loads(child.stdout.splitlines()[-1])
    assert hashes == {key: value for key, value in golden.items() if key.startswith("noisy/")}


def _regenerate():
    import tempfile

    sys.path.insert(0, str(REPO / "src"))
    hashes = {}
    for name in sorted(CORPORA):
        with tempfile.TemporaryDirectory() as work:
            hashes.update(corpus_hashes(name, Path(work)))
    payload = {"python": platform.python_version(), "hashes": dict(sorted(hashes.items()))}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
