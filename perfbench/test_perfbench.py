"""Self-test of the benchmark on tiny corpora; no timing is checked.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from synth import CorpusGenerator

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("style", ["campaign", "noisy"])
def test_generator_is_seeded(tmp_path, style):
    def export(seed, name):
        gen = CorpusGenerator(run.DATA, seed, style)
        gen.write(200, tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv", "heldout")
        return (tmp_path / f"{name}.jsonl").read_bytes(), (tmp_path / f"{name}.csv").read_bytes()

    assert export(5, "a") == export(5, "b")
    assert export(5, "a") != export(6, "c")


def test_self_time_subtracts_children():
    sys.path.insert(0, str(run.SRC))
    import layers

    tracer = layers.Tracer()
    tracer.spans = [
        ["outer", "0:eval", 0.0, 10.0, None],
        ["inner", "0:eval", 1.0, 4.0, 0],
        ["inner", "0:eval", 5.0, 6.0, 0],
        ["leaf", "0:eval", 2.0, 3.0, 1],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_is_correct(tmp_path, monkeypatch, name, trace):
    # The warm-up plus one measured iteration still checks byte-identical reruns.
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    workload = dataclasses.replace(run.WORKLOADS[name], lines=300)
    result = run.run(workload, seed=3, seconds=0.1, trace=trace, work=tmp_path / name)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * (len(run.COMMANDS) + 1)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["stemming.calls"] > 0 if workload.stemming else values["stemming.calls"] == 0
        assert values["corpus.ingest_records"] > 0
        spans = json.loads((tmp_path / name / "spans.json").read_text(encoding="utf-8"))
        assert {s["name"] for s in spans} >= {"corpus.ingest", "preprocess.cleanse", "model.train"}
    else:
        assert 0.0 < values["accuracy"] < 1.0
        assert all(v > 0 for v in values.values())


def test_fails_without_the_program(tmp_path):
    """With only the benchmark's own files present, the run exits non-zero."""
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path / ".perfbench_work").exists()
