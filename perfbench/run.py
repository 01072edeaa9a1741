#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the kicaumine CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0

The benchmark writes a seeded synthetic export (see ``synth.py``) and
runs the real CLI on it as child processes, one at a time: a closed loop
with a single client. Each iteration runs the workload's command
sequence ``collect -> train -> classify -> report -> eval`` and then the
set-up probe, ``classify`` on an empty input with the workload's model.
Iterations repeat until ``--seconds`` have passed; every figure is a
median over the iterations of the run.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: wall time of the set-up probe, i.e. interpreter start,
  import, resource load and model load.
* ``<command>_docs_per_s``: the command's input records divided by its
  wall time. Bases: export lines (collect), labeled records (train),
  unlabeled records (classify), predictions (report), gold rows (eval,
  not multiplied by k).
* ``pipeline_docs_per_s``: export lines divided by the summed wall time
  of the command sequence; the headline metric.
* ``peak_rss_mb``: the largest ``ru_maxrss`` over the sequence's child
  processes, from ``os.wait4``.
* ``accuracy``: ``eval`` accuracy against the generator's latent
  sentiment; deterministic for a seed.

Command invocations that exit non-zero or fail an output check are
counted in the result's ``failed`` against ``attempted``.

Times are in reference seconds: each interval is scaled by a speed
gauge run on the same CPU just before and after it (see SpeedGauge),
which cancels most of the speed changes of a shared machine.

With ``--trace 1`` the run also replays every command in process with
a span around each layer call (see ``layers.py``) and reports the
per-layer metrics instead. ``cli.<command>.other_s`` is the command's
wall time minus ``setup_s`` minus the self times of the command's spans
that set-up does not already contain. It is a difference of medians, so
it carries their noise and can read a little below zero for a command
that does little outside its layers.

The environment (Python version, git commit, CPU count, kernel backend)
is printed as a JSON line before the result and written, with the
spans, under ``.perfbench_work/`` in the checkout.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "kicaumine" / "data"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from synth import CAMPAIGN_TAGS, CorpusGenerator  # noqa: E402

COMMANDS = ("collect", "train", "classify", "report", "eval")
# A run that overruns this is cut: its child is killed and the run fails.
HARD_LIMIT_S = 170.0
MIN_ITERATIONS = 3
EVAL_SEED = 42  # eval's shuffle seed; fixed so that accuracy is reproducible
# The speed gauge: a fresh interpreter running a fixed loop, and the time
# it takes at the reference speed. See SpeedGauge.
GAUGE_CODE = "x = 0\nfor i in range(200000):\n    x += i * i % 7\n"
REFERENCE_S = 0.1


class SpeedGauge:
    """Scales measured intervals to a reference machine speed.

    On a shared machine the speed of a CPU switches between levels up to
    1.6x apart for tens of seconds at a time, so medians over one run do
    not cancel it. A gauge, a fresh interpreter running ``GAUGE_CODE``,
    is started on the same CPU right before and right after each
    interval and follows those levels. An interval's reference time is
    its wall time multiplied by ``REFERENCE_S`` over the mean of the two
    gauge times. The benchmark pins itself, and so its children, to one
    CPU, so that gauge and measured work share it. In five 35-second
    kfold runs on a shared 2-CPU machine, the spread (interquartile range
    over median) across runs of each command's docs/s was 21-34% in wall
    time and 2-5% in reference time.
    """

    def __init__(self, runner: "Runner"):
        self.runner = runner
        self.loops: list[float] = []
        self.last = self._probe()

    def _probe(self) -> float:
        elapsed = self.runner.run_child(["-c", GAUGE_CODE])[0]
        self.loops.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Scale for the interval since the previous call; runs the gauge."""
        after = self._probe()
        scale = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return scale

    def reference(self, wall: float) -> float:
        """``wall`` seconds just measured, in reference seconds."""
        return wall * self.factor()


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs and the pipeline flags it runs with."""

    name: str
    style: str  # corpus style, see synth.CorpusGenerator
    lines: int  # export lines
    gold: str  # "heldout": records without an emoticon; "all": every record
    pos: bool = False
    stemming: bool = True
    k: int = 0  # eval --k when >= 2, else eval --model

    def pipeline_flags(self) -> list[str]:
        flags = []
        if self.pos:
            flags.append("--enable-pos")
        if not self.stemming:
            flags.append("--disable-stemming")
        return flags


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("campaign", "campaign", 5000, "heldout"),
        Workload("kfold", "campaign", 5000, "all", pos=True, stemming=False, k=10),
        Workload("noisy-long", "noisy", 2000, "heldout"),
    )
}


class CheckError(Exception):
    """A command's output broke one of the benchmark's checks."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


class Files:
    """Paths of one run's inputs and artifacts under the work directory."""

    def __init__(self, work: Path):
        self.export = work / "export.jsonl"
        self.gold = work / "gold.csv"
        self.empty = work / "empty.jsonl"
        self.labeled = work / "labeled.jsonl"
        self.unlabeled = work / "unlabeled.jsonl"
        self.stats = work / "stats.json"
        self.model = work / "model.json"
        self.predictions = work / "predictions.jsonl"
        self.report = work / "report.json"
        self.eval = work / "eval.json"
        self.setup_predictions = work / "setup_predictions.jsonl"
        self.traced_model = work / "traced_model.json"
        self.stderr = work / "stderr.txt"


def command_lines(w: Workload, f: Files) -> dict[str, list[str]]:
    """CLI arguments of the sequence, plus the set-up probe as "setup"."""
    tags = ",".join(CAMPAIGN_TAGS)
    flags = w.pipeline_flags()
    if w.k >= 2:
        eval_mode = ["--k", str(w.k)]
    else:
        eval_mode = ["--model", str(f.model)]
    return {
        "collect": ["collect", "--input", str(f.export), "--hashtags", tags,
                    "--out-labeled", str(f.labeled), "--out-unlabeled", str(f.unlabeled),
                    "--format", "json", "--out", str(f.stats)],
        "train": ["train", "--input", str(f.labeled), "--model", str(f.model), *flags],
        "classify": ["classify", "--input", str(f.unlabeled), "--model", str(f.model),
                     "--out", str(f.predictions), *flags],
        "report": ["report", "--input", str(f.unlabeled), "--predictions", str(f.predictions),
                   "--hashtags", tags, "--format", "json", "--out", str(f.report)],
        "eval": ["eval", "--input", str(f.export), "--gold", str(f.gold), *eval_mode,
                 "--seed", str(EVAL_SEED), *flags, "--format", "json", "--out", str(f.eval)],
        "setup": ["classify", "--input", str(f.empty), "--model", str(f.model),
                  "--out", str(f.setup_predictions), *flags],
    }


# Artifacts each command writes; their bytes must repeat exactly.
ARTIFACTS = {
    "collect": ("labeled", "unlabeled", "stats"),
    "train": ("model",),
    "classify": ("predictions",),
    "report": ("report",),
    "eval": ("eval",),
    "setup": ("setup_predictions",),
}


class Runner:
    """Spawns children one at a time and times each with os.wait4."""

    def __init__(self, files: Files, deadline: float):
        self.files = files
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0

    def spawn(self, argv: list[str]) -> tuple[float, float]:
        """Run an attempted operation; see run_child."""
        self.attempted += 1
        return self.run_child(argv)

    def run_child(self, argv: list[str]) -> tuple[float, float]:
        """Run ``argv``; return (wall seconds, peak RSS in MB). Raises on failure."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise CheckError("time limit reached before the command started")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(self.files.stderr),
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        except _Timeout:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise CheckError(f"{argv[:4]} overran the time limit") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = self.files.stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise CheckError(f"{argv[:4]} exited with {code}: {tail}")
        return wall, usage.ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def _jsonl_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line)["id"] for line in handle if line.strip()]


def check_outputs(w: Workload, f: Files) -> dict:
    """Check every artifact of one sequence; return the checked facts.

    The facts hold the bases of the docs/s metrics and what the traced
    replay is compared against.
    """
    from kicaumine.model import load_model
    from kicaumine.exceptions import ModelFormatError

    stats = json.loads(f.stats.read_text(encoding="utf-8"))
    outcomes = ("rejected_malformed", "rejected_hashtag", "rejected_language",
                "rejected_ambiguous_emoticon", "labeled_positive", "labeled_negative",
                "unlabeled")
    if stats["total_ingested"] != sum(stats[k] for k in outcomes):
        raise CheckError(f"collect: stats do not partition the input: {stats}")
    if stats["total_ingested"] != _count_lines(f.export):
        raise CheckError("collect: total_ingested differs from the export's line count")
    labeled = _count_lines(f.labeled)
    if labeled != stats["labeled_positive"] + stats["labeled_negative"]:
        raise CheckError("collect: labeled file line count differs from its stats")
    input_ids = _jsonl_ids(f.unlabeled)
    if len(input_ids) != stats["unlabeled"]:
        raise CheckError("collect: unlabeled file line count differs from its stats")

    try:
        model = load_model(f.model)
    except ModelFormatError as exc:
        raise CheckError(f"train: load_model rejects the model: {exc}") from None

    with open(f.predictions, encoding="utf-8") as handle:
        predictions = [json.loads(line) for line in handle if line.strip()]
    if [p["id"] for p in predictions] != input_ids:
        raise CheckError("classify: predictions are not one per input id, in input order")
    for p in predictions:
        if abs(sum(p["posteriors"].values()) - 1.0) > 1e-9:
            raise CheckError(f"classify: posteriors of {p['id']} do not sum to 1")
        if p["label"] not in {lab.value for lab in model.labels}:
            raise CheckError(f"classify: {p['id']} has a label the model lacks")
    if f.setup_predictions.exists() and f.setup_predictions.stat().st_size != 0:
        raise CheckError("setup: classify on an empty input wrote predictions")

    report = json.loads(f.report.read_text(encoding="utf-8"))
    groups = {r["group"]: r for r in report}
    if groups.get("all", {}).get("total") != len(predictions):
        raise CheckError("report: the 'all' group total differs from the prediction count")

    result = json.loads(f.eval.read_text(encoding="utf-8"))
    accuracy = result["mean_accuracy"] if w.k >= 2 else result["accuracy"]
    if not 0.0 < accuracy < 1.0:
        raise CheckError(f"eval: accuracy {accuracy} outside (0, 1)")
    with open(f.gold, encoding="utf-8") as handle:
        gold_rows = sum(1 for _ in handle) - 1

    return {
        "bases": {
            "collect": stats["total_ingested"],
            "train": labeled,
            "classify": len(input_ids),
            "report": len(predictions),
            "eval": gold_rows,
        },
        "stats": stats,
        "report": {g: r["counts"] for g, r in groups.items()},
        "accuracy": accuracy,
    }


class Session:
    """One benchmark run: inputs, the closed loop over the CLI, and checks."""

    def __init__(self, w: Workload, seed: int, work: Path, deadline: float):
        self.w = w
        self.f = Files(work)
        self.runner = Runner(self.f, deadline)
        self.argv = command_lines(w, self.f)
        self.hashes: dict[str, str] = {}
        self.facts: dict = {}
        self.gauge = SpeedGauge(self.runner)
        gen = CorpusGenerator(DATA, seed, w.style)
        self.inputs = gen.write(w.lines, self.f.export, self.f.gold, w.gold)
        self.f.empty.write_text("", encoding="utf-8")

    def iteration(self) -> dict[str, tuple[float, float]]:
        """Run the sequence and the set-up probe once; check and time them.

        Returns each command's (reference seconds, peak RSS in MB). The
        first iteration checks every artifact and records its sha256;
        later ones must reproduce those bytes exactly, so the checks hold
        for them too.
        """
        timings = {}
        for name in (*COMMANDS, "setup"):
            timings[name] = self.timed(["-m", "kicaumine.cli", *self.argv[name]])
        hashes = {
            a: _sha256(getattr(self.f, a)) for name in ARTIFACTS for a in ARTIFACTS[name]
        }
        if not self.hashes:
            self.facts = check_outputs(self.w, self.f)
            self.hashes = hashes
        else:
            for name, artifacts in ARTIFACTS.items():
                if any(hashes[a] != self.hashes[a] for a in artifacts):
                    raise CheckError(f"{name}: artifacts differ from the first repetition")
        return timings

    def timed(self, argv: list[str]) -> tuple[float, float]:
        """Run one child; return (reference seconds, peak RSS in MB)."""
        wall, rss = self.runner.spawn(argv)
        return self.gauge.reference(wall), rss


def environment() -> dict:
    backend = "none"
    if importlib.util.find_spec("kicaumine._kernels") is not None:
        import kicaumine._kernels as kernels

        backend = str(getattr(kernels, "BACKEND", "unknown"))
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "kernels_backend": backend,
    }


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": q[1], "q1": q[0], "q3": q[2], "max": max(values)}


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the CLI for ``seconds``; return (metrics, detail)."""
    walls: dict[str, list[float]] = {name: [] for name in (*COMMANDS, "setup")}
    chain: list[float] = []
    peaks: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        timings = session.iteration()
        for name, (wall, _) in timings.items():
            walls[name].append(wall)
        chain.append(sum(timings[name][0] for name in COMMANDS))
        peaks.append(max(timings[name][1] for name in COMMANDS))
        elapsed = time.perf_counter() - start
        if len(chain) >= MIN_ITERATIONS and elapsed + (time.perf_counter() - began) > seconds:
            break
    med = statistics.median
    bases = session.facts["bases"]
    metrics = {"setup_s": med(walls["setup"])}
    for name in COMMANDS:
        metrics[f"{name}_docs_per_s"] = bases[name] / med(walls[name])
    metrics["pipeline_docs_per_s"] = session.inputs["export_lines"] / med(chain)
    metrics["peak_rss_mb"] = med(peaks)
    metrics["accuracy"] = session.facts["accuracy"]
    detail = {
        "bases": bases,
        "wall_s": {name: _quartiles(v) for name, v in walls.items()},
        "samples_s": walls,
        "chain_s": _quartiles(chain),
        "peak_rss_mb": _quartiles(peaks),
        "gauge_s": _quartiles(session.gauge.loops),
    }
    return metrics, detail


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict, list]:
    """Alternate CLI iterations with traced in-process replays for ``seconds``."""
    import layers

    tracer = layers.Tracer()
    walls: dict[str, list[float]] = {name: [] for name in (*COMMANDS, "setup")}
    probes: dict[str, list[float]] = {"bare": [], "import": []}
    counts: Counter = Counter()
    tags = frozenset(CAMPAIGN_TAGS)
    scales: dict[str, float] = {}  # command id -> reference seconds per second

    def done(command_id):
        scales[command_id] = session.gauge.factor()

    start = time.perf_counter()
    replays = 0
    while True:
        began = time.perf_counter()
        for name, (wall, _) in session.iteration().items():
            walls[name].append(wall)
        probes["bare"].append(session.timed(["-c", "pass"])[0])
        probes["import"].append(session.timed(["-c", "import kicaumine.cli"])[0])
        # Each replayed command is an operation whose outputs get checked.
        session.runner.attempted += len(COMMANDS)
        try:
            counts = layers.run_sequence(tracer, replays, session.w, session.f, tags, EVAL_SEED,
                                         session.facts, check=replays == 0, done=done)
        except layers.CheckFailed as exc:
            raise CheckError(str(exc)) from None
        replays += 1
        elapsed = time.perf_counter() - start
        if replays >= MIN_ITERATIONS and elapsed + (time.perf_counter() - began) > seconds:
            break

    own = tracer.self_times()
    per_iter: dict[str, list[float]] = {}
    cmd_self: dict[str, list[float]] = {name: [0.0] * replays for name in COMMANDS}
    spans_per_iter = len(tracer.spans) / replays
    for (name, command, _, _, _), t in zip(tracer.spans, own):
        t *= scales[command]
        it, cmd = command.split(":")
        per_iter.setdefault(name + "_s", [0.0] * replays)[int(it)] += t
        if name not in layers.SETUP_SPANS:
            cmd_self[cmd][int(it)] += t

    med = statistics.median
    setup = med(walls["setup"])
    metrics = {"resources.load_s": med(per_iter["resources.load_s"]),
               "cli.import_s": med(probes["import"]) - med(probes["bare"])}
    for name in COMMANDS:
        metrics[f"cli.{name}.other_s"] = med(walls[name]) - setup - med(cmd_self[name])
    for key, values in per_iter.items():
        metrics.setdefault(key, med(values))
    c = counts
    metrics.update({
        "corpus.ingest_records": c["corpus.ingest_records"],
        "corpus.ingest_bytes": c["corpus.ingest_bytes"],
        "corpus.kept_ratio": c["corpus.kept"] / c["corpus.total"],
        "preprocess.cleanse_chars": c["preprocess.cleanse_chars"],
        "preprocess.stopword_drop_ratio": _ratio(c["preprocess.stopword_dropped"],
                                                 c["preprocess.stopword_in"]),
        "preprocess.tokens_out": c["preprocess.tokens_out"],
        "preprocess.empty_docs": c["preprocess.empty_docs"],
        "stemming.calls": c["stemming.calls"],
        "stemming.distinct_ratio": _ratio(c["stemming.distinct"], c["stemming.calls"]),
        "stemming.changed_ratio": _ratio(c["stemming.changed"], c["stemming.calls"]),
        "model.vocab_size": c["model.vocab_size"],
        "model.oov_ratio": _ratio(c["model.oov_tokens"], c["model.scored_tokens"]),
        "model.bytes": c["model.bytes"],
        "trace.overhead_s": spans_per_iter * session.gauge.reference(layers.span_cost()),
    })
    detail = {
        "replays": replays,
        "spans_per_replay": spans_per_iter,
        "wall_s": {name: _quartiles(v) for name, v in walls.items()},
        "counts": dict(counts),
        "gauge_s": _quartiles(session.gauge.loops),
    }
    return metrics, detail, tracer.as_records()


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the result object (without printing it)."""
    deadline = time.monotonic() + HARD_LIMIT_S
    signal.signal(signal.SIGALRM, _on_alarm)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    session = Session(w, seed, work, deadline)
    failed = 0
    metrics: dict = {}
    detail: dict = {}
    spans: list = []
    try:
        # Warm-up: byte-compiles the package and fills the page cache; it
        # is checked but not timed.
        session.iteration()
        if trace:
            metrics, detail, spans = measure_layers(session, seconds)
        else:
            metrics, detail = measure_end_to_end(session, seconds)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        failed = 1
    units = declared_metrics(trace)
    if not failed and set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {mismatch}")
    result = {
        "correct": failed == 0,
        "attempted": session.runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "inputs": session.inputs, "detail": detail,
              "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if spans:
        (work / "spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "kicaumine" / "cli.py", DATA / "wordlist_id.txt",
                           DATA / "root_words_id.txt", DATA / "stopwords_id.txt")
               if not p.is_file()]
    if missing:
        print(f"error: not a kicaumine checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children; see SpeedGauge.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / args.workload
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
