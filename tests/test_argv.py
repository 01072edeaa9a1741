"""The two argv parsers: the flag table's and argparse's.

``cli.main`` reads argv with ``cli._table_args`` and hands whatever that
declines to the argparse parser of ``cli.build_parser``. These tests keep
the two agreeing: on any argv the table parser returns None or exactly
what argparse returns. They also pin that ``--help``, every usage error
and an abbreviated flag still come from argparse, through ``main`` and
through a real ``python -m kicaumine.cli`` process.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kicaumine import cli
from kicaumine.config import flag_name
from kicaumine.resources import demo_corpus_path

SRC = Path(__file__).resolve().parents[1] / "src"
DEMO = demo_corpus_path()
COMMANDS = sorted(cli._COMMAND_FLAGS)


def command_flags(command):
    return ["--config", *(flag_name(key) for key in cli._COMMAND_FLAGS[command][1])]


ALL_FLAGS = sorted({flag for command in COMMANDS for flag in command_flags(command)})


def parsed(argv):
    """``vars(build_parser().parse_args(argv))``, or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


# Values, some of which argparse takes for options or that start with "-".
VALUES = st.sampled_from(["x", "", " ", "3", "0.5", "json", "a=b", "-", "-1", "-5", "-x", "--",
                          "--seed", "-h", "--help"]) | st.text(max_size=4)


@st.composite
def argvs(draw):
    """Any argv over the commands' flags: known, other commands' and abbreviated
    flags, in the space and ``=`` forms or alone, stray positionals and ``-h``."""
    command = draw(st.sampled_from(COMMANDS))
    flags = command_flags(command)
    flag = st.sampled_from(flags) | st.sampled_from(ALL_FLAGS) | st.sampled_from(
        ["-h", "--help", "--", "--bogus", "-"]
    )
    abbreviated = st.sampled_from(flags).flatmap(
        lambda full: st.integers(3, max(3, len(full) - 1)).map(lambda end: full[:end])
    )
    token = st.one_of(
        st.tuples(flag | abbreviated),
        st.tuples(flag | abbreviated, VALUES),
        st.builds(lambda name, value: (f"{name}={value}",), flag | abbreviated, VALUES),
        st.tuples(VALUES),
    )
    head = draw(st.sampled_from([[command], [command], [command], [], ["bogus"], ["-h"]]))
    return head + [word for group in draw(st.lists(token, max_size=6)) for word in group]


@st.composite
def table_argvs(draw):
    """An argv in the forms the flag table defines, which it must read itself."""
    command = draw(st.sampled_from(COMMANDS))
    keys = ["config", *cli._COMMAND_FLAGS[command][1]]
    value = st.text(max_size=4).filter(lambda text: not text.startswith("-"))
    argv = [command]
    for key in draw(st.lists(st.sampled_from(keys), max_size=8)):
        flag = "--config" if key == "config" else flag_name(key)
        if isinstance(cli._DEFAULT.get(key), bool) or key == "k" and draw(st.booleans()):
            argv.append(flag)
        elif draw(st.booleans()):
            argv += [flag, draw(value)]
        else:
            argv.append(f"{flag}={draw(value)}")
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_table_reads_as_argparse_or_defers(argv):
    table = cli._table_args(argv)
    assert table is None or table == parsed(argv), argv


@settings(max_examples=200, deadline=None)
@given(table_argvs())
def test_table_reads_its_own_forms(argv):
    table = cli._table_args(argv)
    assert table is not None, argv
    assert table == parsed(argv), argv


# argv, whether the table parser reads it (else argparse does), and the
# settings that argparse reads from it (None: argparse exits).
EDGES = [
    (["eval", "--k"], True, {"k": 10}),
    (["eval", "--k", "-5"], False, {"k": "-5"}),
    (["eval", "--k", "--seed", "3"], True, {"k": 10, "seed": "3"}),
    (["eval", "--k", "foo"], True, {"k": "foo"}),
    (["eval", "--k=4"], True, {"k": "4"}),
    (["collect", "--input", "-"], False, {"input": "-"}),
    (["eval", "--seed=-1"], False, {"seed": "-1"}),
    (["eval", "--seed", "-1"], False, {"seed": "-1"}),
    (["train", "--enable-pos=true"], False, None),
    (["collect", "--inp", "x"], False, {"input": "x"}),
    (["train", "--out", ""], True, {"out": ""}),
    (["train", "--out="], True, {"out": ""}),
    (["train", "--input", "a", "--input=b"], True, {"input": "b"}),
    (["train", "--config=run.conf", "--disable-stemming"], True,
     {"config": "run.conf", "enable_stemming": False}),
    (["train", "--input"], False, None),
    (["train", "stray"], False, None),
    (["train", "--gold", "g.csv"], False, None),
    (["train", "--input", "a", "-h"], False, None),
    (["-h"], False, None),
    ([], False, None),
]


@pytest.mark.parametrize("argv, read, settings_read", EDGES, ids=[" ".join(e[0]) for e in EDGES])
def test_edge_cases(argv, read, settings_read):
    by_parser = parsed(argv)
    if settings_read is None:
        assert by_parser is None
    else:
        assert {key: by_parser[key] for key in settings_read} == settings_read
    table = cli._table_args(argv)
    assert (table is not None) is read
    if read:
        assert table == by_parser


# argv that argparse prints help for or refuses, with its exit status.
ARGPARSE_EXITS = {
    "help": (["--help"], 0),
    **{f"{command} --help": ([command, "--help"], 0) for command in COMMANDS},
    "eval -h": (["eval", "-h"], 0),
    "no command": ([], 2),
    "unknown flag": (["collect", "--bogus"], 2),
    "missing value": (["collect", "--input"], 2),
    "unknown command": (["bogus"], 2),
    "boolean given a value": (["train", "--enable-pos=true"], 2),
}


@pytest.fixture
def columns(monkeypatch):
    """A fixed help width, so that in-process and child help wrap alike."""
    monkeypatch.setenv("COLUMNS", "80")


def parser_exit(argv, capsys):
    """(status, stdout, stderr) of ``build_parser().parse_args(argv)``'s exit."""
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args(argv)
    return (exit_info.value.code, *capsys.readouterr())


@pytest.mark.parametrize("case", sorted(ARGPARSE_EXITS))
def test_main_prints_argparse_bytes(case, capsys, columns):
    argv, status = ARGPARSE_EXITS[case]
    want = parser_exit(argv, capsys)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert (exit_info.value.code, *capsys.readouterr()) == want
    assert want[0] == status
    assert want[2 if status else 1].startswith("usage: kicaumine")


def test_abbreviated_flag_still_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def collect(input_flag):
        argv = ["collect", input_flag, DEMO, "--out-labeled", "l.jsonl", "--out-unlabeled",
                "u.jsonl", "--format", "json"]
        assert cli.main(argv) == 0
        return capsys.readouterr(), Path("l.jsonl").read_bytes(), Path("u.jsonl").read_bytes()

    assert collect("--inp") == collect("--input")


@pytest.mark.parametrize("case", ["help", "unknown flag"])
def test_process_prints_argparse_bytes(case, capsys, columns):
    argv, status = ARGPARSE_EXITS[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-m", "kicaumine.cli", *argv], env=env,
                           capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == parser_exit(argv, capsys)
