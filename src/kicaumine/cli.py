"""Command-line interface: collect, train, classify, eval, report.

The subcommands mirror the pipeline stages so every intermediate artifact
(labeled corpus, model, predictions) lands in an inspectable file.
Diagnostics go to stderr, data to stdout or the requested output file,
and identical inputs plus an identical seed reproduce identical bytes.

This module holds only the flags and the dispatch: each command's code
is in its own module (``_collect``, ``_train``, ``_classify``, ``_eval``,
``_report``), which ``main`` imports for the command it runs. No package
module imports this one, since ``python -m kicaumine.cli`` runs it as
``__main__`` and an import would compile and run it a second time.
``run`` is the process entry of that command and of the ``kicaumine``
script; ``main`` returns the exit status for in-process callers.

``main`` reads argv with ``_table_args``, which takes only the forms
that ``_COMMAND_FLAGS`` defines. Any other argv goes to the argparse
parser that ``build_parser`` builds from the same table, which prints
``--help`` and every usage error. So a run that prints neither imports
no argparse and builds no parser.
"""

import os
import sys
from importlib import import_module

from .config import (
    DEFAULT_K,
    FORMATS,
    OOV_MODES,
    RunConfig,
    build_config,
    flag_name,
    parse_setting,
)
from .exceptions import ConfigError, KicaumineError
from .resources import _say

# Settings that several commands take as flags.
_COMMON = ("input", "out", "format")
_PIPELINE = (
    "stopwords",
    "pos_lexicon",
    "stem_roots",
    "enable_stopwords",
    "enable_pos",
    "enable_stemming",
    "pos_keep_tags",
)
_HASHTAGS = ("hashtags", "hashtags_file")

# Per command: its help line and the settings it takes as flags, in the
# order --help lists them after --config.
_COMMAND_FLAGS = {
    "collect": (
        "ingest, filter, and emoticon-label tweets",
        _COMMON + _HASHTAGS + ("out_labeled", "out_unlabeled", "wordlist", "lang_threshold"),
    ),
    "train": ("preprocess a labeled corpus and train the model", _COMMON + _PIPELINE + ("model",)),
    "classify": ("classify tweets with a trained model", _COMMON + _PIPELINE + ("model", "oov")),
    "eval": (
        "score the classifier against manual gold labels",
        _COMMON + _PIPELINE + ("model", "gold", "k", "seed", "train_fraction", "oov"),
    ),
    "report": ("per-hashtag sentiment percentage rollup", _COMMON + _HASHTAGS + ("predictions",)),
}

# One help text per setting; a stated default is read from RunConfig.
_DEFAULT = RunConfig._defaults
_FLAG_HELP = {
    "input": "input file for this command",
    "model": "model path: train writes it, classify reads it; eval without it "
    "trains on a gold split",
    "out": "output file (default: stdout)",
    "out_labeled": "labeled corpus output path",
    "out_unlabeled": "unlabeled corpus output path",
    "predictions": "predictions JSONL from the classify command",
    "gold": "gold labels CSV (header: id,label)",
    "stopwords": "stopword list file (default: bundled)",
    "pos_lexicon": "POS lexicon file (default: bundled)",
    "stem_roots": "root-word dictionary file (default: bundled)",
    "wordlist": "language wordlist file (default: bundled)",
    "hashtags_file": "hashtag set file, one tag per line",
    "hashtags": "comma-separated hashtags (without '#')",
    "lang_threshold": "minimum dictionary-word ratio to keep a tweet "
    f"(default {_DEFAULT['lang_threshold']})",
    "enable_stopwords": "skip the stopword removal stage",
    "enable_pos": "enable the POS tag filter stage",
    "enable_stemming": "skip the stemming stage",
    "pos_keep_tags": "comma-separated tags kept by the POS filter (noun,verb,adj,other)",
    "train_fraction": "training share for the holdout mode "
    f"(default {_DEFAULT['train_fraction']})",
    "seed": f"shuffle seed (default {_DEFAULT['seed']})",
    "k": "k-fold cross-validation, all folds scored from one count of the gold data "
    f"(default k={DEFAULT_K} when given)",
    "format": f"output format: {', '.join(FORMATS)} (default {_DEFAULT['format']})",
    "oov": f"unseen-token handling: {', '.join(OOV_MODES)} (default {_DEFAULT['oov']})",
}


def build_parser() -> "argparse.ArgumentParser":
    import argparse

    parser = argparse.ArgumentParser(
        prog="kicaumine",
        description="Emoticon-supervised tweet sentiment mining pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, keys) in _COMMAND_FLAGS.items():
        flags = sub.add_parser(command, help=summary)
        flags.add_argument("--config", help="key=value config file; flags override it")
        for key in keys:
            default = _DEFAULT[key]
            if isinstance(default, bool):
                how = {"action": "store_const", "const": not default}
            elif key == "k":
                how = {"nargs": "?", "const": DEFAULT_K}
            else:
                how = {}
            flags.add_argument(flag_name(key), dest=key, help=_FLAG_HELP[key], **how)
    return parser


def _table_args(argv) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` if ``argv`` holds only the
    forms that ``_COMMAND_FLAGS`` defines, else None.

    Those forms are the command name, then any sequence of ``--flag
    value``, ``--flag=value``, a boolean flag alone and ``--k`` alone.
    Everything else is None, for argparse to parse or refuse: ``-h``,
    ``--help``, an unknown or abbreviated flag, a positional, a missing
    value, a value starting with ``-`` (argparse takes ``--seed -1`` and
    ``--input -``) and a boolean flag given ``=value``.
    """
    if not argv or argv[0] not in _COMMAND_FLAGS:
        return None
    dests = {flag_name(key): key for key in _COMMAND_FLAGS[argv[0]][1]}
    dests["--config"] = "config"
    args = {"command": argv[0], **dict.fromkeys(dests.values())}
    at = 1
    while at < len(argv):
        flag, equals, value = argv[at].partition("=")
        key = dests.get(flag)
        at += 1
        if key is None:
            return None
        default = _DEFAULT.get(key)
        if isinstance(default, bool):
            if equals:
                return None
            value = not default
        elif not equals:
            if at < len(argv) and not argv[at].startswith("-"):
                value = argv[at]
                at += 1
            elif key == "k":
                value = DEFAULT_K
            else:
                return None
        elif value.startswith("-"):
            return None
        args[key] = value
    return args


def _config_from_args(args: dict) -> RunConfig:
    """The run settings of the parsed argv ``args``, each string value parsed
    as its config-file line's."""
    overrides = {}
    for key in RunConfig._fields:
        value = args.get(key)
        if isinstance(value, str):
            try:
                value = parse_setting(key, value)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        overrides[key] = value
    return build_config(config_path=args["config"], **overrides)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _table_args(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    try:
        config = _config_from_args(args)
        name = args["command"]
        command = import_module(f"._{name}", __package__)
        return getattr(command, f"cmd_{name}")(config)
    except ConfigError as exc:
        _say(f"error: {exc}")
        return 2
    except (KicaumineError, OSError) as exc:
        _say(f"error: {exc}")
        return 1


def _interpreter_acts_after_script() -> bool:
    """Whether the interpreter was asked to do more once the script ends.

    A trace or profile hook (coverage, ``cProfile``, ``pdb``) reports or
    saves at shutdown, ``-i`` starts a prompt and ``-X dev`` checks for
    files left unclosed.
    """
    # From 3.12 a tool such as coverage may hook in through sys.monitoring,
    # whose tool ids are 0 to 5, instead of a trace function.
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
        or bool(sys.flags.inspect)
        or sys.flags.dev_mode
    )


def run() -> None:
    """The process entry: run ``main`` and end the process with its status.

    When ``main`` returns, every output file is closed and only the two
    streams may hold unwritten data. They are flushed, and ``os._exit``
    then ends the process without the interpreter's teardown of every
    module and object, which costs about 10 ms per command; ``atexit``
    callbacks do not run on that path. ``sys.exit`` keeps the normal
    shutdown where it does something observable: when ``main`` raises
    (argparse's ``SystemExit`` too), when a flush fails (the interpreter
    retries it, prints ``Exception ignored`` lines and exits 120), and
    when ``_interpreter_acts_after_script``.
    """
    status = main()
    if not _interpreter_acts_after_script():
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):
            pass
        else:
            os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    run()
