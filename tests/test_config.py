"""Run settings: config-file keys, their flags, the errors of both, and
a leading byte-order mark in each file kind a run reads words or settings from."""

import inspect
import re
from pathlib import Path

import pytest

from kicaumine import cli, config, resources
from kicaumine.config import RunConfig, parse_config_file
from kicaumine.corpus import filter_language
from kicaumine.preprocess import PipelineConfig, PosTag, _tokens
from kicaumine.resources import (
    _pipeline_config,
    default_pipeline_config,
    load_hashtags,
    load_pos_lexicon,
    load_root_words,
    load_stopwords,
    load_word_file,
    load_wordlist,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# Per field: a command that takes its flag, the flag arguments, and the
# config-file line that means the same. Every value differs from the default.
SETTINGS = {
    "input": ("train", ["--input", "a.jsonl"], "input=a.jsonl"),
    "model": ("train", ["--model", "m.json"], "model=m.json"),
    "out": ("train", ["--out", "o.txt"], "out=o.txt"),
    "out_labeled": ("collect", ["--out-labeled", "l.jsonl"], "out_labeled=l.jsonl"),
    "out_unlabeled": ("collect", ["--out-unlabeled", "u.jsonl"], "out_unlabeled=u.jsonl"),
    "predictions": ("report", ["--predictions", "p.jsonl"], "predictions=p.jsonl"),
    "gold": ("eval", ["--gold", "g.csv"], "gold=g.csv"),
    "stopwords": ("train", ["--stopwords", "s.txt"], "stopwords=s.txt"),
    "pos_lexicon": ("train", ["--pos-lexicon", "lex.tsv"], "pos_lexicon=lex.tsv"),
    "stem_roots": ("train", ["--stem-roots", "r.txt"], "stem_roots=r.txt"),
    "wordlist": ("collect", ["--wordlist", "w.txt"], "wordlist=w.txt"),
    "hashtags_file": ("collect", ["--hashtags-file", "h.txt"], "hashtags_file=h.txt"),
    "hashtags": ("collect", ["--hashtags", "#Pilkada, jokowi"], "hashtags=#Pilkada, jokowi"),
    "lang_threshold": ("collect", ["--lang-threshold", "0.25"], "lang_threshold=0.25"),
    "enable_stopwords": ("train", ["--disable-stopwords"], "enable_stopwords=false"),
    "enable_pos": ("train", ["--enable-pos"], "enable_pos=true"),
    "enable_stemming": ("train", ["--disable-stemming"], "enable_stemming=false"),
    "pos_keep_tags": ("train", ["--pos-keep-tags", "noun,adj"], "pos_keep_tags=noun,adj"),
    "train_fraction": ("eval", ["--train-fraction", "0.6"], "train_fraction=0.6"),
    "seed": ("eval", ["--seed", "7"], "seed=7"),
    "k": ("eval", ["--k", "5"], "k=5"),
    "format": ("train", ["--format", "json"], "format=json"),
    "oov": ("classify", ["--oov", "skip"], "oov=skip"),
}


def from_argv(argv):
    """The settings of ``argv``, which both argv parsers must read the same."""
    args = vars(cli.build_parser().parse_args(argv))
    assert cli._table_args(argv) == args
    return cli._config_from_args(args)


def from_file(tmp_path, command, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return from_argv([command, "--config", str(path)])


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_field_has_a_case():
    assert sorted(SETTINGS) == sorted(RunConfig._fields)


@pytest.mark.parametrize("field", sorted(SETTINGS))
def test_file_line_and_flag_build_equal_configs(field, tmp_path):
    command, flag_args, line = SETTINGS[field]
    by_flag = from_argv([command, *flag_args])
    by_file = from_file(tmp_path, command, f"# {field}\n{line}\n")
    assert by_file == by_flag
    assert getattr(by_flag, field) != getattr(RunConfig(), field)
    assert by_flag.replace(**{field: getattr(RunConfig(), field)}) == RunConfig()


@pytest.mark.parametrize("build", [PipelineConfig, default_pipeline_config])
def test_pipeline_toggles_default_to_run_settings(build):
    keys = ("enable_stopwords", "enable_pos", "enable_stemming", "pos_keep_tags")
    pipeline, run_settings = build(), RunConfig()
    assert {key: getattr(pipeline, key) for key in keys} == {
        key: getattr(run_settings, key) for key in keys
    }


def test_language_filter_defaults_to_run_setting():
    threshold = inspect.signature(filter_language).parameters["threshold"].default
    assert threshold == RunConfig().lang_threshold


def test_bare_k_flag_means_ten_folds(tmp_path):
    assert from_argv(["eval", "--k"]) == from_file(tmp_path, "eval", "k=10\n")
    assert from_argv(["eval", "--k"]).k == 10


# Each config file that is refused, with the error line's text after "error: ".
FILE_ERRORS = [
    ("# threshold\nlang_threshold=abc\n", "{path}:2: lang_threshold must be a number"),
    ("train_fraction=0.5x\n", "{path}:1: train_fraction must be a number"),
    ("seed=seven\n", "{path}:1: seed must be an integer"),
    ("k=2.5\n", "{path}:1: k must be an integer"),
    ("enable_pos=yes\n", "enable_pos must be true or false, got 'yes'"),
    ("seed=1\njust words\n", "{path}:2: expected key=value, got 'just words'"),
    ("no_such_key=1\n", "{path}:1: unknown config key 'no_such_key'"),
    ("pos_keep_tags=noun,bogus\n", "unknown POS tag in pos_keep_tags: 'BOGUS'"),
    ("hashtags=\n", "hashtag set must not be empty"),
    ("pos_keep_tags=\n", "POS keep-tag set must not be empty"),
    ("enable_pos=false\npos_keep_tags= , \n", "POS keep-tag set must not be empty"),
    ("format=bogus\n", "format must be one of ('table', 'json', 'csv'), got 'bogus'"),
    ("oov=nope\n", "oov must be one of ('smooth', 'skip'), got 'nope'"),
]

# The same bad value given as a flag, for each file above whose value has one.
FLAG_FORMS = {
    "# threshold\nlang_threshold=abc\n": ["collect", "--lang-threshold", "abc"],
    "train_fraction=0.5x\n": ["eval", "--train-fraction", "0.5x"],
    "seed=seven\n": ["eval", "--seed", "seven"],
    "k=2.5\n": ["eval", "--k", "2.5"],
    "pos_keep_tags=noun,bogus\n": ["train", "--pos-keep-tags", "noun,bogus"],
    "hashtags=\n": ["collect", "--hashtags", ""],
    "pos_keep_tags=\n": ["train", "--pos-keep-tags", ""],
    "enable_pos=false\npos_keep_tags= , \n": ["train", "--pos-keep-tags", " , "],
    "format=bogus\n": ["train", "--format", "bogus"],
    "oov=nope\n": ["classify", "--oov", "nope"],
}


@pytest.mark.parametrize("text, message", FILE_ERRORS)
def test_config_file_errors_verbatim(text, message, tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    result = run(["train", "--config", str(path)], capsys)
    assert result == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("text, message", [case for case in FILE_ERRORS if case[0] in FLAG_FORMS])
def test_flag_errors_match_config_file_errors(text, message, capsys):
    # The file's message without its "path:line: " prefix.
    expected = re.sub(r"^\{path\}:\d+: ", "", message)
    result = run(FLAG_FORMS[text], capsys)
    assert result == (2, "", f"error: {expected}\n")


def test_unknown_pos_tag_flag_error_verbatim(capsys):
    result = run(["train", "--pos-keep-tags", "noun,bogus"], capsys)
    assert result == (2, "", "error: unknown POS tag in pos_keep_tags: 'BOGUS'\n")


@pytest.mark.parametrize("value", [",", " , "])
def test_empty_pos_keep_tags_flag_error_verbatim(value, capsys):
    result = run(["eval", "--enable-pos", "--pos-keep-tags", value], capsys)
    assert result == (2, "", "error: POS keep-tag set must not be empty\n")


def test_empty_list_flags_exit_2(capsys):
    # As an empty set in a config file does (test_config_file_errors_verbatim).
    result = run(["collect", "--hashtags", ""], capsys)
    assert result == (2, "", "error: hashtag set must not be empty\n")
    result = run(["train", "--pos-keep-tags", ""], capsys)
    assert result == (2, "", "error: POS keep-tag set must not be empty\n")


def test_flag_names_follow_the_rule():
    for field, (_, flag_args, _) in SETTINGS.items():
        assert flag_args[0] == config.flag_name(field)


# Every flag of each command, as its --help lists them.
COMMAND_FLAGS = {
    "collect": "--input --out --format --hashtags --hashtags-file --out-labeled "
    "--out-unlabeled --wordlist --lang-threshold",
    "train": "--input --out --format --stopwords --pos-lexicon --stem-roots "
    "--disable-stopwords --enable-pos --disable-stemming --pos-keep-tags --model",
    "classify": "--input --out --format --stopwords --pos-lexicon --stem-roots "
    "--disable-stopwords --enable-pos --disable-stemming --pos-keep-tags --model --oov",
    "eval": "--input --out --format --stopwords --pos-lexicon --stem-roots "
    "--disable-stopwords --enable-pos --disable-stemming --pos-keep-tags --model --gold "
    "--k --seed --train-fraction --oov",
    "report": "--input --out --format --hashtags --hashtags-file --predictions",
}


@pytest.mark.parametrize("command", sorted(cli._COMMAND_FLAGS))
def test_help_names_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", *COMMAND_FLAGS[command].split()}


def test_every_flag_sets_a_field():
    parser = cli.build_parser()
    dests = set()
    for command in cli._COMMAND_FLAGS:
        dests |= vars(parser.parse_args([command])).keys()
    assert dests - {"config", "command"} == set(RunConfig._fields)


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    listing = text.split("Keys mirror the flag names:", 1)[1].split(".", 1)[0]
    keys = re.findall(r"`(\w+)`", listing)
    assert sorted(keys) == sorted(RunConfig._fields)


# Each file kind with its reader, and a content whose first entry matters.
BOM_KINDS = {
    "config": (parse_config_file, "seed=7\nformat=json\n"),
    "stopwords": (load_stopwords, "yang\ndan\n"),
    "pos-lexicon": (load_pos_lexicon, "bagus\tADJ\nburuk\tADJ\n"),
    "stem-roots": (load_root_words, "kerja\nmakan\n"),
    "wordlist": (load_wordlist, "bagus\nsekali\n"),
    "hashtags-file": (load_hashtags, "pilgubjabar\nridwankamil\n"),
}


@pytest.mark.parametrize("kind", sorted(BOM_KINDS))
def test_leading_byte_order_mark_is_dropped(kind, tmp_path):
    read, text = BOM_KINDS[kind]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(str(marked)) == read(str(plain))


# Tokens and the language test's text are lowercase, so the word files are
# lowercased as they are read and their entries match in any case.
def test_word_file_entries_are_lowercased(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("BAGUS\nSekali\nkerja\nYANG\n", encoding="utf-8")
    for read in (load_wordlist, load_stopwords):
        assert read(str(path)) == {"bagus", "sekali", "kerja", "yang"}


def test_pos_lexicon_words_are_lowercased_and_the_later_line_wins(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text(
        "BAGUS\tNOUN\nBuruk\tADJ\nbagus\tADJ\nburuk\tVERB\nBURUK\tFUNC\n", encoding="utf-8"
    )
    assert load_pos_lexicon(str(path)) == {"bagus": PosTag.ADJ, "buruk": PosTag.FUNC}


def test_capital_stopwords_and_lexicon_words_take_effect(tmp_path):
    stopwords, lexicon = tmp_path / "stopwords.txt", tmp_path / "lexicon.tsv"
    stopwords.write_text("YANG\n", encoding="utf-8")
    lexicon.write_text("SANGAT\tADV\n", encoding="utf-8")
    pipeline = _pipeline_config(
        RunConfig(
            stopwords=str(stopwords),
            pos_lexicon=str(lexicon),
            enable_pos=True,
            enable_stemming=False,
        )
    )
    assert _tokens("yang sangat Bagus", pipeline) == ("bagus",)


def test_bundled_word_files_are_lowercase_letters():
    # So lowercasing them changes no bundled entry, and no output.
    def bundled(name):
        return load_word_file(str(Path(resources._DATA) / name))

    for read, name in [
        (load_wordlist, resources.WORDLIST_FILE),
        (load_stopwords, resources.STOPWORDS_FILE),
    ]:
        entries = bundled(name)
        assert all(entry.isalpha() and entry == entry.lower() for entry in entries), name
        assert read() == frozenset(entries)
    words = [entry.partition("\t")[0] for entry in bundled(resources.POS_LEXICON_FILE)]
    assert all(word.isalpha() and word == word.lower() for word in words)
    assert sorted(load_pos_lexicon()) == sorted(set(words))
