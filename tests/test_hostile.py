"""Hostile input through every command: never a crash, never a changed artifact.

Each example mixes valid tweets (distinct ids) with hostile lines: deep
nesting, a huge integer, a lone surrogate, NUL, a byte-order mark, CR-only
line ends and a line of about 100 kB. Every hostile line is one that the
tweet reader must count as ``rejected_malformed``. Commands run in process
through ``cli.main``; an exception escaping it is the traceback a user
would see. The same lines, with other odd ones, go through the commands'
field scan and ``iter_tweets``, which must agree with
``reference.read_export``.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import NEG, POS
import reference
from kicaumine.cli import main
from kicaumine.corpus import CorpusStats, _tweet_fields, iter_tweets
from kicaumine.model import save_model, train
from kicaumine.preprocess import Document

HOSTILE = {
    "deep": "[" * 100_000,
    "deep-text": '{"id": "deep", "text": ' + "[" * 5_000,
    "huge-int": '{"id": ' + "9" * 5_000 + ', "text": "bagus #pilgubjabar :)"}',
    "surrogate-text": '{"id": "s1", "text": "bagus calon \\ud800 #pilgubjabar :)"}',
    "surrogate-id": '{"id": "s\\udc00", "text": "bagus calon #pilgubjabar :)"}',
    "nul": "\x00",
    "nul-in-string": '{"id": "n1", "text": "bagus\x00 #pilgubjabar :)"}',
    "bom": "\ufeff[1]",
    "cr-only": '{"id": "c1", "text": "bagus #pilgubjabar :)"}\r{"id": "c2", "text": "buruk"}\r',
    "long": '{"id": "long", "text": "' + "bagus " * 17_000,
}

WORDS = ["menang", "debat", "program", "kerja", "bagus", "kalah", "kasihan", "calon", "fox"]
TAGS = ["#pilgubjabar", "#ridwankamil", "#lain", ""]
EMOTICONS = [":)", ":(", ":) :(", ""]

texts = st.builds(
    lambda words, tag, emoticon: " ".join(filter(None, [*words, tag, emoticon])),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=5),
    st.sampled_from(TAGS),
    st.sampled_from(EMOTICONS),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def mixed(data, valid, hostile):
    """``valid`` with ``hostile`` inserted at drawn positions, valid order kept."""
    lines = list(valid)
    for line in hostile:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    return lines


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.data(),
    st.lists(texts, min_size=1, max_size=6),
    st.lists(st.sampled_from(sorted(HOSTILE)), min_size=1, max_size=4),
)
def test_hostile_lines_change_no_artifact(data, tweet_texts, kinds):
    valid = [json.dumps({"id": f"t{i}", "text": t}) for i, t in enumerate(tweet_texts)]
    hostile = [HOSTILE[kind] for kind in kinds]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean = write_lines(tmp / "clean.jsonl", valid)
        dirty = write_lines(tmp / "dirty.jsonl", mixed(data, valid, hostile))
        model = tmp / "model.json"
        save_model(train([Document("p", ("bagus",), POS), Document("n", ("kalah",), NEG)]), model)
        gold = tmp / "gold.csv"
        gold.write_text(
            "id,label\n" + "".join(f"t{i},{'positive' if i % 2 else 'negative'}\n"
                                   for i in range(len(valid))),
            encoding="utf-8",
        )
        predictions = write_lines(
            tmp / "pred.jsonl",
            [json.dumps({"id": f"t{i}", "label": "positive"}) for i in range(len(valid))],
        )

        # Tolerant readers: the hostile lines are skipped and change nothing.
        results = {}
        for name, export in (("clean", clean), ("dirty", dirty)):
            collect = run([
                "collect", "--input", str(export), "--format", "json",
                "--out-labeled", str(tmp / f"{name}.l"), "--out-unlabeled", str(tmp / f"{name}.u"),
            ])
            results[name] = [
                collect,
                (tmp / f"{name}.l").read_bytes(),
                (tmp / f"{name}.u").read_bytes(),
                run(["classify", "--input", str(export), "--model", str(model)]),
                run(["eval", "--input", str(export), "--gold", str(gold), "--model", str(model)]),
                run(["report", "--input", str(export), "--predictions", str(predictions)]),
            ]
        assert results["dirty"][1:] == results["clean"][1:]
        assert results["clean"][0][0] == results["dirty"][0][0] == 0
        clean_stats, dirty_stats = (json.loads(results[name][0][1]) for name in results)
        assert CorpusStats(**dirty_stats).check_partition()
        assert dirty_stats == {
            **clean_stats,
            "total_ingested": clean_stats["total_ingested"] + len(hostile),
            "rejected_malformed": clean_stats["rejected_malformed"] + len(hostile),
        }

        # Strict readers: a hostile line stops the command before it writes.
        labeled = write_lines(
            tmp / "labeled.jsonl",
            mixed(data, (tmp / "clean.l").read_text(encoding="utf-8").splitlines(), hostile),
        )
        assert run(["train", "--input", str(labeled), "--model", str(tmp / "m.json")])[0] == 2
        assert not (tmp / "m.json").exists()
        bad_predictions = write_lines(
            tmp / "bad_pred.jsonl",
            mixed(data, predictions.read_text(encoding="utf-8").splitlines(), hostile),
        )
        report = ["report", "--input", str(dirty), "--predictions", str(bad_predictions)]
        assert run(report + ["--out", str(tmp / "r.txt")]) == (2, "")
        assert not (tmp / "r.txt").exists()


# Lines beside HOSTILE's whose reading an ingest rewrite could get wrong.
ODD = {
    "blank": "  \t ",
    "not-object": '["t0", "bagus"]',
    "null-id": '{"id": null, "text": "bagus"}',
    "empty-id": '{"id": "", "text": "bagus"}',
    "spaces-text": '{"id": "sp", "text": "   "}',
    "number-fields": '{"id": "nf", "text": "bagus", "created_at": 20180627, "lang": 7}',
    "string-fields": '{"id": "sf", "text": "bagus", "created_at": "2018-06-27", "lang": "in"}',
    "surrogate-created": '{"id": "sc", "text": "bagus", "created_at": "\\udc80"}',
    "surrogate-lang": '{"id": "sl", "text": "bagus", "lang": "\\ud800"}',
    "escaped": '{"id": "\\u0065s", "text": "caf\\u00e9 \\ud83d\\ude00"}',
    "overlong": '{"id": "ol", "text": "' + "kata " * 40 + '"}',
    "dup-of-valid": '{"id": "t0", "text": "lain"}',
    "dup-after-malformed": '{"id": "dm", "text": 5}\n{"id": "dm", "text": "bagus"}',
    "late-bom": '\ufeff{"id": "lb", "text": "bagus"}',
}
# Lines that are not UTF-8.
NOT_UTF8 = [b'{"id": "b1", "text": "bagus \xff"}', b"\xc3", b'{"id": "t1", "text": "\xed\xa0\x80"}']


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.data(),
    st.lists(texts, max_size=5),
    st.lists(st.sampled_from([*HOSTILE.values(), *ODD.values()]), max_size=8),
    st.lists(st.sampled_from(NOT_UTF8), max_size=2),
    st.booleans(),
)
def test_field_scan_agrees_with_former_reader(data, tweet_texts, odd, not_utf8, bom):
    valid = [json.dumps({"id": f"t{i}", "text": t}) for i, t in enumerate(tweet_texts)]
    lines = mixed(data, [line.encode() for line in mixed(data, valid, odd)], not_utf8)
    blob = b"\xef\xbb\xbf" * bom + b"".join(
        line + data.draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for line in lines
    )
    # (source, the same lines as bytes split at LF only)
    sources = [(lambda: io.BytesIO(blob), blob)]
    try:
        text = blob.decode()
    except UnicodeDecodeError:
        pass
    else:
        # A text stream ends lines at CR as well as LF.
        text_lines = io.StringIO(text, newline="").readlines()
        sources.append((lambda: io.StringIO(text, newline=""), "\n".join(text_lines).encode()))

    def read(reader, source):
        stats = CorpusStats()
        return list(reader(source(), stats)), stats.as_dict()

    for source, as_bytes in sources:
        expected = reference.read_export(as_bytes)
        assert read(_tweet_fields, source) == expected
        tweets, stats = read(iter_tweets, source)
        assert ([(t.id, t.text, t.created_at, t.declared_lang) for t in tweets], stats) == expected
