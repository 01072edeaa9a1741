"""Record classes: value equality, immutability, ``replace``, copying and pickling."""

import copy
import pickle

import pytest

from conftest import NEG, POS, make_doc
from kicaumine.config import _DEFAULTS, RunConfig
from kicaumine.corpus import CorpusStats, LabeledTweet, LabelSource, Tweet
from kicaumine.evaluation import EvalMetrics, SentimentReport, evaluate, sentiment_report
from kicaumine.model import Prediction, classify, train
from kicaumine.preprocess import PipelineConfig, run_pipeline
from kicaumine.resources import default_pipeline_config

TWEET = Tweet("1", "bagus #pilgubjabar :)", created_at="2018-06-01", declared_lang="in")
DOCS = [make_doc("p1", ["calon", "bagus"], POS), make_doc("n1", ["calon", "buruk"], NEG)]
MODEL = train(DOCS)
PREDICTION = classify(MODEL, DOCS[0])

RECORDS = [
    TWEET,
    LabeledTweet(TWEET, POS, LabelSource.DISTANT),
    DOCS[0],
    PREDICTION,
    CorpusStats(total_ingested=3, rejected_malformed=1, unlabeled=2),
    RunConfig(input="tweets.jsonl", k=5, hashtags=frozenset({"a"})),
    MODEL,
    sentiment_report([(TWEET, PREDICTION)], {"pilgubjabar"})[1],
    evaluate(MODEL, DOCS),
]
FROZEN = [r for r in RECORDS if not isinstance(r, (CorpusStats, RunConfig))]


# The records built by the base constructor, each with a value for every field.
KEYWORD_BUILT = [
    (Prediction, {"label": POS, "posteriors": {POS: 1.0}, "oov_tokens": 0}),
    (EvalMetrics, {"confusion": {}, "accuracy": 1.0, "per_class": {}, "n_test": 1}),
    (SentimentReport, {"group_key": "all", "counts": {}, "percentages": {}}),
    (CorpusStats, dict.fromkeys(CorpusStats._fields, 1)),
    (RunConfig, {**_DEFAULTS, "seed": 7}),
]


def pickled(record):
    """``record`` through a pickle round trip at every protocol."""
    clones = [
        pickle.loads(pickle.dumps(record, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    assert all(clone == clones[0] for clone in clones)
    return clones[-1]


def record_id(record):
    return type(record).__name__


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, pickled])
@pytest.mark.parametrize("record", RECORDS, ids=record_id)
def test_copies_and_pickles_equal(record, duplicate):
    clone = duplicate(record)
    assert type(clone) is type(record)
    assert clone == record


@pytest.mark.parametrize("duplicate", [copy.deepcopy, pickled])
def test_model_copy_keeps_derived_views(duplicate):
    clone = duplicate(MODEL)
    assert clone.total_docs == MODEL.total_docs
    assert clone.tokens_per_class == MODEL.tokens_per_class
    assert clone.vocabulary == MODEL.vocabulary
    assert classify(clone, DOCS[1]) == classify(MODEL, DOCS[1])


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_classified_model_pickles_without_its_score_table(protocol):
    assert MODEL._table is not None
    assert pickle.dumps(MODEL, protocol) == pickle.dumps(train(DOCS), protocol)
    assert copy.copy(MODEL)._table is None


@pytest.mark.parametrize("record", FROZEN, ids=record_id)
def test_frozen_records_refuse_assignment(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", [CorpusStats(), RunConfig()], ids=record_id)
def test_mutable_records_assign_but_do_not_hash(record):
    name = record._fields[-1]
    setattr(record, name, 5)
    assert getattr(record, name) == 5
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        hash(record)


def test_equality_is_by_class_and_fields():
    assert Tweet("1", "x") == Tweet("1", "x")
    assert hash(Tweet("1", "x")) == hash(Tweet("1", "x"))
    assert Tweet("1", "x") != Tweet("1", "y")
    assert Tweet("1", "x") != ("1", "x", None, None)
    assert CorpusStats() != RunConfig()


def test_repr_names_every_field():
    assert repr(Tweet("1", "x")) == "Tweet(id='1', text='x', created_at=None, declared_lang=None)"


def test_replace_changes_only_the_named_fields():
    config = RunConfig(input="a.jsonl", seed=7)
    changed = config.replace(seed=8)
    assert (changed.input, changed.seed, config.seed) == ("a.jsonl", 8, 7)
    assert changed.replace(seed=7) == config
    with pytest.raises(TypeError):
        config.replace(no_such_field=1)


def test_replace_validates_like_construction():
    with pytest.raises(ValueError):
        TWEET.replace(text=" ")


def test_pipeline_config_copy_shares_memo_and_pickle_refuses_lock():
    config = default_pipeline_config().replace()
    run_pipeline(Tweet("1", "bagus"), config)
    clone = copy.copy(config)
    assert clone == config
    assert clone._word_memo is config._word_memo
    with pytest.raises(TypeError):
        pickle.dumps(config)


def test_pipeline_config_defaults_do_not_share_a_lexicon():
    assert PipelineConfig().pos_lexicon == {}
    assert PipelineConfig().pos_lexicon is not PipelineConfig().pos_lexicon


def built_id(case):
    return case[0].__name__


@pytest.mark.parametrize("case", KEYWORD_BUILT, ids=built_id)
def test_keyword_built_records_store_every_field(case):
    cls, values = case
    record = cls(**values)
    assert [getattr(record, name) for name in cls._fields] == list(values.values())
    assert record.replace() == record


@pytest.mark.parametrize("case", KEYWORD_BUILT, ids=built_id)
def test_keyword_built_records_refuse_unknown_names(case):
    cls, values = case
    with pytest.raises(TypeError, match=f"^{cls.__name__} got unknown fields: bogus, other$"):
        cls(**values, other=1, bogus=1)
    # An unknown name in place of a field, so that the count of names matches.
    swapped = {**values, "bogus": 1}
    del swapped[cls._fields[0]]
    with pytest.raises(TypeError, match=f"^{cls.__name__} got unknown fields: bogus$"):
        cls(**swapped)


@pytest.mark.parametrize("case", KEYWORD_BUILT, ids=built_id)
def test_keyword_built_records_refuse_positional_arguments(case):
    cls, values = case
    with pytest.raises(TypeError, match=f"^{cls.__name__} takes keyword arguments only$"):
        cls(*values.values())
    with pytest.raises(TypeError, match=f"^{cls.__name__} takes keyword arguments only$"):
        cls(None, **values)


@pytest.mark.parametrize("case", KEYWORD_BUILT, ids=built_id)
def test_keyword_built_records_fill_only_defaulted_fields(case):
    cls, values = case
    first, last = cls._fields[0], cls._fields[-1]
    partial = {name: value for name, value in values.items() if name not in (first, last)}
    if cls._defaults:
        record = cls(**partial)
        assert (getattr(record, first), getattr(record, last)) == (
            cls._defaults[first], cls._defaults[last]
        )
    else:
        with pytest.raises(TypeError, match=f"^{cls.__name__} is missing fields: {first}, {last}$"):
            cls(**partial)
