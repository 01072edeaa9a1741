"""The classify command: label each tweet of an export with a trained model."""

from itertools import chain, islice
from json.encoder import encode_basestring
from operator import itemgetter

from .config import RunConfig
from .corpus import CorpusStats, iter_tweets
from .resources import _output, _pipeline_config, _say

# Tweets that classify reads, then scores, then writes, per round. One
# tweet per round ran about 10% slower: between two tweets, each stage's
# code and data left the CPU caches.
_CLASSIFY_CHUNK = 256


def cmd_classify(config: RunConfig) -> int:
    from .model import _posteriors, load_model
    from .preprocess import run_pipeline

    config.require_files("input", "model")
    pipeline = _pipeline_config(config)
    model = load_model(config.model)
    table, oov_mode = model._score_table(), config.oov
    # Each line is the record {id, label, oov_tokens, posteriors} as
    # json.dumps(record, sort_keys=True, ensure_ascii=False) writes it: keys
    # sorted, and each posterior, always finite, in float.__repr__.
    names = [lab.value for lab in model.labels]
    heads = [f', "label": {encode_basestring(name)}, "oov_tokens": ' for name in names]
    key_order = sorted(range(len(names)), key=names.__getitem__)
    in_key_order = itemgetter(*key_order)
    tail = (
        ', "posteriors": {'
        + ", ".join(f"{encode_basestring(names[j])}: %r" for j in key_order)
        + "}}\n"
    )
    count = 0
    with open(config.input, "rb") as handle, _output(config.out) as out:
        tweets = iter_tweets(handle, CorpusStats())
        while chunk := list(islice(tweets, _CLASSIFY_CHUNK)):
            token_lists = [run_pipeline(tweet, pipeline).tokens for tweet in chunk]
            table.build(chain.from_iterable(token_lists))
            scored = [_posteriors(table, tokens, oov_mode) for tokens in token_lists]
            out.write(
                "".join(
                    f'{{"id": {encode_basestring(tweet.id)}{heads[best]}{oov}'
                    f"{tail % in_key_order(posteriors)}"
                    for tweet, (best, posteriors, oov) in zip(chunk, scored)
                )
            )
            count += len(chunk)
    _say(f"classified {count} tweet(s)")
    return 0
