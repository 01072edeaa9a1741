"""Reference implementation of the preprocessing chain.

This is the former ``kicaumine.preprocess.run_pipeline``, which runs each
stage over the whole tweet in turn: cleanse, case fold, stopwords, POS
tags (one ``PosTaggedToken`` per token) and stemming. It is kept
unchanged apart from this docstring and its imports, and it is the
oracle that ``tests/test_pipeline.py`` checks the per-word memoized
pipeline against.
"""

from kicaumine.corpus import LabeledTweet, Tweet
from kicaumine.preprocess import (
    Document,
    PipelineConfig,
    _fold_tokens,
    cleanse,
    pos_tag,
    remove_stopwords,
)
from kicaumine.stemming import ConfixStemmer as stemmer_for


def run_pipeline(item: Tweet | LabeledTweet, config: PipelineConfig) -> Document:
    """Run the full preprocessing chain on one tweet.

    Accepts a raw or labeled tweet; the label, when present, is carried
    through untouched. Stages run in the fixed order with the optional
    ones gated by ``config``.
    """
    if isinstance(item, LabeledTweet):
        tweet, label = item.tweet, item.label
    else:
        tweet, label = item, None
    # Folded tokens are letters by construction, so tokenize's check is skipped.
    tokens = _fold_tokens(cleanse(tweet.text))
    if config.enable_stopwords:
        tokens = remove_stopwords(tokens, config.stopword_list)
    if config.enable_pos:
        tagged = pos_tag(tokens, config.pos_lexicon)
        tokens = [entry.token for entry in tagged if entry.tag in config.pos_keep_tags]
    if config.enable_stemming:
        stemmer = stemmer_for(config.root_words)
        tokens = [stemmer.stem(t) for t in tokens]
    return Document(source_id=tweet.id, tokens=tuple(tokens), label=label)
