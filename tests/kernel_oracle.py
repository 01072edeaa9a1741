"""Reference implementations of the case-fold and scoring hot loops.

``score_document`` and ``strip_non_letters`` are the former pure-Python
kernel module, ``kicaumine._kernels._pure``, kept unchanged. They are the
oracle that ``tests/test_kernels.py`` checks ``preprocess.case_fold`` and
the model's scores against.

``_ScoreTable`` is the former ``kicaumine.model._ScoreTable``, which took
one log per given token and class when built. It is kept unchanged apart
from what lets the package score with it: a ``vocab`` slot, the rows'
keys, in which ``model._doc_scores`` looks a token up before reading its
row, and a ``build`` that has nothing to do. ``model_table`` builds it as
``NbModel._score_table`` did. It is the oracle for the rows that the
model's table now computes in batch for the tokens about to be scored,
and ``tests/kfold_oracle.py`` scores its folds with it.
"""

import math


def score_document(log_priors, log_lik, oov_log_lik, token_ids, token_counts,
                   oov_count, skip_oov, out):
    """Accumulate per-class log scores for one document.

    log_priors   -- per-class log prior, length C
    log_lik      -- per-class log likelihood table, flat row-major C*V
    oov_log_lik  -- per-class log likelihood of an unseen token, length C
    token_ids    -- vocabulary indices of the document's distinct tokens
    token_counts -- occurrence count per entry of token_ids (as doubles)
    oov_count    -- total occurrences of out-of-vocabulary tokens
    skip_oov     -- when true, out-of-vocabulary tokens contribute nothing
    out          -- preallocated output buffer, length C
    """
    n_classes = len(log_priors)
    vocab_size = len(log_lik) // n_classes if n_classes else 0
    n_tokens = len(token_ids)
    for j in range(n_classes):
        score = log_priors[j]
        if not skip_oov and oov_count:
            score += oov_count * oov_log_lik[j]
        base = j * vocab_size
        for k in range(n_tokens):
            score += token_counts[k] * log_lik[base + token_ids[k]]
        out[j] = score


def strip_non_letters(text):
    """Replace non-letter characters with spaces, collapse runs, trim.

    The input is expected to be lowercased already; this routine only
    decides letter vs. delimiter per character.
    """
    chars = []
    pending = False
    for ch in text:
        if ch.isalpha():
            if pending and chars:
                chars.append(" ")
            pending = False
            chars.append(ch)
        else:
            pending = True
    return "".join(chars)


class _ScoreTable:
    """Log-space scores of a model's counts, one row per given token.

    The per-label arguments are in label order: ``docs_per_class[j]``,
    ``tokens_per_class[j]`` and ``token_counts[j]`` (token to count, absent
    meaning 0) describe the j-th label's class. ``rows[token][j]`` is the
    log likelihood of ``token`` under the j-th label; ``oov_log_lik[j]`` is
    that of a token without a row.
    """

    __slots__ = ("rows", "log_priors", "oov_log_lik", "vocab")

    def __init__(self, docs_per_class, tokens_per_class, vocabulary_size, token_counts, tokens):
        total_docs = sum(docs_per_class)
        self.log_priors = tuple(math.log(n / total_docs) for n in docs_per_class)
        denoms = [n + vocabulary_size for n in tokens_per_class]
        columns = [
            [math.log((counts.get(token, 0) + 1) / denom) for token in tokens]
            for counts, denom in zip(token_counts, denoms)
        ]
        self.rows = dict(zip(tokens, zip(*columns)))
        self.oov_log_lik = tuple(math.log(1 / denom) for denom in denoms)
        self.vocab = self.rows.keys()

    def build(self, tokens):
        """Nothing to do: every row was computed up front."""


def model_table(model):
    """``model``'s eager score table, with a row for every vocabulary word."""
    labels = model.labels
    return _ScoreTable(
        [model.docs_per_class[lab] for lab in labels],
        [model.tokens_per_class[lab] for lab in labels],
        len(model.vocabulary),
        [model.token_counts[lab] for lab in labels],
        list(model.vocabulary),
    )
