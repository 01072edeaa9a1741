"""Reference implementations of the case-fold and scoring hot loops.

This is the former pure-Python kernel module, ``kicaumine._kernels._pure``,
kept unchanged apart from this docstring. It is the oracle that
``tests/test_kernels.py`` checks ``preprocess.case_fold`` and the model's
scores against.
"""


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
