"""The per-count checks of ``load_model`` and ``NbModel`` as Python loops.

``int_counts`` is the former ``kicaumine.model._int_counts`` and
``check_tables`` the former per-label loop of ``NbModel.__init__``, both
unchanged but for their names. The model now runs the same checks as set,
``all`` and ``min`` operations in C, and walks the counts only to name a
bad one. ``tests/test_model.py`` checks that every table is refused, or
accepted, exactly as these loops do it. It stays because no command
writes a malformed table, so ``tests/reference.py``, which runs the
commands on exports, never reaches ``load_model``'s refusals.
"""

from kicaumine.exceptions import ModelFormatError


def int_counts(counts: dict, field: str) -> dict:
    """``counts`` itself once every value is exactly an ``int``."""
    if not all(type(count) is int for count in counts.values()):
        bad = next(count for count in counts.values() if type(count) is not int)
        raise ModelFormatError(f"{field} holds a non-integer count {bad!r}")
    return counts


def check_tables(labels, docs_per_class, token_counts) -> None:
    """Raise as ``NbModel`` did for a class without documents or a bad token count."""
    for lab in labels:
        if docs_per_class[lab] < 1:
            raise ValueError(f"label {lab} has no documents")
        for token, count in token_counts[lab].items():
            if not token or count < 1:
                raise ValueError(f"bad count for token {token!r} in class {lab}")
