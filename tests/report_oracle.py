"""``report``'s former prediction parser.

``prediction`` is the former ``kicaumine.cli._prediction``, which built a
``Prediction`` from each predictions record, unchanged but for its name
and imports. ``report`` now keeps only each record's label once
``_report._prediction_label`` has checked the whole record, and
``tests/test_cli.py`` checks that it refuses each bad record with the
error, and the text, that building the ``Prediction`` raised. It stays
because ``tests/reference.py`` models refusals by exit status only, so it
cannot pin the text of a strict reader's error.
"""

from kicaumine.corpus import SentimentLabel
from kicaumine.model import Prediction


def prediction(record: dict) -> Prediction:
    posteriors = record.get("posteriors", {})
    if not isinstance(posteriors, dict):
        raise TypeError("posteriors must be a JSON object")
    return Prediction(
        label=SentimentLabel(record["label"]),
        posteriors={SentimentLabel(name): float(p) for name, p in posteriors.items()},
        oov_tokens=int(record.get("oov_tokens", 0)),
    )
