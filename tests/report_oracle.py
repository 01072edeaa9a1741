"""``report``'s former prediction parser and hashtag rollup.

``prediction`` is the former ``kicaumine.cli._prediction``, which built a
``Prediction`` from each predictions record, and ``sentiment_report`` is
the former body of ``kicaumine.evaluation.sentiment_report``, both
unchanged but for their names and imports. ``report`` now keeps only each
record's label once ``cli._prediction_label`` has checked the whole
record, and counts groups in ``corpus._hashtag_rollup``. ``tests/test_cli.py``
and ``tests/test_evaluation.py`` check the new code against these.
"""

from kicaumine.corpus import ALL_GROUP, SentimentLabel, _hashtag_needles
from kicaumine.evaluation import SentimentReport
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


def sentiment_report(predictions, group_by):
    tags, needles = _hashtag_needles(group_by, reserved=ALL_GROUP)
    group_counts: dict[str, dict[SentimentLabel, int]] = {
        ALL_GROUP: {lab: 0 for lab in SentimentLabel}
    }
    if predictions:
        for tag in tags:
            group_counts[tag] = {lab: 0 for lab in SentimentLabel}
    for tweet, prediction in predictions:
        group_counts[ALL_GROUP][prediction.label] += 1
        lowered = tweet.text.lower()
        for tag, needle in zip(tags, needles):
            if needle in lowered:
                group_counts[tag][prediction.label] += 1
    reports = []
    for key in [ALL_GROUP] + (tags if predictions else []):
        counts = group_counts[key]
        total = sum(counts.values())
        percentages = (
            {lab: counts[lab] / total for lab in SentimentLabel} if total else {}
        )
        reports.append(SentimentReport(group_key=key, counts=counts, percentages=percentages))
    return reports
