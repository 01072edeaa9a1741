"""The report command: per-hashtag sentiment percentages of the predictions."""

import json

from .config import RunConfig
from .corpus import CorpusStats, SentimentLabel, _hashtag_rollup, _read_strict_jsonl, iter_tweets
from .resources import _csv_writer, _effective_hashtags, _emit, _say


def _prediction_label(record: dict) -> SentimentLabel:
    """The label of a predictions record, once every field of it is valid.

    The fields are checked in the order a ``Prediction`` is built from
    them: posteriors type, label, each posterior's label and float, then
    ``oov_tokens``.
    """
    posteriors = record.get("posteriors", {})
    if not isinstance(posteriors, dict):
        raise TypeError("posteriors must be a JSON object")
    label = SentimentLabel(record["label"])
    for name, p in posteriors.items():
        SentimentLabel(name)
        float(p)
    int(record.get("oov_tokens", 0))
    return label


def _format_reports(groups, fmt: str) -> str:
    """``corpus._hashtag_rollup``'s (key, counts, shares) groups in format ``fmt``."""
    labels = list(SentimentLabel)
    if fmt == "json":
        payload = [
            {
                "group": key,
                "total": sum(counts.values()),
                "counts": {lab.value: counts[lab] for lab in labels},
                "percentages": {lab.value: shares[lab] for lab in shares},
            }
            for key, counts, shares in groups
        ]
        return json.dumps(payload, sort_keys=True, indent=2)
    if fmt == "csv":
        buffer, writer = _csv_writer()
        writer.writerow(["group", "label", "count", "percentage"])
        for key, counts, shares in groups:
            for lab in labels:
                pct = f"{shares[lab]:.6f}" if shares else ""
                writer.writerow([key, lab.value, counts[lab], pct])
        return buffer.getvalue()
    width = max(len(key) for key, _, _ in groups) + 2
    lines = [f"{'group'.ljust(width)}{'total':>7}" + "".join(f"{lab.value:>18}" for lab in labels)]
    for key, counts, shares in groups:
        cells = ""
        for lab in labels:
            if shares:
                cells += f"{counts[lab]:>8} ({shares[lab] * 100:5.1f}%)"
            else:
                cells += f"{counts[lab]:>8}         "
        lines.append(f"{key.ljust(width)}{sum(counts.values()):>7}" + cells)
    return "\n".join(lines)


def cmd_report(config: RunConfig) -> int:
    config.require_files("input", "predictions")
    tags = _effective_hashtags(config)
    labels = _read_strict_jsonl(config.predictions, "prediction", _prediction_label)
    with open(config.input, "rb") as handle:
        tweets = iter_tweets(handle, CorpusStats())
        groups = _hashtag_rollup(((t.text, labels[t.id]) for t in tweets if t.id in labels), tags)
    # The 'all' group counts every matched tweet, and iter_tweets yields each
    # id once, so each matched tweet has a distinct prediction.
    unmatched = len(labels) - sum(groups[0][1].values())
    if unmatched:
        _say(f"{unmatched} prediction(s) reference ids missing from the corpus")
    _emit(_format_reports(groups, config.format), config.out)
    return 0
