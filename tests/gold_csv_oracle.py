"""``eval``'s former gold-file reader.

``read_gold_csv`` is the former ``kicaumine._eval._read_gold_csv``, which
padded each row with two empty cells, stripped the first two through a
generator and looked the label up with a ``SentimentLabel(...)`` call. It
is kept unchanged apart from this docstring, its name and its imports, and
it is the oracle that ``tests/test_cli.py`` checks the gold reader against.
"""

from kicaumine.corpus import SentimentLabel
from kicaumine.exceptions import ConfigError, EvaluationError


def read_gold_csv(path) -> dict[str, SentimentLabel]:
    """Gold file: CSV with header `id,label`, labels negative/positive/neutral.

    Once the header matches with its names trimmed, columns are read by
    position, so `id, label` works too. A leading UTF-8 byte-order mark is
    dropped.
    """
    import csv

    def refusal(problem: str) -> ConfigError:
        # The location is formatted only for a bad row, not for every row.
        return ConfigError(f"{path}:{reader.line_num}: {problem}")

    gold = {}
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [f.strip() for f in header] != ["id", "label"]:
                raise ConfigError(f"gold file {path} must have the header 'id,label'")
            for row in reader:
                if not row:
                    continue
                tweet_id, label_name = (cell.strip() for cell in (row + ["", ""])[:2])
                label_name = label_name.lower()
                if not tweet_id:
                    raise refusal("empty gold id")
                if tweet_id in gold:
                    raise refusal(f"duplicate gold id {tweet_id!r}")
                try:
                    gold[tweet_id] = SentimentLabel(label_name)
                except ValueError:
                    raise refusal(
                        f"unknown gold label {label_name!r} for id {tweet_id!r}"
                    ) from None
    except UnicodeDecodeError:
        raise ConfigError(f"gold file {path} is not UTF-8") from None
    except csv.Error as exc:
        raise refusal(f"bad gold CSV: {exc}") from None
    if not gold:
        raise EvaluationError(f"gold file {path} has no rows")
    return gold
