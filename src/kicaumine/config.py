"""Run configuration: flat key=value files plus command-line overrides.

The config file format is one ``key=value`` per line, '#' comment lines,
booleans spelled ``true``/``false``, list values comma-separated. Every
key has a matching CLI flag; flags win over file values. Paths are
resolved relative to the working directory.
"""

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .corpus import DEFAULT_HASHTAGS
from .exceptions import ConfigError
from .preprocess import DEFAULT_POS_KEEP_TAGS, PosTag

DEFAULT_SEED = 42
DEFAULT_TRAIN_FRACTION = 0.8
DEFAULT_K = 10
DEFAULT_LANG_THRESHOLD = 0.5

FORMATS = ("table", "json", "csv")
OOV_CHOICES = ("smooth", "skip")

_BOOL_KEYS = ("enable_stopwords", "enable_pos", "enable_stemming")


@dataclass
class RunConfig:
    """Everything a CLI command may need; commands validate their subset."""

    # File paths (None -> unset; word resources fall back to bundled data).
    input: str | None = None
    model: str | None = None
    out: str | None = None
    out_labeled: str | None = None
    out_unlabeled: str | None = None
    predictions: str | None = None
    gold: str | None = None
    stopwords: str | None = None
    pos_lexicon: str | None = None
    stem_roots: str | None = None
    wordlist: str | None = None
    hashtags_file: str | None = None
    # Collection parameters.
    hashtags: frozenset[str] = DEFAULT_HASHTAGS
    lang_threshold: float = DEFAULT_LANG_THRESHOLD
    # Pipeline toggles.
    enable_stopwords: bool = True
    enable_pos: bool = False
    enable_stemming: bool = True
    pos_keep_tags: frozenset[PosTag] = DEFAULT_POS_KEEP_TAGS
    # Split / validation parameters.
    train_fraction: float = DEFAULT_TRAIN_FRACTION
    seed: int = DEFAULT_SEED
    k: int = 0  # 0 disables k-fold mode
    # Output.
    format: str = "table"
    oov: str = "smooth"

    def validate_values(self) -> None:
        if not 0.0 <= self.lang_threshold <= 1.0:
            raise ConfigError(f"lang_threshold must be in [0, 1], got {self.lang_threshold}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.k < 0 or self.k == 1:
            raise ConfigError(f"k must be 0 (off) or at least 2, got {self.k}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.oov not in OOV_CHOICES:
            raise ConfigError(f"oov must be one of {OOV_CHOICES}, got {self.oov!r}")
        if not self.hashtags:
            raise ConfigError("hashtag set must not be empty")

    def require_files(self, *keys: str) -> None:
        """Eagerly check that the named input paths are set and exist.

        All problems are reported together in one error so a bad
        invocation fails before any work starts.
        """
        problems = []
        for key in keys:
            value = getattr(self, key)
            if value is None:
                problems.append(f"--{key.replace('_', '-')} is required")
            elif not Path(value).is_file():
                problems.append(f"{key}: no such file: {value}")
        for key in ("stopwords", "pos_lexicon", "stem_roots", "wordlist", "hashtags_file"):
            value = getattr(self, key)
            if value is not None and not Path(value).is_file():
                problems.append(f"{key}: no such file: {value}")
        if problems:
            raise ConfigError("; ".join(problems))


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _parse_tags(value: str) -> frozenset[str]:
    tags = frozenset(t.strip().lstrip("#").lower() for t in value.split(",") if t.strip())
    return tags


def _parse_keep_tags(value: str) -> frozenset[PosTag]:
    names = [t.strip().upper() for t in value.split(",") if t.strip()]
    try:
        return frozenset(PosTag[name] for name in names)
    except KeyError as exc:
        raise ConfigError(f"unknown POS tag in pos_keep_tags: {exc}") from None


def parse_config_file(path) -> dict:
    """Read a key=value config file into a dict of typed values."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in _BOOL_KEYS:
            values[key] = _parse_bool(key, value)
        elif key == "hashtags":
            values[key] = _parse_tags(value)
        elif key == "pos_keep_tags":
            values[key] = _parse_keep_tags(value)
        elif key in ("lang_threshold", "train_fraction"):
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be a number") from None
        elif key in ("seed", "k"):
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be an integer") from None
        else:
            values[key] = value
    return values


def build_config(config_path=None, **overrides) -> RunConfig:
    """Merge defaults, an optional config file, and CLI overrides."""
    config = RunConfig()
    if config_path is not None:
        config = replace(config, **parse_config_file(config_path))
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    if cleaned:
        config = replace(config, **cleaned)
    config.validate_values()
    return config
