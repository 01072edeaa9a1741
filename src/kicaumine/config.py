"""Run configuration: flat key=value files plus command-line overrides.

The config file format is one ``key=value`` per line, '#' comment lines,
booleans spelled ``true``/``false``, list values comma-separated. Every
key has a matching CLI flag (see ``flag_name``), whose value is parsed
as its config-file line's is; flags win over file values. Paths are
resolved relative to the working directory.
"""

import os
from enum import Enum

from .corpus import DEFAULT_HASHTAGS, DEFAULT_LANG_THRESHOLD, _Record
from .exceptions import ConfigError

OOV_SMOOTH = "smooth"  # unseen tokens scored with count 0 under smoothing
OOV_SKIP = "skip"  # unseen tokens contribute nothing
OOV_MODES = (OOV_SMOOTH, OOV_SKIP)


class PosTag(Enum):
    """Coarse word classes assigned by lexicon lookup."""

    NOUN = "noun"
    VERB = "verb"
    ADJ = "adj"
    ADV = "adv"
    FUNC = "func"  # closed-class function words
    OTHER = "other"  # not in the lexicon

    def __str__(self):
        return self.value


# Tag filter applied when the POS stage is enabled: content classes plus
# unknown words; only lexicon-known function words and adverbs drop out.
DEFAULT_POS_KEEP_TAGS = frozenset({PosTag.NOUN, PosTag.VERB, PosTag.ADJ, PosTag.OTHER})

DEFAULT_K = 10

FORMATS = ("table", "json", "csv")

# Every run setting, in field order, with its default. A config-file value
# is parsed as its default's type (see ``parse_setting``); file paths are
# None when unset, and word resources then fall back to the bundled data.
_DEFAULTS = {
    # File paths.
    "input": None,
    "model": None,
    "out": None,
    "out_labeled": None,
    "out_unlabeled": None,
    "predictions": None,
    "gold": None,
    "stopwords": None,
    "pos_lexicon": None,
    "stem_roots": None,
    "wordlist": None,
    "hashtags_file": None,
    # Collection parameters.
    "hashtags": DEFAULT_HASHTAGS,
    "lang_threshold": DEFAULT_LANG_THRESHOLD,
    # Pipeline toggles.
    "enable_stopwords": True,
    "enable_pos": False,
    "enable_stemming": True,
    "pos_keep_tags": DEFAULT_POS_KEEP_TAGS,
    # Split / validation parameters.
    "train_fraction": 0.8,
    "seed": 42,
    "k": 0,
    # Output.
    "format": "table",
    "oov": OOV_SMOOTH,
}


def flag_name(key: str) -> str:
    """The command-line flag of setting ``key``.

    ``--`` plus the key with ``-`` for ``_``. A boolean setting's flag
    sets the opposite of its default: ``--enable-pos``, ``--disable-stemming``.
    """
    flag = "--" + key.replace("_", "-")
    if _DEFAULTS[key] is True:
        return flag.replace("--enable-", "--disable-", 1)
    return flag


class RunConfig(_Record):
    """Everything a CLI command may need; commands validate their subset.

    Takes keyword arguments only, one per setting; an unset one takes its
    default. ``k`` 0 disables k-fold mode.
    """

    __slots__ = _fields = tuple(_DEFAULTS)
    _defaults = _DEFAULTS
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

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
        if self.oov not in OOV_MODES:
            raise ConfigError(f"oov must be one of {OOV_MODES}, got {self.oov!r}")
        if not self.hashtags:
            raise ConfigError("hashtag set must not be empty")
        if not self.pos_keep_tags:
            raise ConfigError("POS keep-tag set must not be empty")

    def require_files(self, *keys: str) -> None:
        """Eagerly check that the named input paths are set, and that they and
        the word-file paths that are set name something other than a directory.

        An input may be a pipe or a device, such as ``/dev/stdin`` or a
        shell's ``<(cmd)``: each command opens each input once and only
        reads it. All problems are reported together in one error so a bad
        invocation fails before any work starts.
        """
        problems = []
        for key in (*keys, "stopwords", "pos_lexicon", "stem_roots", "wordlist", "hashtags_file"):
            value = getattr(self, key)
            if value is None:
                if key in keys:
                    problems.append(f"{flag_name(key)} is required")
            elif os.path.isdir(value):
                problems.append(f"{key}: is a directory: {value}")
            elif not os.path.exists(value):
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
    return frozenset(t.strip().lstrip("#").lower() for t in value.split(",") if t.strip())


def _parse_keep_tags(value: str) -> frozenset[PosTag]:
    names = [t.strip().upper() for t in value.split(",") if t.strip()]
    try:
        return frozenset(PosTag[name] for name in names)
    except KeyError as exc:
        raise ConfigError(f"unknown POS tag in pos_keep_tags: {exc}") from None


def parse_setting(key: str, raw: str):
    """The text ``raw`` as a value of setting ``key``, typed like its default.

    A bad boolean or POS tag raises ConfigError. A bad number raises
    ValueError, which the config-file parser reports after ``path:line``
    and the CLI reports without one.
    """
    if key == "hashtags":
        return _parse_tags(raw)
    if key == "pos_keep_tags":
        return _parse_keep_tags(raw)
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        return _parse_bool(key, raw)
    if isinstance(default, (int, float)):
        kind = type(default)
        try:
            return kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{key} must be {what}") from None
    return raw


def parse_config_file(path) -> dict:
    """Read a key=value config file into a dict of typed values."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parse_setting(key, value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def build_config(config_path=None, **overrides) -> RunConfig:
    """Merge defaults, an optional config file, and CLI overrides."""
    config = RunConfig()
    if config_path is not None:
        config = config.replace(**parse_config_file(config_path))
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    if cleaned:
        config = config.replace(**cleaned)
    config.validate_values()
    return config
