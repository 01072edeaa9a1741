"""Seeded synthetic tweet exports built from the bundled Indonesian word files.

The corpus is made only from ``wordlist_id.txt``, ``root_words_id.txt``
and ``stopwords_id.txt``; nothing is downloaded. Every record carries a
latent sentiment that the generator writes to a gold CSV, so ``eval``
accuracy measures how well the pipeline recovers it.

The latent model: the root words are split into a positive-leaning, a
negative-leaning and a neutral group. A record of sentiment ``s`` draws
its content words mostly from the neutral group, often from its own
group and sometimes from the opposite one, so the class vocabularies
overlap. Within a group, words follow a Zipf law. Emoticon
labels agree with the latent sentiment only most of the time. Together
this keeps accuracy well inside (0.5, 1), where it can move.

Two record styles exist:

* ``campaign``: tweet-sized records with affixed root forms, campaign and
  off-topic hashtags, ``:)``, ``:(`` and both, mentions, URLs, ``RT``,
  some non-Indonesian lines, and a few malformed or duplicate lines.
  Vocabulary repeats heavily.
* ``noisy``: records of several hundred characters with nested
  emoticons of bounded depth, ``RT`` runs, many URLs and mentions,
  non-Latin text, and elongated or misspelled words, so most words the
  stemmer sees are distinct.
"""

import bisect
import itertools
import json
import random
from pathlib import Path

# The campaign hashtags the benchmark tracks; the CLI receives them with
# --hashtags, so the corpus does not depend on the program's defaults.
LANGUAGE_SEED = 2018

CAMPAIGN_TAGS = ("pilgubjabar", "ridwankamil", "deddymizwar", "dedimulyadi", "pilkadajabar")

_PREFIXES = ("di", "ber", "ter", "me", "meng", "mem", "men", "pe", "peng", "ke", "se")
_SUFFIXES = ("kan", "an", "i", "nya", "lah", "ku", "mu", "pun")
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_VOWELS = "aeiou"
# Cyrillic, Greek and CJK letters: alphabetic, but never Indonesian.
_NON_LATIN = (
    [chr(c) for c in range(0x430, 0x450)]
    + [chr(c) for c in range(0x3B1, 0x3CA)]
    + [chr(c) for c in range(0x4E00, 0x4E40)]
)


def read_words(path) -> list[str]:
    """Entries of a bundled word file, in file order, comments skipped."""
    words = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line and not line.startswith("#"):
                words.append(line)
    return words


class _Zipf:
    """Draw from a fixed list with weight 1/rank."""

    def __init__(self, items):
        self.items = list(items)
        self.cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(self.items))))

    def draw(self, rng: random.Random) -> str:
        return self.items[bisect.bisect(self.cum, rng.random() * self.cum[-1])]


class CorpusGenerator:
    """Generate one export plus its latent labels from a seed.

    ``data_dir`` holds the three bundled word files. The same seed and
    style give the same records.
    """

    def __init__(self, data_dir, seed: int, style: str):
        if style not in ("campaign", "noisy"):
            raise ValueError(f"unknown corpus style {style!r}")
        data_dir = Path(data_dir)
        self.style = style
        roots = read_words(data_dir / "root_words_id.txt")
        stopwords = read_words(data_dir / "stopwords_id.txt")
        # The wordlist is read so that a missing file fails here, before any
        # record is written; its entries are a superset of roots and stopwords.
        read_words(data_dir / "wordlist_id.txt")
        # The synthetic language (word groups, ranks, affixed forms, users,
        # off-topic tags) is the same for every seed; the seed draws the
        # records. Figures then differ across seeds by sampling alone.
        self.rng = random.Random(LANGUAGE_SEED)
        self.rng.shuffle(roots)
        third = len(roots) * 3 // 10
        self.groups = {
            "positive": _Zipf(roots[:third]),
            "negative": _Zipf(roots[third : 2 * third]),
            "neutral": _Zipf(roots[2 * third :]),
        }
        # Each root takes only a few affixed forms, as real roots do.
        self.forms = {root: [self._affixed(root) for _ in range(3)] for root in roots}
        self.stopwords = _Zipf(self.rng.sample(stopwords, len(stopwords)))
        self.users = [self._handle() for _ in range(300)]
        self.off_topic = [
            self.rng.choice(roots) + self.rng.choice(roots) for _ in range(12)
        ]
        self.rng = random.Random(seed)

    # -- pieces -----------------------------------------------------------

    def _handle(self) -> str:
        rng = self.rng
        return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(4, 9))) + str(
            rng.randint(0, 999)
        )

    def _url(self) -> str:
        rng = self.rng
        return "https://t.co/" + "".join(rng.choice(_ALNUM) for _ in range(10))

    def _content_word(self, sentiment: str) -> str:
        rng = self.rng
        u = rng.random()
        if u < 0.3:
            group = sentiment
        elif u < 0.38:
            group = "negative" if sentiment == "positive" else "positive"
        else:
            group = "neutral"
        root = self.groups[group].draw(rng)
        word = root if rng.random() < 0.6 else rng.choice(self.forms[root])
        if self.style == "noisy" and rng.random() < 0.65:
            return self._noisy(word)
        return word

    def _affixed(self, root: str) -> str:
        rng = self.rng
        u = rng.random()
        if u < 0.5:
            return rng.choice(_PREFIXES) + root
        if u < 0.8:
            return root + rng.choice(_SUFFIXES)
        return rng.choice(_PREFIXES) + root + rng.choice(_SUFFIXES)

    def _word(self, sentiment: str) -> str:
        # Long records lean on function words, as long posts do; this also
        # keeps them above the language filter's threshold despite the noise.
        if self.rng.random() < (0.5 if self.style == "noisy" else 0.3):
            return self.stopwords.draw(self.rng)
        return self._content_word(sentiment)

    def _foreign_word(self) -> str:
        rng = self.rng
        return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 8)))

    def _non_latin_word(self) -> str:
        rng = self.rng
        return "".join(rng.choice(_NON_LATIN) for _ in range(rng.randint(2, 6)))

    def _noisy(self, word: str) -> str:
        """Elongate or misspell a word, as tweets do."""
        rng = self.rng
        u = rng.random()
        if u < 0.4:
            i = max((k for k, ch in enumerate(word) if ch in _VOWELS), default=len(word) - 1)
            return word[: i + 1] + word[i] * rng.randint(1, 5) + word[i + 1 :]
        if u < 0.75 and len(word) > 3:
            i = rng.randrange(len(word))
            op = rng.randrange(3)
            if op == 0:
                return word[:i] + word[i + 1 :]
            if op == 1:
                return word[:i] + rng.choice(_LETTERS) + word[i + 1 :]
            j = min(i + 1, len(word) - 1)
            return word[:i] + word[j] + word[i] + word[j + 1 :]
        return word

    def _case(self, word: str) -> str:
        u = self.rng.random()
        if u < 0.1:
            return word.capitalize()
        if u < 0.13:
            return word.upper()
        return word

    def _emoticon(self, sentiment: str) -> tuple[str, bool]:
        """An emoticon for the record and whether it carries a label at all."""
        rng = self.rng
        u = rng.random()
        if u < 0.05:
            return ":) :(", True
        if u < 0.55:
            agrees = rng.random() < 0.8
            positive = (sentiment == "positive") == agrees
            mark = ")" if positive else "("
            depth = rng.randint(1, 4) if self.style == "noisy" else 1
            return ":" * depth + mark * depth, True
        return "", False

    # -- records ----------------------------------------------------------

    def record(self, sentiment: str) -> tuple[str, bool]:
        """Text of one record and whether it carries an emoticon."""
        rng = self.rng
        noisy = self.style == "noisy"
        foreign = rng.random() < 0.05
        n = rng.randint(40, 80) if noisy else rng.randint(6, 16)
        if foreign:
            words = [self._foreign_word() for _ in range(n)]
        else:
            words = [self._word(sentiment) for _ in range(n)]
        if noisy:
            for _ in range(rng.randint(1, 3)):
                words.insert(rng.randrange(len(words) + 1), self._non_latin_word())
        words = [self._case(w) for w in words]

        extras = []
        if rng.random() < 0.85:
            extras.append("#" + rng.choice(CAMPAIGN_TAGS))
            if rng.random() < 0.2:
                extras.append("#" + rng.choice(CAMPAIGN_TAGS).upper())
        if rng.random() < 0.3 or not extras:
            extras.append("#" + rng.choice(self.off_topic))
        for _ in range(rng.randint(2, 6) if noisy else int(rng.random() < 0.3)):
            extras.append("@" + rng.choice(self.users))
        for _ in range(rng.randint(1, 4) if noisy else int(rng.random() < 0.25)):
            extras.append(self._url())
        emoticon, has_emoticon = self._emoticon(sentiment)
        if emoticon:
            extras.append(emoticon)
        for piece in extras:
            words.insert(rng.randrange(len(words) + 1), piece)

        prefix = ""
        if noisy and rng.random() < 0.5:
            prefix = "RT " * rng.randint(1, 4) + "@" + rng.choice(self.users) + ": "
        elif rng.random() < 0.12:
            prefix = "RT @" + rng.choice(self.users) + ": "
        return prefix + " ".join(words), has_emoticon

    def write(self, lines: int, export_path, gold_path, gold: str) -> dict:
        """Write ``lines`` export lines and the gold CSV; return their counts.

        ``gold`` is ``"heldout"`` for the records without an emoticon, which
        distant labeling never trains on, or ``"all"`` for every record.
        About one line in two hundred is malformed and one in two hundred
        repeats an earlier id; ingest counts and skips both.
        """
        if gold not in ("heldout", "all"):
            raise ValueError(f"unknown gold selection {gold!r}")
        rng = self.rng
        gold_rows = []
        with open(export_path, "w", encoding="utf-8", newline="\n") as out:
            for i in range(lines):
                u = rng.random()
                if u < 0.005:
                    out.write('{"id": "broken%d", "text": "unterminated\n' % i)
                    continue
                if u < 0.01 and i > 0:
                    tweet_id = "t%07d" % rng.randrange(i)
                else:
                    tweet_id = "t%07d" % i
                sentiment = "positive" if rng.random() < 0.5 else "negative"
                text, has_emoticon = self.record(sentiment)
                record = {
                    "id": tweet_id,
                    "text": text,
                    "created_at": "2018-%02d-%02dT%02d:%02d:00Z" % (
                        rng.randint(1, 6), rng.randint(1, 28), rng.randint(0, 23), rng.randint(0, 59)
                    ),
                }
                if rng.random() < 0.7:
                    record["lang"] = "id" if rng.random() < 0.9 else "en"
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
                if tweet_id == "t%07d" % i and (gold == "all" or not has_emoticon):
                    gold_rows.append((tweet_id, sentiment))
        with open(gold_path, "w", encoding="utf-8", newline="\n") as out:
            out.write("id,label\n")
            for tweet_id, sentiment in gold_rows:
                out.write(f"{tweet_id},{sentiment}\n")
        return {"export_lines": lines, "gold_rows": len(gold_rows)}
