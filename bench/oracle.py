"""Independent re-implementations the benchmark checks lusokit against.

Everything here is written from the documented behaviour (README,
docstrings), not by importing lusokit, so that a change to the program
that alters an output shows up as a ledger mismatch instead of moving
the expected value along with it.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter

# Python's \w is exactly str.isalnum() plus "_", and \s is str.isspace().
_SPECIAL = re.compile(r"[^\w\s]|_")

RULE_ORDER = (
    "min_words",
    "max_words",
    "char_repetition",
    "word_repetition",
    "special_char",
    "stopword",
    "flagged_word",
)


def first_violation(text: str, cfg: dict, stopwords: frozenset, flagged: frozenset) -> str | None:
    """First quality rule (in RULE_ORDER) the text breaks, or None."""
    tokens = text.split()
    n = len(tokens)
    if n < cfg["min_words"]:
        return "min_words"
    if n > cfg["max_words"]:
        return "max_words"
    total_grams = len(text) - 2
    if total_grams > 0:
        distinct = len(set(zip(text, text[1:], text[2:])))
        if 1.0 - distinct / total_grams > cfg["max_char_repetition_ratio"]:
            return "char_repetition"
    if n and 1.0 - len(set(tokens)) / n > cfg["max_word_repetition_ratio"]:
        return "word_repetition"
    if text:
        if len(_SPECIAL.findall(text)) / len(text) > cfg["max_special_char_ratio"]:
            return "special_char"
    lowered = Counter(text.lower().split())
    if n >= cfg["stopword_min_words"]:
        stop = sum(c for w, c in lowered.items() if w in stopwords)
        if stop / n < cfg["min_stopword_ratio"]:
            return "stopword"
    if n:
        flag = sum(c for w, c in lowered.items() if w in flagged)
        if flag / n > cfg["max_flagged_word_ratio"]:
            return "flagged_word"
    return None


def host_of(url: str | None) -> str | None:
    """Lowercased hostname for the URL shapes the generator emits."""
    if not url:
        return None
    rest = url.split("://", 1)[1] if "://" in url else url
    host = rest.split("/", 1)[0].split(":", 1)[0].strip(".").lower()
    return host or None


def is_blocked(host: str | None, exact: frozenset, suffix: frozenset) -> bool:
    if host is None:
        return False
    if host in exact:
        return True
    labels = host.split(".")
    return any(".".join(labels[i:]) in suffix for i in range(1, len(labels)))


def normalized(text: str) -> str:
    return " ".join(text.split())


class WordPiece:
    """Greedy longest-match WordPiece over a 4-line-specials vocabulary.

    Lines 0-3 are cls, sep, pad and unk; every later line is a piece,
    "##"-prefixed if it may only continue a word. Each whitespace-split
    word is consumed left to right by the longest matching piece (a start
    piece at position 0, a "##" piece after it); a maximal run of
    characters no piece matches becomes one unk.
    """

    def __init__(self, lines: list[str]) -> None:
        self.cls, self.sep, self.pad, self.unk = 0, 1, 2, 3
        self.start: dict[str, int] = {}
        self.cont: dict[str, int] = {}
        for i, piece in enumerate(lines[4:], 4):
            if piece.startswith("##"):
                self.cont[piece[2:]] = i
            else:
                self.start[piece] = i
        self.longest = max(map(len, [*self.start, *self.cont]))
        self._words: dict[str, list[int]] = {}

    def word(self, word: str) -> list[int]:
        ids = self._words.get(word)
        if ids is not None:
            return ids
        ids, pos, in_unk = [], 0, False
        while pos < len(word):
            table = self.start if pos == 0 else self.cont
            for end in range(min(len(word), pos + self.longest), pos, -1):
                piece_id = table.get(word[pos:end])
                if piece_id is not None:
                    ids.append(piece_id)
                    pos, in_unk = end, False
                    break
            else:
                if not in_unk:
                    ids.append(self.unk)
                pos, in_unk = pos + 1, True
        self._words[word] = ids
        return ids

    def encode(self, text: str) -> list[int]:
        """cls, the pieces of every word, sep."""
        ids = [self.cls]
        for word in text.split():
            ids += self.word(word)
        ids.append(self.sep)
        return ids


def capped(ids: list[int], cap: int) -> list[int]:
    """A row under a stage cap: the head, sep re-appended when cut."""
    return ids if len(ids) <= cap else ids[: cap - 1] + ids[-1:]


def rows_digest(lengths, flat_ids) -> str:
    """sha256 over the row lengths and the concatenated rows, as int32."""
    import numpy as np

    digest = hashlib.sha256(np.asarray(lengths, dtype="<i4").tobytes())
    digest.update(np.asarray(flat_ids, dtype="<i4").tobytes())
    return digest.hexdigest()


def split_dev_indices(n: int, seed: int) -> list[int]:
    """Dev-half positions of the documented 90/10 split (half rounds up)."""
    n_train = max(1, min((9 * n + 5) // 10, n - 1))
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order[n_train:]


def run_key(fields: tuple[str, ...]) -> str:
    """16-hex-digit run identity over the canonical run fields."""
    return hashlib.sha256("\x1f".join(fields).encode("utf-8")).hexdigest()[:16]


def _unit(key: str, salt: str) -> float:
    digest = hashlib.sha256(f"{key}|{salt}".encode("utf-8")).hexdigest()
    return int(digest[:12], 16) / float(16**12)


def trainer_scores(key: str) -> tuple[float, float]:
    """(dev, test) the stand-in trainer prints, rounded as it prints them."""
    return float(f"{_unit(key, 'dev'):.6f}"), float(f"{_unit(key, 'test'):.6f}")


def fails_first(key: str, fail_rate: float) -> bool:
    return _unit(key, "fail") < fail_rate


def best_cell_value(runs: list[dict]) -> float:
    """Mean test score of the combo with the best seed-averaged dev score.

    Ties go to the lower learning rate, then lower dropout, then bf16 off.
    """
    combos: dict[tuple, list[tuple[float, float]]] = {}
    for run in runs:
        combos.setdefault((run["lr"], run["dropout"], run["bf16"]), []).append(
            trainer_scores(run["key"])
        )
    best = min(
        combos.items(),
        key=lambda item: (
            -sum(d for d, _ in item[1]) / len(item[1]),
            item[0][0],
            item[0][1],
            item[0][2],
        ),
    )
    return sum(t for _, t in best[1]) / len(best[1])
