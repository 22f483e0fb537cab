"""Per-record quality filtering, redistribution blocklist, exact dedup.

The quality rules are the usual web-crawl heuristics: word-count bounds,
character/word repetition ratios, special-character ratio, stopword
ratio and flagged-word ratio, each thresholded through FilterConfig. A
record is rejected by the first rule it violates, in the fixed order of
RULE_NAMES, and kept when it violates none.

Records from sources that already arrive quality-filtered upstream
(``QUALITY_EXEMPT_SOURCES``) skip the quality rules in ``curate_stream``
while the blocklist still applies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources
from typing import Callable, Iterable, Iterator

from lusokit.corpus_io import CorpusRecord, Source
from lusokit.errors import ConfigurationError
from lusokit.textutil import blake2b, normalize_whitespace
from lusokit.urls import hostname_of

# The quality rules in rejected_by attribution order: (rule name,
# violation test of (measured value, word count, config)).
_RULES = (
    ("min_words", lambda v, n, cfg: v < cfg.min_words),
    ("max_words", lambda v, n, cfg: v > cfg.max_words),
    ("char_repetition", lambda v, n, cfg: v > cfg.max_char_repetition_ratio),
    ("word_repetition", lambda v, n, cfg: v > cfg.max_word_repetition_ratio),
    ("special_char", lambda v, n, cfg: v > cfg.max_special_char_ratio),
    ("stopword", lambda v, n, cfg: n >= cfg.stopword_min_words and v < cfg.min_stopword_ratio),
    ("flagged_word", lambda v, n, cfg: v > cfg.max_flagged_word_ratio),
)

RULE_NAMES = tuple(name for name, _violated in _RULES)

QUALITY_EXEMPT_SOURCES = frozenset({Source.CULTURAX})

# The Latin-1 bytes of letters, digits and whitespace: what is left of a
# Latin-1 encoding once they are deleted is its special characters.
_PLAIN_LATIN1 = bytes(b for b in range(256) if chr(b).isalnum() or chr(b).isspace())


def parse_list(text: str) -> frozenset[str]:
    """A word or domain list's entries: one per line, stripped and lowercased (words and
    hostnames are looked up lowercased); blank and '#' comment lines are skipped."""
    entries = (line.strip().lower() for line in text.splitlines())
    return frozenset(e for e in entries if e and not e.startswith("#"))


def load_default_stopwords() -> frozenset[str]:
    """Bundled list of high-frequency Portuguese function words."""
    data = resources.files("lusokit.data").joinpath("stopwords_pt.txt").read_text("utf-8")
    return parse_list(data)


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds and word lists for the quality rules.

    Defaults are deliberately permissive desk defaults; deployments
    override them from a config file. The stopword rule only applies to
    records with at least ``stopword_min_words`` words, since the ratio
    is meaningless on very short texts. A rule is switched off by a
    threshold no record can violate: ``min_words`` or
    ``min_stopword_ratio`` 0, a ``max_*_ratio`` of 1, or a ``max_words``
    above every document.
    """

    min_words: int = 5
    max_words: int = 100_000
    max_char_repetition_ratio: float = 0.8
    max_word_repetition_ratio: float = 0.6
    max_special_char_ratio: float = 0.4
    min_stopword_ratio: float = 0.05
    stopword_min_words: int = 20
    stopword_list: frozenset[str] = frozenset()
    flagged_word_list: frozenset[str] = frozenset()
    max_flagged_word_ratio: float = 0.01

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a YAML boolean is an int to Python, and would pass as 0 or 1;
            # NaN compares false with every count, so it would switch a rule off
            if f.type in ("int", "float") and (
                isinstance(value, bool) or not isinstance(value, (int, float)) or value != value
            ):
                raise ConfigurationError(f"{f.name} must be a number, got {value!r}")
            if f.name.endswith("_ratio") and not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{f.name} must be within [0, 1], got {value}")
        if self.min_words > self.max_words:
            raise ConfigurationError(
                f"min_words ({self.min_words}) exceeds max_words ({self.max_words})"
            )
        # measure_rules looks up lowercased words, so an entry with a
        # capital letter could never match
        for name in ("stopword_list", "flagged_word_list"):
            for entry in sorted(getattr(self, name)):
                if entry != entry.lower():
                    raise ConfigurationError(
                        f"{name} entries must be lowercase, got {entry!r}"
                    )


@dataclass(frozen=True, slots=True)
class FilterDecision:
    """The quality verdict on one record: rejected_by names the rule that
    rejected it, None when it is kept. measure_rules reports the values."""

    rejected_by: str | None

    @property
    def keep(self) -> bool:
        return self.rejected_by is None


@dataclass(frozen=True)
class Blocklist:
    """Domains whose content must not be redistributed.

    exact_domains match the whole hostname; suffix_domains match any
    hostname ending with "." + entry (label boundary, so "paywall.pt"
    blocks "news.paywall.pt" but not "paywallxpt.pt" and not the bare
    "paywall.pt" itself unless it is also listed in exact_domains).
    """

    exact_domains: frozenset[str] = frozenset()
    suffix_domains: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for entry in list(self.exact_domains) + list(self.suffix_domains):
            bad = (
                not entry
                or entry != entry.lower()
                or any(c in entry for c in ":/ \t")
                or not all(entry.split("."))  # leading/trailing/doubled dots
            )
            if bad:
                raise ConfigurationError(
                    f"blocklist entries must be bare lowercase hostnames, got {entry!r}"
                )


def apply_blocklist(record: CorpusRecord, blocklist: Blocklist) -> bool:
    """True to keep the record. Records without a URL are always kept."""
    host = hostname_of(record.url)
    if host is None:
        return True
    if host in blocklist.exact_domains:
        return False
    labels = host.split(".")
    for i in range(1, len(labels)):
        if ".".join(labels[i:]) in blocklist.suffix_domains:
            return False
    return True


def _distinct_trigrams(text: str) -> int:
    """Distinct character 3-grams of a text of at least 3 characters.

    The text is written at ``width`` bytes per character, equal characters
    as equal bytes: its Latin-1 encoding, one byte each, or else each
    distinct character's rank in two bytes. One strided slice assignment
    per byte copies every 3-gram's ``3 * width`` bytes into an unsigned
    4- or 8-byte key, and the keys are counted as a set of ints, so no
    substring or tuple is built. Only a text of more than 65,536 distinct
    characters, which two bytes cannot rank, counts tuples.
    """
    try:
        data, width = text.encode("latin-1"), 1
    except UnicodeEncodeError:
        chars = set(text)
        if len(chars) > 1 << 16:
            return len(set(zip(text, text[1:], text[2:])))
        ranks = {ord(c): i for i, c in enumerate(chars)}
        data, width = text.translate(ranks).encode("utf-16-le", "surrogatepass"), 2
    n = len(text) - 2
    size = 4 * width
    keys = bytearray(size * n)
    for i in range(3 * width):  # byte i % width of the 3-gram's character i // width
        keys[i::size] = data[i : i + n * width : width]
    return len(set(memoryview(keys).cast("I" if width == 1 else "Q")))


def _special_chars(text: str) -> int:
    """How many characters of text are neither alphanumeric nor whitespace."""
    try:
        return len(text.encode("latin-1").translate(None, _PLAIN_LATIN1))
    except UnicodeEncodeError:
        return sum(text.count(c) for c in set(text) if not c.isalnum() and not c.isspace())


def measure_rules(text: str, cfg: FilterConfig) -> dict[str, float]:
    """Raw measurements for all seven rules, keyed by rule name. Conventions:

    - word = maximal whitespace-separated token;
    - char_repetition = 1 - distinct/total character 3-grams, 0 under 3 chars;
    - word_repetition = 1 - distinct/total words, 0 without words;
    - special_char = non-alphanumeric non-whitespace chars / all chars;
    - stopword/flagged ratios computed over lowercased words.
    """
    tokens = text.split()
    n_words = len(tokens)
    n_grams = len(text) - 2
    char_rep = 1.0 - _distinct_trigrams(text) / n_grams if n_grams > 0 else 0.0
    word_rep = 1.0 - len(set(tokens)) / n_words if n_words else 0.0
    special = _special_chars(text) / len(text) if text else 0.0
    if n_words:
        lowered = text.lower().split()
        stopword = sum(map(cfg.stopword_list.__contains__, lowered)) / n_words
        flagged = sum(map(cfg.flagged_word_list.__contains__, lowered)) / n_words
    else:
        stopword = 0.0
        flagged = 0.0
    return {
        "min_words": n_words,
        "max_words": n_words,
        "char_repetition": char_rep,
        "word_repetition": word_rep,
        "special_char": special,
        "stopword": stopword,
        "flagged_word": flagged,
    }


def apply_filters(record: CorpusRecord, cfg: FilterConfig) -> FilterDecision:
    """Evaluate the quality rules against one record.

    The decision names the first rule (in RULE_NAMES order) whose
    threshold is violated, or no rule when the record is kept.
    """
    measured = measure_rules(record.text, cfg)
    n_words = measured["min_words"]
    for name, violated in _RULES:
        if violated(measured[name], n_words, cfg):
            return FilterDecision(name)
    return FilterDecision(None)


@dataclass(slots=True)
class DedupStats:
    kept: int = 0
    duplicates: int = 0


def text_digest(text: str) -> bytes:
    """The key exact dedup compares: a digest of the whitespace-normalized text."""
    return blake2b(normalize_whitespace(text).encode("utf-8"), digest_size=16).digest()


def first_wins(pairs: Iterable[tuple], seen: set[bytes], stats: DedupStats) -> Iterator:
    """The items of (digest, item) pairs whose digest is not in seen yet, in
    order: the first occurrence wins. seen and stats grow as items are read."""
    for digest, item in pairs:
        if digest in seen:
            stats.duplicates += 1
        else:
            seen.add(digest)
            stats.kept += 1
            yield item


def dedup_exact(records: Iterable[CorpusRecord]) -> tuple[Iterator[CorpusRecord], DedupStats]:
    """Drop exact duplicates by whitespace-normalized text content: ``first_wins``
    over the records' ``text_digest``s. stats is final once the stream is exhausted."""
    stats = DedupStats()
    return first_wins(((text_digest(r.text), r) for r in records), set(), stats), stats


@dataclass(slots=True)
class CurationStats:
    kept: int = 0
    blocklisted: int = 0
    rejected: int = 0


def curate_stream(
    records: Iterable[CorpusRecord],
    cfg: FilterConfig,
    blocklist: Blocklist,
    on_reject: Callable,
) -> tuple[Iterator[CorpusRecord], CurationStats]:
    """Blocklist plus quality rules over a record stream.

    Sources in QUALITY_EXEMPT_SOURCES skip the quality rules but never
    the blocklist. on_reject is called with (record, stage, decision) for
    every drop; stage is "blocklist" or "quality", decision is None for
    blocklist drops.
    """
    stats = CurationStats()

    def stream() -> Iterator[CorpusRecord]:
        for record in records:
            if not apply_blocklist(record, blocklist):
                stats.blocklisted += 1
                on_reject(record, "blocklist", None)
                continue
            if record.source not in QUALITY_EXEMPT_SOURCES:
                decision = apply_filters(record, cfg)
                if not decision.keep:
                    stats.rejected += 1
                    on_reject(record, "quality", decision)
                    continue
            stats.kept += 1
            yield record

    return stream(), stats
