"""Per-record quality filtering, redistribution blocklist, exact dedup.

The quality rules are the usual web-crawl heuristics: word-count bounds,
character/word repetition ratios, special-character ratio, stopword
ratio and flagged-word ratio. Each rule is individually switchable and
thresholded through FilterConfig; the keep/reject verdict is the
conjunction of all enabled rules, so it does not depend on evaluation
order (only the rejected_by attribution does, which uses the fixed
order of RULE_NAMES).

Records from sources that already arrive quality-filtered upstream can
be exempted from the quality rules at the pipeline level while the
blocklist still applies; see ``curate_stream``.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from lusokit.corpus_io import CorpusRecord, Source
from lusokit.errors import ConfigurationError
from lusokit.textutil import normalize_whitespace
from lusokit.urls import hostname_of

log = logging.getLogger(__name__)

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

_RATIO_FIELDS = (
    "max_char_repetition_ratio",
    "max_word_repetition_ratio",
    "max_special_char_ratio",
    "min_stopword_ratio",
    "max_flagged_word_ratio",
)


def load_default_stopwords() -> frozenset[str]:
    """Bundled list of high-frequency Portuguese function words."""
    data = resources.files("lusokit.data").joinpath("stopwords_pt.txt").read_text("utf-8")
    return frozenset(w.strip() for w in data.splitlines() if w.strip())


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds and word lists for the quality rules.

    Defaults are deliberately permissive desk defaults; deployments
    override them from a config file. The stopword rule only applies to
    records with at least ``stopword_min_words`` words, since the ratio
    is meaningless on very short texts.
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
    enabled_rules: frozenset[str] = frozenset(RULE_NAMES)

    def __post_init__(self) -> None:
        if self.min_words > self.max_words:
            raise ConfigurationError(
                f"min_words ({self.min_words}) exceeds max_words ({self.max_words})"
            )
        for name in _RATIO_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1], got {value}")
        unknown = set(self.enabled_rules) - set(RULE_NAMES)
        if unknown:
            raise ConfigurationError(
                f"unknown filter rule(s): {sorted(unknown)}; valid rules: {list(RULE_NAMES)}"
            )

    @classmethod
    def default(cls) -> "FilterConfig":
        return cls(stopword_list=load_default_stopwords())


@dataclass(frozen=True, slots=True)
class FilterDecision:
    keep: bool
    rejected_by: str | None
    measured: dict[str, float]


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

    Each 3-gram is packed into one int64 from its code points (21 bits
    each, surrogates included), so no substring is built.
    """
    import numpy as np  # deferred: `lusokit dedup` imports this module and needs no numpy

    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
    keys = points[:-2] << 42 | points[1:-1] << 21 | points[2:]
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


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
    specials = sum(text.count(c) for c in set(text) if not c.isalnum() and not c.isspace())
    special = specials / len(text) if text else 0.0
    if n_words:
        lowered = list(map(str.lower, tokens))
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
    """Evaluate the enabled quality rules against one record.

    rejected_by names the first enabled rule (in RULE_NAMES order) whose
    threshold is violated; measured carries all enabled rules' values
    whether or not the record is kept.
    """
    all_measured = measure_rules(record.text, cfg)
    n_words = all_measured["min_words"]
    measured = {}
    rejected_by = None
    for name, violated in _RULES:
        if name in cfg.enabled_rules:
            value = measured[name] = all_measured[name]
            if rejected_by is None and violated(value, n_words, cfg):
                rejected_by = name
    return FilterDecision(keep=rejected_by is None, rejected_by=rejected_by, measured=measured)


@dataclass(slots=True)
class DedupStats:
    kept: int = 0
    duplicates: int = 0


def dedup_exact(records: Iterable[CorpusRecord]) -> tuple[Iterator[CorpusRecord], DedupStats]:
    """Drop exact duplicates by whitespace-normalized text content.

    First occurrence wins, input order is preserved. Runs as a
    single-consumer stage; the stats object is final once the returned
    stream is exhausted.
    """
    stats = DedupStats()

    def stream() -> Iterator[CorpusRecord]:
        seen: set[bytes] = set()
        for record in records:
            normalized = normalize_whitespace(record.text)
            digest = hashlib.blake2b(normalized.encode("utf-8"), digest_size=16).digest()
            if digest in seen:
                stats.duplicates += 1
                continue
            seen.add(digest)
            stats.kept += 1
            yield record

    return stream(), stats


@dataclass(slots=True)
class CurationStats:
    kept: int = 0
    blocklisted: int = 0
    rejected: int = 0


def curate_stream(
    records: Iterable[CorpusRecord],
    cfg: FilterConfig,
    blocklist: Blocklist | None = None,
    quality_exempt_sources: frozenset[Source] = frozenset({Source.CULTURAX}),
    on_reject=None,
) -> tuple[Iterator[CorpusRecord], CurationStats]:
    """Blocklist plus quality rules over a record stream.

    Sources in quality_exempt_sources (by default corpora that arrive
    pre-filtered) skip the quality rules but never the blocklist.
    on_reject, when given, is called with (record, stage, decision) for
    every drop; stage is "blocklist" or "quality", decision is None for
    blocklist drops.
    """
    stats = CurationStats()

    def stream() -> Iterator[CorpusRecord]:
        for record in records:
            if blocklist is not None and not apply_blocklist(record, blocklist):
                stats.blocklisted += 1
                if on_reject:
                    on_reject(record, "blocklist", None)
                continue
            if record.source not in quality_exempt_sources:
                decision = apply_filters(record, cfg)
                if not decision.keep:
                    stats.rejected += 1
                    if on_reject:
                        on_reject(record, "quality", decision)
                    continue
            stats.kept += 1
            yield record

    return stream(), stats
