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
downstream, since packing takes flat ids and row lengths.

A pre-token's ids do not depend on its neighbours, so ``tokenize_flat``
memoizes them per word across many texts, as the bytes of an id array;
web text is Zipfian and most words repeat. On a miss the scan after a
word's start tries no fragment longer than the longest ``##`` piece
(Song et al., "Fast WordPiece Tokenization", arXiv 2012.15524, for the
general technique).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable

from lusokit.errors import ConfigurationError
from lusokit.packing import ID_TYPECODES, id_width
from lusokit.textutil import utf8_lines

CONTINUATION_PREFIX = "##"

# Distinct words one word memo holds; past this, misses are
# tokenized without being stored. A memoized word holds about 153 bytes
# (its str, its ids' bytes and its dict slot, by tracemalloc on the bench's
# crawl corpora), so the memo stays under 5.1 MB; on a Zipfian crawl
# sample with 54k distinct words the first 32k still answer 89% of
# lookups (91% uncapped).
WORD_CACHE_MAX = 1 << 15


@dataclass(frozen=True)
class Vocabulary:
    """The pieces in id order; the first four are the specials cls, sep,
    pad and unk, as in the file format. Everything else is derived."""

    pieces: tuple[str, ...]
    ids: dict[str, int] = field(init=False, compare=False, repr=False)
    # Longest fragment the greedy scan tries at a word's start and after it.
    max_fragment_len: int = field(init=False, compare=False, repr=False)
    max_continuation_len: int = field(init=False, compare=False, repr=False)
    cls_id: ClassVar[int] = 0
    sep_id: ClassVar[int] = 1
    pad_id: ClassVar[int] = 2
    unk_id: ClassVar[int] = 3

    def __post_init__(self) -> None:
        if len(self.pieces) < 4:
            raise ConfigurationError("a vocabulary needs the four pieces cls, sep, pad, unk first")
        ids: dict[str, int] = {}
        for i, piece in enumerate(self.pieces):
            if ids.setdefault(piece, i) != i:
                raise ConfigurationError(f"duplicate vocabulary piece {piece!r}")
        # No fragment longer than the longest content fragment is tried,
        # and after a word's start only "##" pieces can match.
        longest = max([1] + [len(p.removeprefix(CONTINUATION_PREFIX)) for p in self.pieces[4:]])
        continuations = [len(p) - len(CONTINUATION_PREFIX) for p in self.pieces
                         if p.startswith(CONTINUATION_PREFIX)]
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "max_fragment_len", longest)
        object.__setattr__(self, "max_continuation_len", min(longest, max(continuations, default=0)))

    def __len__(self) -> int:
        return len(self.pieces)

    def piece(self, token_id: int) -> str:
        return self.pieces[token_id]

    @classmethod
    def build(cls, content_pieces: list[str] | tuple[str, ...]) -> "Vocabulary":
        """Vocabulary from content pieces, [CLS] [SEP] [PAD] [UNK] prepended as ids 0..3."""
        return cls(("[CLS]", "[SEP]", "[PAD]", "[UNK]", *content_pieces))


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file (4-line specials header, then one piece per line).

    Lines end at "\n" (one "\r" before it is dropped) and nowhere else,
    so a piece may hold any other character, even one ``str.splitlines``
    breaks at; empty lines are skipped. ``utf8_lines`` drops one leading BOM.
    """
    lines = utf8_lines(path, ConfigurationError)
    entries = [piece for line in lines if (piece := line.removesuffix("\n").removesuffix("\r"))]
    try:
        return Vocabulary(tuple(entries))
    except ConfigurationError as exc:
        raise ConfigurationError(f"vocabulary file {path}: {exc}") from None


@dataclass(frozen=True, slots=True)
class TokenizedSequence:
    """Token ids bracketed by cls/sep."""

    token_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.token_ids)


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
    texts: Iterable[str], vocab: Vocabulary, memo: dict[str, bytes]
) -> tuple[array, list[int]]:
    """Ids of many texts back to back, and each text's id count.

    The ids are an ``array`` of ``packing.id_width(len(vocab))``-byte
    items ("H" or "i"), ready for ``packing.cap_rows``. Text i's ids, cls
    and sep included, are the lengths[i] ids after the first
    sum(lengths[:i]). memo maps a word to its ids as an array of that
    width gives them from ``tobytes`` (native byte order; ``cap_rows``
    makes the shard's little-endian bytes); misses are added to it until
    it holds WORD_CACHE_MAX words, so a caller that keeps memo across
    calls keeps the words it learned. Each text's ids equal ``tokenize``
    on it.
    """
    width = id_width(len(vocab))
    typecode = ID_TYPECODES[width]
    cls, sep = (array(typecode, (i,)).tobytes() for i in (vocab.cls_id, vocab.sep_id))
    ids = array(typecode)
    lengths: list[int] = []
    for text in texts:
        row = [cls]
        for word in text.split():
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = array(typecode, _tokenize_word(word, vocab)).tobytes()
                if len(memo) < WORD_CACHE_MAX:
                    memo[word] = word_ids
            row.append(word_ids)
        row.append(sep)
        row_bytes = b"".join(row)
        ids.frombytes(row_bytes)
        lengths.append(len(row_bytes) // width)
    return ids, lengths


def tokenize(text: str, vocab: Vocabulary) -> TokenizedSequence:
    """Greedy longest-match tokenization; deterministic in (text, vocab)."""
    ids, _ = tokenize_flat((text,), vocab, {})
    return TokenizedSequence(tuple(ids))


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
