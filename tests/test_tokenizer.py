"""Greedy subword tokenization."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_tokenize
from lusokit import tokenizer
from lusokit.errors import ConfigurationError
from lusokit.tokenizer import (
    TokenizedSequence,
    Vocabulary,
    load_vocabulary,
    pieces_of,
    tokenize,
    tokenize_all,
    tokenize_flat,
)


def vocab_from(*content):
    return Vocabulary.build(list(content))


class TestVocabulary:
    def test_specials_take_first_four_ids(self):
        v = vocab_from("de", "##s")
        assert (v.cls_id, v.sep_id, v.pad_id, v.unk_id) == (0, 1, 2, 3)
        assert v.ids["de"] == 4
        assert v.piece(5) == "##s"

    def test_duplicate_piece_rejected(self):
        with pytest.raises(ConfigurationError):
            vocab_from("de", "de")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[CLS]\n[SEP]\n[PAD]\n[UNK]\nola\n##la\n", encoding="utf-8")
        v = load_vocabulary(path)
        assert v.ids["ola"] == 4
        assert v.ids["##la"] == 5

    def test_header_too_short_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[CLS]\n[SEP]\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_vocabulary(path)


class TestTokenize:
    def test_greedy_prefers_longest_match(self):
        v = vocab_from("des", "de", "##scolado", "##colado", "##s")
        seq = tokenize("descolado", v)
        assert pieces_of(seq, v) == ["des", "colado"]

    def test_continuation_prefix_required_mid_word(self):
        v = vocab_from("de", "s", "##s")
        seq = tokenize("des", v)
        # "s" alone only matches at word start; inside a word it must be "##s"
        assert seq.token_ids == (v.cls_id, v.ids["de"], v.ids["##s"], v.sep_id)

    def test_unknown_run_collapses_to_single_unk(self):
        v = vocab_from("de")
        seq = tokenize("xyz", v)
        assert seq.token_ids == (v.cls_id, v.unk_id, v.sep_id)

    def test_unk_run_between_matches(self):
        v = vocab_from("de", "##do")
        seq = tokenize("dexxxdo", v)
        ids = seq.token_ids
        assert ids[0] == v.cls_id and ids[-1] == v.sep_id
        assert list(ids[1:-1]) == [v.ids["de"], v.unk_id, v.ids["##do"]]

    def test_two_words_two_unks(self):
        v = vocab_from("de")
        seq = tokenize("xxx yyy", v)
        assert list(seq.token_ids) == [v.cls_id, v.unk_id, v.unk_id, v.sep_id]

    def test_empty_text(self):
        v = vocab_from("de")
        seq = tokenize("", v)
        assert seq.token_ids == (v.cls_id, v.sep_id)
        assert not seq.truncated

    def test_deterministic(self):
        v = vocab_from(*"abcdefgh", *(f"##{c}" for c in "abcdefgh"), "abra", "##cada")
        assert tokenize("abracadabra h", v) == tokenize("abracadabra h", v)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abcd ", max_size=40))
    def test_full_coverage_round_trip(self, text):
        # with every char and continuation in vocabulary, nothing is
        # unknown and concatenated pieces reproduce each word exactly
        v = vocab_from(*"abcd", *(f"##{c}" for c in "abcd"), "ab", "##cd", "bca")
        seq = tokenize(text, v)
        assert v.unk_id not in seq.token_ids
        rebuilt = pieces_of(seq, v)
        words = text.split()
        # pieces_of strips ## so joining per word needs the id walk
        assert "".join(rebuilt) == "".join(words)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abcxyz ", max_size=40))
    def test_structure_invariants(self, text):
        v = vocab_from(*"abc", *(f"##{c}" for c in "abc"))
        seq = tokenize(text, v)
        ids = seq.token_ids
        assert ids[0] == v.cls_id and ids[-1] == v.sep_id
        assert v.pad_id not in ids
        # interior never holds cls
        assert v.cls_id not in ids[1:]


# Pieces and texts over a small alphabet, so words repeat, pieces overlap,
# "##" and special pieces occur literally in text, and some fragment
# lengths are missing from the vocabulary.
_SPECIALS = ("[CLS]", "[SEP]", "[PAD]", "[UNK]")
_piece = st.builds(
    lambda body, continued: "##" + body if continued else body,
    st.text(alphabet="ab#[CLS]\u00e9", min_size=1, max_size=6),
    st.booleans(),
)
_pieces = st.lists(_piece, max_size=14, unique=True).map(
    lambda ps: [p for p in ps if p not in _SPECIALS]
)
_text = st.lists(
    st.sampled_from(["a", "b", "ab", "#", "##", "[CLS]", "[UNK]", "\u00e9", " ", "  "]),
    max_size=30,
).map("".join)


class TestTokenizeAll:
    @pytest.mark.parametrize("cache_max", [None, 2])
    @settings(max_examples=200, deadline=None)
    @given(pieces=_pieces, texts=st.lists(_text, max_size=6))
    @example(pieces=["a", "##b", "##bb"], texts=["a ab abb abbb", "abbbb a ab x abb"])
    def test_equals_uncached_reference(self, cache_max, pieces, texts):
        # cache_max=2 fills the memo at once, so later misses take the
        # store-nothing path
        v = Vocabulary.build(pieces)
        with pytest.MonkeyPatch.context() as mp:
            if cache_max is not None:
                mp.setattr(tokenizer, "WORD_CACHE_MAX", cache_max)
            got = [seq.token_ids for seq in tokenize_all(texts, v)]
        assert got == [reference_tokenize(text, v) for text in texts]
        assert [tokenize(text, v).token_ids for text in texts] == got

    @pytest.mark.parametrize("cache_max", [None, 2])
    @settings(max_examples=200, deadline=None)
    @given(pieces=_pieces, texts=st.lists(_text, max_size=8), chunk=st.integers(1, 4))
    @example(pieces=["a", "##b", "##bb"], texts=["a ab abb", "abb abbb", "x ab"], chunk=1)
    def test_worker_memo_across_chunks_equals_reference(self, cache_max, pieces, texts, chunk):
        # the pack worker path: one memo kept across a worker's chunks
        v = Vocabulary.build(pieces)
        memo = {}
        got = []
        with pytest.MonkeyPatch.context() as mp:
            if cache_max is not None:
                mp.setattr(tokenizer, "WORD_CACHE_MAX", cache_max)
            for start in range(0, len(texts), chunk):
                ids, lengths = tokenize_flat(texts[start : start + chunk], v, memo)
                assert sum(lengths) == len(ids)
                for n in lengths:
                    got.append(tuple(ids[:n]))
                    del ids[:n]
        assert got == [reference_tokenize(text, v) for text in texts]
        assert len(memo) <= (cache_max or tokenizer.WORD_CACHE_MAX)

    def test_lazy_and_in_order(self):
        v = vocab_from("de", "##s")
        stream = tokenize_all(iter(["des", "xyz", ""]), v)
        assert next(stream).token_ids == (v.cls_id, v.ids["de"], v.ids["##s"], v.sep_id)
        assert [seq.token_ids for seq in stream] == [
            (v.cls_id, v.unk_id, v.sep_id),
            (v.cls_id, v.sep_id),
        ]


class TestFromIds:
    def test_accepts_external_ids(self):
        v = vocab_from("de")
        seq = TokenizedSequence.from_ids([v.cls_id, v.ids["de"], v.sep_id])
        assert len(seq) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TokenizedSequence.from_ids([])
