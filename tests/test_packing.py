"""Truncation, batch packing, schedules, shard files."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusokit.errors import ConfigurationError
from lusokit.packing import (
    SHARD_MAGIC,
    SHARD_VERSION,
    PackedBatch,
    TruncationSchedule,
    pack_batch,
    pack_flat,
    plan_device_split,
    read_shard,
    stage_for_step,
    truncate,
    write_shard,
)
from lusokit.tokenizer import TokenizedSequence


def seq(*ids, truncated=False):
    return TokenizedSequence(token_ids=tuple(ids), truncated=truncated)


CLS, SEP, PAD = 0, 1, 2


class TestTruncate:
    def test_noop_when_short_enough(self):
        s = seq(CLS, 5, 6, SEP)
        out = truncate(s, 8)
        assert out is s
        assert not out.truncated

    def test_keeps_head_and_reappends_sep(self):
        s = seq(CLS, 5, 6, 7, 8, SEP)
        out = truncate(s, 4)
        assert out.token_ids == (CLS, 5, 6, SEP)
        assert out.truncated

    def test_exact_length_untouched(self):
        s = seq(CLS, 5, SEP)
        assert truncate(s, 3) is s

    def test_min_len_two(self):
        with pytest.raises(ValueError):
            truncate(seq(CLS, SEP), 1)
        out = truncate(seq(CLS, 5, SEP), 2)
        assert out.token_ids == (CLS, SEP)


class TestPackBatch:
    def test_width_is_longest_sequence_not_stage_cap(self):
        batch = pack_batch([seq(CLS, 5, SEP), seq(CLS, 5, 6, 7, SEP)], 128, PAD)
        assert batch.width == 5
        assert batch.stage_max_len == 128

    def test_width_capped_by_stage(self):
        batch = pack_batch([seq(*range(40))], 16, PAD)
        assert batch.width == 16
        assert batch.rows == 1

    def test_padding_and_mask(self):
        batch = pack_batch([seq(CLS, 5, SEP), seq(CLS, 5, 6, 7, SEP)], 128, PAD)
        assert batch.token_ids.dtype == np.dtype("<i4")
        assert batch.attention_mask.dtype == np.uint8
        assert list(batch.token_ids[0]) == [CLS, 5, SEP, PAD, PAD]
        assert list(batch.attention_mask[0]) == [1, 1, 1, 0, 0]
        assert list(batch.attention_mask[1]) == [1, 1, 1, 1, 1]

    def test_row_order_preserved(self):
        batch = pack_batch([seq(CLS, 9, SEP), seq(CLS, 7, SEP)], 8, PAD)
        assert batch.token_ids[0][1] == 9
        assert batch.token_ids[1][1] == 7

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pack_batch([], 128, PAD)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=4, max_value=99), min_size=0, max_size=30),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=24),
    )
    def test_mask_is_contiguous_prefix_and_sums_to_length(self, bodies, cap):
        seqs = [seq(CLS, *body, SEP) for body in bodies]
        batch = pack_batch(seqs, cap, PAD)
        assert batch.rows == len(seqs)
        assert batch.width == min(cap, max(len(s) for s in seqs))
        for row in range(batch.rows):
            mask = batch.attention_mask[row]
            n = int(mask.sum())
            assert n == min(len(seqs[row]), cap)
            assert all(mask[:n] == 1) and all(mask[n:] == 0)
            assert all(batch.token_ids[row][n:] == PAD)


def reference_pack(seqs, cap, pad):
    """The per-row loop pack_batch replaced: truncate, then fill each row."""
    capped = [truncate(s, cap) for s in seqs]
    width = min(cap, max(len(s) for s in capped))
    token_ids = np.full((len(capped), width), pad, dtype="<i4")
    mask = np.zeros((len(capped), width), dtype=np.uint8)
    for row, s in enumerate(capped):
        token_ids[row, : len(s)] = s.token_ids
        mask[row, : len(s)] = 1
    return token_ids, mask


class TestFlatAssembly:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=0, max_size=40),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=9),
    )
    def test_equals_reference_loop(self, rows, cap, pad):
        seqs = [seq(*row) for row in rows]
        want_ids, want_mask = reference_pack(seqs, cap, pad)
        flat = np.array([i for row in rows for i in row], dtype="<i4")
        lengths = np.array([len(row) for row in rows])
        for batch in (pack_batch(seqs, cap, pad), pack_flat(flat, lengths, cap, pad)):
            assert batch.token_ids.dtype == np.dtype("<i4")
            assert batch.attention_mask.dtype == np.uint8
            assert np.array_equal(batch.token_ids, want_ids)
            assert np.array_equal(batch.attention_mask, want_mask)
            assert batch.stage_max_len == cap

    def test_cap_below_two_rejected(self):
        with pytest.raises(ValueError):
            pack_flat(np.array([CLS, SEP], dtype="<i4"), np.array([2]), 1, PAD)
        with pytest.raises(ValueError):
            pack_flat(np.array([], dtype="<i4"), np.array([], dtype=np.int64), 8, PAD)


class TestDeviceSplit:
    def test_even_split(self):
        assert plan_device_split(3072, 16) == 192

    def test_uneven_split_names_both_numbers(self):
        with pytest.raises(ConfigurationError) as exc:
            plan_device_split(100, 16)
        assert "100" in str(exc.value) and "16" in str(exc.value)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_device_split(0, 4)
        with pytest.raises(ValueError):
            plan_device_split(16, 0)


class TestSchedule:
    def test_parse(self):
        sched = TruncationSchedule.parse("128:250000,256:80000,512:60000")
        assert sched.stages == ((128, 250000), (256, 80000), (512, 60000))
        assert sched.total_steps == 390000
        assert sched.boundaries() == [250000, 330000, 390000]

    def test_parse_rejects_garbage(self):
        for bad in ["", "128", "128:abc", "128:100;256:50"]:
            with pytest.raises(ConfigurationError):
                TruncationSchedule.parse(bad)

    def test_caps_must_increase(self):
        with pytest.raises(ConfigurationError):
            TruncationSchedule(stages=((256, 10), (128, 10)))
        with pytest.raises(ConfigurationError):
            TruncationSchedule(stages=((128, 10), (128, 10)))

    def test_steps_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TruncationSchedule(stages=((128, 0),))

    def test_stage_lookup_at_boundaries(self):
        sched = TruncationSchedule.parse("128:10,256:5,512:3")
        assert stage_for_step(sched, 0) == 128
        assert stage_for_step(sched, 9) == 128
        assert stage_for_step(sched, 10) == 256
        assert stage_for_step(sched, 14) == 256
        assert stage_for_step(sched, 15) == 512
        assert stage_for_step(sched, 17) == 512

    def test_out_of_range_steps(self):
        sched = TruncationSchedule.parse("128:10")
        with pytest.raises(ValueError):
            stage_for_step(sched, -1)
        with pytest.raises(ValueError):
            stage_for_step(sched, 10)


class TestShards:
    def test_round_trip(self, tmp_path):
        batch = pack_batch(
            [seq(CLS, 5, 6, SEP), seq(CLS, 7, SEP), seq(CLS, *range(10, 40), SEP)],
            16,
            PAD,
        )
        path = tmp_path / "stage_16.bin"
        write_shard(path, batch)
        back = read_shard(path)
        assert back.stage_max_len == 16
        assert np.array_equal(back.token_ids, batch.token_ids)
        assert np.array_equal(back.attention_mask, batch.attention_mask)

    @pytest.mark.parametrize("width", [1, 2, 7, 64])
    def test_every_row_length_round_trips_byte_for_byte(self, tmp_path, width):
        # rows of each length 1..width, shortest last so row order shows
        seqs = [seq(*range(10, 10 + n)) for n in range(width, 0, -1)]
        batch = pack_batch(seqs, max(width, 2), PAD)
        assert batch.width == width
        path = tmp_path / f"w{width}.bin"
        write_shard(path, batch)
        lengths = np.arange(width, 0, -1, dtype="<u4")
        header = struct.pack("<4sHBBIII", SHARD_MAGIC, SHARD_VERSION, 4, 0, max(width, 2), width, width)
        assert path.read_bytes() == header + lengths.tobytes() + batch.token_ids.astype("<i4").tobytes()
        back = read_shard(path)
        assert np.array_equal(back.token_ids, batch.token_ids)
        assert np.array_equal(back.attention_mask, batch.attention_mask)
        assert back.attention_mask.dtype == np.uint8
        assert np.array_equal(back.lengths(), lengths)
        back.token_ids[0, 0] = PAD  # a read shard is an ordinary writable array

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ConfigurationError):
            read_shard(path)

    def test_truncated_file_rejected(self, tmp_path):
        batch = pack_batch([seq(CLS, 5, SEP)], 8, PAD)
        path = tmp_path / "x.bin"
        write_shard(path, batch)
        data = path.read_bytes()
        path.write_bytes(data[:-2])
        with pytest.raises(ConfigurationError):
            read_shard(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"LK")
        with pytest.raises(ConfigurationError):
            read_shard(path)
