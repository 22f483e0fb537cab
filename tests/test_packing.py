"""Truncation, batch packing, schedules, shard files."""

import struct
import sys
from array import array
from itertools import accumulate, chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusokit.errors import ConfigurationError
from lusokit.packing import (
    ID_TYPECODES,
    SHARD_MAGIC,
    SHARD_VERSION,
    VIEW_MAGIC,
    PackedBatch,
    ShardWriter,
    TruncationSchedule,
    cap_rows,
    id_width,
    pack_batch,
    pack_flat,
    plan_device_split,
    read_shard,
    stage_for_step,
    write_shard,
    write_view,
)
from lusokit.tokenizer import TokenizedSequence


def seq(*ids):
    return TokenizedSequence(token_ids=tuple(ids))


CLS, SEP, PAD = 0, 1, 2
NARROW = 1 << 16  # the largest vocabulary whose ids a shard stores as uint16
WIDE = NARROW + 1


def kept_rows(rows, cap):
    """Each row as cap_rows keeps it, checked against pack_batch's rows."""
    data, kept = cap_rows(array("i", chain(*rows)), [len(row) for row in rows], cap)
    flat = np.frombuffer(data, dtype="<i4").tolist()
    out = [tuple(flat[end - n : end]) for end, n in zip(accumulate(kept), kept)]
    batch = pack_batch([seq(*row) for row in rows], cap, PAD)
    assert [tuple(row[:n]) for row, n in zip(batch.token_ids.tolist(), kept)] == out
    return out


class TestTruncate:
    """The stage cap rule, through cap_rows and pack_batch."""

    def test_noop_when_short_enough(self):
        assert kept_rows([(CLS, 5, 6, SEP)], 8) == [(CLS, 5, 6, SEP)]

    def test_keeps_head_and_reappends_sep(self):
        rows = [(CLS, 5, 6, 7, 8, SEP), (CLS, 9, SEP)]
        assert kept_rows(rows, 4) == [(CLS, 5, 6, SEP), (CLS, 9, SEP)]

    def test_exact_length_untouched(self):
        assert kept_rows([(CLS, 5, SEP)], 3) == [(CLS, 5, SEP)]

    def test_min_len_two(self):
        with pytest.raises(ValueError):
            cap_rows(array("i", [CLS, SEP]), [2], 1)
        with pytest.raises(ValueError):
            pack_batch([seq(CLS, SEP)], 1, PAD)
        assert kept_rows([(CLS, 5, SEP)], 2) == [(CLS, SEP)]


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


def reference_pack(rows, cap, pad):
    """A per-row loop: truncate each row inline, then fill it."""
    capped = [row[: cap - 1] + row[-1:] if len(row) > cap else row for row in rows]
    width = max(len(row) for row in capped)
    token_ids = np.full((len(capped), width), pad, dtype="<i4")
    mask = np.zeros((len(capped), width), dtype=np.uint8)
    for i, row in enumerate(capped):
        token_ids[i, : len(row)] = row
        mask[i, : len(row)] = 1
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
        want_ids, want_mask = reference_pack(rows, cap, pad)
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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=0, max_size=40),
            min_size=0,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=24),
    )
    def test_cap_rows_same_bytes_for_array_and_numpy_ids(self, rows, cap):
        flat = [i for row in rows for i in row]
        lengths = [len(row) for row in rows]
        got = cap_rows(np.array(flat, dtype="<i4"), lengths, cap)
        assert got == cap_rows(array("i", flat), lengths, cap)

    def test_cap_rows_rejects_ids_that_are_not_int32(self):
        with pytest.raises(TypeError):
            cap_rows(np.array([CLS, SEP], dtype=np.int64), [2], 8)
        with pytest.raises(TypeError):
            cap_rows(np.array([CLS, SEP], dtype=np.uint8), [2], 8)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=NARROW - 1), min_size=0, max_size=40),
            min_size=0,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=24),
    )
    def test_cap_rows_over_uint16_is_the_int32_result_narrowed(self, rows, cap):
        flat = [i for row in rows for i in row]
        lengths = [len(row) for row in rows]
        wide, wide_kept = cap_rows(array("i", flat), lengths, cap)
        narrow, kept = cap_rows(array("H", flat), lengths, cap)
        assert narrow == np.frombuffer(wide, dtype="<i4").astype("<u2").tobytes()
        assert kept == wide_kept
        assert cap_rows(np.array(flat, dtype=np.uint16), lengths, cap) == (narrow, kept)

    def test_id_width_follows_the_vocabulary_size(self):
        assert id_width(1) == 2
        assert id_width(NARROW) == 2
        assert id_width(WIDE) == 4
        assert id_width(1 << 31) == 4
        for bad in (0, (1 << 31) + 1):
            with pytest.raises(ValueError):
                id_width(bad)


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

    def test_parse_rejects_garbage(self):
        for bad in ["", "128", "128:abc", "128:100;256:50"]:
            with pytest.raises(ConfigurationError):
                TruncationSchedule.parse(bad)

    def test_caps_must_increase(self):
        with pytest.raises(ConfigurationError):
            TruncationSchedule(stages=((256, 10), (128, 10)))
        with pytest.raises(ConfigurationError):
            TruncationSchedule(stages=((128, 10), (128, 10)))

    @pytest.mark.parametrize("text", ["1:10,128:10", "0:10", "-4:10", "128:10,1:10"])
    def test_caps_below_two_rejected(self, text):
        with pytest.raises(ConfigurationError) as exc:
            TruncationSchedule.parse(text)
        assert "cls + sep" in str(exc.value)

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
        pad = PAD if width > 1 else 0  # one row of length 1 has no padding cell
        header = struct.pack("<4sHBxIiI", SHARD_MAGIC, SHARD_VERSION, 2, max(width, 2), pad, width)
        ragged = np.concatenate([np.arange(10, 10 + n) for n in lengths]).astype("<u2")
        assert len(header) == 20
        assert path.read_bytes() == header + ragged.tobytes() + lengths.tobytes()
        back = read_shard(path)
        assert np.array_equal(back.token_ids, batch.token_ids)
        assert np.array_equal(back.attention_mask, batch.attention_mask)
        assert back.attention_mask.dtype == np.uint8
        assert np.array_equal(back.lengths(), lengths)
        back.token_ids[0, 0] = PAD  # a read shard is an ordinary writable array

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=40),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=9),
    )
    def test_capped_rows_read_back_as_pack_flat(self, tmp_path_factory, rows, cap, pad):
        flat = [i for row in rows for i in row]
        lengths = [len(row) for row in rows]
        ids, kept = cap_rows(array("i", flat), lengths, cap)
        path = tmp_path_factory.mktemp("shard") / "s.bin"
        with ShardWriter(path, cap, pad, 1 << 31) as writer:
            writer.append(ids, kept)
        want = pack_flat(np.array(flat, dtype="<i4"), np.array(lengths), cap, pad)
        got = read_shard(path)
        assert got.token_ids.dtype == np.dtype("<i4")
        assert got.attention_mask.dtype == np.uint8
        assert np.array_equal(got.token_ids, want.token_ids)
        assert np.array_equal(got.attention_mask, want.attention_mask)
        assert got.stage_max_len == cap
        assert kept == [min(n, cap) for n in lengths]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=NARROW - 1), min_size=1, max_size=40),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=9),
    )
    def test_narrow_capped_rows_read_back_as_pack_flat(self, tmp_path_factory, rows, cap, pad):
        flat = [i for row in rows for i in row]
        lengths = [len(row) for row in rows]
        ids, kept = cap_rows(array("H", flat), lengths, cap)
        path = tmp_path_factory.mktemp("shard") / "s.bin"
        with ShardWriter(path, cap, pad, NARROW) as writer:
            writer.append(ids, kept)
        assert path.stat().st_size == 20 + 2 * sum(kept) + 4 * len(kept)
        want = pack_flat(np.array(flat, dtype="<i4"), np.array(lengths), cap, pad)
        got = read_shard(path)
        assert got.token_ids.dtype == np.dtype("<i4")
        assert np.array_equal(got.token_ids, want.token_ids)
        assert np.array_equal(got.attention_mask, want.attention_mask)

    def test_largest_uint16_id_round_trips_at_width_2(self, tmp_path):
        path = tmp_path / "x.bin"
        with ShardWriter(path, 4, PAD, NARROW) as writer:
            assert writer.width == 2
            writer.append(array("H", [CLS, NARROW - 1, SEP]).tobytes(), [3])
        data = path.read_bytes()
        assert data[6] == 2 and len(data) == 20 + 2 * 3 + 4
        back = read_shard(path)
        assert back.token_ids.dtype == np.dtype("<i4")
        assert back.token_ids.tolist() == [[CLS, NARROW - 1, SEP]]

    @pytest.mark.parametrize(
        "top, pad, width", [(NARROW - 1, PAD, 2), (NARROW, PAD, 4), (5, NARROW, 4)]
    )
    def test_write_shard_width_follows_the_largest_id_and_pad_id(self, tmp_path, top, pad, width):
        batch = pack_batch([seq(CLS, top, SEP), seq(CLS, SEP)], 8, pad)
        path = tmp_path / "x.bin"
        write_shard(path, batch)
        assert path.read_bytes()[6] == width
        assert np.array_equal(read_shard(path).token_ids, batch.token_ids)

    def test_write_shard_rejects_negative_ids(self, tmp_path):
        batch = pack_batch([seq(CLS, -5, SEP)], 8, PAD)
        with pytest.raises(ValueError):
            write_shard(tmp_path / "x.bin", batch)
        assert not (tmp_path / "x.bin").exists()

    def test_write_of_read_is_byte_identical(self, tmp_path):
        path = tmp_path / "stage_8.bin"
        flat = [CLS, 5, 6, SEP, CLS, *range(10, 30), SEP, CLS, SEP]
        with ShardWriter(path, 8, PAD, 30) as writer:
            writer.append(*cap_rows(array("H", flat), [4, 22, 2], 8))
        again = tmp_path / "again.bin"
        write_shard(again, read_shard(path))
        assert again.read_bytes() == path.read_bytes()

    def test_disagreeing_padding_cells_rejected(self, tmp_path):
        batch = pack_batch([seq(CLS, 5, SEP), seq(CLS, SEP), seq(CLS, 5, 6, 7, SEP)], 8, PAD)
        ids = batch.token_ids.copy()
        ids[1, 4] = PAD + 1
        with pytest.raises(ValueError):
            write_shard(tmp_path / "x.bin", PackedBatch(ids, batch.attention_mask, 8))
        assert not (tmp_path / "x.bin").exists()

    def test_batch_without_padding_stores_pad_zero(self, tmp_path):
        batch = pack_batch([seq(CLS, 5, SEP), seq(CLS, 6, SEP)], 8, PAD)
        path = tmp_path / "x.bin"
        write_shard(path, batch)
        assert struct.unpack_from("<i", path.read_bytes(), 12) == (0,)
        assert np.array_equal(read_shard(path).token_ids, batch.token_ids)

    def test_writer_rejects_rows_it_could_not_read_back(self, tmp_path):
        with ShardWriter(tmp_path / "x.bin", 8, PAD, WIDE) as writer:
            for ids, lengths in [(b"", [0]), (b"\0" * 36, [9]), (b"\0" * 8, [3])]:
                with pytest.raises(ValueError):
                    writer.append(ids, lengths)
            writer.append(b"\0" * 8, [2])
        assert read_shard(tmp_path / "x.bin").rows == 1

    def test_failed_write_removes_the_partial_file(self, tmp_path):
        path = tmp_path / "x.bin"
        with pytest.raises(RuntimeError):
            with ShardWriter(path, 8, PAD, WIDE) as writer:
                writer.append(b"\0" * 8, [2])
                raise RuntimeError("stop")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no x.bin.partial either

    def test_failed_write_over_a_shard_leaves_its_old_bytes(self, tmp_path):
        path = tmp_path / "x.bin"
        write_shard(path, pack_batch([seq(CLS, 5, SEP)], 8, PAD))
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with ShardWriter(path, 8, PAD, WIDE) as writer:
                assert path.read_bytes() == before  # rows go to the partial file
                writer.append(b"\0" * 12, [3])
                raise RuntimeError("stop")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_failed_close_removes_the_partial_file(self, tmp_path, monkeypatch):
        from lusokit import packing

        def failing_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(packing.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk gone"):
            with ShardWriter(tmp_path / "x.bin", 8, PAD, WIDE) as writer:
                writer.append(b"\0" * 8, [2])
        assert list(tmp_path.iterdir()) == []

    def test_write_shard_replaces_a_shard_whole(self, tmp_path):
        path = tmp_path / "x.bin"
        write_shard(path, pack_batch([seq(CLS, 5, SEP)], 8, PAD))
        batch = pack_batch([seq(CLS, 6, 7, SEP), seq(CLS, SEP)], 8, PAD)
        write_shard(path, batch)
        assert np.array_equal(read_shard(path).token_ids, batch.token_ids)
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

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

    def shard(self, tmp_path, vocab_size=WIDE):
        """Bytes of a valid cap-8 shard with rows of 3, 1 and 8 ids, 4-byte ids by default."""
        path = tmp_path / "valid.bin"
        with ShardWriter(path, 8, PAD, vocab_size) as writer:
            writer.append(array(ID_TYPECODES[writer.width], range(12)).tobytes(), [3, 1, 8])
        return path.read_bytes()

    def rejected(self, tmp_path, data):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        with pytest.raises(ConfigurationError) as exc:
            read_shard(path)
        return str(exc.value)

    def test_version_1_rejected_by_name(self, tmp_path):
        # a v1 shard: header with width, lengths, then the dense matrix
        header = struct.pack("<4sHBBIII", SHARD_MAGIC, 1, 4, 0, 8, 2, 1)
        data = header + struct.pack("<I", 2) + struct.pack("<2i", CLS, SEP)
        assert "version 1" in self.rejected(tmp_path, data)

    def test_lengths_disagreeing_with_file_size_rejected(self, tmp_path):
        data = bytearray(self.shard(tmp_path))
        data[-4:] = struct.pack("<I", 7)  # last row 8 -> 7 ids
        self.rejected(tmp_path, bytes(data))

    def test_zero_length_rejected(self, tmp_path):
        data = bytearray(self.shard(tmp_path))
        data[-8:-4] = struct.pack("<I", 0)  # the second row's one id goes...
        del data[20:24]  # ...and so does one id of the payload: the size agrees
        self.rejected(tmp_path, bytes(data))

    def test_length_over_cap_rejected(self, tmp_path):
        data = bytearray(self.shard(tmp_path))
        data[-12:] = struct.pack("<3I", 2, 1, 9)  # same 12 ids, the last row over the cap of 8
        self.rejected(tmp_path, bytes(data))

    def test_zero_rows_rejected(self, tmp_path):
        header = struct.pack("<4sHBxIiI", SHARD_MAGIC, SHARD_VERSION, 4, 8, PAD, 0)
        self.rejected(tmp_path, header)

    def test_truncated_payload_rejected(self, tmp_path):
        data = self.shard(tmp_path)
        for cut in (1, 4, 8, len(data) - 20):
            self.rejected(tmp_path, data[:-cut])

    @pytest.mark.parametrize("width", [3, 8])
    def test_unsupported_int_width_rejected_by_name(self, tmp_path, width):
        data = bytearray(self.shard(tmp_path))
        data[6] = width
        assert f"unsupported int width {width}" in self.rejected(tmp_path, bytes(data))

    def test_narrow_shard_one_id_short_rejected(self, tmp_path):
        data = self.shard(tmp_path, NARROW)
        assert data[6] == 2 and len(data) == 20 + 2 * 12 + 4 * 3
        assert read_shard(tmp_path / "valid.bin").rows == 3
        assert "size mismatch" in self.rejected(tmp_path, data[:20] + data[22:])

    def test_wide_header_over_narrow_payload_rejected(self, tmp_path):
        data = bytearray(self.shard(tmp_path, NARROW))
        data[6] = 4
        self.rejected(tmp_path, bytes(data))


def native(data, width):
    """Little-endian shard bytes of width-byte ids as a native array, as cap_rows takes them."""
    ids = array(ID_TYPECODES[width], data)
    if sys.byteorder == "big":
        ids.byteswap()
    return ids


class TestViews:
    """Cap views: a stage below the top cap, stored as the top shard's name."""

    def base(self, tmp_path, rows=((CLS, 5, 6, 7, 8, 9, SEP), (CLS, 5, SEP))):
        """A full cap-8 shard of rows, 2-byte ids, at tmp_path / "stage_8.bin"."""
        path = tmp_path / "stage_8.bin"
        with ShardWriter(path, 8, PAD, NARROW) as writer:
            writer.append(*cap_rows(array("H", chain(*rows)), [len(row) for row in rows], 8))
        return path

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 4]), st.integers(min_value=2, max_value=24), st.data())
    def test_caps_nest_and_a_view_reads_as_pack_flat(self, tmp_path_factory, width, top, data):
        cap = data.draw(st.integers(min_value=2, max_value=top), label="cap")
        near = sorted({2, cap, cap + 1, top, top + 1})
        lengths = data.draw(
            st.lists(st.sampled_from(near) | st.integers(1, 2 * top), min_size=1, max_size=12),
            label="lengths",
        )
        largest = NARROW - 1 if width == 2 else 2**31 - 1
        flat = data.draw(
            st.lists(st.integers(0, largest), min_size=sum(lengths), max_size=sum(lengths)),
            label="ids",
        )
        pad = data.draw(st.integers(min_value=0, max_value=9), label="pad")
        ids = array(ID_TYPECODES[width], flat)
        top_ids, top_kept = cap_rows(ids, lengths, top)
        assert cap_rows(native(top_ids, width), top_kept, cap) == cap_rows(ids, lengths, cap)

        out = tmp_path_factory.mktemp("packed")
        with ShardWriter(out / "base.bin", top, pad, NARROW if width == 2 else WIDE) as writer:
            writer.append(top_ids, top_kept)
        write_view(out / "view.bin", out / "base.bin", cap)
        want = pack_flat(np.array(flat, dtype="<i4"), np.array(lengths), cap, pad)
        got = read_shard(out / "view.bin")
        assert got.token_ids.dtype == np.dtype("<i4")
        assert got.attention_mask.dtype == np.uint8
        assert np.array_equal(got.token_ids, want.token_ids)
        assert np.array_equal(got.attention_mask, want.attention_mask)
        assert got.stage_max_len == cap

    def test_view_layout(self, tmp_path):
        base = self.base(tmp_path)
        view = tmp_path / "stage_4.bin"
        write_view(view, base, 4)
        header = struct.pack("<4sHBxIiI", VIEW_MAGIC, SHARD_VERSION, 2, 4, PAD, 2)
        assert view.read_bytes() == header + b"stage_8.bin"
        assert read_shard(view).token_ids.tolist() == [[CLS, 5, 6, SEP], [CLS, 5, SEP, PAD]]

    @pytest.mark.parametrize("cap", [1, 9])
    def test_write_view_rejects_a_cap_outside_the_base(self, tmp_path, cap):
        with pytest.raises(ValueError):
            write_view(tmp_path / "v.bin", self.base(tmp_path), cap)
        assert not (tmp_path / "v.bin").exists()

    def test_write_view_lies_beside_its_base_under_another_name(self, tmp_path):
        base = self.base(tmp_path)
        (tmp_path / "views").mkdir()
        with pytest.raises(ValueError):
            write_view(tmp_path / "views" / "v.bin", base, 4)
        assert not (tmp_path / "views" / "v.bin").exists()
        with pytest.raises(ValueError):
            write_view(base, base, 4)
        assert read_shard(base).stage_max_len == 8

    def test_write_view_rejects_a_view_as_base(self, tmp_path):
        write_view(tmp_path / "v.bin", self.base(tmp_path), 4)
        with pytest.raises(ConfigurationError):
            write_view(tmp_path / "w.bin", tmp_path / "v.bin", 2)

    def rejected(self, path):
        with pytest.raises(ConfigurationError) as exc:
            read_shard(path)
        message = str(exc.value)
        assert str(path) in message
        return message

    def view_bytes(self, cap=4, width=2, pad=PAD, rows=2, name=b"stage_8.bin"):
        return struct.pack("<4sHBxIiI", VIEW_MAGIC, SHARD_VERSION, width, cap, pad, rows) + name

    def test_missing_base_named(self, tmp_path):
        view = tmp_path / "v.bin"
        view.write_bytes(self.view_bytes(name=b"stage_512.bin"))
        message = self.rejected(view)
        assert "stage_512.bin" in message and "missing" in message

    @pytest.mark.parametrize(
        "name", [b"", b".", b"..", b"../stage_8.bin", b"sub/stage_8.bin", b"/stage_8.bin", b"\xff"]
    )
    def test_base_name_must_be_a_file_name_in_the_views_directory(self, tmp_path, name):
        self.base(tmp_path)
        view = tmp_path / "v.bin"
        view.write_bytes(self.view_bytes(name=name))
        self.rejected(view)

    @pytest.mark.parametrize("cap", [0, 1, 9])
    def test_view_cap_must_lie_within_the_base(self, tmp_path, cap):
        self.base(tmp_path)
        view = tmp_path / "v.bin"
        view.write_bytes(self.view_bytes(cap=cap))
        self.rejected(view)

    @pytest.mark.parametrize("field", [{"rows": 3}, {"width": 4}, {"pad": PAD + 1}])
    def test_view_disagreeing_with_its_base_rejected(self, tmp_path, field):
        base = self.base(tmp_path)
        view = tmp_path / "v.bin"
        view.write_bytes(self.view_bytes(**field))
        assert str(base) in self.rejected(view)

    def test_stale_view_over_another_corpus_rejected(self, tmp_path):
        # a view left by an earlier pack, whose base a later pack of
        # another corpus replaced
        write_view(tmp_path / "stage_4.bin", self.base(tmp_path), 4)
        self.base(tmp_path, rows=[(CLS, 7, SEP)] * 3)
        self.rejected(tmp_path / "stage_4.bin")

    def test_view_of_a_view_rejected(self, tmp_path):
        write_view(tmp_path / "stage_4.bin", self.base(tmp_path), 4)
        view = tmp_path / "v.bin"
        view.write_bytes(self.view_bytes(cap=2, name=b"stage_4.bin"))
        assert "a view's base must be a full shard" in self.rejected(view)

    def test_view_cut_short_rejected(self, tmp_path):
        self.base(tmp_path)
        data = self.view_bytes()
        view = tmp_path / "v.bin"
        for cut in (1, 5, len(data) - 20, len(data) - 19, len(data)):
            view.write_bytes(data[:-cut])
            self.rejected(view)

    def test_corrupt_base_named_with_the_view(self, tmp_path):
        base = self.base(tmp_path)
        write_view(tmp_path / "v.bin", base, 4)
        base.write_bytes(base.read_bytes()[:-2])
        assert str(base) in self.rejected(tmp_path / "v.bin")
