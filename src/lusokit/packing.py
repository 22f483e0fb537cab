"""Sequence truncation, dynamic-padding batch packing, stage schedules.

A truncation stage fixes an upper bound on sequence length for a step
budget (e.g. 128 tokens for 250k steps, then 256 for 80k, then 512 for
60k). Within a stage, batches are padded dynamically: the batch width
is its longest member, never the stage bound, which is only a cap.

Shards are written one per stage with a self-describing binary header
(magic, version, integer width, stage cap, matrix width, row count)
followed by per-row lengths and the row-major token matrix.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from lusokit.errors import ConfigurationError
from lusokit.tokenizer import TokenizedSequence

SHARD_MAGIC = b"LKPK"
SHARD_VERSION = 1
_TOKEN_DTYPE = np.dtype("<i4")
_HEADER = struct.Struct("<4sHBBIII")  # magic, version, int width, pad, stage, width, rows


def truncate(seq: TokenizedSequence, max_len: int) -> TokenizedSequence:
    """Cap a sequence at max_len tokens, keeping the head.

    Over-long sequences keep their first max_len - 1 ids and get the
    final separator re-appended, so the result still starts with cls and
    ends with sep.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be at least 2 (cls + sep), got {max_len}")
    ids = seq.token_ids
    if len(ids) <= max_len:
        return seq
    return TokenizedSequence(token_ids=ids[: max_len - 1] + (ids[-1],), truncated=True)


@dataclass(frozen=True)
class PackedBatch:
    """Token-id matrix with its attention mask under one truncation stage.

    mask rows are contiguous 1-prefixes; padding positions hold pad_id.
    Width is min(stage cap, longest sequence in the batch).
    """

    token_ids: np.ndarray
    attention_mask: np.ndarray
    stage_max_len: int

    @property
    def rows(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def width(self) -> int:
        return int(self.token_ids.shape[1])

    def lengths(self) -> np.ndarray:
        return self.attention_mask.sum(axis=1)


def pack_flat(
    ids: np.ndarray, lengths: np.ndarray, stage_max_len: int, pad_id: int
) -> PackedBatch:
    """Pack back-to-back id sequences into one dynamically padded batch.

    Row i is the lengths[i] ids that follow the first sum(lengths[:i]).
    A row longer than the stage cap is truncated as ``truncate`` does:
    its first cap - 1 ids, then its last id. Row order is input order.
    """
    if not len(lengths):
        raise ValueError("cannot pack an empty batch")
    if stage_max_len < 2:
        raise ValueError(f"max_len must be at least 2 (cls + sep), got {stage_max_len}")
    lengths = np.asarray(lengths, dtype=np.int64)
    kept = np.minimum(lengths, stage_max_len)
    width = int(kept.max())
    token_ids = np.full((len(lengths), width), pad_id, dtype=_TOKEN_DTYPE)
    head = stage_max_len - 1
    starts = np.cumsum(lengths) - lengths
    for row, (start, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
        if n <= stage_max_len:
            token_ids[row, :n] = ids[start : start + n]
        else:
            token_ids[row, :head] = ids[start : start + head]
            token_ids[row, head] = ids[start + n - 1]
    mask = (np.arange(width) < kept[:, None]).view(np.uint8)
    return PackedBatch(token_ids=token_ids, attention_mask=mask, stage_max_len=stage_max_len)


def pack_batch(
    seqs: Sequence[TokenizedSequence], stage_max_len: int, pad_id: int
) -> PackedBatch:
    """Pack sequences into one dynamically padded batch.

    Sequences longer than the stage cap are truncated first (head kept,
    sep re-appended). Row order preserves input order; no real token is
    dropped or reordered beyond that truncation.
    """
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(
        chain.from_iterable(s.token_ids for s in seqs), dtype=_TOKEN_DTYPE, count=int(lengths.sum())
    )
    return pack_flat(ids, lengths, stage_max_len, pad_id)


def plan_device_split(global_batch: int, devices: int) -> int:
    """Samples per device for an evenly divided global batch."""
    if devices < 1:
        raise ValueError(f"device count must be positive, got {devices}")
    if global_batch < 1:
        raise ValueError(f"global batch must be positive, got {global_batch}")
    per_device, remainder = divmod(global_batch, devices)
    if remainder:
        raise ConfigurationError(
            f"global batch {global_batch} does not divide evenly across {devices} devices"
        )
    return per_device


@dataclass(frozen=True)
class TruncationSchedule:
    """Ordered (max_len, steps) stages with strictly increasing caps."""

    stages: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("schedule needs at least one stage")
        previous = 0
        for max_len, steps in self.stages:
            if max_len <= previous:
                raise ConfigurationError(
                    f"stage caps must strictly increase, got {max_len} after {previous}"
                )
            if steps <= 0:
                raise ConfigurationError(f"stage step budget must be positive, got {steps}")
            previous = max_len

    @classmethod
    def parse(cls, text: str) -> "TruncationSchedule":
        """Parse '128:250000,256:80000,512:60000'."""
        stages = []
        for part in text.split(","):
            piece = part.strip()
            try:
                max_len, steps = piece.split(":")
                stages.append((int(max_len), int(steps)))
            except ValueError:
                raise ConfigurationError(
                    f"bad schedule stage {piece!r}; expected '<max_len>:<steps>'"
                ) from None
        return cls(stages=tuple(stages))

    @property
    def total_steps(self) -> int:
        return sum(steps for _, steps in self.stages)

    def boundaries(self) -> list[int]:
        """Cumulative end step (exclusive) of each stage."""
        ends = []
        total = 0
        for _, steps in self.stages:
            total += steps
            ends.append(total)
        return ends


def stage_for_step(schedule: TruncationSchedule, step: int) -> int:
    """Stage cap in effect at a zero-based step under cumulative budgets."""
    if step < 0 or step >= schedule.total_steps:
        raise ValueError(
            f"step {step} outside schedule range [0, {schedule.total_steps})"
        )
    total = 0
    for max_len, steps in schedule.stages:
        total += steps
        if step < total:
            return max_len
    raise AssertionError("unreachable")


def write_shard(path: str | Path, batch: PackedBatch) -> None:
    lengths = batch.lengths().astype("<u4")
    header = _HEADER.pack(
        SHARD_MAGIC,
        SHARD_VERSION,
        _TOKEN_DTYPE.itemsize,
        0,
        batch.stage_max_len,
        batch.width,
        batch.rows,
    )
    with Path(path).open("wb") as out:
        out.write(header)
        out.write(lengths)
        out.write(np.ascontiguousarray(batch.token_ids, dtype=_TOKEN_DTYPE))


def read_shard(path: str | Path) -> PackedBatch:
    with Path(path).open("rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConfigurationError(f"shard {path} is too short to hold a header")
        magic, version, int_width, _, stage, width, rows = _HEADER.unpack(header)
        if magic != SHARD_MAGIC:
            raise ConfigurationError(f"shard {path} has bad magic {magic!r}")
        if version != SHARD_VERSION or int_width != _TOKEN_DTYPE.itemsize:
            raise ConfigurationError(
                f"shard {path} has unsupported version/int width {version}/{int_width}"
            )
        size = _HEADER.size + rows * 4 + rows * width * _TOKEN_DTYPE.itemsize
        if os.fstat(handle.fileno()).st_size != size:
            raise ConfigurationError(f"shard {path} payload size mismatch")
        lengths = np.empty(rows, dtype="<u4")
        token_ids = np.empty((rows, width), dtype=_TOKEN_DTYPE)
        handle.readinto(lengths)
        handle.readinto(token_ids)
    mask = (np.arange(width) < lengths[:, None]).view(np.uint8)
    return PackedBatch(token_ids=token_ids, attention_mask=mask, stage_max_len=stage)
