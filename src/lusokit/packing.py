"""Sequence truncation, dynamic-padding batch packing, stage schedules.

A truncation stage fixes an upper bound on sequence length for a step
budget (e.g. 128 tokens for 250k steps, then 256 for 80k, then 512 for
60k). Within a stage, batches are padded dynamically: the batch width
is its longest member, never the stage bound, which is only a cap.

Shards store their rows ragged: a self-describing 20-byte header
(magic ``LKPK``, version, integer width, stage cap, pad id, row count),
then every row's kept ids back to back with no padding, then a footer
of one little-endian uint32 kept length per row. Ids are as wide as the
vocabulary needs (``id_width``): little-endian uint16 for a vocabulary
of at most 65,536 pieces, little-endian int32 otherwise; the header's
integer width says which, and the footer is uint32 either way.
``ShardWriter`` streams a shard to disk and holds only the lengths.
Version 1 shards (dense matrices) are not readable: re-run ``lusokit
pack``.

The cap rule nests: rows capped at a cap c of rows already capped at a
larger cap are the rows capped at c. So a stage below the schedule's
largest cap is stored as a cap view (``write_view``) of the full shard
at that largest cap: the same header with magic ``LKPV``, carrying the
base's integer width, pad id and row count and the view's own cap,
followed by the base shard's bare file name in UTF-8. A view names its
base relative to its own directory, so a packed directory moves as a
whole. ``read_shard`` reads a full shard's ragged rows, or a view's
base's rows capped by ``cap_rows``, and pads them once into a dense
int32 ``PackedBatch``.

numpy is imported only by the functions that build or take a
``PackedBatch`` (``pack_flat``, ``pack_batch``, ``read_shard``,
``write_shard``), so ``lusokit pack``, which streams through
``cap_rows``, ``ShardWriter`` and ``write_view``, never loads it.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from lusokit.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

    from lusokit.tokenizer import TokenizedSequence

SHARD_MAGIC = b"LKPK"
VIEW_MAGIC = b"LKPV"
SHARD_VERSION = 2
_TOKEN_DTYPE = "<i4"
_ID_DTYPES = {2: "<u2", 4: _TOKEN_DTYPE}  # a shard's ids, by the header's int width
ID_TYPECODES = {2: "H", 4: "i"}  # array typecodes of native ids, by item width
_HEADER = struct.Struct("<4sHBxIiI")  # magic, version, int width, (reserved), stage, pad id, rows
_BIG_ENDIAN = sys.byteorder == "big"
_NAME_MAX = 255  # bytes of a base shard's file name in a view


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

    Row i is the lengths[i] ids that follow the first sum(lengths[:i]),
    capped at the stage by ``cap_rows``. Row order is input order.
    """
    import numpy as np

    if not len(lengths):
        raise ValueError("cannot pack an empty batch")
    capped, kept = cap_rows(
        np.ascontiguousarray(ids, dtype=np.intc), np.asarray(lengths).tolist(), stage_max_len
    )
    return _pad(np.frombuffer(capped, dtype=_TOKEN_DTYPE), np.array(kept), stage_max_len, pad_id)


def _pad(ids: np.ndarray, kept: np.ndarray, stage_max_len: int, pad_id: int) -> PackedBatch:
    """Pad capped rows, back to back in ids, to the longest of them."""
    import numpy as np

    mask = np.arange(int(kept.max())) < kept[:, None]
    token_ids = np.full(mask.shape, pad_id, dtype=_TOKEN_DTYPE)
    token_ids[mask] = ids
    return PackedBatch(token_ids, mask.view(np.uint8), stage_max_len)


def pack_batch(
    seqs: Sequence[TokenizedSequence], stage_max_len: int, pad_id: int
) -> PackedBatch:
    """Pack sequences into one dynamically padded batch, as ``pack_flat`` does."""
    import numpy as np

    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(
        chain.from_iterable(s.token_ids for s in seqs), dtype=_TOKEN_DTYPE, count=int(lengths.sum())
    )
    return pack_flat(ids, lengths, stage_max_len, pad_id)


def id_width(vocab_size: int) -> int:
    """Bytes a shard stores per id of a vocabulary of vocab_size pieces.

    2 when ids 0..vocab_size - 1 fit in uint16, 4 (int32) otherwise.
    """
    if not 1 <= vocab_size <= 1 << 31:
        raise ValueError(f"vocabulary size must lie in [1, 2**31], got {vocab_size}")
    return 2 if vocab_size <= 1 << 16 else 4


def cap_rows(
    ids: array | np.ndarray, lengths: Sequence[int], stage_max_len: int
) -> tuple[bytes, list[int]]:
    """Back-to-back rows capped at a stage, in a shard's id layout.

    ids is a contiguous buffer of native 2- or 4-byte ids, such as an
    ``array("H")``, an ``array("i")`` or a numpy uint16 or int32 array;
    row i is the lengths[i] ids after the first sum(lengths[:i]). A row
    longer than the cap keeps its first cap - 1 ids, then its last id,
    so it still starts with cls and ends with sep. Returns the kept ids
    back to back as little-endian bytes of the input's width (``<u2``
    for 2-byte items, ``<i4`` for 4-byte ones), and each row's kept
    length.
    """
    if stage_max_len < 2:
        raise ValueError(f"max_len must be at least 2 (cls + sep), got {stage_max_len}")
    view = memoryview(ids)
    size = view.itemsize
    if size not in ID_TYPECODES:
        raise TypeError(f"ids must be 2- or 4-byte items, got {size}-byte items")
    view = view.cast("B")
    kept = array(ID_TYPECODES[size])
    head = size * (stage_max_len - 1)
    run = start = 0  # byte offsets; run: first byte of the rows not yet copied
    for n in lengths:
        end = start + size * n
        if n > stage_max_len:
            kept.frombytes(view[run : start + head])
            kept.frombytes(view[end - size : end])
            run = end
        start = end
    kept.frombytes(view[run:start])
    if _BIG_ENDIAN:
        kept.byteswap()
    return kept.tobytes(), [min(n, stage_max_len) for n in lengths]


class ShardWriter:
    """Streams one stage shard to path: append rows, then close.

    Ids are ``width = id_width(vocab_size)`` bytes each and go to
    ``<path>.partial`` as they are appended; only the kept lengths stay in
    memory (4 bytes a row) until close writes them as the footer, rewrites
    the header with the row count and renames the file onto path. As a context
    manager it closes on a clean exit; if the block or close raises, it
    removes the partial file and path keeps its old bytes.
    """

    def __init__(
        self, path: str | Path, stage_max_len: int, pad_id: int, vocab_size: int
    ) -> None:
        if stage_max_len < 2:
            raise ValueError(f"max_len must be at least 2 (cls + sep), got {stage_max_len}")
        self.width = id_width(vocab_size)
        self.path = Path(path)
        self.stage_max_len = stage_max_len
        self.pad_id = pad_id
        self.lengths = array("I")
        self._partial = self.path.with_name(f"{self.path.name}.partial")
        self._file = self._partial.open("wb")
        self._file.write(self._header())

    def _header(self) -> bytes:
        return _HEADER.pack(
            SHARD_MAGIC,
            SHARD_VERSION,
            self.width,
            self.stage_max_len,
            self.pad_id,
            len(self.lengths),
        )

    @property
    def rows(self) -> int:
        return len(self.lengths)

    def append(self, ids: bytes, lengths: Sequence[int]) -> None:
        """Add rows: their ids back to back as little-endian bytes of the
        shard's width (``<u2`` or ``<i4``), and their lengths."""
        if lengths and not (min(lengths) >= 1 and max(lengths) <= self.stage_max_len):
            raise ValueError(f"row lengths must lie in [1, {self.stage_max_len}]")
        if len(ids) != self.width * sum(lengths):
            raise ValueError(f"{len(ids)} id bytes for rows of {sum(lengths)} ids")
        self._file.write(ids)
        self.lengths.extend(lengths)

    def close(self) -> None:
        if self._file.closed:
            return
        footer = self.lengths
        if _BIG_ENDIAN:
            footer = array("I", footer)
            footer.byteswap()
        with self._file:
            self._file.write(footer.tobytes())
            self._file.seek(0)
            self._file.write(self._header())
        os.replace(self._partial, self.path)

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.close()
        finally:  # the block or close raised if the partial file is still there
            self._file.close()
            self._partial.unlink(missing_ok=True)


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
    """Ordered (max_len, steps) stages with strictly increasing caps of at least 2."""

    stages: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigurationError("schedule needs at least one stage")
        previous = 0
        for max_len, steps in self.stages:
            if max_len < 2:
                raise ConfigurationError(
                    f"stage cap must be at least 2, got {max_len}: a row needs cls + sep"
                )
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
    """Write a batch's rows as a stage shard; read_shard gives the batch back.

    The shard's pad id is the id the batch's padding cells hold, or 0
    when it has none. Ids are stored as wide as a vocabulary of the
    largest id plus one, pad id included, needs. Padding cells that hold
    different ids, or a negative id, raise ValueError.
    """
    import numpy as np

    real = batch.attention_mask.astype(bool)
    pads = np.unique(batch.token_ids[~real])
    if len(pads) > 1:
        raise ValueError(f"padding cells hold {len(pads)} different ids; a shard has one pad id")
    pad_id = int(pads[0]) if len(pads) else 0
    ids = batch.token_ids[real]
    if ids.min(initial=0) < 0:
        raise ValueError("a shard stores vocabulary ids, which are never negative")
    vocab_size = int(ids.max(initial=max(pad_id, 0))) + 1
    with ShardWriter(path, batch.stage_max_len, pad_id, vocab_size) as writer:
        writer.append(ids.astype(_ID_DTYPES[writer.width]).tobytes(), batch.lengths().tolist())


def write_view(path: str | Path, base: str | Path, stage_max_len: int) -> None:
    """Write a cap view at path of the full shard at base, capped at stage_max_len.

    The view stores only base's file name, which ``read_shard`` looks up
    in the view's own directory, so base must lie in that directory. The
    cap must lie in [2, base's cap].
    """
    path, base = Path(path), Path(base)
    if path.parent.resolve() != base.parent.resolve() or path.name == base.name:
        raise ValueError(f"view {path} must lie beside its base {base}, under another name")
    with base.open("rb") as handle:
        _, int_width, stage, pad_id, rows = _read_header(handle, base, full_only=True)
    if not 2 <= stage_max_len <= stage:
        raise ValueError(f"view cap must lie in [2, {stage}] for base {base}, got {stage_max_len}")
    header = _HEADER.pack(VIEW_MAGIC, SHARD_VERSION, int_width, stage_max_len, pad_id, rows)
    path.write_bytes(header + base.name.encode("utf-8"))


def read_shard(path: str | Path) -> PackedBatch:
    """Validate a stage shard or cap view and pad its rows into a dense int32 batch."""
    stage, pad_id, ids, lengths = _read_rows(Path(path))
    return _pad(ids, lengths, stage, pad_id)


def _read_header(
    handle, path: Path, full_only: bool = False
) -> tuple[bytes, int, int, int, int]:
    """(magic, int width, stage cap, pad id, rows) of a shard's or view's valid header.

    full_only refuses a view, as a view's base must be a full shard.
    """
    header = handle.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ConfigurationError(f"shard {path} is too short to hold a header")
    magic, version, int_width, stage, pad_id, rows = _HEADER.unpack(header)
    if magic not in (SHARD_MAGIC, VIEW_MAGIC):
        raise ConfigurationError(f"shard {path} has bad magic {magic!r}")
    if full_only and magic == VIEW_MAGIC:
        raise ConfigurationError(f"shard {path} is a cap view; a view's base must be a full shard")
    if version != SHARD_VERSION:
        raise ConfigurationError(
            f"shard {path} is version {version}; only version {SHARD_VERSION} "
            "is readable (re-run lusokit pack)"
        )
    if int_width not in _ID_DTYPES:
        raise ConfigurationError(f"shard {path} has unsupported int width {int_width}")
    if rows < 1 or stage < 2:
        raise ConfigurationError(f"shard {path} has {rows} rows under stage cap {stage}")
    return magic, int_width, stage, pad_id, rows


def _read_rows(path: Path, full_only: bool = False) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(stage cap, pad id, ids, lengths) of a shard's ragged rows.

    ids are the kept ids back to back, at the shard's width. A view's
    rows are its base's, capped at the view's cap by ``cap_rows``;
    full_only refuses a view, as ``_read_header`` does.
    """
    import numpy as np

    with path.open("rb") as handle:
        magic, int_width, stage, pad_id, rows = _read_header(handle, path, full_only)
        if magic == VIEW_MAGIC:
            name = handle.read(_NAME_MAX + 1)
        else:
            size = os.fstat(handle.fileno()).st_size
            if size < _HEADER.size + 4 * rows:
                raise ConfigurationError(f"shard {path} payload size mismatch")
            handle.seek(size - 4 * rows)
            lengths = np.frombuffer(handle.read(4 * rows), dtype="<u4")
            if lengths.min() < 1 or lengths.max() > stage:
                raise ConfigurationError(f"shard {path} has a row length outside [1, {stage}]")
            tokens = int(lengths.sum(dtype=np.int64))
            if size != _HEADER.size + int_width * tokens + 4 * rows:
                raise ConfigurationError(f"shard {path} payload size mismatch")
            handle.seek(_HEADER.size)
            ids = np.frombuffer(handle.read(int_width * tokens), dtype=_ID_DTYPES[int_width])
            return stage, pad_id, ids, lengths
    try:
        base_name = name.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError(f"view {path} names its base in invalid UTF-8") from None
    if not base_name or len(name) > _NAME_MAX or any(c in base_name for c in "/\\\0"):
        raise ConfigurationError(
            f"view {path} names base {base_name!r}, which is not a file name in its directory"
        )
    base = path.parent / base_name
    try:
        base_stage, base_pad, ids, lengths = _read_rows(base, full_only=True)
    except FileNotFoundError:
        raise ConfigurationError(f"view {path} names base {base_name}, which is missing") from None
    except OSError as exc:
        raise ConfigurationError(f"view {path} cannot read its base {base}: {exc.strerror}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"view {path}: {exc}") from None
    if stage > base_stage:
        raise ConfigurationError(
            f"view {path} caps at {stage}, above its base {base}'s cap of {base_stage}"
        )
    found = (ids.itemsize, base_pad, len(lengths))
    if found != (int_width, pad_id, rows):
        raise ConfigurationError(
            f"view {path} expects int width {int_width}, pad id {pad_id} and {rows} rows; "
            f"its base {base} has {found[0]}, {found[1]} and {found[2]}"
        )
    # cap_rows takes native ids; on a little-endian host this copies nothing
    capped, kept = cap_rows(
        np.ascontiguousarray(ids, ids.dtype.newbyteorder("=")), lengths.tolist(), stage
    )
    return stage, pad_id, np.frombuffer(capped, dtype=ids.dtype), np.array(kept, dtype="<u4")
