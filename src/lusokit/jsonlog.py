"""Append-only, latest-wins JSONL log: the on-disk format of durable state.

One JSON object per line, each written by one fsynced `os.write` on an
O_APPEND descriptor under an exclusive flock, so writers never
interleave inside a line and a crash loses at most the line being
written.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path
from typing import Callable, Hashable, Optional


def append(path: str | Path, record: dict) -> None:
    """Durably append one record as one line."""
    data = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        # Another appender's line can be visible in part while it is
        # written, so the tail is read and written under the lock.
        fcntl.flock(fd, fcntl.LOCK_EX)
        # A crash can leave the last line without its newline; start a
        # fresh line so that fragment does not swallow this record.
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        if os.write(fd, data) != len(data):
            raise OSError(f"short write appending to {path}")
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.fsync(fd)
    finally:
        os.close(fd)


def load(path: str | Path, key: Callable[[dict], Optional[Hashable]]) -> dict:
    """Latest record per key in the whole log."""
    return load_from(path, 0, key)[0]


def load_from(
    path: str | Path, offset: int, key: Callable[[dict], Optional[Hashable]]
) -> tuple[dict, int]:
    """Latest record per key among the complete lines from byte `offset`
    on, and the offset just past the last of those lines.

    A last line without its newline is still being written, or was torn
    by a crash; it is left for a later call. Blank, torn and non-object
    lines and records whose key is None are skipped.
    """
    records: dict = {}
    if not os.path.exists(path):
        return records, offset
    with open(path, "rb") as handle:
        handle.seek(offset)
        for line in handle:
            if not line.endswith(b"\n"):
                break
            offset += len(line)
            try:
                obj = json.loads(line.decode("utf-8", "replace"))
            except json.JSONDecodeError:
                continue
            k = key(obj) if isinstance(obj, dict) else None
            if k is not None:
                records[k] = obj
    return records, offset
