"""Append-only, latest-wins JSONL log: the on-disk format of durable state.

One JSON object per line. Each append writes its lines with one
fsynced `os.write` on an O_APPEND descriptor under an exclusive flock,
so writers never interleave inside a line and a crash loses at most the
lines being written.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path
from typing import Iterator


def append(path: str | Path, *records: dict) -> None:
    """Durably append records, one line each, with one write and one
    fsync."""
    data = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")
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


def read(path: str | Path, offset: int = 0) -> Iterator[tuple[dict, int]]:
    """(record, end) for each JSON object on a complete line from byte
    `offset` on, end being the offset just past that line. A missing
    log reads as empty.

    A last line without its newline is still being written, or was torn
    by a crash; it is left for a later read. Blank, torn and non-object
    lines are skipped. Readers keep the latest record per key.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        handle.seek(offset)
        for line in handle:
            if not line.endswith(b"\n"):
                return
            offset += len(line)
            try:
                obj = json.loads(line.decode("utf-8", "replace"))
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict):
                yield obj, offset
