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
from typing import Callable, Hashable, Iterable, Optional


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
    """Latest record per key; blank, torn and non-object lines and
    records whose key is None are skipped."""
    path = Path(path)
    records: dict = {}
    if not path.exists():
        return records
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            k = key(obj) if isinstance(obj, dict) else None
            if k is not None:
                records[k] = obj
    return records


def compact(path: str | Path, records: Iterable[dict]) -> int:
    """Replace the log with these records; returns how many were written.

    The rewrite goes through a temp file and an atomic rename.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in records]
    with tmp.open("w", encoding="utf-8") as out:
        out.writelines(lines)
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)
    return len(lines)
