"""Append-only results store with crash-safe resume semantics.

Results live in one JSONL file (`lusokit.jsonlog`). Each completed or
failed run appends a record; re-runs append again and the latest line
for a run key wins at load time. Appends fsync so a crash loses at
most the line being written, and a torn final line is skipped on load
rather than poisoning the store.

A claim is an exclusive `flock` on the empty file `claims/<run_key>.lock`,
held until release. The kernel drops it when its holder dies, so no
claim needs clearing. The files are never unlinked: two holders could
then lock different files for one key.
"""

from __future__ import annotations

import fcntl
import os
import threading
from pathlib import Path

from lusokit import jsonlog

STATUS_OK = "ok"
STATUS_FAILED = "failed"


def _run_key(record: dict) -> str | None:
    key = record.get("run_key")
    return key if isinstance(key, str) and key else None


class ResultsStore:
    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.results_path = self.directory / "results.jsonl"
        self.claims_dir = self.directory / "claims"
        self.claims_dir.mkdir(exist_ok=True)
        self._claims: dict[str, int] = {}
        # completed_keys is called from every fan_out worker thread.
        self._read_lock = threading.Lock()
        self._read_offset = 0
        self._completed: set[str] = set()

    def append(self, record: dict) -> None:
        """Durably append one result record."""
        if _run_key(record) is None:
            raise ValueError("result record needs a non-empty 'run_key'")
        jsonlog.append(self.results_path, record)

    def load(self) -> dict[str, dict]:
        """Latest record per run key; malformed lines are skipped."""
        return jsonlog.load(self.results_path, _run_key)

    def completed_keys(self) -> set[str]:
        """Run keys whose latest record is a success.

        Each call reads only the lines appended since the previous one,
        by this process or any other.
        """
        with self._read_lock:
            latest, self._read_offset = jsonlog.load_from(
                self.results_path, self._read_offset, _run_key
            )
            self._completed.difference_update(latest)
            self._completed.update(k for k, r in latest.items() if r.get("status") == STATUS_OK)
            return set(self._completed)

    def claim(self, run_key: str) -> bool:
        """Lock a run until release; False if anyone else holds it,
        another thread of this process included."""
        fd = os.open(self.claims_dir / f"{run_key}.lock", os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            return False
        self._claims[run_key] = fd
        return True

    def release(self, run_key: str) -> None:
        os.close(self._claims.pop(run_key))
