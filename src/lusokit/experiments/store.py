"""Append-only results store with crash-safe resume semantics.

Results live in one JSONL file (`lusokit.jsonlog`). Each completed or
failed run appends a record; re-runs append again and the latest line
for a run key wins at load time. Appends fsync so a crash loses at
most the line being written, and a torn final line is skipped on load
rather than poisoning the store.

A claim is an exclusive `flock` on the empty file `claims/<run_key>.lock`,
held until release. The lock belongs to the open descriptor, so a
child process that inherits it (the run's trainer) holds the claim too,
and the kernel drops it when its last holder closes it or dies: no
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
        # The directories are made at the first claim or append; reads make none.
        self.directory = Path(directory)
        self.results_path = self.directory / "results.jsonl"
        self.claims_dir = self.directory / "claims"
        self._claims: dict[str, int] = {}
        # completed_keys is called from every fan_out worker thread.
        self._read_lock = threading.Lock()
        self._read_offset = 0
        self._ok: dict[str, bool] = {}  # run key -> its latest record is a success

    def append(self, record: dict) -> None:
        """Durably append one result record."""
        if _run_key(record) is None:
            raise ValueError("result record needs a non-empty 'run_key'")
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        jsonlog.append(self.results_path, record)

    def load(self) -> dict[str, dict]:
        """Latest record per run key; malformed lines are skipped."""
        latest = {}
        for record, _ in jsonlog.read(self.results_path):
            key = _run_key(record)
            if key is not None:
                latest[key] = record
        return latest

    def completed_keys(self) -> set[str]:
        """Run keys whose latest record is a success.

        Each call reads only the lines appended since the previous one,
        by this process or any other.
        """
        with self._read_lock:
            # The offset moves past each record read and the complete lines skipped before it.
            for record, self._read_offset in jsonlog.read(self.results_path, self._read_offset):
                key = _run_key(record)
                if key is not None:
                    self._ok[key] = record.get("status") == STATUS_OK
            return {key for key, ok in self._ok.items() if ok}

    def claim(self, run_key: str) -> bool:
        """Lock a run until release; False if anyone else holds it,
        another thread of this process included."""
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.claims_dir / f"{run_key}.lock", os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            return False
        self._claims[run_key] = fd
        return True

    def claim_fd(self, run_key: str) -> int:
        """The descriptor holding a claim this store made."""
        return self._claims[run_key]

    def release(self, run_key: str) -> None:
        os.close(self._claims.pop(run_key))
