"""Append-only results store with crash-safe resume semantics.

Results live in one JSONL file (`lusokit.jsonlog`). Each completed or
failed run appends a record; re-runs append again and the latest line
for a run key wins at load time. Appends fsync so a crash loses at
most the line being written, and a torn final line is skipped on load
rather than poisoning the store. Claim files (created with O_EXCL) keep
concurrent workers from picking up the same run.
"""

from __future__ import annotations

import os
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

    def append(self, record: dict) -> None:
        """Durably append one result record."""
        if _run_key(record) is None:
            raise ValueError("result record needs a non-empty 'run_key'")
        jsonlog.append(self.results_path, record)

    def load(self) -> dict[str, dict]:
        """Latest record per run key; malformed lines are skipped."""
        return jsonlog.load(self.results_path, _run_key)

    def completed_keys(self) -> set[str]:
        """Run keys whose latest record is a success."""
        return {
            key
            for key, rec in self.load().items()
            if rec.get("status") == STATUS_OK
        }

    def compact(self) -> int:
        """Rewrite the file keeping only the winning record per key.

        Returns the number of records kept.
        """
        return jsonlog.compact(self.results_path, self.load().values())

    def _claim_path(self, run_key: str) -> Path:
        return self.claims_dir / f"{run_key}.claim"

    def claim(self, run_key: str) -> bool:
        """Atomically claim a run; False if someone else holds it."""
        try:
            fd = os.open(
                self._claim_path(run_key), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
        return True

    def release(self, run_key: str) -> None:
        self._claim_path(run_key).unlink(missing_ok=True)

    def clear_claims(self) -> int:
        """Drop all claim files (start of a fresh pass after a crash)."""
        count = 0
        for path in self.claims_dir.glob("*.claim"):
            path.unlink(missing_ok=True)
            count += 1
        return count
