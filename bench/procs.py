"""Running lusokit commands as child processes, with wall time and max RSS.

A child's max RSS starts from the resident size of the process that
spawned it, because exec records the old address space's high-water
mark. The benchmark process grows to well over 100 MB while it
generates inputs, so it never spawns the measured commands itself: a
small launcher process (this file run as a script), started before any
input is generated, spawns each command, reaps it with wait4 and
reports its exit code, wall time and max RSS back over a pipe.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

COMMAND_TIMEOUT_S = 120


@dataclass
class Result:
    argv: list[str]
    code: int
    wall_s: float
    max_rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs commands from one checkout's sources, one at a time."""

    def __init__(self, checkout: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        src = str(checkout / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.python = sys.executable
        self.peak_rss_mb = 0.0
        self._launcher = subprocess.Popen(
            [self.python, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=work)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=60)
        self._launcher.stdout.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def lusokit(self, *args: str) -> Result:
        return self.run([self.python, "-m", "lusokit.cli", *args])

    def run(self, argv: list[str]) -> Result:
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        request = {"argv": argv, "env": self.env, "cwd": str(self.work),
                   "stdout": str(out_path), "stderr": str(err_path)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        self.peak_rss_mb = max(self.peak_rss_mb, reply["max_rss_kb"] / 1024.0)
        return Result(
            argv=argv,
            code=reply["code"],
            wall_s=reply["wall_s"],
            max_rss_mb=reply["max_rss_kb"] / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def _serve() -> None:
    """Launcher loop: one JSON request per stdin line, one reply per line.

    stdout and stderr of the child go to files, never pipes, so it can
    not block on a full pipe.
    """
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
            # A hung command is killed, so the run still ends in time and fails its checks.
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"code": proc.returncode, "wall_s": wall,
                                     "max_rss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
