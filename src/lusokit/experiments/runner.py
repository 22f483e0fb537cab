"""Run-matrix execution against an external trainer command.

The trainer is any executable described by a command template with
placeholders for every run field. Contract: on success it prints a
line 'dev=<float> test=<float>' to stdout and exits 0. Anything else
is recorded as a failure for that run; the orchestrator keeps going.

Templates are split into argv tokens first and formatted per token
afterwards, so substituted values containing spaces stay single
arguments.
"""

from __future__ import annotations

import re
import shlex
import string
import subprocess
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

from lusokit.benchmarks import TASKS, Metric
from lusokit.errors import ConfigurationError
from lusokit.experiments.grid import RunConfig
from lusokit.experiments.store import STATUS_FAILED, STATUS_OK, ResultsStore
from lusokit.fanout import fan_out

REQUIRED_PLACEHOLDERS = (*(f.name for f in fields(RunConfig)), "run_key")

_SCORE_RE = re.compile(
    r"^dev=([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s+"
    r"test=([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*$"
)


def _placeholders_in(template: str) -> set[str]:
    names = set()
    for _, field_name, _, _ in string.Formatter().parse(template):
        if field_name is not None:
            names.add(field_name)
    return names


def validate_template(template: str) -> None:
    """Reject templates missing run fields or naming unknown ones."""
    try:
        tokens = shlex.split(template)
    except ValueError as exc:
        raise ConfigurationError(f"unparseable command template: {exc}") from None
    if not tokens:
        raise ConfigurationError("command template is empty")
    try:
        found = set().union(*(_placeholders_in(tok) for tok in tokens))
    except ValueError as exc:
        raise ConfigurationError(f"bad placeholder syntax: {exc}") from None
    missing = set(REQUIRED_PLACEHOLDERS) - found
    if missing:
        raise ConfigurationError(
            f"command template missing placeholders: {sorted(missing)}"
        )
    unknown = found - set(REQUIRED_PLACEHOLDERS)
    if unknown:
        raise ConfigurationError(
            f"command template has unknown placeholders: {sorted(unknown)}"
        )


def build_command(template: str, cfg: RunConfig) -> list[str]:
    """Split template into tokens, then substitute fields per token."""
    fields = {**cfg.key_fields(), "run_key": cfg.run_key}
    return [token.format(**fields) for token in shlex.split(template)]


def parse_scores(stdout: str) -> Optional[tuple[float, float]]:
    """Extract (dev, test) from trainer output; last score line wins."""
    found = None
    for line in stdout.splitlines():
        match = _SCORE_RE.match(line.strip())
        if match:
            found = (float(match.group(1)), float(match.group(2)))
    return found


def _metric_range(task_name: str) -> tuple[float, float]:
    spec = TASKS.get(task_name)
    if spec is not None and spec.metric is Metric.PEARSON:
        return (-1.0, 1.0)
    return (0.0, 1.0)


def _invoke(cmd: list[str], task: str, timeout: Optional[float], pass_fds: Sequence[int]) -> tuple:
    """(dev, test, None) from a successful trainer call, else (None, None, error)."""
    try:
        proc = subprocess.run(
            cmd, capture_output=True, encoding="utf-8", errors="replace", timeout=timeout,
            pass_fds=pass_fds,
        )
    except FileNotFoundError:
        return None, None, f"trainer executable not found: {cmd[0]}"
    except subprocess.TimeoutExpired:
        return None, None, f"trainer timed out after {timeout}s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, None, f"exit {proc.returncode}: {tail[0][:200]}"
    scores = parse_scores(proc.stdout)
    if scores is None:
        return None, None, "no 'dev=<float> test=<float>' line in trainer output"
    dev, test = scores
    lo, hi = _metric_range(task)
    if not (lo <= dev <= hi and lo <= test <= hi):
        return None, None, f"scores ({dev}, {test}) outside [{lo}, {hi}] for {task}"
    return dev, test, None


def run_one(
    cfg: RunConfig,
    template: str,
    timeout: Optional[float] = None,
    pass_fds: Sequence[int] = (),
) -> dict:
    """Execute one run and build its result record, with the trainer
    call's wall seconds as duration_s. The trainer inherits pass_fds:
    given the run's claim descriptor, it holds the claim until it exits,
    even if this process dies first."""
    record = cfg.to_dict()
    cmd = build_command(template, cfg)
    started = time.monotonic()
    dev, test, error = _invoke(cmd, cfg.task, timeout, pass_fds)
    record.update(
        status=STATUS_FAILED if error else STATUS_OK, dev=dev, test=test, error=error,
        duration_s=round(time.monotonic() - started, 3),
    )
    return record


@dataclass(frozen=True)
class ExecutionSummary:
    """What one orchestration pass did."""

    succeeded: int
    failed: int
    skipped_completed: int
    skipped_claimed: int

    @property
    def attempted(self) -> int:
        return self.succeeded + self.failed


def run_matrix(
    configs: Sequence[RunConfig],
    template: str,
    store: ResultsStore,
    max_workers: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> ExecutionSummary:
    """Execute all configs not yet completed, recording every outcome.

    Runs whose latest stored record is a success are skipped, so a
    rerun of the same matrix only touches unfinished work. Each run is
    claimed before execution and released afterwards; claims held by
    someone else skip the run for this pass, and a run another process
    finished since this pass began counts as already done. progress, if
    given, gets each attempted run's record as soon as that run finishes.
    """
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be positive, got {max_workers}")
    if timeout is not None and not timeout > 0:  # NaN too
        raise ConfigurationError(f"timeout must be positive, got {timeout}")
    validate_template(template)
    done = store.completed_keys()
    to_run = [cfg for cfg in configs if cfg.run_key not in done]
    skipped_completed = len(configs) - len(to_run)
    succeeded = failed = skipped_claimed = 0

    def execute(cfg: RunConfig) -> dict | str:
        key = cfg.run_key
        if not store.claim(key):
            return "claimed"
        try:
            if key in store.completed_keys():
                return "done"
            record = run_one(cfg, template, timeout=timeout, pass_fds=(store.claim_fd(key),))
            store.append(record)
            return record
        finally:
            store.release(key)

    for record in fan_out(execute, to_run, max_workers):
        if record == "claimed":
            skipped_claimed += 1
        elif record == "done":
            skipped_completed += 1
        else:
            if record["status"] == STATUS_OK:
                succeeded += 1
            else:
                failed += 1
            if progress is not None:
                progress(record)

    return ExecutionSummary(succeeded=succeeded, failed=failed,
                            skipped_completed=skipped_completed, skipped_claimed=skipped_claimed)
