"""Result aggregation: model-selection-on-dev summary tables.

For each (model, task) cell the winning hyperparameter combination is
the one with the highest dev score averaged over seeds; ties fall to
the lower learning rate, then lower dropout, then mixed precision off.
The reported number is the winner's mean test score. Cells missing any
run stay honest: they render as 'n.a.' with the missing-run count
instead of an average over whatever happened to finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from lusokit.benchmarks import TASKS, TaskSpec
from lusokit.experiments.grid import (
    HyperGrid,
    ModelEntry,
    RunConfig,
    iter_cells,
    make_run_key,
)
from lusokit.experiments.store import STATUS_OK
from lusokit.textutil import render_tsv_rows


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (model, task) cell."""

    model: str
    task: str
    expected_runs: int
    ok_runs: int
    best_combo: Optional[tuple[float, float, bool]]
    mean_dev: Optional[float]
    mean_test: Optional[float]

    @property
    def complete(self) -> bool:
        return self.ok_runs == self.expected_runs

    def display(self) -> str:
        if not self.complete:
            return f"n.a. (missing {self.expected_runs - self.ok_runs})"
        return f"{self.mean_test:.4f}"


def aggregate_cells(
    records: Mapping[str, dict],
    models: Sequence[ModelEntry],
    tasks: Iterable[TaskSpec] | None = None,
    grid: HyperGrid | None = None,
    split_seed: int = 13,
) -> list[CellResult]:
    """Summarize stored results over the expected run matrix."""
    task_list = list(tasks) if tasks is not None else list(TASKS.values())
    grid = grid if grid is not None else HyperGrid()
    cells: list[CellResult] = []
    for model, task in iter_cells(models, task_list):
        expected = grid.combo_count * len(grid.seeds)
        combo_scores: list[tuple[tuple[float, float, bool], float, float]] = []
        ok_runs = 0
        for lr, dropout, bf16 in grid.combos():
            devs: list[float] = []
            tests: list[float] = []
            for seed in grid.seeds:
                cfg = RunConfig(
                    model=model.name,
                    task=task.name,
                    lr=lr,
                    dropout=dropout,
                    bf16=bf16,
                    seed=seed,
                    split_seed=split_seed,
                )
                rec = records.get(make_run_key(cfg))
                if rec is None or rec.get("status") != STATUS_OK:
                    continue
                devs.append(float(rec["dev"]))
                tests.append(float(rec["test"]))
            ok_runs += len(devs)
            if len(devs) == len(grid.seeds):
                combo_scores.append(
                    (
                        (lr, dropout, bf16),
                        sum(devs) / len(devs),
                        sum(tests) / len(tests),
                    )
                )
        if ok_runs == expected:
            best = min(
                combo_scores,
                key=lambda item: (-item[1], item[0][0], item[0][1], item[0][2]),
            )
            cells.append(
                CellResult(
                    model=model.name,
                    task=task.name,
                    expected_runs=expected,
                    ok_runs=ok_runs,
                    best_combo=best[0],
                    mean_dev=best[1],
                    mean_test=best[2],
                )
            )
        else:
            cells.append(
                CellResult(
                    model=model.name,
                    task=task.name,
                    expected_runs=expected,
                    ok_runs=ok_runs,
                    best_combo=None,
                    mean_dev=None,
                    mean_test=None,
                )
            )
    return cells


def render_cell_table(cells: Sequence[CellResult]) -> str:
    """Model-by-task grid with one aggregated value per cell."""
    models: list[str] = []
    tasks: list[str] = []
    for cell in cells:
        if cell.model not in models:
            models.append(cell.model)
        if cell.task not in tasks:
            tasks.append(cell.task)
    lookup = {(c.model, c.task): c for c in cells}
    header = ["model"] + tasks
    rows = []
    for model in models:
        row = [model]
        for task in tasks:
            cell = lookup.get((model, task))
            row.append(cell.display() if cell is not None else "-")
        rows.append(row)
    widths = [
        max(len(header[col]), *(len(r[col]) for r in rows)) if rows else len(header[col])
        for col in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(header))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip())
    return "\n".join(lines)


def render_cell_tsv(cells: Sequence[CellResult]) -> str:
    rows = [(c.model, c.task, c.display(), str(c.ok_runs), str(c.expected_runs)) for c in cells]
    return render_tsv_rows([("model", "task", "value", "ok_runs", "expected_runs"), *rows])
