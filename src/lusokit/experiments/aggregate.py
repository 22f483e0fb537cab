"""Result aggregation: model-selection-on-dev summary tables.

The report's cells are build_matrix's runs grouped by (model, task),
and each cell's combinations are its runs grouped by (lr, dropout,
bf16), so the report expects exactly the runs that `run` executes. The
winning combination of a cell is the one with the highest dev score
averaged over seeds; ties fall to the lower learning rate, then lower
dropout, then mixed precision off. The reported number is the winner's
mean test score. Cells missing any run stay honest: they render as
'n.a.' with the missing-run count instead of an average over whatever
happened to finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from lusokit import DEFAULT_SPLIT_SEED
from lusokit.benchmarks import TaskSpec
from lusokit.experiments.grid import HyperGrid, ModelEntry, build_matrix
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
    split_seed: int = DEFAULT_SPLIT_SEED,
) -> list[CellResult]:
    """Summarize stored results over the expected run matrix."""
    cells: dict[tuple[str, str], dict[tuple[float, float, bool], list]] = {}
    for run in build_matrix(models, tasks, grid, split_seed):
        rec = records.get(run.run_key)
        ok = rec is not None and rec.get("status") == STATUS_OK
        combos = cells.setdefault((run.model, run.task), {})
        combos.setdefault((run.lr, run.dropout, run.bf16), []).append(
            (float(rec["dev"]), float(rec["test"])) if ok else None
        )
    results = []
    for (model, task), combos in cells.items():
        expected = sum(len(scores) for scores in combos.values())
        ok_runs = sum(s is not None for scores in combos.values() for s in scores)
        best = (None, None, None)
        if ok_runs == expected:
            means = [
                (combo, sum(d for d, _ in scores) / len(scores),
                 sum(t for _, t in scores) / len(scores))
                for combo, scores in combos.items()
            ]
            best = min(means, key=lambda item: (-item[1], *item[0]))
        results.append(CellResult(model, task, expected, ok_runs, *best))
    return results


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
