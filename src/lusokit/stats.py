"""Per-corpus example and word counts plus table rendering.

Word counts use the shared whitespace-token definition so they agree
exactly with the curation measurements. Partial stats merge
associatively, which keeps counting parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Iterable

from lusokit.corpus_io import CorpusRecord
from lusokit.textutil import render_tsv_rows, word_count


class Scale(Enum):
    UNIT = "unit"
    MILLIONS_BILLIONS = "millions_billions"


@dataclass(frozen=True, slots=True)
class CorpusStats:
    dataset_name: str
    examples: int = 0
    words: int = 0

    def merged(self, other: "CorpusStats") -> "CorpusStats":
        return CorpusStats(
            dataset_name=self.dataset_name,
            examples=self.examples + other.examples,
            words=self.words + other.words,
        )


def count_stats(records: Iterable[CorpusRecord], name: str) -> CorpusStats:
    examples = 0
    words = 0
    for record in records:
        examples += 1
        words += word_count(record.text)
    return CorpusStats(dataset_name=name, examples=examples, words=words)


def scaled_value(count: int, divisor: int) -> str:
    """count/divisor to one decimal place with half-up rounding."""
    value = Decimal(count) / Decimal(divisor)
    return str(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _cells(stats: CorpusStats, scale: Scale) -> tuple[str, str, str]:
    if scale is Scale.MILLIONS_BILLIONS:
        return (
            stats.dataset_name,
            scaled_value(stats.examples, 1_000_000),
            scaled_value(stats.words, 1_000_000_000),
        )
    return (stats.dataset_name, str(stats.examples), str(stats.words))


def _header(scale: Scale) -> tuple[str, str, str]:
    if scale is Scale.MILLIONS_BILLIONS:
        return ("dataset", "examples (M)", "words (B)")
    return ("dataset", "examples", "words")


def render_report(stats: list[CorpusStats], scale: Scale = Scale.UNIT) -> str:
    """Aligned plain-text table, rows in input order."""
    rows = [_header(scale)] + [_cells(s, scale) for s in stats]
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    lines = []
    for i, row in enumerate(rows):
        name = row[0].ljust(widths[0])
        nums = "  ".join(cell.rjust(widths[col + 1]) for col, cell in enumerate(row[1:]))
        lines.append(f"{name}  {nums}".rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 4))
    return "\n".join(lines)


def render_tsv(stats: list[CorpusStats], scale: Scale = Scale.UNIT) -> str:
    """Machine-readable variant of render_report."""
    return render_tsv_rows([_header(scale)] + [_cells(s, scale) for s in stats])
