"""Evaluation task registry, example schemas, and deterministic splits.

Each task declares which language variants it exists for, the text
fields an example must carry, its label kind, and the metric its scores
are reported with. Tasks that ship without a public test set are split
90/10 into train/dev here, deterministically by seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from lusokit.errors import DataError
from lusokit.textutil import utf8_lines
from lusokit.variants import Variant


class LabelKind(Enum):
    BINARY = "binary"
    CHOICE_OF_TWO = "choice_of_two"
    THREE_CLASS = "three_class"
    REAL_0_5 = "real_0_5"


class Metric(Enum):
    ACCURACY = "accuracy"
    F1_BINARY = "f1_binary"
    F1_MACRO = "f1_macro"
    PEARSON = "pearson"


THREE_CLASS_LABELS = frozenset({"entailment", "contradiction", "neutral"})

BOTH_VARIANTS = frozenset({Variant.PTPT, Variant.PTBR})


@dataclass(frozen=True)
class TaskSpec:
    """Static description of one evaluation task."""

    name: str
    variants: frozenset[Variant]
    label_kind: LabelKind
    metric: Metric
    text_fields: tuple[str, ...]

    @property
    def requires_multichoice(self) -> bool:
        """Whether a model must score paired choices to run this task."""
        return self.label_kind is LabelKind.CHOICE_OF_TWO


TASKS: dict[str, TaskSpec] = {
    spec.name: spec
    for spec in (
        TaskSpec(
            name="assin2-rte",
            variants=frozenset({Variant.PTBR}),
            label_kind=LabelKind.BINARY,
            metric=Metric.ACCURACY,
            text_fields=("premise", "hypothesis"),
        ),
        TaskSpec(
            name="assin2-sts",
            variants=frozenset({Variant.PTBR}),
            label_kind=LabelKind.REAL_0_5,
            metric=Metric.PEARSON,
            text_fields=("premise", "hypothesis"),
        ),
        TaskSpec(
            name="rte",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.BINARY,
            metric=Metric.ACCURACY,
            text_fields=("sentence1", "sentence2"),
        ),
        TaskSpec(
            name="wnli",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.BINARY,
            metric=Metric.ACCURACY,
            text_fields=("sentence1", "sentence2"),
        ),
        TaskSpec(
            name="mrpc",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.BINARY,
            metric=Metric.F1_BINARY,
            text_fields=("sentence1", "sentence2"),
        ),
        TaskSpec(
            name="stsb",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.REAL_0_5,
            metric=Metric.PEARSON,
            text_fields=("sentence1", "sentence2"),
        ),
        TaskSpec(
            name="copa",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.CHOICE_OF_TWO,
            metric=Metric.ACCURACY,
            text_fields=("premise", "choice1", "choice2", "question"),
        ),
        TaskSpec(
            name="cb",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.THREE_CLASS,
            metric=Metric.F1_MACRO,
            text_fields=("premise", "hypothesis"),
        ),
        TaskSpec(
            name="multirc",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.BINARY,
            metric=Metric.F1_BINARY,
            text_fields=("paragraph", "question", "answer"),
        ),
        TaskSpec(
            name="boolq",
            variants=BOTH_VARIANTS,
            label_kind=LabelKind.BINARY,
            metric=Metric.ACCURACY,
            text_fields=("passage", "question"),
        ),
    )
}


@dataclass(frozen=True)
class TaskExample:
    """One labelled example: free-text fields plus a task-typed label."""

    example_id: str
    fields: dict[str, str]
    label: object


@dataclass(frozen=True)
class Violation:
    example_id: str
    field: str
    message: str


def _check_label(spec: TaskSpec, label: object) -> str | None:
    kind = spec.label_kind
    if kind in (LabelKind.BINARY, LabelKind.CHOICE_OF_TWO):
        if isinstance(label, bool) or not isinstance(label, int) or label not in (0, 1):
            return f"label must be integer 0 or 1, got {label!r}"
        return None
    if kind is LabelKind.THREE_CLASS:
        if label not in THREE_CLASS_LABELS:
            return f"label must be one of {sorted(THREE_CLASS_LABELS)}, got {label!r}"
        return None
    if kind is LabelKind.REAL_0_5:
        if isinstance(label, bool) or not isinstance(label, (int, float)):
            return f"label must be a number in [0, 5], got {label!r}"
        if not 0.0 <= float(label) <= 5.0:
            return f"label must be within [0, 5], got {label!r}"
        return None
    raise AssertionError(f"unhandled label kind {kind}")


def validate_examples(
    examples: Iterable[TaskExample], spec: TaskSpec
) -> tuple[int, list[Violation]]:
    """Count schema-clean examples; collect one violation per bad field."""
    valid = 0
    violations: list[Violation] = []
    for ex in examples:
        ok = True
        for name in spec.text_fields:
            value = ex.fields.get(name)
            if not isinstance(value, str) or not value.strip():
                violations.append(
                    Violation(ex.example_id, name, "missing or empty text field")
                )
                ok = False
        problem = _check_label(spec, ex.label)
        if problem is not None:
            violations.append(Violation(ex.example_id, "label", problem))
            ok = False
        if ok:
            valid += 1
    return valid, violations


def read_jsonl_rows(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of a JSONL file.

    A line (up to its "\n") that is not UTF-8 or not JSON raises DataError
    with its line number; what a row must hold is the caller's check.
    """
    for line_no, line in enumerate(utf8_lines(path, DataError), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
        yield line_no, obj


def read_task_examples(path: str | Path) -> list[TaskExample]:
    """Load a line-delimited task file.

    Structural breakage (bad JSON, non-object rows, missing/ill-typed id)
    raises DataError with the line number; schema checks against a task
    are validate_examples' job.
    """
    examples: list[TaskExample] = []
    for line_no, obj in read_jsonl_rows(path):
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{line_no}: row is not an object")
        example_id = obj.get("id")
        if not isinstance(example_id, str) or not example_id:
            raise DataError(f"{path}:{line_no}: missing or invalid 'id'")
        if "label" not in obj:
            raise DataError(f"{path}:{line_no}: missing 'label'")
        fields = {
            k: v
            for k, v in obj.items()
            if k not in ("id", "label") and isinstance(v, str)
        }
        examples.append(
            TaskExample(example_id=example_id, fields=fields, label=obj["label"])
        )
    return examples


def write_task_examples(path: str | Path, examples: Iterable[TaskExample]) -> int:
    count = 0
    with Path(path).open("w", encoding="utf-8") as out:
        for ex in examples:
            obj = {"id": ex.example_id}
            obj.update(ex.fields)
            obj["label"] = ex.label
            out.write(json.dumps(obj, ensure_ascii=False) + "\n")
            count += 1
    return count


@dataclass(frozen=True)
class SplitResult:
    """Train/dev partition of a dataset, order within halves shuffled."""

    train: tuple[TaskExample, ...]
    dev: tuple[TaskExample, ...]


def train_size_90_10(n: int) -> int:
    """Train share of an N-example 90/10 split.

    Exact integer arithmetic, half rounds up, then clamped so both
    halves keep at least one example.
    """
    if n < 2:
        raise ValueError(f"need at least 2 examples to split, got {n}")
    train = (9 * n + 5) // 10
    return max(1, min(train, n - 1))


def split_90_10(examples: Sequence[TaskExample], seed: int) -> SplitResult:
    """Deterministic 90/10 train/dev split.

    Shuffles index positions with random.Random(seed), so the same
    inputs and seed always produce the same partition, and every
    example lands in exactly one half.
    """
    n = len(examples)
    n_train = train_size_90_10(n)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    train = tuple(examples[i] for i in indices[:n_train])
    dev = tuple(examples[i] for i in indices[n_train:])
    return SplitResult(train=train, dev=dev)
