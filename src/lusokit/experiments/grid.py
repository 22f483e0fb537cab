"""Hyperparameter grid, model roster, and run-matrix construction.

A full sweep is the cross product of model roster x applicable tasks x
hyperparameter combinations x seeds. Applicability drops tasks whose
language variant the model was not trained for and multiple-choice
tasks on models whose head layout cannot score paired choices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import yaml

from lusokit import DEFAULT_SPLIT_SEED
from lusokit.benchmarks import TASKS, TaskSpec
from lusokit.errors import ConfigurationError
from lusokit.variants import Variant


class SizeClass(Enum):
    S100M = "100m"
    S335M = "335m"
    S900M = "900m"
    S1B5 = "1.5b"


@dataclass(frozen=True)
class HyperGrid:
    """Sweep definition: fixed settings plus the swept axes."""

    epochs: int = 5
    batch_size: int = 4
    learning_rates: tuple[float, ...] = (1e-5, 5e-5, 1e-6)
    scheduler: str = "linear"
    warmup_ratio: float = 0.1
    adam_epsilon: float = 1e-6
    weight_decay: float = 0.01
    dropouts: tuple[float, ...] = (0.0, 0.1)
    bf16_options: tuple[bool, ...] = (False, True)
    seeds: tuple[int, ...] = (41, 42, 43)

    def __post_init__(self) -> None:
        for name in ("learning_rates", "dropouts", "bf16_options", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"grid axis {name} must be non-empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"grid axis {name} has duplicates")

    def combos(self) -> Iterator[tuple[float, float, bool]]:
        """(lr, dropout, bf16) tuples, learning rate varying slowest."""
        for lr in self.learning_rates:
            for dropout in self.dropouts:
                for bf16 in self.bf16_options:
                    yield (lr, dropout, bf16)

    @property
    def combo_count(self) -> int:
        return len(self.learning_rates) * len(self.dropouts) * len(self.bf16_options)

    @property
    def runs_per_cell(self) -> int:
        return self.combo_count * len(self.seeds)


@dataclass(frozen=True)
class ModelEntry:
    """One checkpoint in the roster."""

    name: str
    variant: Variant
    size_class: SizeClass
    supports_multichoice: bool

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("model name must be non-empty")
        if self.size_class is SizeClass.S100M and self.supports_multichoice:
            raise ConfigurationError(
                f"model {self.name}: the 100m size class cannot score "
                "paired-choice tasks"
            )


def load_roster(path: str | Path) -> list[ModelEntry]:
    """Read a model roster from YAML.

    Expected shape: {"models": [{"name": ..., "variant": "ptpt"|"ptbr",
    "size_class": ..., "supports_multichoice": bool?}, ...]}. The
    multichoice flag defaults to False for the 100m class and True
    otherwise.
    """
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"roster {path} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict) or "models" not in raw:
        raise ConfigurationError(f"roster {path} must be a mapping with a 'models' list")
    unknown = set(raw) - {"models"}
    if unknown:
        raise ConfigurationError(f"roster {path} has unknown keys: {sorted(unknown)}")
    entries_raw = raw["models"]
    if not isinstance(entries_raw, list) or not entries_raw:
        raise ConfigurationError(f"roster {path}: 'models' must be a non-empty list")
    allowed = {"name", "variant", "size_class", "supports_multichoice"}
    entries = []
    for i, item in enumerate(entries_raw):
        if not isinstance(item, dict):
            raise ConfigurationError(f"roster {path}: model #{i} is not a mapping")
        unknown = set(item) - allowed
        if unknown:
            raise ConfigurationError(
                f"roster {path}: model #{i} has unknown keys: {sorted(unknown)}"
            )
        try:
            variant = Variant(item["variant"])
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"roster {path}: model #{i} needs variant 'ptpt' or 'ptbr'"
            ) from None
        if variant is Variant.DISCARD:
            raise ConfigurationError(
                f"roster {path}: model #{i} cannot use the discard variant"
            )
        try:
            size_class = SizeClass(str(item["size_class"]))
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"roster {path}: model #{i} needs size_class in "
                f"{sorted(s.value for s in SizeClass)}"
            ) from None
        supports = item.get("supports_multichoice", size_class is not SizeClass.S100M)
        if not isinstance(supports, bool):
            raise ConfigurationError(
                f"roster {path}: model #{i} supports_multichoice must be boolean"
            )
        entries.append(
            ModelEntry(
                name=str(item.get("name", "")),
                variant=variant,
                size_class=size_class,
                supports_multichoice=supports,
            )
        )
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"roster {path} has duplicate model names")
    return entries


@dataclass(frozen=True)
class RunConfig:
    """Identity of a single fine-tuning run."""

    model: str
    task: str
    lr: float
    dropout: float
    bf16: bool
    seed: int
    split_seed: int

    def key_fields(self) -> tuple[str, ...]:
        """Canonical string forms used for hashing and command building."""
        return (
            self.model,
            self.task,
            repr(self.lr),
            repr(self.dropout),
            "true" if self.bf16 else "false",
            str(self.seed),
            str(self.split_seed),
        )

    def to_dict(self) -> dict:
        return {
            "run_key": make_run_key(self),
            "model": self.model,
            "task": self.task,
            "lr": self.lr,
            "dropout": self.dropout,
            "bf16": self.bf16,
            "seed": self.seed,
            "split_seed": self.split_seed,
        }


def make_run_key(cfg: RunConfig) -> str:
    """Stable 16-hex-digit identity for one run."""
    joined = "\x1f".join(cfg.key_fields())
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def iter_cells(
    models: Sequence[ModelEntry], tasks: Iterable[TaskSpec]
) -> Iterator[tuple[ModelEntry, TaskSpec]]:
    """(model, task) pairs that are actually runnable.

    Skips tasks outside the model's variant and paired-choice tasks on
    models that cannot score them.
    """
    for model in models:
        for task in tasks:
            if model.variant not in task.variants:
                continue
            if task.requires_multichoice and not model.supports_multichoice:
                continue
            yield model, task


def build_matrix(
    models: Sequence[ModelEntry],
    tasks: Iterable[TaskSpec] | None = None,
    grid: HyperGrid | None = None,
    split_seed: int = DEFAULT_SPLIT_SEED,
) -> list[RunConfig]:
    """Expand roster x tasks x grid x seeds into concrete run configs."""
    task_list = list(tasks) if tasks is not None else list(TASKS.values())
    grid = grid if grid is not None else HyperGrid()
    runs = []
    for model, task in iter_cells(models, task_list):
        for lr, dropout, bf16 in grid.combos():
            for seed in grid.seeds:
                runs.append(
                    RunConfig(
                        model=model.name,
                        task=task.name,
                        lr=lr,
                        dropout=dropout,
                        bf16=bf16,
                        seed=seed,
                        split_seed=split_seed,
                    )
                )
    keys = [make_run_key(r) for r in runs]
    if len(set(keys)) != len(keys):
        raise ConfigurationError("run matrix produced colliding run keys")
    return runs


def expected_run_count(
    models: Sequence[ModelEntry],
    tasks: Iterable[TaskSpec] | None = None,
    grid: HyperGrid | None = None,
) -> int:
    """Matrix size without materializing the configs."""
    task_list = list(tasks) if tasks is not None else list(TASKS.values())
    grid = grid if grid is not None else HyperGrid()
    cells = sum(1 for _ in iter_cells(models, task_list))
    return cells * grid.runs_per_cell
