"""Hyperparameter grid, model roster, and run-matrix construction.

A full sweep is the cross product of model roster x applicable tasks x
hyperparameter combinations x seeds. Applicability drops tasks whose
language variant the model was not trained for and multiple-choice
tasks on models whose head layout cannot score paired choices.

build_matrix is the one place that enumerates the runs: `run`, `matrix`
and `report` all take their runs from it. RunConfig's fields are the
one list of what a run is: its key, its store record and the trainer
template's placeholders all derive from them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import product
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


# The swept axes. Fixed training settings (epochs, batch size, scheduler,
# warmup, optimizer) belong to the trainer.
LEARNING_RATES = (1e-5, 5e-5, 1e-6)
DROPOUTS = (0.0, 0.1)
BF16_OPTIONS = (False, True)
SEEDS = (41, 42, 43)


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
    """Identity of a single fine-tuning run. The field order is part of
    the run key: reordering the fields changes every key."""

    model: str
    task: str
    lr: float
    dropout: float
    bf16: bool
    seed: int
    split_seed: int

    def key_fields(self) -> dict[str, str]:
        """Canonical string form of each field, by name, in field order;
        used for hashing and command building. A float's str is its
        shortest round-trip repr; bf16 reads true/false."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {
            name: ("true" if value else "false") if isinstance(value, bool) else str(value)
            for name, value in values
        }

    @cached_property
    def run_key(self) -> str:
        """Stable 16-hex-digit identity of the run, hashed once per config."""
        joined = "\x1f".join(self.key_fields().values())
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {"run_key": self.run_key, **{f.name: getattr(self, f.name) for f in fields(self)}}


def make_run_key(cfg: RunConfig) -> str:
    """Stable 16-hex-digit identity for one run."""
    return cfg.run_key


def _iter_cells(
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
    split_seed: int = DEFAULT_SPLIT_SEED,
) -> list[RunConfig]:
    """Expand roster x tasks x axes into concrete run configs, in cell
    order, then learning rate, dropout, bf16 and seed, the last varying
    fastest."""
    task_list = list(tasks) if tasks is not None else list(TASKS.values())
    runs = [
        RunConfig(model.name, task.name, lr, dropout, bf16, seed, split_seed)
        for model, task in _iter_cells(models, task_list)
        for lr, dropout, bf16, seed in product(LEARNING_RATES, DROPOUTS, BF16_OPTIONS, SEEDS)
    ]
    if len({run.run_key for run in runs}) != len(runs):
        raise ConfigurationError("run matrix produced colliding run keys")
    return runs
