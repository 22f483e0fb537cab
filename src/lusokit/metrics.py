"""Evaluation metrics: accuracy, F1 (binary and macro), Pearson r.

Pearson over a constant vector has no defined value; rather than guess,
score functions return the UNDEFINED sentinel and let callers decide
how to report it.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence


class EvalPair(NamedTuple):
    """One scored example: gold label first, prediction second."""

    gold: object
    pred: object


class _Undefined:
    """Singleton marker for metrics with no defined value on the input."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


def _as_pairs(pairs: Iterable) -> list[EvalPair]:
    out = [EvalPair(*p) for p in pairs]
    if not out:
        raise ValueError("cannot score an empty pair list")
    return out


def accuracy(pairs: Iterable) -> float:
    """Fraction of pairs whose prediction equals the gold label."""
    items = _as_pairs(pairs)
    hits = sum(1 for gold, pred in items if gold == pred)
    return hits / len(items)


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_binary(pairs: Iterable, positive: object = 1) -> float:
    """F1 of the positive class (label 1 unless overridden)."""
    items = _as_pairs(pairs)
    tp = sum(1 for g, p in items if g == positive and p == positive)
    fp = sum(1 for g, p in items if g != positive and p == positive)
    fn = sum(1 for g, p in items if g == positive and p != positive)
    return _f1_from_counts(tp, fp, fn)


def f1_macro(pairs: Iterable, classes: Sequence) -> float:
    """Mean per-class F1 over an explicit class list.

    A class that appears in neither gold nor predictions contributes a
    perfect 1.0: nothing was there to get wrong.
    """
    if not classes:
        raise ValueError("macro F1 needs a non-empty class list")
    if len(set(classes)) != len(classes):
        raise ValueError("macro F1 class list has duplicates")
    items = _as_pairs(pairs)
    scores = []
    for cls in classes:
        tp = sum(1 for g, p in items if g == cls and p == cls)
        fp = sum(1 for g, p in items if g != cls and p == cls)
        fn = sum(1 for g, p in items if g == cls and p != cls)
        if tp + fp + fn == 0:
            scores.append(1.0)
        else:
            scores.append(_f1_from_counts(tp, fp, fn))
    return sum(scores) / len(scores)


def pearson(xs: Sequence[float], ys: Sequence[float]):
    """Pearson correlation of two equal-length numeric vectors.

    Returns UNDEFINED when either vector has zero variance. Sums use
    math.fsum and the result is clamped to [-1, 1] so rounding noise
    never pushes it out of range.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 points for correlation, got {n}")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [float(x) - mean_x for x in xs]
    dy = [float(y) - mean_y for y in ys]
    top_x = max(map(abs, dx))
    top_y = max(map(abs, dy))
    if top_x == 0.0 or top_y == 0.0:
        return UNDEFINED
    # r is scale-free. Scaling each side by the power of two that brings
    # its largest deviation near 1 keeps the squares clear of float
    # underflow and overflow, and is exact, so other inputs keep their r.
    dx = [math.ldexp(d, -math.frexp(top_x)[1]) for d in dx]
    dy = [math.ldexp(d, -math.frexp(top_y)[1]) for d in dy]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    cov = math.fsum(a * b for a, b in zip(dx, dy))
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def score(metric_name: str, pairs: Iterable, classes: Sequence | None = None):
    """Dispatch by metric name: accuracy, f1_binary, f1_macro, pearson."""
    if metric_name == "accuracy":
        return accuracy(pairs)
    if metric_name == "f1_binary":
        return f1_binary(pairs)
    if metric_name == "f1_macro":
        items = _as_pairs(pairs)
        if classes is None:
            classes = sorted({g for g, _ in items} | {p for _, p in items})
        return f1_macro(items, classes)
    if metric_name == "pearson":
        items = _as_pairs(pairs)
        return pearson([float(g) for g, _ in items], [float(p) for _, p in items])
    raise ValueError(f"unknown metric {metric_name!r}")
