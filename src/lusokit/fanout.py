"""Thread fan-out shared by the MT batcher and the run-matrix executor."""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fan_out(fn: Callable[[T], R], items: Iterable[T], max_workers: int) -> Iterator[R]:
    """Yield fn(item) for every item, in the order the calls finish.

    At most max_workers calls are submitted at a time, so one worker
    runs the items in order. A call's exception is re-raised here before
    another item is submitted: after a failure only the calls already
    running complete, and no new one starts.
    """
    todo = iter(items)
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        running = {pool.submit(fn, item) for item in islice(todo, max_workers)}
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()
            running |= {pool.submit(fn, item) for item in islice(todo, len(done))}
