"""Fan-out loops: threads for the MT batcher and the run-matrix executor,
forked processes for the CPU-bound corpus commands (curate, pack)."""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from itertools import chain, islice
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


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The chunk function of the pool in this worker process; set once by
# _install when the worker starts.
_worker_fn: Callable | None = None


def _install(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_installed(chunk):
    return _worker_fn(chunk)


def process_map(fn: Callable[[T], R], chunks: Iterable[T]) -> Iterator[R]:
    """Yield fn(chunk) for every chunk, in input order, from forked workers.

    Workers are forked, one per CPU in cpu_count() but never more than
    there are chunks, so fn may be a closure over the caller's state (a
    vocabulary, a config) and each worker keeps its own copy of that
    state for its lifetime (a memo fn fills lasts as long as the worker).
    Only chunks and results are pickled. At most two chunks per worker
    are in flight, so memory stays bounded whatever the input's length.

    A one-chunk input, one CPU, a platform without fork, or a caller
    that runs other threads (fork would copy their held locks) calls fn
    in this process instead, with the same results. An exception fn
    raises in a worker is re-raised here; a worker that dies raises
    concurrent.futures.process.BrokenProcessPool instead of hanging.
    """
    todo = iter(chunks)
    cpus = cpu_count()
    head = list(islice(todo, max(2, cpus)))
    todo = chain(head, todo)
    if len(head) < 2 or cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield from map(fn, todo)
        return

    # imported here: translate and run load this module for fan_out only
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(cpus, len(head))
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install,
        initargs=(fn,),
    )
    pending: deque = deque()
    try:
        for chunk in todo:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_call_installed, chunk))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
