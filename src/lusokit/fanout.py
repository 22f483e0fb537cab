"""Fan-out loops: threads for the MT batcher and the run-matrix executor,
forked processes for the corpus commands (ingest through pack), which
read their own chunks and send back only results, each over its own pipe."""

from __future__ import annotations

import os
import threading
from itertools import cycle, islice
from typing import Callable, Iterable, Iterator, TypeVar

from lusokit.errors import WorkerDied

T = TypeVar("T")
R = TypeVar("R")


def fan_out(fn: Callable[[T], R], items: Iterable[T], max_workers: int) -> Iterator[R]:
    """Yield fn(item) for every item, in the order the calls finish.

    At most max_workers calls are submitted at a time, so one worker
    runs the items in order. A call's exception is re-raised here before
    another item is submitted: after a failure only the calls already
    running complete, and no new one starts.
    """
    # imported here: every corpus command loads this module for
    # process_map, which needs no thread pool
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

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


def process_map(fn: Callable[[T], R], chunks: Callable[[], Iterable[T]]) -> Iterator[R]:
    """Yield fn(chunk) for every chunk chunks() yields, in input order, from forked workers.

    chunks is called once here and once in each worker, and every call
    must yield the same chunks. Workers are forked, one per CPU in
    cpu_count() but never more than there are chunks, so fn may be a
    closure over the caller's state (a vocabulary, a config) and each
    worker keeps its own copy of that state for its lifetime (a memo fn
    fills lasts as long as the worker). Worker w of W calls chunks()
    itself and runs fn on each chunk whose index is w mod W; only results
    cross back, pickled onto the worker's own pipe, which this process
    reads round-robin. A worker blocks while its pipe is full, so it
    holds at most one chunk and one pipe's capacity of results whatever
    the input's length, and this process holds one result.

    A one-chunk input, one CPU, a platform without fork, or a caller
    that runs other threads (fork would copy their held locks) calls fn
    in this process instead, with the same results. An exception fn
    raises in a worker is re-raised here after every earlier result,
    caused by a RuntimeError holding the worker's traceback (and is
    itself a RuntimeError carrying its repr if it cannot be pickled); a
    worker that dies raises WorkerDied, saying it terminated abruptly.
    Every worker is reaped before this generator ends, raises or is
    closed.
    """
    cpus = cpu_count()
    if cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield from map(fn, chunks())
        return
    todo = iter(chunks())
    head = list(islice(todo, 1))
    workers = len(head) + sum(1 for _ in islice(todo, cpus - 1))
    if workers < 2:
        yield from map(fn, head)
        return
    del head
    close = getattr(todo, "close", None)
    if close is not None:  # the workers read the input themselves
        close()
    # imported here: an input of one chunk needs neither
    import pickle
    import signal

    pids: dict[int, int] = {}  # worker -> pid, until reaped
    pipes: list = []
    finished = False
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # worker w: it never returns into the caller's stack
                code = 1
                try:
                    # The read ends it inherited: a worker blocked on a full
                    # pipe gets EPIPE, once its reader is gone, only if no
                    # other process holds that pipe's read end.
                    os.close(read_end)
                    for pipe in pipes:
                        pipe.close()
                    _serve(fn, chunks, w, workers, write_end)
                    code = 0
                finally:
                    os._exit(code)
            pids[w] = pid
            os.close(write_end)
            pipes.append(os.fdopen(read_end, "rb"))
        for w in cycle(range(workers)):
            try:
                message = pickle.load(pipes[w])
            except (EOFError, pickle.UnpicklingError):
                pipes[w].close()
                pid = pids.pop(w)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise WorkerDied(f"worker process {pid} terminated abruptly ({how})") from None
            if message is None:  # worker w has no chunk left, so no worker has
                break
            ok, value = message
            if not ok:
                error, trace = value
                raise error from RuntimeError(f"in worker process {pids[w]}:\n{trace}")
            yield value
        finished = True
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids.values():
            if not finished:  # an error, or the consumer stopped: the rest is not needed
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn: Callable, chunks: Callable[[], Iterable], w: int, workers: int, write_end: int) -> None:
    """Worker w's loop: (True, fn(chunk)) for each of its chunks, then None
    (no chunk left), or a _failure as its last message."""
    import pickle

    with os.fdopen(write_end, "wb") as pipe:
        try:
            for i, chunk in enumerate(chunks()):
                if i % workers == w:
                    pipe.write(pickle.dumps((True, fn(chunk)), pickle.HIGHEST_PROTOCOL))
                    pipe.flush()  # the parent may be waiting for exactly this result
            pipe.write(pickle.dumps(None))
        except BaseException as exc:
            pipe.write(_failure(exc))
            raise


def _failure(exc: BaseException) -> bytes:
    """(False, (exc, its traceback's text)): a pickle drops the traceback."""
    import pickle
    import traceback

    trace = "".join(traceback.format_exception(exc))
    try:
        message = pickle.dumps((False, (exc, trace)), pickle.HIGHEST_PROTOCOL)
        pickle.loads(message)  # an exception class may pickle but not unpickle
        return message
    except Exception:
        return pickle.dumps((False, (RuntimeError(repr(exc)), trace)), pickle.HIGHEST_PROTOCOL)
