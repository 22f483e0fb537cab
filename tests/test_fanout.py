"""Ordered process fan-out: order, in-flight bound, worker count, errors."""

import os
import time

import pytest

from lusokit import fanout
from lusokit.errors import DataError


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes forked in this test (workers fork through os.fork)."""
    started = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


def slow_square(chunk):
    # later chunks finish first, so order must come from the fan-out
    time.sleep(0.002 * (10 - chunk[0] % 10))
    return [x * x for x in chunk], os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_in_input_order_with_bounded_read_ahead(monkeypatch, forks, cpus):
    monkeypatch.setattr(fanout, "cpu_count", lambda: cpus)
    pulled = []

    def chunks():
        for i in range(25):
            pulled.append(i)
            yield [i, i + 100]

    results = []
    for i, (squares, _pid) in enumerate(fanout.process_map(slow_square, chunks())):
        # the chunk whose result this is, plus at most 2 per worker ahead
        assert len(pulled) <= i + 1 + 2 * cpus
        results.append(squares)
    assert results == [[i * i, (i + 100) ** 2] for i in range(25)]
    assert len(forks) == (cpus if cpus > 1 else 0)


def test_never_more_workers_than_chunks(monkeypatch, forks):
    monkeypatch.setattr(fanout, "cpu_count", lambda: 3)
    results = list(fanout.process_map(slow_square, [[1], [2]]))
    assert [squares for squares, _ in results] == [[1], [4]]
    assert len(forks) == 2
    assert {pid for _, pid in results} <= set(forks)


def test_one_chunk_runs_in_this_process(monkeypatch, forks):
    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    assert list(fanout.process_map(slow_square, [[3]])) == [([9], os.getpid())]
    assert list(fanout.process_map(slow_square, [])) == []
    assert forks == []


def test_worker_state_lasts_for_the_worker(monkeypatch, forks):
    # a closure's state is copied into each worker and kept between its chunks
    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    seen = []

    def count_calls(chunk):
        seen.append(chunk)
        return os.getpid(), len(seen)

    results = list(fanout.process_map(count_calls, [[i] for i in range(12)]))
    per_worker = {}
    for pid, calls in results:
        per_worker.setdefault(pid, []).append(calls)
    assert set(per_worker) <= set(forks)
    for calls in per_worker.values():
        assert calls == list(range(1, len(calls) + 1))
    assert seen == []


def fail_on_three(chunk):
    if chunk == [3]:
        raise DataError("chunk 3 is bad")
    return chunk


def test_worker_exception_reraised(monkeypatch, forks):
    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    got = []
    with pytest.raises(DataError, match="chunk 3 is bad"):
        for result in fanout.process_map(fail_on_three, [[i] for i in range(8)]):
            got.append(result)
    assert got == [[0], [1], [2]]
    assert len(forks) == 2


def test_caller_with_threads_runs_in_this_process(monkeypatch, forks):
    # fork copies only the calling thread, with any lock another holds
    import threading

    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = list(fanout.process_map(slow_square, [[1], [2], [3]]))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert results == [([1], os.getpid()), ([4], os.getpid()), ([9], os.getpid())]
    assert forks == []
