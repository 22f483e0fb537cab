"""Ordered process fan-out: order, read-ahead bound, worker count, errors,
worker lifetime."""

import os
import signal
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


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def chunk_list(n):
    """A chunks callable: each call yields [0], [1], ..., [n - 1] afresh."""
    return lambda: ([i] for i in range(n))


def slow_square(chunk):
    # later chunks finish first, so order must come from the fan-out
    time.sleep(0.002 * (10 - chunk[0] % 10))
    return [x * x for x in chunk], os.getpid()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_in_input_order(monkeypatch, forks, cpus):
    monkeypatch.setattr(fanout, "cpu_count", lambda: cpus)
    results = [squares for squares, _pid in fanout.process_map(slow_square, chunk_list(25))]
    assert results == [[i * i] for i in range(25)]
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert_reaped(forks)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_no_chunk_starts_more_than_one_round_ahead(monkeypatch, forks, tmp_path, cpus):
    # Each result outgrows a pipe's capacity (64 KiB by default on Linux),
    # so a worker blocks on its pipe until its result is taken: once result
    # i is taken, no worker can have started a chunk past i + W.
    monkeypatch.setattr(fanout, "cpu_count", lambda: cpus)
    started = tmp_path / "started"
    started.touch()

    def big(chunk):
        fd = os.open(started, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, b"%d\n" % chunk[0])
        finally:
            os.close(fd)
        return chunk[0], bytes(1 << 20)

    for i, (index, payload) in enumerate(fanout.process_map(big, chunk_list(12))):
        assert index == i and len(payload) == 1 << 20
        assert max(map(int, started.read_text().split())) <= i + cpus
    assert sorted(map(int, started.read_text().split())) == list(range(12))
    assert_reaped(forks)


def test_never_more_workers_than_chunks(monkeypatch, forks):
    monkeypatch.setattr(fanout, "cpu_count", lambda: 3)
    results = list(fanout.process_map(slow_square, lambda: [[1], [2]]))
    assert [squares for squares, _ in results] == [[1], [4]]
    assert len(forks) == 2
    assert {pid for _, pid in results} <= set(forks)


def test_one_chunk_runs_in_this_process(monkeypatch, forks):
    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    assert list(fanout.process_map(slow_square, lambda: [[3]])) == [([9], os.getpid())]
    assert list(fanout.process_map(slow_square, lambda: [])) == []
    assert forks == []


def test_worker_state_lasts_for_the_worker(monkeypatch, forks):
    # a closure's state is copied into each worker and kept between its chunks
    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    seen = []

    def count_calls(chunk):
        seen.append(chunk)
        return os.getpid(), len(seen)

    results = list(fanout.process_map(count_calls, chunk_list(12)))
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
    with pytest.raises(DataError, match="chunk 3 is bad") as raised:
        for result in fanout.process_map(fail_on_three, chunk_list(8)):
            got.append(result)
    assert got == [[0], [1], [2]]
    assert len(forks) == 2
    assert_reaped(forks)
    # the worker's own traceback comes along as the cause
    assert f"in worker process {forks[1]}:" in str(raised.value.__cause__)
    assert "in fail_on_three" in str(raised.value.__cause__)


class Unloadable(Exception):
    def __init__(self, chunk, why):  # pickles, but cannot be rebuilt from its args
        super().__init__(f"chunk {chunk}: {why}")


def test_unpicklable_worker_exception_arrives_as_its_repr(monkeypatch, forks):
    def fail(chunk):
        raise Unloadable(chunk[0], "no good")

    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match=r"Unloadable\('chunk 0: no good'\)"):
        list(fanout.process_map(fail, chunk_list(4)))
    assert_reaped(forks)


def test_reading_error_reraised_at_its_position(monkeypatch, forks):
    # every worker reads the input, so each meets the error at the same chunk
    def chunks():
        yield from ([i] for i in range(5))
        raise DataError("input cut short")

    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    got = []
    with pytest.raises(DataError, match="input cut short"):
        for squares, _pid in fanout.process_map(slow_square, chunks):
            got.append(squares)
    assert got == [[0], [1], [4], [9], [16]]
    assert_reaped(forks)


def test_consumer_closing_early_reaps_every_worker(monkeypatch, forks):
    monkeypatch.setattr(fanout, "cpu_count", lambda: 3)
    results = fanout.process_map(slow_square, chunk_list(30))
    assert next(results)[0] == [0]
    results.close()
    assert len(forks) == 3
    assert_reaped(forks)


def test_interrupt_while_waiting_stops_and_reaps_every_worker(monkeypatch, forks):
    # the workers' chunks would take 30 s; an interrupt must not wait for them
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    def sleepy(chunk):
        time.sleep(30)
        return chunk

    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # a forked child inherits no timer
        with pytest.raises(KeyboardInterrupt):
            list(fanout.process_map(sleepy, chunk_list(4)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    assert len(forks) == 2
    assert_reaped(forks)


def test_dead_worker_raises_with_its_exit_status(monkeypatch, forks):
    parent = os.getpid()

    def dying(chunk):
        if chunk == [3] and os.getpid() != parent:
            os._exit(3)
        return chunk

    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    got = []
    with pytest.raises(RuntimeError, match=r"terminated abruptly \(exit code 3\)"):
        for result in fanout.process_map(dying, chunk_list(8)):
            got.append(result)
    assert got == [[0], [1], [2]]
    assert_reaped(forks)


def test_caller_with_threads_runs_in_this_process(monkeypatch, forks):
    # fork copies only the calling thread, with any lock another holds
    import threading

    monkeypatch.setattr(fanout, "cpu_count", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = list(fanout.process_map(slow_square, lambda: [[1], [2], [3]]))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert results == [([1], os.getpid()), ([4], os.getpid()), ([9], os.getpid())]
    assert forks == []
