"""Worker pool: strided shares, thread cap, usable-core default, BLAS pin."""

import os
import threading
import time
from concurrent.futures import Future

import pytest

from oamturb import DomainError
from oamturb import parallel
from oamturb.parallel import blas_threads, parallel_fill, resolve_workers


class RecordingExecutor:
    """A ThreadPoolExecutor stand-in that runs each task at submit, on the
    calling thread, and records the max_workers it was built with."""

    built: list[int] = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def executor(monkeypatch):
    RecordingExecutor.built = []
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingExecutor)
    return RecordingExecutor.built


def fill(n_items, n_workers):
    """Each index's slot, and the threads that filled them."""
    slots, threads = [None] * n_items, set()

    def worker(items, arrays):
        threads.add(threading.get_ident())
        for i in items:
            assert slots[i] is None
            slots[i] = i

    parallel_fill(n_items, worker, n_workers, lambda: None)
    return slots, threads


class TestParallelFill:
    @pytest.mark.parametrize("n_items,n_workers,threads", [
        (3, 500, 3), (100, 500, 100), (100, 2, 2), (7, 3, 3),
    ])
    def test_never_more_threads_than_spans(self, executor, n_items, n_workers, threads):
        slots, _ = fill(n_items, n_workers)
        assert slots == list(range(n_items))
        assert executor == [threads]

    @pytest.mark.parametrize("n_items,n_workers", [(1, 8), (5, 1), (0, 4)])
    def test_one_span_or_worker_runs_on_the_calling_thread(self, executor, n_items,
                                                           n_workers):
        slots, threads = fill(n_items, n_workers)
        assert slots == list(range(n_items))
        assert executor == []
        assert threads <= {threading.get_ident()}

    def test_real_pool_fills_every_slot(self):
        slots, _ = fill(50, 3)
        assert slots == list(range(50))

    @pytest.mark.parametrize("n_items,n_workers,sets", [(40, 3, 3), (40, 1, 1), (1, 4, 1)])
    def test_each_running_span_has_its_own_work_arrays(self, n_items, n_workers, sets):
        made, busy, seen = [], set(), set()

        def work():
            made.append(threading.get_ident())
            return [len(made)]

        def worker(items, arrays):
            assert arrays[0] not in busy
            busy.add(arrays[0])
            seen.add(arrays[0])
            time.sleep(0.001)  # let another share start meanwhile
            busy.discard(arrays[0])

        parallel_fill(n_items, worker, n_workers, work)
        assert made == [threading.get_ident()] * sets
        assert seen <= set(range(1, sets + 1))

    @pytest.mark.parametrize("n_items,n_workers", [(10, 3), (2, 2), (7, 4), (3, 500)])
    def test_thread_t_runs_once_over_every_n_threads_th_index_from_t(
            self, executor, n_items, n_workers):
        calls, made = [], iter(range(n_items))
        parallel_fill(n_items, lambda items, arrays: calls.append((items, arrays)),
                      n_workers, lambda: next(made))
        n_threads = min(n_workers, n_items)
        assert executor == [n_threads]
        assert calls == [(range(t, n_items, n_threads), t) for t in range(n_threads)]

    def test_shares_run_at_once_on_their_own_threads(self):
        together = threading.Barrier(3, timeout=30)  # broken unless all 3 run at once
        calls = []

        def worker(items, arrays):
            calls.append((items, threading.get_ident()))
            together.wait()

        parallel_fill(9, worker, 3, lambda: None)
        assert sorted(items.start for items, _ in calls) == [0, 1, 2]
        assert len({ident for _, ident in calls}) == 3

    def test_zero_means_every_usable_core(self, executor):
        cores = len(os.sched_getaffinity(0))
        assert resolve_workers(0) == cores
        assert resolve_workers(3) == 3
        fill(1000, 0)
        assert executor == ([cores] if cores > 1 else [])

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError, match="got -1"):
            resolve_workers(-1)
        with pytest.raises(DomainError):
            parallel_fill(4, lambda items, arrays: None, -2, lambda: None)


needs_blas_calls = pytest.mark.skipif(
    parallel._thread_calls() is None,
    reason="numpy's BLAS exports no thread-count calls")


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at 2 threads for the test, so that a pin to 1 shows."""
    _, put = parallel._thread_calls()
    old = blas_threads()
    put(2)
    yield 2
    put(old)


@needs_blas_calls
class TestBlasPin:
    def test_pool_holds_one_thread_and_restores(self, two_blas_threads):
        seen = []

        def worker(items, arrays):
            seen.append(blas_threads())

        parallel_fill(8, worker, 2, lambda: None)
        assert seen and set(seen) == {1}
        assert blas_threads() == two_blas_threads

    def test_serial_run_leaves_the_count(self, two_blas_threads):
        seen = []
        parallel_fill(8, lambda items, arrays: seen.append(blas_threads()), 1,
                      lambda: None)
        assert set(seen) == {two_blas_threads}

    def test_count_restored_after_an_exception(self, two_blas_threads):
        def worker(items, arrays):
            if items.start > 0:
                raise ValueError("span failed")

        with pytest.raises(ValueError, match="span failed"):
            parallel_fill(8, worker, 2, lambda: None)
        assert blas_threads() == two_blas_threads


def test_missing_symbol_is_harmless(monkeypatch):
    before = blas_threads()
    monkeypatch.setattr(parallel, "_THREAD_SYMBOLS", ("no_such_get", "no_such_set"))
    parallel._thread_calls.cache_clear()
    try:
        assert blas_threads() is None
        slots, _ = fill(20, 2)
        assert slots == list(range(20))
    finally:
        parallel._thread_calls.cache_clear()
    monkeypatch.undo()
    assert blas_threads() == before
