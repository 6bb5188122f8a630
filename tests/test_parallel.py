"""Worker pool: strided shares, thread cap, usable-core default, BLAS pin."""

import os
import sys
import threading
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
    """Every item's result, and the threads that ran the items."""
    threads = set()

    def item(i, arrays):
        threads.add(threading.get_ident())
        return i, f"item {i}"

    return parallel_fill(n_items, item, n_workers, lambda: None), threads


def expected(n_items):
    return [(i, f"item {i}") for i in range(n_items)]


class TestParallelFill:
    @pytest.mark.parametrize("n_items,n_workers,threads", [
        (3, 500, 3), (100, 500, 100), (100, 2, 2), (7, 3, 3),
    ])
    def test_never_more_threads_than_items(self, executor, n_items, n_workers, threads):
        results, _ = fill(n_items, n_workers)
        assert results == expected(n_items)
        assert executor == [threads]

    @pytest.mark.parametrize("n_items,n_workers", [(1, 8), (5, 1), (0, 4)])
    def test_one_item_or_worker_runs_on_the_calling_thread(self, executor, n_items,
                                                           n_workers):
        results, threads = fill(n_items, n_workers)
        assert results == expected(n_items)
        assert executor == []
        assert threads <= {threading.get_ident()}

    def test_results_come_back_in_index_order_at_any_worker_count(self):
        for n_workers in (0, 1, 2, 3):
            assert fill(50, n_workers)[0] == expected(50), n_workers

    @pytest.mark.parametrize("n_items,n_workers,sets", [(40, 3, 3), (40, 1, 1), (1, 4, 1)])
    def test_every_item_on_a_thread_sees_its_threads_one_work_result(self, n_items, n_workers,
                                                                     sets):
        made, seen = [], {}
        together = threading.Barrier(sets, timeout=30)  # every thread at once

        def work():
            made.append(threading.get_ident())
            return [len(made)]

        def item(i, arrays):
            if i < sets:  # each thread's first item
                together.wait()
            seen.setdefault(threading.get_ident(), set()).add(id(arrays))
            return arrays[0]

        results = parallel_fill(n_items, item, n_workers, work)
        assert made == [threading.get_ident()] * sets  # all made on the calling thread
        assert len(seen) == sets
        assert all(len(ids) == 1 for ids in seen.values())  # one work() result a thread
        assert len(set().union(*seen.values())) == sets  # and no two threads share one
        assert results == [i % sets + 1 for i in range(n_items)]

    @pytest.mark.parametrize("n_items,n_workers", [(10, 3), (2, 2), (7, 4), (3, 500)])
    def test_thread_t_runs_indices_t_t_plus_n_threads_in_order(self, executor, n_items,
                                                               n_workers):
        calls, made = [], iter(range(n_items))
        results = parallel_fill(n_items, lambda i, arrays: calls.append((arrays, i)) or -i,
                                n_workers, lambda: next(made))
        n_threads = min(n_workers, n_items)
        assert executor == [n_threads]
        assert calls == [(t, i) for t in range(n_threads) for i in range(t, n_items, n_threads)]
        assert results == [-i for i in range(n_items)]

    def test_threads_run_at_once_each_over_its_strided_share_in_order(self):
        together = threading.Barrier(3, timeout=30)  # broken unless all 3 run at once
        order = {}

        def item(i, arrays):
            if i < 3:  # each thread's first item
                together.wait()
            order.setdefault(threading.get_ident(), []).append(i)
            return threading.get_ident()

        idents = parallel_fill(11, item, 3, lambda: None)
        assert len(set(idents)) == 3
        assert sorted(order.values()) == [list(range(t, 11, 3)) for t in range(3)]

    def test_no_result_is_lost_under_frequent_thread_switches(self):
        # more threads than cores, each switching every microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n_workers in (5, 8):
                assert fill(3000, n_workers)[0] == expected(3000), n_workers
        finally:
            sys.setswitchinterval(interval)

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
            parallel_fill(4, lambda i, arrays: None, -2, lambda: None)


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
        seen = parallel_fill(8, lambda i, arrays: blas_threads(), 2, lambda: None)
        assert seen == [1] * 8
        assert blas_threads() == two_blas_threads

    def test_serial_run_leaves_the_count(self, two_blas_threads):
        seen = parallel_fill(8, lambda i, arrays: blas_threads(), 1, lambda: None)
        assert seen == [two_blas_threads] * 8

    def test_count_restored_after_an_exception(self, two_blas_threads):
        def item(i, arrays):
            if i > 0:
                raise ValueError("item failed")

        with pytest.raises(ValueError, match="item failed"):
            parallel_fill(8, item, 2, lambda: None)
        assert blas_threads() == two_blas_threads


def test_missing_symbol_is_harmless(monkeypatch):
    before = blas_threads()
    monkeypatch.setattr(parallel, "_THREAD_SYMBOLS", ("no_such_get", "no_such_set"))
    parallel._thread_calls.cache_clear()
    try:
        assert blas_threads() is None
        results, _ = fill(20, 2)
        assert results == expected(20)
    finally:
        parallel._thread_calls.cache_clear()
    monkeypatch.undo()
    assert blas_threads() == before
