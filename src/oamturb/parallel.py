"""Worker threads for the Monte Carlo engines.

Every engine writes each realization's result to its own preallocated
slot, so its output is a pure function of its configuration whatever the
worker count.  While more than one worker runs, numpy's OpenBLAS is held
at one thread: screen synthesis runs two small matrix products per
screen, and multi-threaded BLAS calls from every worker at once made two
workers slower than one.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError

# OpenBLAS's thread-count calls, as the scipy-openblas build numpy wheels
# bundle exports them; another BLAS lacks them and is left alone
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


def resolve_workers(n_workers: int) -> int:
    """The worker count n_workers asks for: itself, or for 0 every core
    this process may run on."""
    if n_workers < 0:
        raise DomainError(f"worker count must be >= 0 (0: every usable core), got {n_workers}")
    if n_workers:
        return n_workers
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _thread_calls():
    """(get, set) of numpy's OpenBLAS thread count, or None when numpy's
    BLAS does not export them."""
    import ctypes  # on first use, not at import

    try:
        from numpy._core import _multiarray_umath
        # dlsym on numpy's extension module also searches the libraries it
        # links, its BLAS among them
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = (getattr(lib, name) for name in _THREAD_SYMBOLS)
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads() -> int | None:
    """OpenBLAS's thread count outside a worker pool, or None when numpy's
    BLAS does not report it."""
    calls = _thread_calls()
    return None if calls is None else calls[0]()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, restoring its count on the way out,
    also on an exception; without the thread-count calls, do nothing."""
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def parallel_fill(n_items: int, worker, n_workers: int, work) -> None:
    """Run worker(items, arrays) once per thread over a fixed share of
    range(n_items), on min(n_workers, n_items) threads (0: every usable
    core).  Thread t's share is range(t, n_items, n_threads), strided so
    that cheap and dear indices spread evenly; a single share runs on the
    calling thread.

    arrays is that thread's own result of work(), made on the calling
    thread before any thread starts.  So a worker that allocates nothing
    grid-sized leaves nothing in its thread's allocator arena, which would
    hold on to freed memory.

    Workers must write only to preallocated per-index slots; the result is
    then identical for any worker count.
    """
    n_threads = min(resolve_workers(n_workers), n_items)
    shares = [(range(t, n_items, n_threads), work()) for t in range(n_threads)]
    if n_threads <= 1:
        for share in shares:
            worker(*share)
        return
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=n_threads) as pool:
        for future in [pool.submit(worker, *share) for share in shares]:
            future.result()
