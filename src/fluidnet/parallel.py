"""Row-block threads for the dense Monte Carlo kernels.

numpy releases the interpreter lock inside ufunc loops, so contiguous row
blocks of one matrix run on separate cores. Each row's arithmetic is the
same whatever the split, so results do not depend on the core count.
"""
from __future__ import annotations

import os
import threading
from contextvars import copy_context

# Fewest rows per block. Timing sinr_field (distances plus an 11-eta
# reduction) on a 2 vCPU Xeon, one block against two: with 50 stations,
# two blocks of 128 rows broke even, of 192 rows saved 15-18% and of 256
# rows 19-24%; with 200 stations, blocks of 128 rows already saved a third.
MIN_ROWS = 256

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on this platform
    WORKERS = os.cpu_count() or 1


def _forget_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


_forget_pool()
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_forget_pool)


def _get_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=WORKERS - 1, thread_name_prefix="fluidnet")
        return _pool


def map_row_blocks(fn, n_rows: int) -> None:
    """Call fn(rows) on contiguous slices that cover range(n_rows).

    The calling thread runs the first slice; the others run on a shared
    thread pool. Returns only once every slice is done, then re-raises an
    exception any slice raised, the calling thread's own first.
    """
    k = min(WORKERS, n_rows // MIN_ROWS)
    if k <= 1:
        fn(slice(0, n_rows))
        return
    from concurrent.futures import wait
    bounds = [n_rows * i // k for i in range(k + 1)]
    pool = _get_pool()
    # each block runs in a copy of the caller's context, which holds numpy's error state
    futures = [pool.submit(copy_context().run, fn, slice(lo, hi))
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(slice(0, bounds[1]))
    finally:
        wait(futures)
    for f in futures:
        f.result()
