"""Row-block threads for the dense Monte Carlo kernels.

numpy releases the interpreter lock inside ufunc loops, so contiguous row
blocks of one matrix run on separate cores, each block in row tiles small
enough to stay in L2. Each row's arithmetic is the same whatever the split,
so results depend neither on the core count nor on the tile size.
"""
from __future__ import annotations

import os
import threading
from contextvars import copy_context

# Fewest rows per block. Timing sinr_field (in the tiles below) on a 2 vCPU
# Xeon, one block against two, median of 15 best-of-40 runs: with 50
# stations and 11 eta, two blocks of 128, 256, 500 and 1000 rows took 43%,
# 26%, 11% and 9% longer than one; with 200 stations and 7 eta, 16%, 14%, 6%
# and 1% longer. Two threads running np.exp there get 1.05x the throughput
# of one, so no block pays on that machine; the split is for machines whose
# second core adds throughput, and 256 keeps small layouts whole.
MIN_ROWS = 256
# Most elements of one row tile: 32768 float64 are 256 kB, so the three tile
# buffers of torus_distance_matrix and the two of sinr_field stay in a 2 MB
# L2. Timing one thread on the Xeon above (2 MB L2 a core), 2000 users,
# median of 11 best-of-40 runs: torus_distance_matrix with 200 stations took
# 2.74, 2.51, 2.32 and 2.48 ms in tiles of 8192, 16384, 32768 and 65536
# elements, and 5.12 ms untiled; sinr_field with 7 eta took 7.8 ms against
# 13.6 ms untiled, level within noise from 16384 to 65536. With 50 stations
# (800 kB matrices) the distances took 0.53 against 0.58 ms untiled.
TILE_ELEMENTS = 32768

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


def map_row_blocks(fn, n_rows: int, n_cols: int = 0) -> None:
    """Call fn(rows) on contiguous row tiles that cover range(n_rows).

    The rows are split into one block per thread, of at least MIN_ROWS
    rows each. For rows of n_cols elements each block is cut into tiles of
    at most TILE_ELEMENTS // n_cols rows (at least one), which fn gets in
    order, so that every pass fn makes over a tile stays in L2; n_cols = 0
    leaves each block whole. An empty range is one call on slice(0, 0).
    The calling thread runs the first block; the others run on a shared
    thread pool. Returns only once every block is done, then re-raises an
    exception any block raised, the calling thread's own first.
    """
    step = max(1, TILE_ELEMENTS // n_cols if n_cols else n_rows)

    def run_tiles(lo, hi):
        for start in range(lo, hi, step) or (lo,):
            fn(slice(start, min(start + step, hi)))

    k = min(WORKERS, n_rows // MIN_ROWS)
    if k <= 1:
        run_tiles(0, n_rows)
        return
    from concurrent.futures import wait
    bounds = [n_rows * i // k for i in range(k + 1)]
    pool = _get_pool()
    # each block runs in a copy of the caller's context, which holds numpy's error state
    futures = [pool.submit(copy_context().run, run_tiles, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        run_tiles(0, bounds[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()
