"""Row-block threads for the dense Monte Carlo kernels.

numpy releases the interpreter lock inside ufunc loops, so contiguous row
blocks of one matrix run on separate cores, each block in row tiles small
enough to stay in L2. A matrix is split only when every block gets at
least MIN_BLOCK_PAIRS row-column (user-station) pairs, so small layouts run
inline on the calling thread and never start the pool. Each row's
arithmetic is the same whatever the split, so results depend neither on the
core count nor on the tile size.
"""
from __future__ import annotations

import os
import threading
from contextvars import copy_context

# Fewest row-column pairs per block: an n_rows x n_cols matrix makes at most
# n_rows * n_cols // MIN_BLOCK_PAIRS blocks. Chosen by timing whole runs on a
# 2 vCPU Xeon (perfbench, 35 s runs, alternating pairs). fit_large_torus
# (2000 users x about 200 stations, 7 eta) keeps two blocks a layout: with
# no split it lost 4/4 pairs by 1-19% and with 200000, which leaves about
# half of its layouts whole, 4/4 by 9-27%. report_default (2000 users x 50
# stations on average, at most about 75, 11 eta) runs inline, which takes
# about 2 MB off its peak RSS (the pool's threads) and did not slow it.
# In-process, sinr_field on 2000 users, median of 9 best-of-40 runs, two
# blocks took 1.07x/1.08x the time of one at 56/75 stations with 11 eta and
# 1.04x/0.94x/1.06x at 150/170/200 stations with 7 eta: the second thread
# pays only in whole runs.
MIN_BLOCK_PAIRS = 150_000
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


def map_row_blocks(fn, n_rows: int, n_cols: int) -> None:
    """Call fn(rows) on contiguous row tiles that cover range(n_rows).

    The rows of n_cols elements each are split into one block per thread,
    of at least MIN_BLOCK_PAIRS elements each; with fewer than twice that
    they run inline and the pool is never started. Each block is cut into
    tiles of at most TILE_ELEMENTS // n_cols rows (at least one), which fn
    gets in order, so that every pass fn makes over a tile stays in L2;
    n_cols = 0 leaves the rows one inline block. An empty range is one call
    on slice(0, 0).
    The calling thread runs the first block; the others run on a shared
    thread pool. Returns only once every block is done, then re-raises an
    exception any block raised, the calling thread's own first.
    """
    step = max(1, TILE_ELEMENTS // n_cols if n_cols else n_rows)

    def run_tiles(lo, hi):
        for start in range(lo, hi, step) or (lo,):
            fn(slice(start, min(start + step, hi)))

    k = min(WORKERS, n_rows * n_cols // MIN_BLOCK_PAIRS)
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
