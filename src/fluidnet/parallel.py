"""Row-block threads for the dense Monte Carlo kernels.

numpy releases the interpreter lock inside ufunc loops, so contiguous row
blocks of one matrix run on separate cores, each block in row tiles small
enough to stay in L2. A matrix is split only when every block gets at
least MIN_BLOCK_PAIRS row-column (user-station) pairs, so small layouts run
inline on the calling thread. Each extra block gets a thread of its own,
joined before the call returns. Each row's arithmetic is the same whatever
the split, so results depend neither on the core count nor on the tile size.
"""
from __future__ import annotations

import os
import threading
from contextvars import copy_context

# Fewest row-column pairs per block: an n_rows x n_cols matrix makes at most
# n_rows * n_cols // MIN_BLOCK_PAIRS blocks. Chosen by timing whole benchmark
# runs (CHANGES.md): fit_large_torus (2000 users x about 200 stations, 7 eta)
# keeps two blocks a layout, which made it faster at the cost of the second
# thread's peak RSS, and report_default (2000 users x about 50 stations)
# runs inline, which lowered its peak RSS and did not slow it. With one
# fresh interpreter per fit run, outside the benchmark, one block was faster.
MIN_BLOCK_PAIRS = 150_000
# Most elements of one row tile: 32768 float64 are 256 kB, so the three tile
# buffers of torus_distance_matrix and the two of sinr_field stay in a 2 MB
# L2. Timed on one thread against smaller, larger and untiled passes
# (CHANGES.md): both kernels were fastest near this size.
TILE_ELEMENTS = 32768

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on this platform
    WORKERS = os.cpu_count() or 1


def map_row_blocks(fn, n_rows: int, n_cols: int) -> None:
    """Call fn(rows) on contiguous row tiles that cover range(n_rows).

    The rows of n_cols elements each are split into one block per thread,
    of at least MIN_BLOCK_PAIRS elements each; with fewer than twice that
    they run inline and no thread is started. Each block is cut into
    tiles of at most TILE_ELEMENTS // n_cols rows (at least one), which fn
    gets in order, so that every pass fn makes over a tile stays in L2;
    n_cols = 0 leaves the rows one inline block. An empty range is one call
    on slice(0, 0).
    The calling thread runs the first block, and each other block a thread
    started for this call in a copy of the caller's context (which holds
    numpy's error state). Returns once every thread is joined, re-raising
    an exception a block raised, the calling thread's own first.
    """
    step = max(1, TILE_ELEMENTS // n_cols if n_cols else n_rows)

    def run_tiles(lo, hi):
        for start in range(lo, hi, step) or (lo,):
            fn(slice(start, min(start + step, hi)))

    k = min(WORKERS, n_rows * n_cols // MIN_BLOCK_PAIRS)
    if k <= 1:
        run_tiles(0, n_rows)
        return
    bounds = [n_rows * i // k for i in range(k + 1)]
    errors = []

    def run_block(lo, hi):
        try:
            run_tiles(lo, hi)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=copy_context().run, args=(run_block, lo, hi))
            thread.start()
            threads.append(thread)
        run_tiles(0, bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
