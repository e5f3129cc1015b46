"""Row-block threads for the dense Monte Carlo kernels.

numpy releases the interpreter lock inside ufunc loops, so contiguous row
blocks of one matrix run on separate cores, each in row tiles small enough
to stay in L2 (README "Numerics"). Each row's arithmetic is the same
whatever the split, so results depend neither on the core count nor on the
tile size.
"""
from __future__ import annotations

import os
import threading
from contextvars import copy_context

# Fewest row-column pairs per block: the fit workload's layouts split in two,
# the default report's run inline (timings in CHANGES.md).
MIN_BLOCK_PAIRS = 150_000
# Most elements of one row tile, 256 kB of float64: the kernels' tile buffers
# stay in a 2 MB L2 (timings in CHANGES.md).
TILE_ELEMENTS = 32768

try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on this platform
    WORKERS = os.cpu_count() or 1


def map_row_blocks(fn, n_rows: int, n_cols: int) -> None:
    """Call fn(rows) on contiguous row tiles that cover range(n_rows).

    The rows of n_cols elements each are split into one block per worker, of
    at least MIN_BLOCK_PAIRS elements each; with fewer than twice that they
    run inline and no thread is started. Each block is cut into tiles of at
    most TILE_ELEMENTS // n_cols rows (at least one), which fn gets in order;
    n_cols = 0 leaves the rows one inline block, and an empty range is one
    call on slice(0, 0). The calling thread runs the first block, and each
    other block a thread started for this call in a copy of the caller's
    context (which holds numpy's error state). Returns once every thread is
    joined, re-raising an exception a block raised, the caller's own first.
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
