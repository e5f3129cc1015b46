import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from fluidnet import parallel
from fluidnet.parallel import MIN_ROWS, map_row_blocks


def run_blocks(n_rows):
    seen = []
    lock = threading.Lock()

    def fn(rows):
        with lock:
            seen.append((rows.start, rows.stop, threading.get_ident()))

    map_row_blocks(fn, n_rows)
    return sorted(seen)


def test_blocks_cover_rows_once(worker_count):
    worker_count(3)
    n = 3 * MIN_ROWS + 2
    seen = run_blocks(n)
    assert len(seen) == 3
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(prev[1] == nxt[0] for prev, nxt in zip(seen, seen[1:]))
    assert all(hi - lo >= MIN_ROWS for lo, hi, _ in seen)
    assert seen[0][2] == threading.get_ident()  # the caller runs the first block


@pytest.mark.parametrize("workers, n", [(2, 0), (2, 1), (2, 2 * MIN_ROWS - 1), (1, 10 * MIN_ROWS)])
def test_small_inputs_and_one_cpu_run_inline(worker_count, workers, n):
    worker_count(workers)
    assert run_blocks(n) == [(0, n, threading.get_ident())]


def test_blocks_are_cut_into_row_tiles(worker_count, monkeypatch):
    # tiles of at most 100 // 7 = 14 rows; blocks of 256, 257 and 257 rows each end on a ragged one
    worker_count(3)
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", 100)
    n, n_cols, max_rows = 3 * MIN_ROWS + 2, 7, 100 // 7
    calls = []
    lock = threading.Lock()

    def fn(rows):
        with lock:
            calls.append((rows.start, rows.stop, threading.get_ident()))

    map_row_blocks(fn, n, n_cols)
    tiles = sorted(calls)
    assert tiles[0][0] == 0 and tiles[-1][1] == n
    assert all(prev[1] == nxt[0] for prev, nxt in zip(tiles, tiles[1:]))
    assert all(0 < hi - lo <= max_rows for lo, hi, _ in tiles)
    assert any(hi - lo < max_rows for lo, hi, _ in tiles)
    by_thread = {}
    for lo, hi, thread in calls:
        by_thread.setdefault(thread, []).append((lo, hi))
    for thread_tiles in by_thread.values():  # in call order, each thread's rows run in order
        assert all(prev[1] == nxt[0] for prev, nxt in zip(thread_tiles, thread_tiles[1:]))
    caller = by_thread[threading.get_ident()]  # the caller runs exactly the first block
    assert caller[0][0] == 0 and caller[-1][1] == n // 3


@pytest.mark.parametrize("n, n_cols, expected", [
    (0, 7, [(0, 0)]),                                    # an empty range is still one call
    (5, 0, [(0, 5)]),                                    # rows of no elements: one whole block
    (3, parallel.TILE_ELEMENTS + 1, [(0, 1), (1, 2), (2, 3)]),  # a row wider than a tile
    (5, parallel.TILE_ELEMENTS // 2, [(0, 2), (2, 4), (4, 5)]),
])
def test_tile_rows_at_the_edges(worker_count, n, n_cols, expected):
    worker_count(1)
    seen = []
    map_row_blocks(lambda rows: seen.append((rows.start, rows.stop)), n, n_cols)
    assert seen == expected


def test_worker_exception_propagates(worker_count):
    worker_count(2)

    def fn(rows):
        if rows.start > 0:
            raise ValueError("block failed")

    with pytest.raises(ValueError, match="block failed"):
        map_row_blocks(fn, 2 * MIN_ROWS)


def test_blocks_keep_the_callers_numpy_error_state(worker_count):
    worker_count(2)

    def fn(rows):
        if rows.start > 0:
            np.divide(1.0, np.zeros(3))

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        map_row_blocks(fn, 2 * MIN_ROWS)


def test_caller_exception_waits_for_other_blocks(worker_count):
    worker_count(2)
    done = threading.Event()

    def fn(rows):
        if rows.start == 0:
            raise ValueError("first block failed")
        time.sleep(0.05)
        done.set()

    with pytest.raises(ValueError, match="first block failed"):
        map_row_blocks(fn, 2 * MIN_ROWS)
    assert done.is_set()


def test_stress_more_workers_than_cores(worker_count):
    # more threads than cores and frequent switches: every row is written exactly once
    worker_count(8)
    n = 8 * MIN_ROWS + 5
    counts = np.zeros(n)

    def fn(rows):
        for i in range(rows.start, rows.stop):
            counts[i] += 1.0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 30.0
        for rounds in range(1, 21):
            map_row_blocks(fn, n)
            assert np.all(counts == rounds)
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_pool(worker_count):
    # the child inherits the parent's pool object but none of its threads
    worker_count(2)
    map_row_blocks(lambda rows: None, 2 * MIN_ROWS)
    child = multiprocessing.get_context("fork").Process(
        target=map_row_blocks, args=(lambda rows: None, 2 * MIN_ROWS))
    child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung and child.exitcode == 0
