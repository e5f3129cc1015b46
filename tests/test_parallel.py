import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from fluidnet import parallel
from fluidnet.parallel import MIN_BLOCK_PAIRS, map_row_blocks

# Rows of N_COLS elements: a block of MIN_ROWS of them holds MIN_BLOCK_PAIRS pairs, so
# n rows make min(workers, n // MIN_ROWS) blocks
MIN_ROWS = 256
N_COLS = -(-MIN_BLOCK_PAIRS // MIN_ROWS)


@pytest.fixture
def whole_blocks(monkeypatch):
    """Tiles wider than any block below, so that each block is one call."""
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", 100 * MIN_ROWS * N_COLS)


def run_blocks(n_rows):
    seen = []
    lock = threading.Lock()

    def fn(rows):
        with lock:
            seen.append((rows.start, rows.stop, threading.get_ident()))

    map_row_blocks(fn, n_rows, N_COLS)
    return sorted(seen)


def test_blocks_cover_rows_once(worker_count, whole_blocks):
    worker_count(3)
    n = 3 * MIN_ROWS + 2
    seen = run_blocks(n)
    assert len(seen) == 3
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(prev[1] == nxt[0] for prev, nxt in zip(seen, seen[1:]))
    assert all((hi - lo) * N_COLS >= MIN_BLOCK_PAIRS for lo, hi, _ in seen)
    assert seen[0][2] == threading.get_ident()  # the caller runs the first block


@pytest.mark.parametrize("workers, n", [(2, 0), (2, 1), (2, 2 * MIN_ROWS - 1), (1, 10 * MIN_ROWS)])
def test_small_inputs_and_one_cpu_run_inline(worker_count, whole_blocks, workers, n):
    worker_count(workers)
    assert run_blocks(n) == [(0, n, threading.get_ident())]


def tiles_by_thread(n_rows, n_cols):
    """map_row_blocks' tiles of an n_rows x n_cols matrix, per thread in call order."""
    by_thread = {}
    lock = threading.Lock()

    def fn(rows):
        with lock:
            by_thread.setdefault(threading.get_ident(), []).append((rows.start, rows.stop))

    map_row_blocks(fn, n_rows, n_cols)
    return by_thread


def test_report_sized_layout_runs_inline_without_pool(worker_count, monkeypatch):
    # 2000 users x 56 stations, a report_default layout, is under two blocks of pairs
    worker_count(2)
    assert 2000 * 56 < 2 * MIN_BLOCK_PAIRS
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    assert list(tiles_by_thread(2000, 56)) == [threading.get_ident()]
    assert started == []


def test_fit_sized_layout_makes_two_blocks(worker_count):
    # 2000 users x 200 stations, a fit_large_torus layout: the caller and one more thread
    worker_count(2)
    by_thread = tiles_by_thread(2000, 200)
    caller = by_thread.pop(threading.get_ident())
    (other,) = by_thread.values()
    assert caller[0][0] == 0 and caller[-1][1] == 1000
    assert other[0][0] == 1000 and other[-1][1] == 2000


def test_blocks_are_cut_into_row_tiles(worker_count, monkeypatch):
    # tiles of at most 14 rows; blocks of 256, 257 and 257 rows each end on a ragged one
    worker_count(3)
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", 14 * N_COLS + 5)
    n, n_cols, max_rows = 3 * MIN_ROWS + 2, N_COLS, 14
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


def test_worker_exception_propagates(worker_count, whole_blocks):
    worker_count(2)

    def fn(rows):
        if rows.start > 0:
            raise ValueError("block failed")

    with pytest.raises(ValueError, match="block failed"):
        map_row_blocks(fn, 2 * MIN_ROWS, N_COLS)


def test_blocks_keep_the_callers_numpy_error_state(worker_count, whole_blocks):
    worker_count(2)

    def fn(rows):
        if rows.start > 0:
            np.divide(1.0, np.zeros(3))

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        map_row_blocks(fn, 2 * MIN_ROWS, N_COLS)


def test_caller_exception_waits_for_other_blocks(worker_count, whole_blocks):
    worker_count(2)
    done = threading.Event()

    def fn(rows):
        if rows.start == 0:
            raise ValueError("first block failed")
        time.sleep(0.05)
        done.set()

    with pytest.raises(ValueError, match="first block failed"):
        map_row_blocks(fn, 2 * MIN_ROWS, N_COLS)
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
            map_row_blocks(fn, n, N_COLS)
            assert np.all(counts == rounds)
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_pool(worker_count):
    # the child inherits the parent's pool object but none of its threads
    worker_count(2)
    map_row_blocks(lambda rows: None, 2 * MIN_ROWS, N_COLS)
    child = multiprocessing.get_context("fork").Process(
        target=map_row_blocks, args=(lambda rows: None, 2 * MIN_ROWS, N_COLS))
    child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung and child.exitcode == 0
