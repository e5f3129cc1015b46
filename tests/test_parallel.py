import os
import threading

import numpy as np
import pytest

from fluidnet import parallel
from fluidnet import sinr as SINR_MODULE
from fluidnet.geometry import TorusRegion, torus_distance_matrix
from fluidnet.parallel import row_tiles
from fluidnet.placement import ModelKind, NetworkLayout
from fluidnet.sinr import UserSet, sinr_field

N_COLS = 586


def tiles(n_rows, n_cols):
    return [(rows.start, rows.stop) for rows in row_tiles(n_rows, n_cols)]


@pytest.fixture
def whole_blocks(monkeypatch):
    """Tiles wider than any matrix below, so that all its rows are one tile."""
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", 100 * 256 * N_COLS)


def test_blocks_cover_rows_once(whole_blocks):
    # an empty range too is one tile
    for n in (0, 1, 511, 2560):
        assert tiles(n, N_COLS) == [(0, n)]


@pytest.mark.parametrize("workers, n", [(2, 0), (2, 1), (2, 2 * 256 - 1), (1, 10 * 256)])
def test_small_inputs_and_one_cpu_run_inline(monkeypatch, whole_blocks, workers, n):
    # whatever the host's CPU count, an n x N_COLS distance matrix is one tile,
    # measured on the calling thread
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    region = TorusRegion(2.0, 1.5)
    rng = np.random.default_rng(n)
    a = rng.random((n, 2)) * [region.width, region.height]
    b = rng.random((N_COLS, 2)) * [region.width, region.height]
    assert tiles(n, N_COLS) == [(0, n)]
    assert torus_distance_matrix(region, a, b).shape == (n, N_COLS)
    assert started == []


def tiled_field(monkeypatch):
    """A 50-user, 6-station sinr_field call whose pass makes 5 tiles of 10 rows."""
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", 10 * 6)
    rng = np.random.default_rng(5)
    layout = NetworkLayout(region=TorusRegion(3.0, 2.0), stations=rng.random((6, 2)) * [3.0, 2.0],
                           model=ModelKind.POISSON)
    users = UserSet(points=rng.random((50, 2)) * [3.0, 2.0], exclusion_radius=0.0)
    return lambda: sinr_field(layout, [3.0, 4.0], users)


def test_worker_exception_propagates(monkeypatch):
    # an exception in a later tile of the pass reaches the caller
    field = tiled_field(monkeypatch)
    calls = []

    def failing_distances(region, a, b, **kwargs):
        calls.append(len(a))
        if len(calls) > 1:
            raise ValueError("block failed")
        return torus_distance_matrix(region, a, b, **kwargs)

    monkeypatch.setattr(SINR_MODULE, "torus_distance_matrix", failing_distances)
    with pytest.raises(ValueError, match="block failed"):
        field()
    assert calls == [10, 10]


def test_blocks_keep_the_callers_numpy_error_state(monkeypatch):
    # the pass's own silent error state ends with it, whether it returns or a tile raises
    field = tiled_field(monkeypatch)
    with np.errstate(divide="raise", over="warn", invalid="raise"):
        state = np.geterr()
        assert field().shape == (2, 50)
        assert np.geterr() == state
        monkeypatch.setattr(SINR_MODULE, "torus_distance_matrix",
                            lambda *args, **kwargs: np.divide(1.0, np.zeros((10, 6))))
        with pytest.raises(FloatingPointError):
            np.divide(1.0, np.zeros(3))
        field()  # the tiles' 1 / 0 is silent inside the pass
        assert np.geterr() == state
        with pytest.raises(FloatingPointError):
            np.divide(1.0, np.zeros(3))


def test_report_sized_layout_runs_inline_without_pool(monkeypatch):
    # 2000 users x 56 stations, a report_default layout, goes in tiles of 585 rows
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    assert tiles(2000, 56) == [(0, 585), (585, 1170), (1170, 1755), (1755, 2000)]
    assert started == []


def test_blocks_are_cut_into_row_tiles(monkeypatch):
    # tiles of at most 14 rows, in order, the last a ragged one
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", 14 * N_COLS + 5)
    n, max_rows = 775, 14
    seen = tiles(n, N_COLS)
    assert seen[0][0] == 0 and seen[-1][1] == n
    assert all(prev[1] == nxt[0] for prev, nxt in zip(seen, seen[1:]))
    assert all(hi - lo == max_rows for lo, hi in seen[:-1])
    assert 0 < seen[-1][1] - seen[-1][0] < max_rows
    assert parallel.tile_rows(n, N_COLS) == max_rows


@pytest.mark.parametrize("n, n_cols, expected", [
    (0, 7, [(0, 0)]),                                    # an empty range is still one tile
    (5, 0, [(0, 5)]),                                    # rows of no elements: one tile
    (3, parallel.TILE_ELEMENTS + 1, [(0, 1), (1, 2), (2, 3)]),  # a row wider than a tile
    (5, parallel.TILE_ELEMENTS // 2, [(0, 2), (2, 4), (4, 5)]),
])
def test_tile_rows_at_the_edges(n, n_cols, expected):
    assert tiles(n, n_cols) == expected
