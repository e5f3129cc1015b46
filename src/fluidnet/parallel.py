"""Row tiles for the dense Monte Carlo kernels.

The distance and SINR passes go over a matrix's rows in tiles small enough
to stay in L2 (README "Numerics"), on the calling thread. Each row's
arithmetic is the same whatever the tiling, so results do not depend on the
tile size.
"""
from __future__ import annotations

# Most elements of one row tile, 256 kB of float64: the kernels' tile buffers
# stay in a 2 MB L2 (timings in CHANGES.md).
TILE_ELEMENTS = 32768


def tile_rows(n_rows: int, n_cols: int) -> int:
    """Rows of each of row_tiles' tiles but the last: at most
    TILE_ELEMENTS // n_cols and n_rows, at least one; all rows for n_cols = 0."""
    return max(1, min(n_rows, TILE_ELEMENTS // n_cols) if n_cols else n_rows)


def row_tiles(n_rows: int, n_cols: int):
    """Yield contiguous row slices, in order, that cover range(n_rows) once.

    Each holds tile_rows(n_rows, n_cols) rows, the last one possibly fewer;
    an empty range is one slice(0, 0).
    """
    step = tile_rows(n_rows, n_cols)
    for start in range(0, n_rows, step) or (0,):
        yield slice(start, min(start + step, n_rows))
