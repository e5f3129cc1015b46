"""Toroidal geometry primitives.

The simulation area is a rectangle with periodic boundary conditions
(a flat torus), so a finite set of stations behaves like an edge-free,
virtually infinite network.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .parallel import map_row_blocks


@dataclass(frozen=True)
class TorusRegion:
    """Rectangular region with wrap-around in both axes."""

    width: float
    height: float

    def __post_init__(self):
        # also refuses nan, for which every comparison is false
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise DomainError("torus dimensions must be positive and finite")

    def area(self) -> float:
        return self.width * self.height


def _wrapped_axis_delta(a, b, period, out, scratch):
    # Writes the nearest-image |a - b| into out; scratch is overwritten.
    # For wrapped coordinates |a - b| lies in [0, period]. There `% period` is
    # exact and changes only |a - b| = period, to 0; min() maps both to 0.
    np.abs(np.subtract(a, b, out=out), out=out)
    np.minimum(out, np.subtract(period, out, out=scratch), out=out)


def torus_distance_matrix(region: TorusRegion, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise toroidal distances between point arrays a (n,2) and b (m,2).

    Both arrays must hold wrapped coordinates, x in [0, width] and y in
    [0, height]; points are not reduced modulo the period first.
    Each distance is sqrt(dx*dx + dy*dy) of the nearest-image axis deltas:
    within 1 ulp of hypot(dx, dy) at a fraction of its cost, as long as the
    squares neither overflow nor underflow (deltas between about 1e-150
    and 1e150).
    The result is filled in L2-sized row tiles of one block per thread
    (parallel.map_row_blocks); each tile's axis deltas use two tile-sized
    buffers, so the result is the only full-size matrix.
    """
    d = np.empty((len(a), len(b)))

    def fill(rows):
        x = d[rows]
        y, scratch = np.empty_like(x), np.empty_like(x)
        _wrapped_axis_delta(a[rows, 0:1], b[None, :, 0], region.width, x, scratch)
        _wrapped_axis_delta(a[rows, 1:2], b[None, :, 1], region.height, y, scratch)
        np.multiply(x, x, out=x)
        x += np.multiply(y, y, out=y)
        np.sqrt(x, out=x)

    map_row_blocks(fill, len(a), len(b))
    return d


def wrapped_displacement(region: TorusRegion, origin: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Displacement from origin to the nearest periodic image of target.

    Components lie in [-period/2, period/2).
    """
    d = np.asarray(target, dtype=float) - np.asarray(origin, dtype=float)
    period = np.array([region.width, region.height])
    return (d + period / 2.0) % period - period / 2.0
