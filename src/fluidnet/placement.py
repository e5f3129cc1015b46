"""Base-station layout generation on a torus.

Every length is in units of R_c, half the inter-site distance of the
lattice. Two layout families: a regular triangular (hexagonal-cell)
lattice with inter-site distance 2, and a homogeneous spatial Poisson
process with the same density DENSITY = sqrt(3)/6.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import TorusRegion
from .rng import generator, poisson_variate

SQRT3 = math.sqrt(3.0)
# Station density of the triangular lattice with inter-site distance 2:
# one station per hexagonal cell of area 2*sqrt(3).
DENSITY = SQRT3 / 6.0

# Poisson draws with fewer than 2 stations are redrawn at most this often:
# giving up is quick, and by chance unlikely for any useful mean (CHANGES.md).
MAX_POISSON_REDRAWS = 20_000


class ModelKind(str, enum.Enum):
    HEXAGONAL = "hexagonal"
    POISSON = "poisson"


@dataclass(frozen=True)
class NetworkLayout:
    """A set of station positions on a torus plus generation metadata."""

    region: TorusRegion
    stations: np.ndarray  # (n, 2) wrapped coordinates
    model: ModelKind
    redraws: int = 0

    def __post_init__(self):
        if self.stations.ndim != 2 or self.stations.shape[1] != 2:
            raise DomainError("stations must have shape (n, 2)")
        if self.n_stations < 1:
            raise DomainError("layout needs at least one station")

    @property
    def n_stations(self) -> int:
        return self.stations.shape[0]


def region_for_expected_count(expected_count: float) -> TorusRegion:
    """Square torus whose area gives the wanted mean station count at DENSITY."""
    if expected_count <= 0:
        raise DomainError("expected_count must be positive")
    side = math.sqrt(expected_count / DENSITY)
    return TorusRegion(side, side)


def generate_hexagonal(rings: int) -> NetworkLayout:
    """Triangular lattice layout that tiles the torus.

    The torus holds a (2*rings+1) x (2*rings+2) lattice with offset rows,
    so every station has exactly 6 neighbours at distance 2 under the
    torus metric (an edge-free hexagonal reference network).
    """
    if rings < 1:
        raise DomainError("rings must be >= 1 for interference analysis")
    cols = 2 * rings + 1
    rows = 2 * rings + 2  # even row count keeps the offset pattern wrap-compatible
    region = TorusRegion(cols * 2.0, rows * SQRT3)
    j, i = np.divmod(np.arange(rows * cols), cols)  # row-major: row j, column i
    stations = np.stack([(j % 2) + i * 2.0, j * SQRT3], axis=1)
    return NetworkLayout(region=region, stations=stations, model=ModelKind.HEXAGONAL)


def generate_poisson(region: TorusRegion, seed: int) -> NetworkLayout:
    """Homogeneous Poisson process layout: N ~ Poisson(DENSITY * area),
    positions i.i.d. uniform, no pairwise constraint.

    If N < 2 is drawn (no interferer, so the zero-noise SINR is undefined),
    the draw is repeated with an incremented sub-seed; the redraw count is
    recorded on the layout. Raises DomainError after MAX_POISSON_REDRAWS
    redraws.
    """
    mean = DENSITY * region.area()
    for redraws in range(MAX_POISSON_REDRAWS + 1):
        rng = generator(seed, redraws)
        n = poisson_variate(rng, mean)
        if n >= 2:
            break
    else:
        raise DomainError(
            f"{MAX_POISSON_REDRAWS} Poisson redraws with mean {mean:g} stations "
            "all gave fewer than 2 stations")
    xy = rng.random((n, 2)) * np.array([region.width, region.height])
    return NetworkLayout(region=region, stations=xy, model=ModelKind.POISSON, redraws=redraws)
