"""Base-station layout generation on a torus.

Two layout families: a regular triangular (hexagonal-cell) lattice with
inter-site distance 2*half_isd, and a homogeneous spatial Poisson
process with the same density sqrt(3)/(6*half_isd^2).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientStations
from .geometry import TorusRegion
from .rng import generator, poisson_variate

SQRT3 = math.sqrt(3.0)

# Poisson draws with fewer than 2 stations are redrawn at most this often.
# A draw takes a few microseconds, so giving up costs about 0.1 s; it
# happens by chance (p < 1e-9) only when a draw keeps 2 or more stations
# with probability under about 1e-3, i.e. a mean under 0.05 stations.
MAX_POISSON_REDRAWS = 20_000


class ModelKind(str, enum.Enum):
    HEXAGONAL = "hexagonal"
    POISSON = "poisson"


def hexagonal_density(half_isd: float) -> float:
    """Station density of a triangular lattice with inter-site distance 2*half_isd.

    Raises DomainError unless the density is a positive finite float.
    """
    if half_isd <= 0:
        raise DomainError("half_isd must be positive")
    try:
        density = SQRT3 / (6.0 * half_isd**2)
    except (OverflowError, ZeroDivisionError):  # half_isd**2 overflows, or underflows to 0
        density = math.nan
    if not 0 < density < math.inf:
        raise DomainError(f"half_isd = {half_isd!r} gives a station density "
                          "outside the float range")
    return density


@dataclass(frozen=True)
class NetworkLayout:
    """A set of station positions on a torus plus generation metadata."""

    region: TorusRegion
    stations: np.ndarray  # (n, 2) wrapped coordinates
    model: ModelKind
    density: float
    seed: int
    redraws: int = 0

    def __post_init__(self):
        if self.stations.ndim != 2 or self.stations.shape[1] != 2:
            raise DomainError("stations must have shape (n, 2)")
        if self.n_stations < 1:
            raise InsufficientStations("layout needs at least one station")

    @property
    def n_stations(self) -> int:
        return self.stations.shape[0]


def region_for_expected_count(half_isd: float, expected_count: float) -> TorusRegion:
    """Square torus whose area gives the wanted mean station count at lattice density."""
    if expected_count <= 0:
        raise DomainError("expected_count must be positive")
    area = expected_count / hexagonal_density(half_isd)
    side = math.sqrt(area)
    return TorusRegion(side, side)


def generate_hexagonal(half_isd: float, rings: int, seed: int = 0) -> NetworkLayout:
    """Triangular lattice layout that tiles the torus.

    The torus holds a (2*rings+1) x (2*rings+2) lattice with offset rows,
    so every station has exactly 6 neighbours at distance 2*half_isd under
    the torus metric (an edge-free hexagonal reference network).
    """
    if rings < 1:
        raise InsufficientStations("rings must be >= 1 for interference analysis")
    density = hexagonal_density(half_isd)
    r = float(half_isd)
    cols = 2 * rings + 1
    rows = 2 * rings + 2  # even row count keeps the offset pattern wrap-compatible
    region = TorusRegion(cols * 2.0 * r, rows * SQRT3 * r)
    stations = np.array([((r if j % 2 else 0.0) + i * 2.0 * r, j * SQRT3 * r)
                         for j in range(rows) for i in range(cols)])
    return NetworkLayout(region=region, stations=stations, model=ModelKind.HEXAGONAL,
                         density=density, seed=seed)


def generate_poisson(region: TorusRegion, density: float, seed: int) -> NetworkLayout:
    """Homogeneous Poisson process layout: N ~ Poisson(density * area),
    positions i.i.d. uniform, no pairwise constraint.

    If N < 2 is drawn (no interferer, so the zero-noise SINR is undefined),
    the draw is repeated with an incremented sub-seed; the redraw count is
    recorded on the layout. Raises InsufficientStations after
    MAX_POISSON_REDRAWS redraws.
    """
    if density <= 0:
        raise DomainError("density must be positive")
    mean = density * region.area()
    for redraws in range(MAX_POISSON_REDRAWS + 1):
        rng = generator(seed, redraws)
        n = poisson_variate(rng, mean)
        if n >= 2:
            break
    else:
        raise InsufficientStations(
            f"{MAX_POISSON_REDRAWS} Poisson redraws with mean {mean:g} stations "
            "all gave fewer than 2 stations")
    xy = rng.random((n, 2)) * np.array([region.width, region.height])
    return NetworkLayout(region=region, stations=xy, model=ModelKind.POISSON,
                         density=density, seed=seed, redraws=redraws)
