"""Reference implementations the tests compare the package against.

They live apart from src/fluidnet, so that a change to a kernel cannot
change the oracle that checks it. Each is the plain, per-point form of a
quantity the package computes with arrays.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from fluidnet.errors import DomainError


@dataclass(frozen=True)
class Point:
    x: float
    y: float


def axis_delta(a, b, period):
    """Nearest-image |a - b| along one axis, reduced with `% period` first."""
    d = np.abs(a - b) % period
    return np.minimum(d, period - d)


def torus_distance(region, p: Point, q: Point) -> float:
    """Shortest distance between two points on the torus, axis by axis."""
    return math.hypot(axis_delta(p.x, q.x, region.width), axis_delta(p.y, q.y, region.height))


def image_distance(region, p: Point, q: Point) -> float:
    """Shortest distance between p and the 9 periodic images of q."""
    return min(math.hypot(p.x - (q.x + i * region.width), p.y - (q.y + j * region.height))
               for i in (-1, 0, 1) for j in (-1, 0, 1))


def brute_force_sinr(layout, eta: float, u: Point) -> float:
    """Linear SIR of one user, summed over python-level torus distances.

    No exclusion clamp: a user exactly on a station gets 0**-eta = inf for
    its server and inf - inf = nan, with numpy warnings.
    """
    dists = np.array([torus_distance(layout.region, u, Point(*s)) for s in layout.stations])
    gains = dists ** -eta
    k = int(np.argmin(dists))
    return gains[k] / (gains.sum() - gains[k])


def normalized_sinr(eta: float, x: float) -> float:
    """Density-free fluid SINR profile in the relative distance x = r / R_c."""
    if eta <= 2:
        raise DomainError("path loss exponent must exceed 2")
    if not 0 < x < 2:
        raise DomainError("x must lie in (0, 2)")
    return (6.0 / math.sqrt(3.0)) * (eta - 2) / (2 * math.pi) \
        * x ** (-eta) * (2 - x) ** (eta - 2)


def rc_disk_cdf(eta: float, exclusion: float, gamma_db: float) -> float:
    """P(SINR in dB <= gamma_db) of the fluid cell for a UE uniform on the
    annulus exclusion <= x <= 1 (the R_c disk), with the radius at gamma_db
    found by brentq on normalized_sinr."""
    def excess_db(x):
        return 10 * math.log10(normalized_sinr(eta, x)) - gamma_db

    if excess_db(1.0) >= 0:
        return 0.0
    if excess_db(exclusion) <= 0:
        return 1.0
    x = brentq(excess_db, exclusion, 1.0, xtol=1e-15)
    return (1 - x**2) / (1 - exclusion**2)
