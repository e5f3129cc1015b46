"""Closed-form fluid-network analytics.

The fluid network replaces discrete interferers by a continuum of
density rho_BS starting at one inter-site distance (2*R_c) from the
serving station, which yields a closed-form SINR profile

    gamma(r) = (eta - 2) / (2 pi rho_BS) * r^-eta * (2 R_c - r)^(eta-2)

that depends only on the distance r to the serving station. With the
lattice density rho_BS = sqrt(3)/(6 R_c^2) the profile is a function of
r / R_c alone, so lengths are in units of R_c: R_c = 1 and
rho_BS = placement.DENSITY.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .placement import DENSITY

_BISECTION_REL_TOL = 1e-12
_BISECTION_MAX_ITER = 200
# Nodes and weights on [-1, 1] of the rule behind average_cell_throughput.
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(64)
# Radius of the disk whose area equals the mean cell area 1/DENSITY,
# sqrt(2*sqrt(3)/pi) ~ 1.05; spreading UEs over this disk mirrors a user
# population uniform over the whole network area.
MEAN_CELL_RADIUS = math.sqrt(1.0 / (math.pi * DENSITY))


@dataclass(frozen=True)
class FluidModel:
    """Fluid-network parameters: the path-loss exponent, at R_c = 1 and DENSITY."""

    eta: float

    def __post_init__(self):
        if not self.eta > 2:
            raise DomainError("path loss exponent must exceed 2")


def fluid_sinr(m: FluidModel, r):
    """Linear SINR at distance r from the serving station, 0 < r < 2.

    Takes a scalar or an array; a scalar in gives a numpy float64 out.
    """
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0) & (r < 2)):
        raise DomainError("r must lie in (0, 2*R_c)")
    return (m.eta - 2) / (2 * math.pi * DENSITY) * r ** (-m.eta) * (2.0 - r) ** (m.eta - 2)


def fluid_sinr_db(m: FluidModel, r):
    return 10.0 * np.log10(fluid_sinr(m, r))


def invert_sinr_db(m: FluidModel, gamma_db, lo: float, hi: float):
    """Solve fluid_sinr_db(m, r) = gamma_db on [lo, hi] by bisection.

    Works elementwise on arrays. The profile is strictly decreasing on
    (0, 2); an answer is clipped to the bracket if its gamma_db falls
    outside the range, and each element stops once its interval is within
    a relative 1e-12.
    """
    g = np.asarray(gamma_db, dtype=float)
    at_lo, at_hi = g >= fluid_sinr_db(m, lo), g <= fluid_sinr_db(m, hi)
    a, b = np.full(g.shape, float(lo)), np.full(g.shape, float(hi))
    active = ~(at_lo | at_hi)
    for _ in range(_BISECTION_MAX_ITER):
        if not active.any():
            break
        mid = 0.5 * (a + b)
        right = fluid_sinr_db(m, mid) > g
        a = np.where(active & right, mid, a)
        b = np.where(active & ~right, mid, b)
        active &= b - a > _BISECTION_REL_TOL * b
    return np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (a + b)))[()]


class FluidCdf:
    """Analytic SINR CDF of the fluid cell, optionally shifted in dB.

    A UE is uniform on the annulus exclusion <= r <= MEAN_CELL_RADIUS
    (~1.05 R_c); with the bare R_c disk the measured fluid-vs-Poisson
    shifts sit ~0.9 dB above the a*eta + b law.

    Exposes the same evaluate/quantile surface as an empirical CDF so
    curves from both models can be compared on equal footing. A shift of
    s dB moves the whole curve left by s (the fitted-fluid correction).
    """

    def __init__(self, model: FluidModel, exclusion: float, shift_db: float = 0.0):
        if not 0 < exclusion < 1:
            raise DomainError("exclusion must lie in (0, 1)")
        self.model = model
        self.shift_db = shift_db
        self.inner_radius = exclusion

    def evaluate(self, gamma_db):
        """P(SINR in dB <= gamma_db); DomainError at nan."""
        g = np.asarray(gamma_db, dtype=float)
        if np.isnan(g).any():
            raise DomainError("cannot evaluate a CDF at nan")
        lo, edge = self.inner_radius, MEAN_CELL_RADIUS
        rstar = invert_sinr_db(self.model, g + self.shift_db, lo, edge)
        return np.clip((edge**2 - rstar**2) / (edge**2 - lo**2), 0.0, 1.0)

    def quantile(self, p):
        """Inverse CDF; closed form via the annulus area law."""
        parr = np.asarray(p, dtype=float)
        if not np.all((parr > 0) & (parr < 1)):
            raise DomainError("p must lie in (0, 1)")
        lo, edge = self.inner_radius, MEAN_CELL_RADIUS
        r = np.sqrt(edge**2 - parr * (edge**2 - lo**2))
        return fluid_sinr_db(self.model, r) - self.shift_db


def spectral_efficiency(gamma):
    """Shannon spectral efficiency log2(1 + gamma) in bits/s/Hz."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise DomainError("SINR must be nonnegative")
    return np.log2(1.0 + g)


def cell_edge_throughput(m: FluidModel) -> float:
    """Minimum (cell-edge) spectral efficiency, at r = R_c = 1."""
    return spectral_efficiency(fluid_sinr(m, 1.0))


def average_cell_throughput(m: FluidModel, exclusion: float) -> float:
    """Area-average spectral efficiency over the annulus exclusion <= r <= 1.

    Integrated in u = log r, where the integrand is smooth down to tiny
    exclusion radii, by the fixed Gauss-Legendre rule (r dr = r^2 du).
    """
    if not 0 < exclusion < 1:
        raise DomainError("exclusion must lie in (0, 1)")
    u_lo = math.log(exclusion)
    half = -0.5 * u_lo
    r = np.exp(u_lo + half * (_GAUSS_NODES + 1.0))
    integrand = np.log2(1.0 + fluid_sinr(m, r)) * 2.0 * r**2 / (1 - exclusion**2)
    return float(half * np.dot(_GAUSS_WEIGHTS, integrand))
