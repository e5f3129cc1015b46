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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .placement import DENSITY

# Newton steps allowed to invert_sinr_db and _gauss_rule, far more than they take (CHANGES.md).
_NEWTON_MAX_ITER = 50
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
    """Solve fluid_sinr_db(m, r) = gamma_db on [lo, hi], 0 < lo < hi < 2.

    Works elementwise on arrays; an answer is clipped to lo or hi if its
    gamma_db falls outside the profile's range on the bracket. Inside it,
    Newton's method runs in u = log r on

        h(u) = ln gamma(e^u) - ln 10 * gamma_db / 10
             = ln c - eta*u + (eta - 2)*ln(2 - e^u) - ln 10 * gamma_db / 10,

    with c = (eta - 2) / (2 pi DENSITY). h is decreasing and concave,
    h'' = -(eta-2)*2e^u/(2-e^u)^2 < 0, so Newton started at u = log hi,
    right of the root, moves left at each step and stays right of it:
    no safeguard is needed. An element stops once a step no longer moves
    it left, a few ulp from the root in r.
    """
    g = np.asarray(gamma_db, dtype=float)
    at_lo, at_hi = g >= fluid_sinr_db(m, lo), g <= fluid_sinr_db(m, hi)
    inside = ~(at_lo | at_hi)
    eta = m.eta
    # h(u) = offset - eta*u + (eta-2)*ln(2 - e^u), one offset per element inside
    offset = math.log((eta - 2) / (2 * math.pi * DENSITY)) - math.log(10) / 10 * g[inside]
    u = np.full(offset.shape, math.log(hi))
    active = np.ones(offset.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        r = np.exp(u)
        h = offset - eta * u + (eta - 2) * np.log(2.0 - r)
        u_next = u + h / (eta + (eta - 2) * r / (2.0 - r))
        active &= u_next < u
        if not active.any():
            break
        u = np.where(active, u_next, u)
    out = np.where(at_lo, float(lo), float(hi))
    out[inside] = np.exp(u)
    return out[()]


class FluidCdf:
    """Analytic SINR CDF of the fluid cell, optionally shifted in dB.

    A UE is uniform on the annulus exclusion <= r <= MEAN_CELL_RADIUS, the
    mean-cell disk: the bare R_c disk moves the fluid-vs-Poisson shifts off
    the a*eta + b law (CHANGES.md). It has the evaluate/quantile surface of an
    empirical CDF; a shift of s dB moves the whole curve left by s.
    """

    def __init__(self, model: FluidModel, exclusion: float, shift_db: float = 0.0):
        if not 0 < exclusion < 1:
            raise DomainError("exclusion must lie in (0, 1)")
        if not math.isfinite(shift_db):
            raise DomainError("CDF shift must be finite")
        self.model = model
        self.shift_db = shift_db
        self.inner_radius = exclusion

    def evaluate(self, gamma_db):
        """P(SINR in dB <= gamma_db): the annulus area share beyond the radius
        invert_sinr_db gives for gamma_db + shift_db; 0 below the SINR range
        and 1 above it, -inf and inf included. DomainError at nan."""
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


def fluid_curve(m: FluidModel, exclusion: float, rows: int) -> tuple:
    """Fluid cell profile on a geometric r-grid of `rows` radii from exclusion
    to R_c = 1: the columns (r, SINR in dB, CDF, spectral efficiency).

    SINR falls with r, so the CDF at the SINR of radius r is the area
    share of the annulus beyond it, (1 - r^2) / (1 - exclusion^2): over the
    R_c disk, not FluidCdf's mean-cell disk.
    """
    if not 0 < exclusion < 1:
        raise DomainError("exclusion must lie in (0, 1)")
    r = np.geomspace(exclusion, 1.0, rows)
    gamma = fluid_sinr(m, r)
    return r, 10.0 * np.log10(gamma), (1 - r**2) / (1 - exclusion**2), spectral_efficiency(gamma)


def spectral_efficiency(gamma):
    """Shannon spectral efficiency log2(1 + gamma) in bits/s/Hz."""
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):
        raise DomainError("SINR must be nonnegative")
    return np.log2(1.0 + g)


def cell_edge_throughput(m: FluidModel) -> float:
    """Minimum (cell-edge) spectral efficiency, at r = R_c = 1."""
    return spectral_efficiency(fluid_sinr(m, 1.0))


@functools.cache
def _gauss_rule() -> tuple:
    """Ascending nodes and weights on [-1, 1] of the n = 64 point Gauss-Legendre
    rule, without LAPACK: Newton's method from cos(pi (k - 1/4) / (n + 1/2)) finds
    the positive roots of P_n, from j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2); the
    weights are 2 / ((1 - x^2) P_n'^2), with P_n' = n (P_(n-1) - x P_n) / (1 - x^2)."""
    n = 64  # even: the negative half mirrors the positive one
    x = np.cos(math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        one_minus_sq = (1.0 - x) * (1.0 + x)  # accurate near x = 1
        slope = n * (p_prev - x * p) / one_minus_sq
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:  # rounding noise: slope is P_n' at the root
            break
    w = 2.0 / (one_minus_sq * slope**2)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


def average_cell_throughput(m: FluidModel, exclusion: float) -> float:
    """Area-average spectral efficiency over the annulus exclusion <= r <= 1.

    Integrated in u = log r, where the integrand is smooth down to tiny
    exclusion radii, by the fixed Gauss-Legendre rule (r dr = r^2 du).
    """
    if not 0 < exclusion < 1:
        raise DomainError("exclusion must lie in (0, 1)")
    u_lo = math.log(exclusion)
    half = -0.5 * u_lo
    nodes, weights = _gauss_rule()
    r = np.exp(u_lo + half * (nodes + 1.0))
    integrand = np.log2(1.0 + fluid_sinr(m, r)) * 2.0 * r**2 / (1 - exclusion**2)
    return float(half * np.dot(weights, integrand))
