"""Downlink SINR computation and Monte Carlo driver.

The SINR is interference-limited, like the fluid closed form: the path
gain r^-eta of a user's best (nearest) server divided by the summed gains
of every other station, r_best^-eta / sum_{j != best} r_j^-eta.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .errors import DomainError
from .geometry import TorusRegion, torus_distance_matrix, wrapped_displacement
from .parallel import map_row_blocks
from .placement import (ModelKind, NetworkLayout, generate_hexagonal,
                        generate_poisson, region_for_expected_count)
from .rng import child_seed, generator

# Stream ids under the experiment seed: 0 draws the fixed UE set,
# k >= 1 seeds the layout of run k.
_UE_STREAM = 0
# Passes of the exclusion clamp: a pushed UE can land near another station.
_CLAMP_PASSES = 5


@dataclass(frozen=True)
class UserSet:
    """UE positions, fixed across Monte Carlo runs."""

    points: np.ndarray  # (n, 2)
    exclusion_radius: float


def draw_user_set(region: TorusRegion, n: int, seed: int, exclusion_radius: float) -> UserSet:
    rng = generator(seed, _UE_STREAM)
    xy = rng.random((n, 2)) * np.array([region.width, region.height])
    return UserSet(points=xy, exclusion_radius=exclusion_radius)


def _clamp_to_exclusion(region: TorusRegion, stations: np.ndarray, ue: np.ndarray,
                        d: np.ndarray, exclusion_radius: float):
    """Reposition UEs closer than the exclusion radius to their best server.

    Offenders are pushed radially (away from the server, along the
    nearest-image direction) to exactly the exclusion radius and their
    distance rows are recomputed.
    """
    for _ in range(_CLAMP_PASSES):
        best = np.argmin(d, axis=1)
        dbest = d[np.arange(len(ue)), best]
        offenders = np.nonzero(dbest < exclusion_radius)[0]
        if offenders.size == 0:
            break
        for idx in offenders:
            bs = stations[best[idx]]
            disp = wrapped_displacement(region, bs, ue[idx])
            norm = math.hypot(disp[0], disp[1])
            unit = disp / norm if norm > 0 else np.array([1.0, 0.0])
            moved = bs + exclusion_radius * unit
            ue[idx] = [moved[0] % region.width, moved[1] % region.height]
        d[offenders] = torus_distance_matrix(region, ue[offenders], stations)
    return d


def sinr_field(layout: NetworkLayout, etas: Sequence[float],
               users: UserSet) -> np.ndarray:
    """Linear SINR of shape (len(etas), users), with exclusion-radius clamping.

    Distances and the clamp depend only on the layout, so they are computed
    once for all path-loss exponents; the per-eta reduction runs on row
    blocks in separate threads.
    """
    if not all(eta > 2 for eta in etas):
        raise DomainError("path loss exponent must exceed 2")
    if layout.n_stations < 2:
        raise DomainError("SINR needs at least 2 stations")
    ue = users.points.astype(float).copy()
    d = torus_distance_matrix(layout.region, ue, layout.stations)
    d = _clamp_to_exclusion(layout.region, layout.stations, ue, d, users.exclusion_radius)
    best = np.argmin(d, axis=1)
    index = np.arange(len(ue))
    gains = np.empty_like(d)
    out = np.empty((len(etas), len(ue)))

    def reduce_rows(rows):
        g, b, i = gains[rows], best[rows], index[:rows.stop - rows.start]
        for eta, sinr_row in zip(etas, out):
            np.power(d[rows], -eta, out=g)
            gbest = g[i, b]
            np.divide(gbest, g.sum(axis=1) - gbest, out=sinr_row[rows])

    # a zero interference or an overflow gives a non-finite SINR, for which
    # monte_carlo_sweep raises DomainError; numpy's warning would only precede it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        map_row_blocks(reduce_rows, len(ue))
    return out


def monte_carlo_sweep(config: ExperimentConfig,
                      model_kind: ModelKind = ModelKind.POISSON) -> dict:
    """Monte Carlo SINR experiment for every path-loss exponent in config.eta_list.

    The UE set is drawn once. The Poisson model redraws the station layout
    for each of config.runs runs from a derived sub-seed; the hexagonal
    reference layout is deterministic, so it is drawn and measured once.
    Each layout is measured once for all eta values. Returns
    {eta: linear SINR samples}, pooled in run-major order, one array per
    eta so callers can release them one at a time.
    Raises DomainError when a layout yields a non-finite SINR.
    """
    config.validate()
    etas = list(dict.fromkeys(config.eta_list))
    if model_kind is ModelKind.HEXAGONAL:
        hexagonal = generate_hexagonal(config.rings)
        region, runs = hexagonal.region, 1
    else:
        region, runs = region_for_expected_count(config.expected_stations), config.runs
    users = draw_user_set(region, config.users, config.seed,
                          exclusion_radius=config.exclusion)

    n = config.users
    samples = [np.empty(runs * n) for _ in etas]
    for k in range(1, runs + 1):
        if model_kind is ModelKind.HEXAGONAL:
            layout = hexagonal
        else:
            layout = generate_poisson(region, child_seed(config.seed, k))
        field = sinr_field(layout, etas, users)
        finite = np.isfinite(field).all(axis=1)
        if not finite.all():
            eta = etas[int(np.argmin(finite))]
            raise DomainError(f"non-finite SINR at eta={eta:g} in layout {k}")
        for eta_samples, row in zip(samples, field):
            eta_samples[(k - 1) * n:k * n] = row
    return dict(zip(etas, samples))


def run_monte_carlo(config: ExperimentConfig, eta: float,
                    model_kind: ModelKind = ModelKind.POISSON) -> np.ndarray:
    """Linear SINR samples for one path-loss exponent (see monte_carlo_sweep)."""
    if eta <= 2:
        raise DomainError("path loss exponent must exceed 2")
    return monte_carlo_sweep(replace(config, eta_list=(eta,)), model_kind)[eta]
