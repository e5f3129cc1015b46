"""Downlink SINR computation and Monte Carlo driver.

The SINR is interference-limited, like the fluid closed form: the path
gain r^-eta of a user's best (nearest) server divided by the summed gains
of every other station, r_best^-eta / sum_{j != best} r_j^-eta.

Each layout's distances are turned into log r once; the gain for each eta
is then exp(-eta * log r), within about 3e-14 relative of r**-eta at
eta 40 and 5e-15 at eta 6, for a fraction of pow's cost. The interference
is the row sum of all gains minus the serving gain. That difference rounds
onto the grid of ulp(serving gain), a relative error of about
eps * (1 + SINR). Ulp-level changes of the gains leave that rounding as it
is; summing the interferers alone would not, and would move the recorded
benchmark outputs (the hexagonal CDFs at high eta) past their limits.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
    nearest-image direction) to the exclusion radius and the distance rows
    of those that moved are recomputed. Rounding can leave a pushed UE a few
    ulp inside the radius, where the next push puts it back in place: once
    a pass moves no UE, every later pass would repeat it, so the clamp stops.
    """
    period = np.array([region.width, region.height])
    rows = np.arange(len(ue))
    for _ in range(_CLAMP_PASSES):
        best = np.argmin(d, axis=1)
        offenders = np.nonzero(d[rows, best] < exclusion_radius)[0]
        if offenders.size == 0:
            break
        bs = stations[best[offenders]]
        disp = wrapped_displacement(region, bs, ue[offenders])
        norm = np.hypot(disp[:, 0], disp[:, 1])[:, None]
        unit = np.zeros_like(disp)
        unit[:, 0] = 1.0  # the direction of a UE that sits on its server
        np.divide(disp, norm, out=unit, where=norm > 0)
        pushed = (bs + exclusion_radius * unit) % period
        moves = (pushed != ue[offenders]).any(axis=1)
        if not moves.any():
            break
        offenders = offenders[moves]
        ue[offenders] = pushed[moves]
        d[offenders] = torus_distance_matrix(region, ue[offenders], stations)
    return d


def sinr_field(layout: NetworkLayout, etas: Sequence[float],
               users: UserSet) -> np.ndarray:
    """Linear SINR of shape (len(etas), users), with exclusion-radius clamping.

    Distances, the clamp and log r depend only on the layout, so they are
    computed once for all path-loss exponents; each eta then costs one
    multiply, one exp and the row sums. The reduction runs on row blocks in
    separate threads and overwrites the distance matrix with its logarithm.
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
        log_d = np.log(d[rows], out=d[rows])
        for eta, sinr_row in zip(etas, out):
            np.exp(np.multiply(log_d, -eta, out=g), out=g)
            gbest = g[i, b]
            np.divide(gbest, g.sum(axis=1) - gbest, out=sinr_row[rows])

    # a zero interference or an overflow gives a non-finite SINR, for which
    # run_monte_carlo raises DomainError; numpy's warning would only precede it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        map_row_blocks(reduce_rows, len(ue))
    return out


def run_monte_carlo(config: ExperimentConfig, *,
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
    etas = config.eta_list
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
