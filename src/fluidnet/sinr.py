"""Downlink SINR computation and Monte Carlo driver.

The SINR of a user is the received power from its best (nearest) server
divided by the summed power of every other station plus thermal noise.
With a power-law path gain K*r^-eta and zero noise this reduces to the
distance-only ratio r^-eta / sum_j r_j^-eta.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .errors import DomainError, NoInterference, NonPositiveDistance
from .geometry import Point, TorusRegion, torus_distance_matrix, wrapped_displacement
from .parallel import map_row_blocks
from .placement import (ModelKind, NetworkLayout, generate_hexagonal,
                        generate_poisson, hexagonal_density,
                        region_for_expected_count)
from .rng import child_seed, generator

# Stream ids under the experiment seed: 0 draws the fixed UE set,
# k >= 1 seeds the layout of run k.
_UE_STREAM = 0


@dataclass(frozen=True)
class PropagationModel:
    """Power-law path gain K * r^-eta with per-subcarrier power and noise."""

    path_loss_exponent: float
    path_gain_constant: float = 1.0
    tx_power: float = 1.0
    thermal_noise: float = 0.0

    def __post_init__(self):
        if self.path_loss_exponent <= 2:
            raise DomainError("path loss exponent must exceed 2")
        if self.path_gain_constant <= 0 or self.tx_power <= 0:
            raise DomainError("K and P must be positive")
        if self.thermal_noise < 0:
            raise DomainError("thermal noise must be nonnegative")


@dataclass(frozen=True)
class UserSet:
    """UE positions, fixed across Monte Carlo runs."""

    points: np.ndarray  # (n, 2)
    seed: int
    exclusion_radius: float


@dataclass(frozen=True)
class SinrSampleSet:
    """Pooled linear-scale SINR values from a Monte Carlo experiment."""

    samples: np.ndarray  # (runs * users,) linear scale, run-major order
    eta: float
    runs: int
    users: int
    layout_model: ModelKind
    config_digest: str
    seed: int

    def db(self) -> np.ndarray:
        return 10.0 * np.log10(self.samples)


def path_gain(model: PropagationModel, distance: float):
    """K * distance^-eta."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("path gain undefined at distance <= 0")
    out = model.path_gain_constant * d ** (-model.path_loss_exponent)
    return out if out.ndim else float(out)


def best_server(layout: NetworkLayout, u: Point) -> int:
    """Index of the nearest station under the torus metric (ties: lowest index)."""
    d = torus_distance_matrix(layout.region, np.array([[u.x, u.y]]), layout.stations)
    return int(np.argmin(d[0]))


def sinr(layout: NetworkLayout, model: PropagationModel, u: Point) -> float:
    """Linear SINR of a single user against a layout (no repositioning)."""
    if layout.n_stations < 2 and model.thermal_noise == 0:
        raise NoInterference("zero-noise SINR needs at least 2 stations")
    d = torus_distance_matrix(layout.region, np.array([[u.x, u.y]]), layout.stations)[0]
    gains = path_gain(model, d)
    i = int(np.argmin(d))
    signal = model.tx_power * gains[i]
    interference = model.tx_power * (gains.sum() - gains[i])
    return signal / (interference + model.thermal_noise)


def draw_user_set(region: TorusRegion, n: int, seed: int, exclusion_radius: float) -> UserSet:
    rng = generator(seed, _UE_STREAM)
    xy = rng.random((n, 2)) * np.array([region.width, region.height])
    return UserSet(points=xy, seed=seed, exclusion_radius=exclusion_radius)


def _clamp_to_exclusion(region: TorusRegion, stations: np.ndarray, ue: np.ndarray,
                        d: np.ndarray, exclusion_radius: float, max_passes: int = 5):
    """Reposition UEs closer than the exclusion radius to their best server.

    Offenders are pushed radially (away from the server, along the
    nearest-image direction) to exactly the exclusion radius and their
    distance rows are recomputed.
    """
    for _ in range(max_passes):
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


def sinr_field(layout: NetworkLayout, model: PropagationModel | Sequence[PropagationModel],
               users: UserSet) -> np.ndarray:
    """Linear SINR for every UE in the set, with exclusion-radius clamping.

    ``model`` is one PropagationModel, giving shape (users,), or a sequence
    of them, giving shape (len(models), users). Distances and the clamp
    depend only on the layout, so they are computed once for all models;
    the per-model reduction runs on row blocks in separate threads.
    """
    single = isinstance(model, PropagationModel)
    models = [model] if single else list(model)
    if layout.n_stations < 2 and any(m.thermal_noise == 0 for m in models):
        raise NoInterference("zero-noise SINR needs at least 2 stations")
    ue = users.points.astype(float).copy()
    d = torus_distance_matrix(layout.region, ue, layout.stations)
    d = _clamp_to_exclusion(layout.region, layout.stations, ue, d, users.exclusion_radius)
    best = np.argmin(d, axis=1)
    index = np.arange(len(ue))
    gains = np.empty_like(d)
    out = np.empty((len(models), len(ue)))

    def reduce_rows(rows):
        g, b, i = gains[rows], best[rows], index[:rows.stop - rows.start]
        for m, sinr_row in zip(models, out):
            np.power(d[rows], -m.path_loss_exponent, out=g)
            g *= m.path_gain_constant
            gbest = g[i, b]
            signal = m.tx_power * gbest
            interference = m.tx_power * (g.sum(axis=1) - gbest)
            np.divide(signal, interference + m.thermal_noise, out=sinr_row[rows])

    map_row_blocks(reduce_rows, len(ue))
    return out[0] if single else out


def experiment_region(config: ExperimentConfig, model_kind: ModelKind) -> TorusRegion:
    """Simulation region for a config: sized for the expected station count
    (Poisson) or for the wrap-compatible lattice (hexagonal)."""
    r = config.effective_half_isd
    if model_kind is ModelKind.HEXAGONAL:
        return generate_hexagonal(r, config.rings, fill_region=True).region
    return region_for_expected_count(r, config.expected_stations)


def monte_carlo_sweep(config: ExperimentConfig,
                      model_kind: ModelKind = ModelKind.POISSON) -> dict:
    """Monte Carlo SINR experiment for every path-loss exponent in config.eta_list.

    The UE set is drawn once; each run redraws the station layout from a
    derived sub-seed (the hexagonal reference layout is deterministic, so
    its runs coincide). Each layout is drawn and measured once for all
    eta values. Returns {eta: SinrSampleSet}, samples pooled in run-major
    order, one array per eta so callers can release them one at a time.
    Raises DomainError when a layout yields a non-finite SINR.
    """
    config.validate()
    etas = list(dict.fromkeys(config.eta_list))
    r = config.effective_half_isd
    models = [PropagationModel(path_loss_exponent=eta,
                               path_gain_constant=config.path_gain_k,
                               tx_power=config.tx_power_w,
                               thermal_noise=config.noise_w) for eta in etas]
    region = experiment_region(config, model_kind)
    users = draw_user_set(region, config.users, config.seed,
                          exclusion_radius=config.exclusion * r)
    density = hexagonal_density(r)

    n = config.users
    samples = [np.empty(config.runs * n) for _ in etas]
    hex_layout = None
    for k in range(1, config.runs + 1):
        if model_kind is ModelKind.HEXAGONAL:
            if hex_layout is None:
                hex_layout = generate_hexagonal(r, config.rings, seed=config.seed,
                                                fill_region=True)
            layout = hex_layout
        else:
            layout = generate_poisson(region, density, child_seed(config.seed, k),
                                      half_isd=r)
        field = sinr_field(layout, models, users)
        finite = np.isfinite(field).all(axis=1)
        if not finite.all():
            eta = etas[int(np.argmin(finite))]
            raise DomainError(f"non-finite SINR at eta={eta:g} in layout {k}")
        for eta_samples, row in zip(samples, field):
            eta_samples[(k - 1) * n:k * n] = row
    return {eta: SinrSampleSet(samples=s, eta=eta, runs=config.runs, users=n,
                               layout_model=model_kind, config_digest=config.digest(),
                               seed=config.seed)
            for eta, s in zip(etas, samples)}


def run_monte_carlo(config: ExperimentConfig, eta: float,
                    model_kind: ModelKind = ModelKind.POISSON) -> SinrSampleSet:
    """Monte Carlo SINR experiment for one path-loss exponent (see monte_carlo_sweep)."""
    if eta <= 2:
        raise DomainError("path loss exponent must exceed 2")
    samples = monte_carlo_sweep(replace(config, eta_list=(eta,)), model_kind)[eta]
    return replace(samples, config_digest=config.digest())
