"""Downlink SINR computation and Monte Carlo driver.

The SINR is interference-limited, like the fluid closed form: the path
gain r^-eta of a user's best (nearest) server divided by the summed gains
of every other station, r_best^-eta / sum_{j != best} r_j^-eta. README
"Numerics" gives the error of each step.
"""
from __future__ import annotations

import mmap
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import parallel
from .config import ExperimentConfig
from .errors import DomainError
from .geometry import TorusRegion, torus_distance_matrix, wrapped_displacement
from .parallel import row_tiles, tile_rows
from .placement import (ModelKind, NetworkLayout, generate_hexagonal,
                        generate_poisson, region_for_expected_count)
from .rng import child_seed, generator

# Stream ids under the experiment seed: 0 draws the fixed UE set,
# k >= 1 seeds the layout of run k.
_UE_STREAM = 0
# Passes of the exclusion clamp: a pushed UE can land near another station.
_CLAMP_PASSES = 5
# Largest |eta_0 + k * step - eta_k| of an eta list whose gains are chained.
_PROGRESSION_TOL = 1e-12


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

    Returns d and each row's best (nearest) server, updated for every row
    re-measured. Offenders are pushed radially (along the nearest-image
    direction) to the exclusion radius, and only the rows of those that moved
    are recomputed and scanned again. Rounding can leave a pushed UE a few ulp
    inside the radius, where every later push would put it back in place:
    such a UE is left there, and once a pass moves no UE the clamp stops.
    """
    period = np.array([region.width, region.height])
    best = np.argmin(d, axis=1)
    offenders = np.nonzero(d[np.arange(len(d)), best] < exclusion_radius)[0]
    for _ in range(_CLAMP_PASSES):
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
        moved = offenders[moves]
        ue[moved] = pushed[moves]
        d[moved] = moved_d = torus_distance_matrix(region, ue[moved], stations)
        best[moved] = moved_best = np.argmin(moved_d, axis=1)
        offenders = moved[moved_d[np.arange(len(moved)), moved_best] < exclusion_radius]
    return d, best


def _progression_step(etas: Sequence[float]):
    """The step of an evenly stepped eta list of 3 or more values, else None.

    Two values are always evenly stepped, but chaining them saves no exp.
    """
    n = len(etas)
    if n < 3:
        return None
    step = (etas[-1] - etas[0]) / (n - 1)
    drift = np.abs(etas[0] + step * np.arange(n) - np.asarray(etas, dtype=float))
    return step if drift.max() <= _PROGRESSION_TOL else None


def sinr_field(layout: NetworkLayout, etas: Sequence[float], users: UserSet, *,
               scratch: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Linear SINR of shape (len(etas), users), with exclusion-radius clamping.

    One pass per row tile (README "Numerics") measures the tile's distances,
    clamps its users, takes log r once for all etas, and for each eta
    computes the gains and divides the serving gain by the row sum minus
    it, whose rounding the recorded benchmark outputs hold; summing the
    interferers alone would move them. Each keyword buffer defaults to a new
    array: scratch, a 1-D float64 array of at least 3 * tile_rows(users,
    stations) * stations elements, holds the tile's distances, gains and
    distance scratch (a smaller one is replaced); out, a float64 array of
    shape (len(etas), users) such as a slice of the caller's samples,
    receives the SINR and is returned. DomainError for an eta <= 2 or a
    layout of fewer than 2 stations.
    """
    if not all(eta > 2 for eta in etas):
        raise DomainError("path loss exponent must exceed 2")
    if layout.n_stations < 2:
        raise DomainError("SINR needs at least 2 stations")
    region, stations = layout.region, layout.stations
    ue = users.points.astype(float)
    n_rows, n_cols = len(ue), layout.n_stations
    if out is None:
        out = np.empty((len(etas), n_rows))
    tile = tile_rows(n_rows, n_cols) * n_cols
    if scratch is None or scratch.size < 3 * tile:
        scratch = np.empty(3 * tile)
    step = _progression_step(etas)

    def tile_gains(log_d, g):
        """Yield g holding each eta's gains in turn; may overwrite log_d."""
        if step is None:
            for eta in etas:
                yield np.exp(np.multiply(log_d, -eta, out=g), out=g)
            return
        yield np.exp(np.multiply(log_d, -etas[0], out=g), out=g)
        # no later eta needs log r, so the factor takes its place
        factor = np.exp(np.multiply(log_d, -step, out=log_d), out=log_d)
        for _ in etas[1:]:
            yield np.multiply(g, factor, out=g)

    # a zero interference or an overflow gives a non-finite SINR, for which
    # run_monte_carlo raises DomainError; numpy's warning would only precede it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rows in row_tiles(n_rows, n_cols):
            size = (rows.stop - rows.start) * n_cols
            d = torus_distance_matrix(region, ue[rows], stations, scratch=scratch[tile:],
                                      out=scratch[:size].reshape(-1, n_cols))
            # the clamp re-measures only its own offenders' rows, so a tile's
            # clamp is the whole matrix's clamp of those rows
            d, best = _clamp_to_exclusion(region, stations, ue[rows], d, users.exclusion_radius)
            best += np.arange(len(best)) * n_cols  # flat index of each row's best server
            log_d = np.log(d, out=d)
            g = scratch[tile:tile + size].reshape(d.shape)
            interference = np.empty(len(best))
            for gains, serving in zip(tile_gains(log_d, g), out[:, rows]):
                np.take(gains, best, out=serving, mode="clip")  # "raise" would buffer out
                np.add.reduce(gains, axis=1, out=interference)  # what gains.sum(axis=1) computes
                interference -= serving
                np.divide(serving, interference, out=serving)
    return out


def run_monte_carlo(config: ExperimentConfig, *,
                    model_kind: ModelKind = ModelKind.POISSON) -> dict:
    """Monte Carlo SINR experiment for every path-loss exponent in config.eta_list.

    Returns {eta: linear SINR samples}, each a row of one (len(etas), runs x
    users) array in run-major order. The UE set is drawn once; the Poisson
    model draws each of config.runs layouts from a derived sub-seed as its
    run starts, and the deterministic hexagonal layout is measured once.
    Every layout's sinr_field works in the run's one scratch of 3 row tiles.
    Raises DomainError when a layout yields a non-finite SINR.
    """
    etas = config.eta_list
    if model_kind is ModelKind.HEXAGONAL:
        hexagonal = generate_hexagonal(config.rings)
        region, runs, layouts = hexagonal.region, 1, [hexagonal]
    else:
        region, runs = region_for_expected_count(config.expected_stations), config.runs
        layouts = (generate_poisson(region, child_seed(config.seed, k))
                   for k in range(1, runs + 1))
    users = draw_user_set(region, config.users, config.seed,
                          exclusion_radius=config.exclusion)

    n = config.users
    samples = np.empty((len(etas), runs * n))
    # a mapping of its own, unmapped when the run ends: from malloc it would land on
    # the heap once an earlier run's freed scratch has raised glibc's mmap
    # threshold, and stay resident there (timings in CHANGES.md)
    scratch = np.frombuffer(mmap.mmap(-1, 3 * parallel.TILE_ELEMENTS * 8))
    for k, layout in enumerate(layouts, 1):
        field = sinr_field(layout, etas, users, scratch=scratch,
                           out=samples[:, (k - 1) * n:k * n])
        finite = np.isfinite(field).all(axis=1)
        if not finite.all():
            eta = etas[int(np.argmin(finite))]
            raise DomainError(f"non-finite SINR at eta={eta:g} in layout {k}")
    return dict(zip(etas, samples))
