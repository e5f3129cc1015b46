"""Experiment pipelines shared by the CLI and the acceptance suite.

Wires placement, the SINR engine, the fluid analytics and the
statistics into the per-eta comparison the toolkit is about: simulate
the Poisson network, evaluate the analytic fluid cell, measure the
horizontal CDF offset, and fit it as a line in the path-loss exponent.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .config import ExperimentConfig
from .errors import ConfigError
from .fluid import (FluidCdf, FluidModel, average_cell_throughput,
                    cell_edge_throughput, mean_cell_radius)
from .placement import ModelKind
from .sinr import monte_carlo_sweep, run_monte_carlo
from .stats import (CANONICAL_FIT, EmpiricalCdf, ShiftFit, cdf_curve_correlation,
                    empirical_cdf, fit_linear, mean_horizontal_shift)


def fluid_model_for(config: ExperimentConfig, eta: float) -> FluidModel:
    return FluidModel(half_isd=config.effective_half_isd, eta=eta)


def fluid_cdf_for(config: ExperimentConfig, eta: float, shift_db: float = 0.0) -> FluidCdf:
    """Analytic fluid CDF matched to a user population uniform over the area.

    The UE disk radius is the equivalent-mean-cell-area radius
    (~1.05 R_c) rather than R_c itself; with the bare R_c disk the
    measured fluid-vs-Poisson shifts sit ~0.9 dB above the a*eta + b law.
    """
    m = fluid_model_for(config, eta)
    return FluidCdf(m, config.exclusion, shift_db, cell_radius=mean_cell_radius(m))


def poisson_cdf_for(config: ExperimentConfig, eta: float) -> EmpiricalCdf:
    return empirical_cdf(run_monte_carlo(config, eta, ModelKind.POISSON))


def monte_carlo_cdfs(config: ExperimentConfig,
                     model_kind: ModelKind = ModelKind.POISSON) -> dict:
    """{eta: EmpiricalCdf} over config.eta_list from one Monte Carlo sweep.

    Each eta's linear samples are released as soon as its CDF is built.
    """
    if model_kind is ModelKind.HEXAGONAL:
        # the hexagonal reference is deterministic; one run carries all information
        config = replace(config, runs=1)
    sample_sets = monte_carlo_sweep(config, model_kind)
    return {eta: empirical_cdf(sample_sets.pop(eta)) for eta in list(sample_sets)}


def hexagonal_cdf_for(config: ExperimentConfig, eta: float) -> EmpiricalCdf:
    return monte_carlo_cdfs(replace(config, eta_list=(eta,)), ModelKind.HEXAGONAL)[eta]


def measure_shift(config: ExperimentConfig, eta: float,
                  poisson: EmpiricalCdf | None = None) -> float:
    """Mean dB offset of the fluid CDF to the right of the Poisson CDF."""
    if poisson is None:
        poisson = poisson_cdf_for(config, eta)
    return mean_horizontal_shift(fluid_cdf_for(config, eta), poisson)


def fit_shift_law(config: ExperimentConfig,
                  poisson_cdfs: dict | None = None) -> ShiftFit:
    """Measure per-eta shifts and fit shift = a*eta + b across config.eta_list."""
    if len(config.eta_list) < 2:
        raise ConfigError("shift fitting needs at least 2 eta values")
    etas = list(config.eta_list)
    cdfs = poisson_cdfs if poisson_cdfs is not None else monte_carlo_cdfs(config)
    shifts = [measure_shift(config, eta, cdfs[eta]) for eta in etas]
    return fit_linear(etas, shifts)


def correlation_for(config: ExperimentConfig, eta: float,
                    poisson: EmpiricalCdf | None = None, fit=CANONICAL_FIT) -> float:
    """Correlation between the fitted-fluid and Poisson CDF curves at one eta."""
    if poisson is None:
        poisson = poisson_cdf_for(config, eta)
    fitted = fluid_cdf_for(config, eta, shift_db=fit.shift_db(eta))
    return cdf_curve_correlation(fitted, poisson)


@dataclass(frozen=True)
class ThroughputSummary:
    eta: float
    cell_edge_bps_hz: float
    cell_average_bps_hz: float


def throughput_for(config: ExperimentConfig, eta: float) -> ThroughputSummary:
    m = fluid_model_for(config, eta)
    return ThroughputSummary(eta=eta,
                             cell_edge_bps_hz=cell_edge_throughput(m),
                             cell_average_bps_hz=average_cell_throughput(m, config.exclusion))
