"""Experiment pipelines shared by the CLI and the acceptance suite.

Wires placement, the SINR engine, the fluid analytics and the
statistics into the per-eta comparison the toolkit is about: simulate
the Poisson network, evaluate the analytic fluid cell, measure the
horizontal CDF offset, and fit it as a line in the path-loss exponent.
"""
from __future__ import annotations

from .config import ExperimentConfig
from .fluid import FluidCdf, FluidModel, average_cell_throughput, cell_edge_throughput
from .placement import ModelKind
# perfbench's tracer hooks run_monte_carlo here until ROADMAP item 1 moves the hook.
from .sinr import monte_carlo_sweep, run_monte_carlo  # noqa: F401
from .stats import (CANONICAL_FIT, EmpiricalCdf, ShiftFit, cdf_curve_correlation,
                    empirical_cdf, fit_linear, mean_horizontal_shift)


def monte_carlo_cdfs(config: ExperimentConfig,
                     model_kind: ModelKind = ModelKind.POISSON) -> dict:
    """{eta: EmpiricalCdf} over config.eta_list from one Monte Carlo sweep.

    Each eta's linear samples are released as soon as its CDF is built.
    """
    samples = monte_carlo_sweep(config, model_kind)
    return {eta: empirical_cdf(samples.pop(eta)) for eta in list(samples)}


def fit_shift_law(config: ExperimentConfig, poisson_cdfs: dict) -> ShiftFit:
    """Fit shift = a*eta + b across config.eta_list, where each eta's shift is
    the mean dB offset of the fluid CDF to the right of the Poisson CDF."""
    shifts = [mean_horizontal_shift(FluidCdf(FluidModel(eta), config.exclusion),
                                    poisson_cdfs[eta])
              for eta in config.eta_list]
    return fit_linear(config.eta_list, shifts)


def correlation_for(config: ExperimentConfig, eta: float, poisson: EmpiricalCdf) -> float:
    """Correlation between the canonically fitted fluid and Poisson CDF curves at one eta."""
    fitted = FluidCdf(FluidModel(eta), config.exclusion, CANONICAL_FIT.shift_db(eta))
    return cdf_curve_correlation(fitted, poisson)


def throughput_for(config: ExperimentConfig, eta: float) -> tuple[float, float]:
    """(cell-edge, cell-average) spectral efficiency of the fluid cell, in bits/s/Hz."""
    m = FluidModel(eta)
    return cell_edge_throughput(m), average_cell_throughput(m, config.exclusion)
