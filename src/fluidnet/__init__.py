"""SINR distributions for hexagonal, Poisson and fluid cellular networks."""

from .config import ExperimentConfig
from .fluid import (FluidCdf, FluidModel, average_cell_throughput,
                    cell_edge_throughput, fluid_sinr, spectral_efficiency)
from .geometry import TorusRegion
from .placement import (ModelKind, NetworkLayout, generate_hexagonal,
                        generate_poisson, region_for_expected_count)
from .sinr import UserSet, monte_carlo_sweep, run_monte_carlo, sinr_field
from .stats import (CANONICAL_FIT, EmpiricalCdf, FitCoefficients, ShiftFit,
                    cdf_curve_correlation, correlation_coefficient,
                    empirical_cdf, fit_linear, mean_horizontal_shift)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_FIT", "EmpiricalCdf", "ExperimentConfig", "FitCoefficients",
    "FluidCdf", "FluidModel", "ModelKind", "NetworkLayout", "ShiftFit",
    "TorusRegion", "UserSet", "average_cell_throughput", "cdf_curve_correlation",
    "cell_edge_throughput", "correlation_coefficient", "empirical_cdf",
    "fit_linear", "fluid_sinr", "generate_hexagonal", "generate_poisson",
    "mean_horizontal_shift", "monte_carlo_sweep",
    "region_for_expected_count", "run_monte_carlo", "sinr_field",
    "spectral_efficiency",
]
