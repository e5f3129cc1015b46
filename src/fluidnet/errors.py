"""Exception hierarchy for fluidnet."""


class FluidNetError(Exception):
    """Base class for all fluidnet errors."""


class DomainError(FluidNetError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class InsufficientStations(FluidNetError):
    """A layout has too few stations for the requested computation."""


class NoInterference(InsufficientStations):
    """The SINR needs at least one interfering station."""


class EmptySample(FluidNetError):
    """An empirical CDF cannot be built from an empty sample."""


class DegenerateFit(FluidNetError):
    """Linear fit requested on degenerate abscissas (all equal)."""


class ZeroVariance(FluidNetError):
    """Correlation undefined when one input has zero variance."""


class ConfigError(FluidNetError, ValueError):
    """Invalid experiment configuration."""
