"""Exception hierarchy for fluidnet: one class per exit code of the CLI."""


class FluidNetError(Exception):
    """Base class for all fluidnet errors."""


class DomainError(FluidNetError, ValueError):
    """An argument or a result is outside what the computation can handle."""


class ConfigError(FluidNetError, ValueError):
    """Invalid experiment configuration."""
