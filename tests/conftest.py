import pytest

from fluidnet.config import DEFAULT_ETAS, ExperimentConfig
from fluidnet.experiment import monte_carlo_cdfs


@pytest.fixture(scope="session")
def full_config():
    return ExperimentConfig(eta_list=DEFAULT_ETAS)


@pytest.fixture(scope="session")
def poisson_cdfs(full_config):
    # one Monte Carlo sweep over every eta, shared across the acceptance criteria
    return monte_carlo_cdfs(full_config)

