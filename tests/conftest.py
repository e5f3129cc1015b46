import pytest

from fluidnet import parallel
from fluidnet.config import DEFAULT_ETAS, ExperimentConfig
from fluidnet.experiment import monte_carlo_cdfs


@pytest.fixture(scope="session")
def full_config():
    return ExperimentConfig(eta_list=DEFAULT_ETAS)


@pytest.fixture(scope="session")
def poisson_cdfs(full_config):
    # one Monte Carlo sweep over every eta, shared across the acceptance criteria
    return monte_carlo_cdfs(full_config)


@pytest.fixture
def worker_count(monkeypatch):
    """Setter for the row-block worker count; each test gets its own thread pool."""
    monkeypatch.setattr(parallel, "_pool", None)
    yield lambda n: monkeypatch.setattr(parallel, "WORKERS", n)
    if parallel._pool is not None:
        parallel._pool.shutdown()
