"""Seeded random number streams.

All randomness flows through numpy's PCG64 generator seeded from a
SeedSequence built as [seed, stream ids...], so every experiment is
bit-reproducible and independent sub-streams can be derived from a
single top-level seed.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def generator(seed: int, *stream: int) -> np.random.Generator:
    """PCG64 generator for the sub-stream identified by (seed, *stream)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def child_seed(seed: int, *stream: int) -> int:
    """Derive a deterministic integer sub-seed from (seed, *stream)."""
    ss = np.random.SeedSequence([int(seed), *map(int, stream)])
    return int(ss.generate_state(1, np.uint64)[0])


# Sequential search underflows once exp(-mean) is subnormal; hand over
# to numpy's sampler well before that point.
_SEQUENTIAL_MEAN_LIMIT = 600.0


def poisson_variate(rng: np.random.Generator, mean: float) -> int:
    """Draw one Poisson(mean) variate by CDF inversion with sequential search.

    Exact and fast for the means used here (tens of stations).
    """
    if mean <= 0:
        raise ValueError("Poisson mean must be positive")
    if mean > _SEQUENTIAL_MEAN_LIMIT:
        try:
            return int(rng.poisson(mean))
        except ValueError as exc:  # numpy refuses means above about 9.2e18
            raise DomainError(f"Poisson mean {mean:g} is too large to draw") from exc
    u = rng.random()
    k = 0
    p = math.exp(-mean)
    cdf = p
    while u > cdf:
        k += 1
        p *= mean / k
        cdf += p
    return k
