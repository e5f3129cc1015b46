"""fluidnet.rng against numpy.random: the same streams, bit for bit."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluidnet
from fluidnet.errors import DomainError
from fluidnet.rng import child_seed, generator, poisson_variate

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
# a stream of up to 5 ids, some of two 32-bit words, takes the entropy past
# SeedSequence's 4-word pool
STREAM = (7, 2**32 + 3, 0, 2**63 + 11, 12345)
# the program draws (n, 2) arrays; odd value counts also cross the step of
# _LEAP values and the _BLOCK of values one call makes
SHAPES = [(n, 2) for n in (1, 2, 7, 8, 9, 255, 2000)] + [(9,), (17,), (3, 3), (4097,)]


def numpy_generator(seed, *stream):
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", range(len(STREAM) + 1))
def test_streams_match_numpy(seed, length):
    stream = STREAM[:length]
    ours, theirs = generator(seed, *stream), numpy_generator(seed, *stream)
    assert ours.random() == theirs.random()
    for shape in SHAPES:
        drawn = ours.random(shape)
        assert drawn.shape == shape and drawn.dtype == np.float64
        assert np.array_equal(drawn, theirs.random(shape))
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", range(len(STREAM) + 1))
def test_child_seed_matches_numpy(seed, length):
    stream = STREAM[:length]
    expected = np.random.SeedSequence([seed, *stream]).generate_state(1, np.uint64)[0]
    assert child_seed(seed, *stream) == int(expected)


@pytest.mark.parametrize("mean", [1e3, 1e6])
@pytest.mark.parametrize("seed, redraw", [(0, 0), (3, 1), (2**64 - 1, 5)])
def test_large_mean_draws_numpy_poisson_on_the_same_stream(seed, redraw, mean):
    ours, theirs = generator(seed, redraw), numpy_generator(seed, redraw)
    assert poisson_variate(ours, mean) == theirs.poisson(mean)
    assert np.array_equal(ours.random((37, 2)), theirs.random((37, 2)))


def test_mean_too_large_to_draw():
    with pytest.raises(DomainError, match="too large to draw"):
        poisson_variate(generator(1, 0), 1e19)


def test_uniform_above_the_pmf_sum_ends():
    # with the largest uniform below 1, the sequential search outruns the float
    # sum of the pmf and must stop where the pmf underflows to 0
    code = ("import math\n"
            "from fluidnet.rng import poisson_variate\n"
            "class Top:\n"
            "    def random(self):\n"
            "        return math.nextafter(1.0, 0.0)\n"
            "print(poisson_variate(Top(), 599.9))")
    env = {**os.environ, "PYTHONPATH": str(Path(fluidnet.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    k = int(result.stdout)
    pmf = np.exp(k * np.log(599.9) - 599.9 - np.sum(np.log(np.arange(1, k + 1))))
    assert k > 599.9 and pmf < 1e-300
