"""Seeded random number streams.

Every random number comes from a PCG64 stream seeded by a SeedSequence over
[seed, stream ids...], so every experiment is bit-reproducible and
independent sub-streams can be derived from a single top-level seed.
numpy's SeedSequence and PCG64 algorithms are reproduced here bit for bit:
each Stream gives the numbers of numpy.random.default_rng(SeedSequence([seed,
*stream])). Importing numpy.random loads OpenSSL (through secrets and hmac),
so only a Poisson mean above 600, which numpy's sampler draws, loads it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence hashes [seed, *stream], split into 32-bit words, into a pool of
# 4 words, and hashes the pool again into its output words
_POOL_SIZE = 4
_XSHIFT = 16
_MULT_A = 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _powers(base: int, mult: int, count: int) -> list:
    """base * mult**i mod 2**32 for i = 0..count."""
    powers = [base]
    for _ in range(count):
        powers.append(powers[-1] * mult & _M32)
    return powers


# the hash constants in the order they are used: _HASH_A mixes a pool from up
# to 4 entropy words (16 hashes), _HASH_B makes up to 4 64-bit output words
_HASH_A = _powers(0x43B0D7E5, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 8)
# the cross mix: each pool word into every other, as (destination, source)
_CROSS = tuple((dst, src) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE)
               if src != dst)


def _seed_state(seed, stream, n_words: int) -> list:
    """SeedSequence([seed, *stream]).generate_state(n_words, uint64) as ints."""
    entropy = []  # each int as 32-bit words, least significant first (0 is one word)
    for v in (seed, *stream):
        v = int(v)
        if v < 0:
            raise ValueError("expected non-negative integer")
        entropy.append(v & _M32)
        while v := v >> 32:
            entropy.append(v & _M32)
    n = len(entropy)
    hashes = _HASH_A if n <= _POOL_SIZE else _powers(_HASH_A[0], _MULT_A, _POOL_SIZE * n)
    pool = []
    for k in range(_POOL_SIZE):
        value = ((entropy[k] if k < n else 0) ^ hashes[k]) * hashes[k + 1] & _M32
        pool.append(value ^ value >> _XSHIFT)
    # mix every pool word into every other, then each entropy word past the
    # pool into every pool word
    for k, (dst, src) in enumerate(_CROSS, _POOL_SIZE):
        value = (pool[src] ^ hashes[k]) * hashes[k + 1] & _M32
        value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> _XSHIFT)) & _M32
        pool[dst] = value ^ value >> _XSHIFT
    for k in range(_POOL_SIZE * _POOL_SIZE, _POOL_SIZE * n):
        dst = k % _POOL_SIZE
        value = (entropy[k // _POOL_SIZE] ^ hashes[k]) * hashes[k + 1] & _M32
        value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> _XSHIFT)) & _M32
        pool[dst] = value ^ value >> _XSHIFT
    state = []
    for i in range(2 * n_words):
        value = (pool[i % _POOL_SIZE] ^ _HASH_B[i]) * _HASH_B[i + 1] & _M32
        state.append(value ^ value >> _XSHIFT)
    return [lo | hi << 32 for lo, hi in zip(state[0::2], state[1::2])]


# PCG64 steps a 128-bit LCG and outputs the XOR of its state's halves rotated
# right by the state's top 6 bits (XSL-RR)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Stream._states steps _LEAP interleaved copies of the LCG at once, in _SLOT-byte
# slots of one Python int whose slot j holds state t*_LEAP + j: the map
# s -> MULT**_LEAP * s + (1 + MULT + ... + MULT**(_LEAP-1)) * inc (mod 2**128)
# moves every slot _LEAP states on by one multiply and one add. 40 bytes hold
# a product of two 128-bit numbers plus that add, so no slot carries into the next.
_LEAP = 8
_SLOT = 40
_LEAP_MULT = pow(_PCG_MULT, _LEAP, 1 << 128)
_LEAP_GAIN = sum(pow(_PCG_MULT, j, 1 << 128) for j in range(_LEAP)) & _M128
_SLOT_ONES = int.from_bytes((b"\x01" + bytes(_SLOT - 1)) * _LEAP, "little")  # 1 in each slot
_SLOT_MASK = _SLOT_ONES * _M128
# values per _states call: keeps its buffers under glibc's 128 kB mmap threshold
_BLOCK = 2048


class Stream:
    """A PCG64 bit generator with numpy Generator's random() draws."""

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state, self.inc = state, inc

    def _states(self, n: int) -> np.ndarray:
        """Step the LCG n >= 1 times; the n states as (n, 2) uint64 [low, high] words."""
        state, inc, first = self.state, self.inc, []
        for _ in range(min(n, _LEAP)):
            state = (state * _PCG_MULT + inc) & _M128
            first.append(state.to_bytes(_SLOT, "little"))
        chunks = [b"".join(first)]
        slots = int.from_bytes(chunks[0], "little")
        step = (_LEAP_GAIN * inc & _M128) * _SLOT_ONES
        for _ in range((n - 1) // _LEAP):
            slots = _LEAP_MULT * (slots & _SLOT_MASK) + step
            chunks.append(slots.to_bytes(_LEAP * _SLOT, "little"))
        words = np.frombuffer(b"".join(chunks), dtype="<u8").reshape(-1, _SLOT // 8)[:n, :2]
        self.state = int(words[-1, 0]) | int(words[-1, 1]) << 64
        return words

    def random(self, size: tuple | None = None) -> float | np.ndarray:
        """A float in [0, 1), or an array of them of the given shape in C order."""
        if size is None:
            self.state = state = (self.state * _PCG_MULT + self.inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            return ((x >> rot | x << (64 - rot) & _M64) >> 11) * 2.0**-53
        out = np.empty(math.prod(size))
        for start in range(0, out.size, _BLOCK):
            words = self._states(min(_BLOCK, out.size - start))
            x, rot = words[:, 0] ^ words[:, 1], words[:, 1] >> 58
            x = x >> rot | x << (-rot & 63)
            np.multiply(x >> 11, 2.0**-53, out=out[start:start + len(x)])
        return out.reshape(size)


def generator(seed: int, *stream: int) -> Stream:
    """PCG64 stream for the sub-stream identified by (seed, *stream)."""
    s_high, s_low, inc_high, inc_low = _seed_state(seed, stream, 4)
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _M128
    return Stream(((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _M128, inc)


def child_seed(seed: int, *stream: int) -> int:
    """Derive a deterministic integer sub-seed from (seed, *stream)."""
    return _seed_state(seed, stream, 1)[0]


# Sequential search underflows once exp(-mean) is subnormal; hand over
# to numpy's sampler well before that point.
_SEQUENTIAL_MEAN_LIMIT = 600.0


def _numpy_poisson(rng: Stream, mean: float) -> int:
    """numpy's Poisson sampler run on rng's state, which it then advances."""
    from numpy.random import PCG64, Generator

    bit_generator = PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": rng.state, "inc": rng.inc},
                           "has_uint32": 0, "uinteger": 0}
    try:
        return int(Generator(bit_generator).poisson(mean))
    finally:
        rng.state = bit_generator.state["state"]["state"]


def poisson_variate(rng: Stream, mean: float) -> int:
    """Draw one Poisson(mean) variate by CDF inversion with sequential search.

    Exact and fast for the means used here (tens of stations). A uniform
    draw above the float sum of the pmf, which rounding can leave below 1,
    returns the first k whose pmf underflows to 0. Means above 600 are drawn
    by numpy's sampler from the same stream.
    """
    if mean <= 0:
        raise ValueError("Poisson mean must be positive")
    if mean > _SEQUENTIAL_MEAN_LIMIT:
        try:
            return _numpy_poisson(rng, mean)
        except ValueError as exc:  # numpy refuses means above about 9.2e18
            raise DomainError(f"Poisson mean {mean:g} is too large to draw") from exc
    u = rng.random()
    k = 0
    p = math.exp(-mean)
    cdf = p
    while u > cdf and p > 0:
        k += 1
        p *= mean / k
        cdf += p
    return k
