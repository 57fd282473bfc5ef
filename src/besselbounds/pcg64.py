"""numpy's seeded uniform draws, in plain Python ints.

``uniform(seed, low, high, size)`` is, bit for bit, numpy's
``default_rng(seed).uniform(low, high, size)`` as a list: numpy's
``SeedSequence`` hashes the seed into four 64-bit words, which seed PCG64,
the 128-bit linear congruential generator with the XSL-RR output function
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014), and each draw is
``low + (high - low) * u`` with u the top 53 bits of one 64-bit output over
2**53.  ``explore --sample`` needs only these few floats, and loading
numpy's random module for them would cost several MiB of resident memory.
"""

from typing import List

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL_SIZE = 4                      # SeedSequence's default pool, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pool(seed: int) -> List[int]:
    """SeedSequence(seed).pool: the seed's 32-bit words, least significant
    first (one word for 0), hashed and mixed into four words."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(seed: int) -> List[int]:
    """SeedSequence(seed).generate_state(4, uint64): eight 32-bit words
    hashed from the pool in turn, read in little-endian pairs."""
    pool = _pool(seed)
    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _M32
        value = (value * const) & _M32
        words.append(value ^ (value >> _XSHIFT))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def uniform(seed: int, low: float, high: float, size: int) -> List[float]:
    """``size`` draws of numpy's ``default_rng(seed).uniform(low, high)``, bit
    for bit; ``seed`` is a non-negative int of any size."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    s0, s1, s2, s3 = _state_words(seed)
    # PCG64's srandom(initstate = s0:s1, initseq = s2:s3): from state 0, one
    # step (giving inc), add initstate, one more step
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = (inc + (s0 << 64 | s1)) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    span = high - low
    draws = []
    for _ in range(size):
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        word = ((state >> 64) ^ state) & _M64
        word = (word >> rot | word << (64 - rot)) & _M64
        draws.append(low + span * ((word >> 11) * 2.0 ** -53))
    return draws
