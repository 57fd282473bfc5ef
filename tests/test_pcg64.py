"""`besselbounds.pcg64.uniform` against numpy's own generator, bit for bit.
numpy.random is imported here only, as the reference."""

import numpy as np
import pytest

from besselbounds import pcg64
from besselbounds.cli import SAMPLE_LIMIT

# one-word seeds, the 32- and 64-bit word edges, a pool-sized seed (5 words)
# and one of about 200 bits (7 words), which SeedSequence mixes in past its pool
SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 7,
         0xC0FFEE_1234567_89ABCDEF_FEDCBA98_76543210_0F1E2D3C_4B5A6978]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("size", [0, 1, 3, 100])
def test_uniform_matches_default_rng(size):
    assert SEEDS[-1].bit_length() > 190
    for seed in SEEDS:
        got = pcg64.uniform(seed, 0.02, 0.98, size)
        assert len(got) == size and all(type(v) is float for v in got)
        ref = np.random.default_rng(seed).uniform(0.02, 0.98, size)
        assert _bits(got) == _bits(ref), seed


def test_uniform_matches_default_rng_on_other_bounds_and_the_sample_limit():
    for seed, lo, hi in ((3, -1.5, 2.5), (2**64 + 1, 0.0, 1.0), (17, 5.0, 5.0)):
        assert (_bits(pcg64.uniform(seed, lo, hi, 50))
                == _bits(np.random.default_rng(seed).uniform(lo, hi, 50)))
    assert (_bits(pcg64.uniform(7, 0.02, 0.98, SAMPLE_LIMIT))
            == _bits(np.random.default_rng(7).uniform(0.02, 0.98, SAMPLE_LIMIT)))


def test_uniform_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        pcg64.uniform(-1, 0.0, 1.0, 3)
