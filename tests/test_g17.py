"""The %.17g kernel against Python's own ``b"%.17g" % v``, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from besselbounds import g17
from conftest import PROPERTY


def _plain(values) -> list:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def _kernel(values) -> list:
    out = g17.texts(values)
    assert out.shape == np.shape(values) and out.dtype == np.dtype("S%d" % g17.WIDTH)
    return [t.replace(b"\0", b"") for t in out.ravel().tolist()]


def _adversarial() -> np.ndarray:
    """Every power of ten with both neighbours, decimal ties, signed zeros,
    NaN of both signs, infinities, the float range's ends, and the edges of
    the kernel's 17-digit window."""
    tens = np.array([float("1e%d" % k) for k in range(-323, 309)])
    with np.errstate(over="ignore"):
        fives = tens * 5
    special = [1000000000000000.25, 1000000000000000.75, 0.0, -0.0, np.nan, -np.nan,
               np.inf, -np.inf, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, 2.0 ** 53, 1e16, 1e17, 0.5, 0.125, 1e-5, 1e-4,
               9.9999999999999995e-5, 1e21, 123456789012345680.0, 1.0 / 3.0]
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                             fives, tens / 2, special])
    return np.concatenate([values, -values])


@pytest.fixture
def kernel_only(monkeypatch):
    monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", 0)


@PROPERTY
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=300))
def test_texts_match_percent_on_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.int64).view(float)
    saved, g17.MIN_KERNEL_VALUES = g17.MIN_KERNEL_VALUES, 0
    try:
        assert _kernel(values) == _plain(values)
    finally:
        g17.MIN_KERNEL_VALUES = saved


@pytest.mark.parametrize("margin", [g17.TIE_MARGIN, 1.0])
def test_texts_match_percent_on_adversarial_values(kernel_only, monkeypatch, margin):
    # a margin of 1 sends every value to the % fallback
    monkeypatch.setattr(g17, "TIE_MARGIN", margin)
    values = _adversarial()
    assert _kernel(values) == _plain(values)


def test_texts_match_percent_on_scaled_mantissas_and_grids(kernel_only):
    rng = np.random.default_rng(7)
    mantissas = rng.integers(2 ** 52, 2 ** 53, 20000).astype(float)
    with np.errstate(over="ignore"):
        scaled = mantissas * 2.0 ** rng.integers(-1100, 1030, 20000)
    grids = np.concatenate([np.arange(-4000, 4000) / 8, np.arange(-4000, 4000) / 1000])
    for values in (scaled, grids, rng.normal(size=(50, 40)) * 10.0 ** rng.integers(-9, 22, (50, 40))):
        assert _kernel(values) == _plain(values)


def test_small_arrays_take_percent_whole(monkeypatch):
    # below the cutoff the kernel never runs, so its tables stay untouched
    calls = []
    monkeypatch.setattr(g17, "_fill", calls.append)
    values = np.arange(g17.MIN_KERNEL_VALUES - 1) * 1.25e300
    assert _kernel(values) == _plain(values) and calls == []
    assert _kernel(np.empty((0, 3))) == []
