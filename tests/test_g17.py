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


def _digit_groups(text: bytes) -> list:
    """The four 4-digit groups after the lead digit of a value's 17 digits."""
    digits = text.split(b"e")[0].lstrip(b"-").replace(b".", b"")
    return [int(digits[1 + 4 * i:5 + 4 * i]) for i in range(4)]


def _every_group_everywhere() -> np.ndarray:
    """Values whose 17 digits hold each 4-digit group value 0000..9999 in
    each of the four groups after the lead digit.  Groups 1-3 come from
    decimal strings whose last group, 5000, keeps the double's rounding
    away from them; group 4 from runs of consecutive doubles above 1000,
    spaced about 1.14 units of the last digit, in two phases."""
    heads = [float("%d.%04d%04d%04d5000e%d" % (1 + i % 9, i, (3 * i + 7) % 10 ** 4,
                                              (7 * i + 3) % 10 ** 4, i % 41 - 20))
             for i in range(10 ** 4)]
    runs = np.array([1000.0, 1011.1]).view(np.int64)[:, None] + np.arange(9000)
    return np.concatenate([heads, runs.view(float).ravel()])


def _trailing_zeros(z: int) -> np.ndarray:
    """Values of both signs whose 17 digits end in exactly z zeros, with the
    point at many places: each candidate d.ddd * 10**e of 17 - z digits is
    kept when the double keeps its digits."""
    rng = np.random.default_rng(z)
    heads = rng.integers(10 ** (16 - z), 10 ** (17 - z), 400)
    heads += heads % 10 == 0        # a last digit that is not zero
    values = np.array([float("%de%d" % (h, e)) for h, e in
                       zip(heads.tolist(), rng.integers(-30, 30, 400).tolist())])
    mantissas = [(b"%.16e" % v).split(b"e")[0] for v in values.tolist()]
    exact = np.array([len(m) - len(m.rstrip(b"0")) == z for m in mantissas])
    return np.concatenate([values[exact], -values[exact]])


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


def test_texts_match_percent_on_every_group_value(kernel_only):
    values = _every_group_everywhere()
    plain = _plain(values)
    groups = np.array([_digit_groups(b"%.16e" % v) for v in values.tolist()])
    assert all(len(set(col.tolist())) == 10 ** 4 for col in groups.T)
    assert _kernel(values) == plain


@pytest.mark.parametrize("zeros", [4, 8, 12, 16])
def test_texts_match_percent_on_trailing_zero_groups(kernel_only, zeros):
    # the last digit kept comes from the lowest nonzero group
    values = _trailing_zeros(zeros)
    assert len(values) >= 100
    assert _kernel(values) == _plain(values)


def test_kernel_on_signed_zeros_and_empty_arrays(kernel_only):
    assert _kernel(np.array([0.0, -0.0, 0.0])) == [b"0", b"-0", b"0"]
    assert _kernel(np.empty(0)) == [] and _kernel(np.empty((0, 3))) == []
