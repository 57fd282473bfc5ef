"""Tests for the asymptotic-series module.

Fixed-point values are checked against the closed-form series coefficients;
the agreement tests compare each series against the recurrence-based oracle
at one anchor point per regime, gated at 10x the magnitude of the first
omitted term.
"""

import pytest
from conftest import quantity_at
from numpy.testing import assert_allclose

from besselbounds import expansions as ex
from besselbounds import oracle
from besselbounds.errors import DomainError
from besselbounds.nullclines import EvalPoint
from besselbounds.oracle import RatioKind

F = RatioKind.FIRST
S = RatioKind.SECOND


# ---------------------------------------------------------------------------
# large-x ratio series: 1 +/- (nu - 1/2)/x + (nu^2 - 1/4)/(2 x^2)


def test_large_x_ratio_half_order_is_exact():
    # both coefficients vanish at nu = 1/2
    e = ex.large_x_ratio(F, EvalPoint(0.5, 10.0))
    assert e.value == 1.0
    assert e.regime == "large-x"


def test_large_x_ratio_values():
    e = ex.large_x_ratio(S, EvalPoint(1.5, 10.0))
    assert_allclose(e.value, 0.91, rtol=1e-15)
    e = ex.large_x_ratio(F, EvalPoint(1.0, 100.0))
    assert_allclose(e.value, 1.0050375, rtol=1e-15)
    assert e.order_tag == "O(x^-3)"


def test_large_x_ratio_positive_for_both_kinds():
    # the series approximates C_{nu-1}/C_nu, positive for I and for K
    for kind in (F, S):
        assert ex.large_x_ratio(kind, EvalPoint(2.0, 50.0)).value > 0.0


# ---------------------------------------------------------------------------
# large-x double-step series: 1 -/+ 1/x +/- (nu^2 - 1/4)/(2 x^3)


def test_large_x_double_values():
    assert_allclose(ex.large_x_double(F, EvalPoint(0.5, 10.0)).value, 0.9, rtol=1e-15)
    assert_allclose(ex.large_x_double(S, EvalPoint(0.5, 10.0)).value, 1.1, rtol=1e-15)
    assert_allclose(
        ex.large_x_double(F, EvalPoint(2.0, 10.0)).value,
        1.0 - 0.1 + 3.75 / 2000.0,
        rtol=1e-15,
    )


# ---------------------------------------------------------------------------
# small-x first-kind series


def test_small_x_I_values():
    ser, dbl = ex.small_x_I(EvalPoint(0.0, 0.1))
    # x^2/2 - x^4/16 at nu=0
    assert_allclose(ser.value, 0.00499375, rtol=1e-14)
    assert_allclose(dbl.value, 0.0025, rtol=1e-12)

    ser, dbl = ex.small_x_I(EvalPoint(1.0, 0.1))
    assert_allclose(ser.value, 2.0 + 0.01 / 4.0 - 1e-4 / 96.0, rtol=1e-15)
    # double-step tends to nu/(nu+1) = 1/2 with x^2/(2(nu+1)^2(nu+2)) correction
    assert_allclose(dbl.value, 0.5 + 0.01 / 24.0, rtol=1e-12)
    assert ser.order_tag == "O(x^6)"
    assert dbl.order_tag == "O(x^4)"


def test_small_x_I_rejects_negative_order():
    with pytest.raises(DomainError):
        ex.small_x_I(EvalPoint(-0.5, 0.1))


# ---------------------------------------------------------------------------
# small-x second-kind series


def test_small_x_K_values():
    e = ex.small_x_K(EvalPoint(2.5, 0.1))
    assert_allclose(e.value, 0.01 / 3.0 - 1e-4 / 9.0, rtol=1e-14)

    # below nu = 2 the x^2 term no longer dominates the remainder; only the
    # leading order is reported
    e = ex.small_x_K(EvalPoint(0.5, 0.1))
    assert e.value == 0.0
    assert e.order_tag == "O(x^1)"


def test_small_x_K_rejects_integer_order():
    # logarithmic terms at integer order
    for nu in (1.0, 2.0, 3.0):
        with pytest.raises(DomainError):
            ex.small_x_K(EvalPoint(nu, 0.1))


# ---------------------------------------------------------------------------
# large-order series


def test_large_nu_ratio_values():
    e = ex.large_nu_ratio(F, EvalPoint(100.0, 1.0))
    assert_allclose(e.value, 200.0 + 0.005 - 5e-5 + 3.0 / 8e6, rtol=1e-15)
    e = ex.large_nu_ratio(S, EvalPoint(100.0, 1.0))
    assert_allclose(e.value, 0.005 + 5e-5 + 3.0 / 8e6, rtol=1e-15)


def test_large_nu_ratio_small_x_limits():
    # as x -> 0 the first-kind value tends to 2 nu, the second-kind to 0
    e = ex.large_nu_ratio(F, EvalPoint(50.0, 1e-8))
    assert_allclose(e.value, 100.0, rtol=1e-15)
    e = ex.large_nu_ratio(S, EvalPoint(50.0, 1e-8))
    assert abs(e.value) < 1e-17


def test_large_nu_symmetry():
    # exact identity of the two series: F - S = 2(nu - 1/2) ... after the
    # x/(nu) scaling both kinds share every even term, so F - S = 2 nu
    # + x^2 terms cancel pairwise; check F - S == 2 nu - x^2/nu^2 ... use
    # the implemented difference directly at two points
    for nu, x in ((25.0, 1.0), (60.0, 2.0)):
        f = ex.large_nu_ratio(F, EvalPoint(nu, x)).value
        s = ex.large_nu_ratio(S, EvalPoint(nu, x)).value
        diff = 2.0 * nu - x * x / (nu * nu) + (x ** 4 - x * x) / nu ** 4
        assert_allclose(f - s, diff, rtol=1e-13)


# ---------------------------------------------------------------------------
# product series


def test_product_expansion_values():
    e = ex.product_expansion("large-x", EvalPoint(0.5, 10.0))
    assert e.value == 0.05  # (nu^2 - 1/4) coefficient vanishes
    e = ex.product_expansion("large-nu", EvalPoint(100.0, 1.0))
    assert_allclose(e.value, 0.005 - 2.5e-7, rtol=1e-15)
    e = ex.product_expansion("small-x", EvalPoint(2.5, 0.1))
    assert_allclose(e.value, 0.19980952380952383, rtol=1e-15)


def test_product_expansion_rejects_unknown_regime():
    with pytest.raises(DomainError):
        ex.product_expansion("medium-x", EvalPoint(1.0, 1.0))
    assert set(ex.REGIMES) == {"large-x", "small-x", "large-nu"}


# ---------------------------------------------------------------------------
# relative gap helper


def test_relative_error_sign_convention():
    assert_allclose(ex.relative_error(1.05, 1.0, "upper"), 0.05, rtol=1e-12)
    assert_allclose(ex.relative_error(0.95, 1.0, "lower"), 0.05, rtol=1e-12)
    # a violated bound comes out negative
    assert ex.relative_error(0.95, 1.0, "upper") < 0.0
    assert ex.relative_error(1.05, 1.0, "lower") < 0.0


def test_relative_error_matches_trig_bound_order():
    # gap of the cubic-root upper bound on the I-ratio is ~ 1/(4 x^2)
    from besselbounds.nullclines import TRIG_I

    p = EvalPoint(1.0, 100.0)
    eps = ex.relative_error(TRIG_I.row(p.nu, [p.x])[0][0], oracle.i_ratio(p).value, "upper")
    assert_allclose(eps, 2.5e-5, rtol=0.10)


# ---------------------------------------------------------------------------
# agreement with the oracle, one anchor point per regime; tolerance is 10x
# the first omitted term


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def test_large_x_agreement():
    p = EvalPoint(1.0, 100.0)
    x = p.x
    next_ratio = (3.0 / 8.0) / x ** 3  # |c3| at nu=1
    assert _rel(ex.large_x_ratio(F, p).value, oracle.i_ratio(p).value) <= 10 * next_ratio
    assert _rel(ex.large_x_ratio(S, p).value, -oracle.k_ratio(p).value) <= 10 * next_ratio

    next_double = 0.75 / x ** 4
    assert _rel(ex.large_x_double(F, p).value, quantity_at("W_I", p.nu, x)[0]) <= 10 * next_double
    assert _rel(ex.large_x_double(S, p).value, quantity_at("W_K", p.nu, x)[0]) <= 10 * next_double

    next_prod = 0.36 / x ** 4
    assert _rel(ex.product_expansion("large-x", p).value, oracle.product(p).value) <= 10 * next_prod


def test_small_x_agreement():
    p = EvalPoint(1.0, 1e-2)
    x = p.x
    ser, dbl = ex.small_x_I(p)
    # next term of the scaled series is x^6/1536 at nu=1, far below roundoff
    # at this anchor; gate at a roundoff floor instead
    assert _rel(ser.value, x * oracle.i_ratio(p).value) <= 1e-13
    assert _rel(dbl.value, quantity_at("W_I", p.nu, x)[0]) <= 10 * 0.008 * x ** 4 / 0.5

    pk = EvalPoint(2.5, 1e-2)
    # remainder O(x^{2 nu - 2}) = O(x^3), measured coefficient ~ 1/3
    assert (
        _rel(ex.small_x_K(pk).value, pk.x * (-oracle.k_ratio(pk).value))
        <= 10 * pk.x ** 3 / 3.0
    )
    assert (
        _rel(ex.product_expansion("small-x", pk).value, oracle.product(pk).value)
        <= 10 * 0.032 * pk.x ** 4 / 0.2
    )


def test_large_nu_agreement():
    p = EvalPoint(50.0, 1.0)
    nu = p.nu
    # next coefficients ~ 13/16 over nu^5 (absolute), converted to relative
    assert (
        _rel(ex.large_nu_ratio(F, p).value, p.x * oracle.i_ratio(p).value)
        <= 10 * 0.4 / nu ** 6
    )
    assert (
        _rel(ex.large_nu_ratio(S, p).value, p.x * (-oracle.k_ratio(p).value))
        <= 10 * 2.0 * (13.0 / 16.0) / nu ** 4
    )
    assert (
        _rel(ex.product_expansion("large-nu", p).value, oracle.product(p).value)
        <= 10 * 1.0 / (8.0 * nu ** 4)
    )
