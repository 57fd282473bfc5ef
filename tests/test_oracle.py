"""Tests for the recurrence/Riccati-based reference oracles.

Closed forms used here (half-integer orders) come from elementary identities,
so they are independent of the continued-fraction and Taylor-series
machinery under test.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import PROPERTY, log_x
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from besselbounds import oracle
from besselbounds.errors import DomainError
from besselbounds.nullclines import EvalPoint
from besselbounds.oracle import RatioKind, default_x_start
from besselbounds.verify import Grid, OracleTable

F = RatioKind.FIRST
S = RatioKind.SECOND


def _k_pos_ratio_half(nu: float, x: float) -> float:
    """K_{nu-1}/K_nu for 2 nu an odd positive integer, by upward recurrence.

    Local re-implementation so the oracle is checked against, not with,
    itself."""
    assert round(2 * nu) % 2 == 1 and nu >= 0.5
    r = 1.0  # K_{-1/2}/K_{1/2} = 1
    m = 0.5
    while m < nu - 0.25:
        r = 1.0 / (r + 2.0 * m / x)
        m += 1.0
    return r


# ---------------------------------------------------------------------------
# first-kind ratio (continued fraction)


def test_i_ratio_half_integer_closed_form():
    for x in (0.1, 1.0, 7.0, 42.0):
        r = oracle.i_ratio(EvalPoint(0.5, x))
        assert_allclose(r.value, 1.0 / math.tanh(x), rtol=1e-12)
        assert r.method == "continued-fraction"
        assert 0.0 <= r.est_error <= 1e-10 * abs(r.value)
        # est_error is an honest bound up to a small safety factor
        assert abs(r.value - 1.0 / math.tanh(x)) <= 10.0 * r.est_error + 5e-16 * r.value


def test_i_ratio_negative_half_closed_form():
    # I_{-3/2}/I_{-1/2} = tanh x - 1/x, from the three-term recurrence
    for x in (0.3, 1.0, 5.0):
        r = oracle.i_ratio(EvalPoint(-0.5, x))
        assert_allclose(r.value, math.tanh(x) - 1.0 / x, rtol=1e-12, atol=1e-15)


def test_i_ratio_small_and_large_x():
    r = oracle.i_ratio(EvalPoint(1.0, 1e-3))
    assert_allclose(r.value, 2000.00025, rtol=1e-10)
    r = oracle.i_ratio(EvalPoint(1.0, 100.0))
    assert_allclose(r.value, 1.0050375, rtol=1e-4)
    assert r.value > 0.0


def test_i_ratio_rejects_out_of_range_order():
    with pytest.raises(DomainError):
        oracle.i_ratio(EvalPoint(-1.5, 1.0))


# ---------------------------------------------------------------------------
# second-kind ratio (exact recurrence / backward Taylor steps of the Riccati equation)


def test_k_ratio_half_integer_values():
    for x in (0.2, 1.0, 30.0):
        r = oracle.k_ratio(EvalPoint(0.5, x))
        assert r.value == -1.0
        assert r.method == "half-integer-recurrence"
    r = oracle.k_ratio(EvalPoint(1.5, 1.0))
    assert_allclose(r.value, -0.5, rtol=1e-15)
    r = oracle.k_ratio(EvalPoint(4.5, 2.5))
    assert_allclose(r.value, -_k_pos_ratio_half(4.5, 2.5), rtol=1e-14)


def test_k_ratio_large_x_series():
    r = oracle.k_ratio(EvalPoint(1.0, 100.0))
    assert_allclose(r.value, -(1.0 - 0.5 / 100.0 + 0.75 / 2e4), rtol=1e-4)
    assert r.method == "large-x-series"
    assert r.value < 0.0


def test_k_ratio_ode_vs_recurrence():
    # force the integrator on half-integer rows where the exact answer is known
    for nu in (0.5, 2.5, 7.5):
        for x in (0.1, 1.0, 10.0, 50.0):
            r = oracle.k_ratio(EvalPoint(nu, x), method="integration")
            exact = -_k_pos_ratio_half(nu, x)
            assert_allclose(r.value, exact, rtol=1e-10)
            assert abs(r.value - exact) <= 50.0 * r.est_error + 1e-14 * abs(exact)


def test_k_ratio_reflection_path():
    r = oracle.k_ratio(EvalPoint(-0.25, 1.0))
    assert "reflection" in r.method
    assert r.value < 0.0
    with pytest.raises(DomainError):
        oracle.k_ratio(EvalPoint(-1.25, 1.0))


def test_default_x_start():
    # every ladder seed order starts at 20; high orders need x ~ nu**2
    for nu in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert default_x_start(nu) == 20.0
    assert default_x_start(40.25) == 80.0
    assert default_x_start(100.25) == 320.0


def test_k_ratio_row_matches_pointwise():
    xs = np.geomspace(0.05, 20.0, 7)
    vals, ests, method = oracle.k_ratio_row(0.8, xs)
    assert method == "taylor-riccati"
    assert np.all(ests >= 0.0)
    for x, v in zip(xs, vals):
        assert_allclose(oracle.k_ratio(EvalPoint(0.8, float(x))).value, v, rtol=1e-9)


# ---------------------------------------------------------------------------
# est_error is honest: properties at random (order, x), compared at 1x


def _k_pos_ratio_closed_form(n: int, x: float) -> float:
    """K_{nu-1}/K_nu at nu = n + 1/2 from the terminating sums
    K_{m+1/2}(x) ~ sum_j (m+j)!/(j! (m-j)!) (2x)**-j, in exact rationals."""
    t = 1 / (2 * Fraction(x))

    def s(m):
        return sum(Fraction(math.factorial(m + j),
                            math.factorial(j) * math.factorial(m - j)) * t ** j
                   for j in range(m + 1))

    return float(s(n - 1) / s(n)) if n else 1.0


def _coth_50_digits(x: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        e = (2 * Decimal(x)).exp()
        return (e + 1) / (e - 1)


@PROPERTY
@given(x=log_x(1e-3, 1e3))
@example(x=1.9904185248611785)   # 1.33x the former 4*(delta + eps) estimate
def test_half_order_i_ratio_matches_coth(x):
    # I_{-1/2}/I_{1/2} = coth x, compared exactly rather than via a float coth
    r = oracle.i_ratio(EvalPoint(0.5, x))
    assert float(abs(Decimal(r.value) - _coth_50_digits(x))) <= r.est_error


@PROPERTY
@given(mu=st.one_of(st.just(0.5), st.floats(0.05, 0.95)), k=st.integers(0, 5),
       x=log_x(1e-3, 60.0))
def test_ladder_matches_direct_integration(mu, k, x):
    # mu = 1/2 pits forced integration against the exact half-integer ladder
    p = EvalPoint(mu + k, x)
    ladder = oracle.k_ratio(p)
    direct = oracle.k_ratio(p, method="integration")
    assert direct.method in ("taylor-riccati", "large-x-series")
    assert abs(ladder.value - direct.value) <= ladder.est_error + direct.est_error


def _phi1_40_digits(nu: float, x: float):
    with mpmath.workdps(40):
        return -mpmath.besselk(nu - 1, x) / mpmath.besselk(nu, x)


def _within_estimate(r: oracle.OracleResult, nu: float, x: float) -> bool:
    with mpmath.workdps(40):
        return abs(mpmath.mpf(r.value) - _phi1_40_digits(nu, x)) <= r.est_error


@PROPERTY
@given(nu=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True),
                    st.integers(1, 12).map(float)),
       x=log_x(10 ** -3.5, 20.0))
def test_taylor_seed_error_estimate(nu, x):
    # every seed order in (0, 1], nu = 0, and the integer class (seeded at 1);
    # x = 20 itself rounds to just above the series start
    r = oracle.k_ratio(EvalPoint(nu, x))
    assert r.method.split("+")[0] in ("taylor-riccati", "large-x-series")
    assert _within_estimate(r, nu, x)


@PROPERTY
@given(nu=st.one_of(st.floats(-1.0, 100.25), st.just(100.25)),
       x=log_x(10 ** -3.5, 20.0))
def test_forced_taylor_error_estimate(nu, x):
    r = oracle.k_ratio(EvalPoint(nu, x), method="integration")
    assert r.method in ("taylor-riccati", "large-x-series")
    assert _within_estimate(r, nu, x)


@PROPERTY
@given(n=st.integers(0, 40), x=log_x(1e-3, 1e3))
def test_half_integer_ladder_matches_closed_form(n, x):
    r = oracle.k_ratio(EvalPoint(n + 0.5, x))
    assert r.method == "half-integer-recurrence"
    assert abs(r.value + _k_pos_ratio_closed_form(n, x)) <= r.est_error


@PROPERTY
@given(nu=st.floats(-1.0, 0.0, exclude_max=True), x=log_x(1e-3, 60.0))
def test_reflection_matches_direct_integration(nu, x):
    p = EvalPoint(nu, x)
    reflected = oracle.k_ratio(p)
    direct = oracle.k_ratio(p, method="integration")
    assert reflected.method.startswith("reflection+")
    assert "reflection" not in direct.method
    assert abs(reflected.value - direct.value) <= reflected.est_error + direct.est_error


# ---------------------------------------------------------------------------
# the defining ODE: d(Phi)/dx = 1 + ((2 nu - 1)/x) Phi - Phi^2


def _riccati_residual(fn, nu: float, x: float) -> float:
    h = 1e-5 * x
    f0 = fn(EvalPoint(nu, x - h)).value
    f1 = fn(EvalPoint(nu, x)).value
    f2 = fn(EvalPoint(nu, x + h)).value
    deriv = (f2 - f0) / (2.0 * h)
    rhs = 1.0 + ((2.0 * nu - 1.0) / x) * f1 - f1 * f1
    return abs(deriv - rhs) / max(abs(rhs), abs(deriv), 1.0)


def test_riccati_residual_first_kind():
    for nu in (0.0, 0.8, 2.3):
        for x in (0.5, 1.7, 6.0):
            assert _riccati_residual(oracle.i_ratio, nu, x) <= 1e-6


def test_riccati_residual_second_kind():
    # covers the integrator path (nu=0.8, 2.3) and the reflection path (-0.25)
    for nu in (0.8, 2.3, -0.25):
        for x in (0.5, 1.7, 6.0):
            assert _riccati_residual(oracle.k_ratio, nu, x) <= 1e-6


def test_ratio_recurrence_step():
    # Phi(nu) = 2 nu/x + 1/Phi(nu+1), for both kinds
    for nu, x in ((0.7, 0.4), (3.2, 2.0), (1.1, 30.0)):
        a = oracle.i_ratio(EvalPoint(nu, x)).value
        b = oracle.i_ratio(EvalPoint(nu + 1.0, x)).value
        assert_allclose(a, 2.0 * nu / x + 1.0 / b, rtol=1e-11)
        a = oracle.k_ratio(EvalPoint(nu, x)).value
        b = oracle.k_ratio(EvalPoint(nu + 1.0, x)).value
        assert_allclose(a, 2.0 * nu / x + 1.0 / b, rtol=1e-9)


# ---------------------------------------------------------------------------
# derived quantities


def test_psi_values():
    assert_allclose(oracle.psi(S, EvalPoint(0.5, 3.0)).value, -3.5, rtol=1e-15)
    assert_allclose(
        oracle.psi(F, EvalPoint(0.5, 1.0)).value, 1.0 / math.tanh(1.0) - 0.5, rtol=1e-12
    )
    gap = oracle.psi(F, EvalPoint(2.0, 1e-3)).value - 2.0
    assert_allclose(gap, 1e-6 / 6.0, rtol=1e-5)


def test_double_ratio_values():
    assert_allclose(oracle.double_ratio(F, EvalPoint(1.0, 1e-3)).value, 0.5, rtol=1e-6)
    assert_allclose(oracle.double_ratio(S, EvalPoint(0.5, 2.0)).value, 1.5, rtol=1e-13)
    assert_allclose(oracle.double_ratio(F, EvalPoint(0.0, 100.0)).value, 0.99, rtol=1e-4)


def test_product_values():
    r = oracle.product(EvalPoint(0.5, 1.0))
    assert_allclose(r.value, (1.0 - math.exp(-2.0)) / 2.0, rtol=1e-12)
    r = oracle.product(EvalPoint(1.0, 100.0))
    assert_allclose(r.value, 0.005 - 0.75 / 4e6, rtol=1e-5)
    r = oracle.product(EvalPoint(20.0, 1.0))
    assert_allclose(r.value, 0.025 - 1.0 / 32000.0, rtol=1e-6)


def test_product_wronskian_consistency():
    for nu, x in ((0.0, 0.3), (2.25, 1.0), (7.5, 80.0)):
        p = EvalPoint(nu, x)
        prod = oracle.product(p).value
        phi0 = oracle.i_ratio(p).value
        phi1 = oracle.k_ratio(p).value
        assert_allclose(x * prod * (phi0 - phi1), 1.0, rtol=1e-13)


def test_product_extends_to_minus_one():
    r = oracle.product(EvalPoint(-1.0, 2.0))
    assert r.value > 0.0
    with pytest.raises(DomainError):
        oracle.product(EvalPoint(-1.5, 2.0))


def _half_order_derived(x: float) -> dict:
    """50-digit closed forms of the derived quantities at nu = 1/2, from
    Phi0 = coth x, Phi0(3/2) = 1/(coth x - 1/x), Phi1 = -1 and
    P = (1 - e**(-2x))/(2x)."""
    coth = _coth_50_digits(x)
    with localcontext() as ctx:
        ctx.prec = 50
        X, half = Decimal(x), Decimal("0.5")
        prod = (1 - (-2 * X).exp()) / (2 * X)
        return {"psi_I": X * coth - half, "psi_K": -X - half,
                "W_I": coth * (coth - 1 / X), "W_K": 1 + 1 / X,
                "P": prod, "xP": X * prod}


def _one_point(p: EvalPoint) -> dict:
    return {"psi_I": oracle.psi(F, p), "psi_K": oracle.psi(S, p),
            "W_I": oracle.double_ratio(F, p), "W_K": oracle.double_ratio(S, p),
            "P": oracle.product(p)}


@PROPERTY
@given(x=log_x(10 ** -3.5, 1e3))
def test_half_order_derived_est_error_is_honest(x):
    # through table rows (all six) and the one-point API (all but xP)
    table = OracleTable(Grid((0.5,), (x,)))
    point = _one_point(EvalPoint(0.5, x))
    for qid, exact in _half_order_derived(x).items():
        vals, ests = table.quantity(qid, 0.5)
        results = [(vals[0], ests[0])]
        if qid in point:
            results.append((point[qid].value, point[qid].est_error))
        for value, est in results:
            assert float(abs(Decimal(float(value)) - exact)) <= est, qid


@pytest.mark.parametrize("nu, x", [(0.5, 1.0), (0.8, 0.05), (2.25, 30.0),
                                   (7.5, 80.0), (-0.25, 1.7), (-1.0, 2.0)])
def test_one_point_api_equals_one_row_table(nu, x):
    table = OracleTable(Grid((nu,), (x,)))
    for qid, r in _one_point(EvalPoint(nu, x)).items():
        vals, ests = table.quantity(qid, nu)
        assert (r.value, r.est_error) == (vals[0], ests[0]), qid


def test_first_kind_derived_quantities_run_no_k_integration(monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("K integration on a first-kind quantity")

    monkeypatch.setattr(oracle, "_taylor_row", no_integration)
    p = EvalPoint(0.8, 0.05)
    assert oracle.psi(F, p).method == "continued-fraction"
    assert oracle.double_ratio(F, p).method == "continued-fraction"
    with pytest.raises(AssertionError):
        oracle.psi(S, p)
