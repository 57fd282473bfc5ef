"""Tests for the exact series generator.

The sharpness tests build, over Fractions, the relative error of each case
of the sharpness battery at the battery's own rational parameters, and
check that its first terms vanish and that its leading coefficient is the
expected constant.  The point-value tests check the truncations of each
regime against their closed-form coefficients; the agreement tests compare
each truncation with the recurrence-based oracle at one anchor point per
regime, gated at 10x the magnitude of the first omitted term.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import quantity_at
from numpy.testing import assert_allclose

from besselbounds import expansions as ex
from besselbounds import oracle
from besselbounds.errors import DomainError
from besselbounds.nullclines import BOUNDS, EvalPoint
from besselbounds.oracle import large_x_coefficients
from besselbounds.verify import SHARPNESS_EXPECTED, _SHARPNESS_CASES, relative_error

F = Fraction
# the sharpness constants, exactly: the leading coefficient of each case's
# relative error in its regime's variable (1/x, x or 1/nu)
EXACT = {
    "sharpness-I-large-x": F(1, 4),
    "sharpness-I-small-x": F(1, 192),
    "sharpness-I-large-nu": F(1, 8),
    "sharpness-K-large-x": F(1, 4),
    "sharpness-K-large-nu": F(1, 2),
    "sharpness-P-large-x": F(1, 4),
    "sharpness-P-large-nu": F(1, 4),
}


def _at(series, t) -> float:
    return float(ex.value(series, t))


def _fixed(regime, points):
    """The battery's fixed parameter of a case: its one x at large nu, else
    its one order."""
    orders, xs = points
    (fixed,) = xs if regime == "large-nu" else orders
    return fixed


def _sharpness_mismatches(expected=SHARPNESS_EXPECTED, n=10):
    """Case ids whose exact relative error does not vanish below the
    expected exponent, or whose leading coefficient is not the expected
    constant, exactly and as the float in ``expected``."""
    bad = []
    for (case_id, claim, regime, points, _, _), (exp_id, k, c) in zip(_SHARPNESS_CASES,
                                                                       expected):
        assert exp_id == case_id
        eps = ex.relative_error_series(claim.claim_id, regime, _fixed(regime, points), n)
        lead = abs(int(k))
        if any(eps[:lead]) or eps[lead] != EXACT[case_id] or float(eps[lead]) != c:
            bad.append(case_id)
    return bad


# ---------------------------------------------------------------------------
# the sharpness constants, exactly


def test_sharpness_constants_are_exact():
    assert _sharpness_mismatches() == []
    assert [float(EXACT[case_id]) for case_id, _, _ in SHARPNESS_EXPECTED] == [
        c for _, _, c in SHARPNESS_EXPECTED]


def test_exact_check_fails_on_a_wrong_second_term(monkeypatch):
    # a 1/x term added to the I-side large-x root before the relative error
    # is formed breaks the two-term exactness of I and P at large x
    family = ex._family

    def perturbed(kind, regime, fixed, n):
        y, lam = family(kind, regime, fixed, n)
        if kind == 1 and regime == "large-x":
            lam = lam[:1] + [lam[1] + F(1, 1000)] + lam[2:]
        return y, lam

    monkeypatch.setattr(ex, "_family", perturbed)
    assert _sharpness_mismatches() == ["sharpness-I-large-x", "sharpness-P-large-x"]


def test_exact_check_fails_on_a_constant_moved_by_one_ulp():
    moved = list(SHARPNESS_EXPECTED)
    case_id, k, c = moved[4]
    moved[4] = (case_id, k, math.nextafter(c, math.inf))
    assert _sharpness_mismatches(tuple(moved)) == [case_id]


def test_exact_bound_series_match_the_formulas_at_the_battery_points():
    # the code that runs: every bound the battery evaluates agrees with its
    # exact series within the first omitted terms plus 4 ulps
    n = 22
    for case_id, claim, regime, (orders, xs), _, _ in _SHARPNESS_CASES:
        bound, _, unit = ex.bound_series(claim.claim_id, regime,
                                         _fixed(regime, (orders, xs)), n + 2)
        values = BOUNDS[claim.claim_id].formula(np.array(orders).reshape(-1, 1), np.array(xs))
        for (i, nu), (j, x) in itertools.product(enumerate(orders), enumerate(xs)):
            t = {"large-x": 1 / F(x), "small-x": F(x), "large-nu": 1 / F(nu)}[regime]
            u = ex.value(unit, t)
            omitted = max(abs(bound[n] * t ** n), abs(bound[n + 1] * t ** (n + 1))) / abs(u)
            exact = ex.value(bound[:n], t) / u
            got = float(values[i, j])
            assert abs(F(got) - exact) <= omitted + 4 * F(math.ulp(got)), (case_id, nu, x)


# ---------------------------------------------------------------------------
# one large-x source: the oracle's generator, on Fractions and on floats


def test_large_x_coefficients_exact_seeds():
    # K_{1/2} = K_{-1/2}: the exact seed r = 1 that k_ratio_rows uses
    assert large_x_coefficients(F(1, 2), F(-1), 12) == [-1] + [0] * 11
    assert np.all(oracle.k_ratio_row(0.5, [0.1, 1.0, 30.0])[0] == -1.0)
    # the accident the large_x_series error estimate allows for
    exact = large_x_coefficients(F(5, 2), -1, 61)
    assert exact[4] == 0 and exact[3] != 0
    # small integers, so the float generator gives them exactly
    assert all(c.denominator == 1 for c in exact)
    assert large_x_coefficients(2.5, -1.0) == [float(c) for c in exact]


# ---------------------------------------------------------------------------
# large-x ratio series: 1 +/- (nu - 1/2)/x + (nu^2 - 1/4)/(2 x^2)


def test_large_x_ratio_half_order_is_exact():
    # both coefficients vanish at nu = 1/2
    assert ex.value(large_x_coefficients(F(1, 2), 1, 3), F(1, 10)) == 1


def test_large_x_ratio_values():
    assert_allclose(-_at(large_x_coefficients(F(3, 2), -1, 3), F(1, 10)), 0.91, rtol=1e-15)
    assert_allclose(_at(large_x_coefficients(F(1), 1, 3), F(1, 100)), 1.0050375, rtol=1e-15)


def test_large_x_ratio_positive_for_both_kinds():
    # the series approximates C_{nu-1}/C_nu, positive for I and for K
    for c0 in (1, -1):
        assert c0 * _at(large_x_coefficients(F(2), c0, 3), F(1, 50)) > 0.0


# ---------------------------------------------------------------------------
# large-x double-step series: 1 -/+ 1/x +/- (nu^2 - 1/4)/(2 x^3)


def _large_x_double(nu, c0, n=4):
    """W = Phi(nu)/Phi(nu+1) through x**-(n-1)."""
    return ex.div(large_x_coefficients(F(nu), c0, n), large_x_coefficients(F(nu) + 1, c0, n))


def test_large_x_double_values():
    assert_allclose(_at(_large_x_double(0.5, 1), F(1, 10)), 0.9, rtol=1e-15)
    assert_allclose(_at(_large_x_double(0.5, -1), F(1, 10)), 1.1, rtol=1e-15)
    assert_allclose(_at(_large_x_double(2, 1), F(1, 10)), 1.0 - 0.1 + 3.75 / 2000.0,
                    rtol=1e-15)
    # the 1/x^2 term cancels identically for both kinds
    assert _large_x_double(F(7, 3), 1)[2] == _large_x_double(F(7, 3), -1)[2] == 0


# ---------------------------------------------------------------------------
# small-x first-kind series


def _small_x_I(nu, n=5):
    return ex.small_x_coefficients(nu, 2 * F(nu), n)


def test_small_x_I_values():
    # x^2/2 - x^4/16 at nu=0
    assert_allclose(_at(_small_x_I(0), F(1, 10)), 0.00499375, rtol=1e-14)
    assert_allclose(_at(ex.div(_small_x_I(0, 3), _small_x_I(1, 3)), F(1, 10)), 0.0025,
                    rtol=1e-12)

    assert_allclose(_at(_small_x_I(1), F(1, 10)), 2.0 + 0.01 / 4.0 - 1e-4 / 96.0, rtol=1e-15)
    # double-step tends to nu/(nu+1) = 1/2 with x^2/(2(nu+1)^2(nu+2)) correction
    assert_allclose(_at(ex.div(_small_x_I(1, 3), _small_x_I(2, 3)), F(1, 10)),
                    0.5 + 0.01 / 24.0, rtol=1e-12)


def test_small_x_I_rejects_negative_order():
    # at nu = -1/2 the x term is free
    with pytest.raises(DomainError):
        _small_x_I(F(-1, 2))


# ---------------------------------------------------------------------------
# small-x second-kind series


def test_small_x_K_values():
    assert_allclose(-_at(ex.small_x_coefficients(F(5, 2), 0, 5), F(1, 10)),
                    0.01 / 3.0 - 1e-4 / 9.0, rtol=1e-14)
    # below nu = 1 only the constant term 0 lies below x^(2 nu)
    assert ex.small_x_coefficients(F(1, 2), 0, 1) == [0]
    with pytest.raises(DomainError):
        ex.small_x_coefficients(F(1, 2), 0, 2)


def test_small_x_K_rejects_integer_order():
    # logarithmic terms at x^(2 nu) at integer order
    for nu in (1, 2, 3):
        with pytest.raises(DomainError):
            ex.small_x_coefficients(nu, 0, 2 * nu + 1)


# ---------------------------------------------------------------------------
# large-order series


def _large_nu(nu, x, n=6):
    """(x*Phi0, -x*Phi1) at order nu through nu**-(n-2)."""
    t = 1 / F(nu)
    y_i, y_k = ex.large_nu_coefficients(x, n)
    return float(ex.value(y_i, t) / t), float(-ex.value(y_k, t) / t)


def test_large_nu_ratio_values():
    f, s = _large_nu(100, 1)
    assert_allclose(f, 200.0 + 0.005 - 5e-5 + 3.0 / 8e6, rtol=1e-15)
    assert_allclose(s, 0.005 + 5e-5 + 3.0 / 8e6, rtol=1e-15)


def test_large_nu_ratio_small_x_limits():
    # as x -> 0 the first-kind value tends to 2 nu, the second-kind to 0
    f, s = _large_nu(50, 1e-8)
    assert_allclose(f, 100.0, rtol=1e-15)
    assert abs(s) < 1e-17


def test_large_nu_symmetry():
    # the two kinds share their odd terms in 1/nu, so F - S keeps only
    # 2 nu and the even terms
    for nu, x in ((25, 1.0), (60, 2.0)):
        f, s = _large_nu(nu, x)
        diff = 2.0 * nu - x * x / (nu * nu) + (x ** 4 - x * x) / nu ** 4
        assert_allclose(f - s, diff, rtol=1e-13)


# ---------------------------------------------------------------------------
# product series, P = 1/(x Phi0 - x Phi1)


def _product(regime, fixed, n):
    """P = sigma/(sigma x Phi0 - sigma x Phi1) through t**(n-1), sigma = t
    at large x and large nu, 1 at small x."""
    if regime == "large-x":
        pair = [large_x_coefficients(F(fixed), c0, n + 1) for c0 in (1, -1)]
    elif regime == "small-x":
        pair = [_small_x_I(fixed, n + 1), ex.small_x_coefficients(fixed, 0, n + 1)]
    else:
        pair = ex.large_nu_coefficients(fixed, n + 1)
    sigma = [1] + [0] * n if regime == "small-x" else [0, 1] + [0] * (n - 1)
    return ex.div(sigma, [a - b for a, b in zip(*pair)])[:n]


def test_product_expansion_values():
    # large x: 1/(2x) - (nu^2 - 1/4)/(4 x^3), whose second term vanishes
    assert _at(_product("large-x", F(1, 2), 5), F(1, 10)) == 0.05
    # large nu: 1/(2 nu) - x^2/(4 nu^3)
    assert_allclose(_at(_product("large-nu", 1, 5), F(1, 100)), 0.005 - 2.5e-7, rtol=1e-15)
    # small x: 1/(2 nu) - x^2/(4 nu (nu^2 - 1))
    assert_allclose(_at(_product("small-x", F(5, 2), 3), F(1, 10)), 0.19980952380952383,
                    rtol=1e-15)


def test_product_expansion_rejects_unknown_regime():
    with pytest.raises(DomainError):
        ex.bound_series("product-lower-trig", "medium-x", 1, 4)
    assert set(ex.REGIMES) == {"large-x", "small-x", "large-nu"}


# ---------------------------------------------------------------------------
# relative gap helper (verify.relative_error, the sharpness battery's measure)


def test_relative_error_sign_convention():
    assert_allclose(relative_error(1.05, 1.0, "upper"), 0.05, rtol=1e-12)
    assert_allclose(relative_error(0.95, 1.0, "lower"), 0.05, rtol=1e-12)
    # a violated bound comes out negative
    assert relative_error(0.95, 1.0, "upper") < 0.0
    assert relative_error(1.05, 1.0, "lower") < 0.0


def test_relative_error_matches_trig_bound_order():
    # gap of the cubic-root upper bound on the I-ratio is ~ 1/(4 x^2)
    from besselbounds.nullclines import TRIG_I

    p = EvalPoint(1.0, 100.0)
    eps = relative_error(TRIG_I.row(p.nu, [p.x])[0][0], oracle.i_ratio(p).value, "upper")
    assert_allclose(eps, 2.5e-5, rtol=0.10)


# ---------------------------------------------------------------------------
# agreement with the oracle, one anchor point per regime; tolerance is 10x
# the first omitted term


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def test_large_x_agreement():
    p = EvalPoint(1.0, 100.0)
    x, t = p.x, F(1, 100)
    next_ratio = (3.0 / 8.0) / x ** 3  # |c3| at nu=1
    assert _rel(_at(large_x_coefficients(F(1), 1, 3), t), oracle.i_ratio(p).value) \
        <= 10 * next_ratio
    assert _rel(-_at(large_x_coefficients(F(1), -1, 3), t), -oracle.k_ratio(p).value) \
        <= 10 * next_ratio

    next_double = 0.75 / x ** 4
    assert _rel(_at(_large_x_double(1, 1), t), quantity_at("W_I", p.nu, x)[0]) <= 10 * next_double
    assert _rel(_at(_large_x_double(1, -1), t), quantity_at("W_K", p.nu, x)[0]) <= 10 * next_double

    next_prod = 0.36 / x ** 4
    assert _rel(_at(_product("large-x", 1, 5), t), oracle.product(p).value) <= 10 * next_prod


def test_small_x_agreement():
    p = EvalPoint(1.0, 1e-2)
    x, t = p.x, F(1, 100)
    # next term of the scaled series is x^6/1536 at nu=1, far below roundoff
    # at this anchor; gate at a roundoff floor instead
    assert _rel(_at(_small_x_I(1), t), x * oracle.i_ratio(p).value) <= 1e-13
    assert _rel(_at(ex.div(_small_x_I(1, 3), _small_x_I(2, 3)), t),
                quantity_at("W_I", p.nu, x)[0]) <= 10 * 0.008 * x ** 4 / 0.5

    pk = EvalPoint(2.5, 1e-2)
    # remainder O(x^{2 nu - 2}) = O(x^3), measured coefficient ~ 1/3
    assert (
        _rel(-_at(ex.small_x_coefficients(F(5, 2), 0, 5), t), pk.x * (-oracle.k_ratio(pk).value))
        <= 10 * pk.x ** 3 / 3.0
    )
    assert (
        _rel(_at(_product("small-x", F(5, 2), 3), t), oracle.product(pk).value)
        <= 10 * 0.032 * pk.x ** 4 / 0.2
    )


def test_large_nu_agreement():
    p = EvalPoint(50.0, 1.0)
    nu = p.nu
    f, s = _large_nu(50, 1)
    # next coefficients ~ 13/16 over nu^5 (absolute), converted to relative
    assert _rel(f, p.x * oracle.i_ratio(p).value) <= 10 * 0.4 / nu ** 6
    assert _rel(s, p.x * (-oracle.k_ratio(p).value)) <= 10 * 2.0 * (13.0 / 16.0) / nu ** 4
    assert (
        _rel(_at(_product("large-nu", 1, 5), F(1, 50)), oracle.product(p).value)
        <= 10 * 1.0 / (8.0 * nu ** 4)
    )
