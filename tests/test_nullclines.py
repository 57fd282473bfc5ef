"""Tests for the closed-form bound and nullcline evaluators."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import PROPERTY, log_x
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from besselbounds import nullclines as nc
from besselbounds import oracle
from besselbounds.errors import DomainError
from besselbounds.nullclines import EvalPoint

EPS = 2.220446049250313e-16


# ---------------------------------------------------------------------------
# EvalPoint domain checks


def test_eval_point_rejects_bad_inputs():
    with pytest.raises(DomainError):
        EvalPoint(1.0, 0.0)
    with pytest.raises(DomainError):
        EvalPoint(1.0, -2.0)
    with pytest.raises(DomainError):
        EvalPoint(math.nan, 1.0)
    with pytest.raises(DomainError):
        EvalPoint(math.inf, 1.0)


# ---------------------------------------------------------------------------
# lambda_plus and gamma_hat


def test_lambda_plus_values():
    # nu = 1/2, a = 0 makes the shifted-order term vanish: identically 1
    for x in (0.01, 1.0, 7.0, 300.0):
        assert_allclose(nc.lambda_plus(0.0, EvalPoint(0.5, x)), 1.0, rtol=1e-15)
    assert_allclose(
        nc.lambda_plus(0.0, EvalPoint(1.0, 1.0)), 0.5 + math.sqrt(5.0) / 2.0, rtol=1e-15
    )
    assert_allclose(nc.lambda_plus(-1.0, EvalPoint(0.0, 1.0)), 1.0, rtol=1e-15)
    assert nc.lambda_plus(3.0, EvalPoint(-4.0, 0.3)) > 0.0


def test_gamma_hat_values():
    plus, minus = nc.gamma_hat(0.0, EvalPoint(0.5, 2.0))
    assert_allclose([plus, minus], [1.0, -1.0], rtol=1e-15)
    plus, minus = nc.gamma_hat(0.0, EvalPoint(1.0, 1.0))
    assert_allclose(plus, 1.618033988749895, rtol=1e-14)
    assert_allclose(minus, -0.6180339887498949, rtol=1e-14)
    plus, minus = nc.gamma_hat(-1.0, EvalPoint(0.0, 1.0))
    assert_allclose([plus, minus], [1.0, -1.0], rtol=1e-14)
    # the two branches multiply to -x^{-2a}
    plus, minus = nc.gamma_hat(0.75, EvalPoint(2.0, 3.0))
    assert_allclose(plus * minus, -(3.0 ** -1.5), rtol=1e-13)
    assert plus > 0.0 > minus


# ---------------------------------------------------------------------------
# nullcline extremum location


def test_nullcline_extremum_cases():
    e = nc.nullcline_extremum(-0.5, 2.0)
    assert e is not None
    assert_allclose(e.x, math.sqrt(0.75) / 0.5 * 1.75, rtol=1e-14)  # ~3.0311
    assert (e.branch, e.kind) == ("plus", "min")

    e = nc.nullcline_extremum(0.5, 2.0)
    assert e is not None
    assert_allclose(e.x, math.sqrt(0.75) / 0.5 * 1.25, rtol=1e-14)  # ~2.1651
    assert (e.branch, e.kind) == ("minus", "min")

    assert nc.nullcline_extremum(0.5, 0.75) is None


def test_nullcline_extremum_rejects_bad_exponent():
    for a in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(DomainError):
            nc.nullcline_extremum(a, 1.0)


# ---------------------------------------------------------------------------
# cubic roots


def test_cubic_roots_nu_zero_closed_form():
    r = nc.cubic_roots(EvalPoint(0.0, 1.0))
    assert_allclose(r.lambda_I, 0.6180339887498949, rtol=1e-15)
    assert r.lambda_O == 0.0
    assert_allclose(r.lambda_K, -1.618033988749895, rtol=1e-15)


def test_cubic_roots_small_x_limit():
    # as x -> 0 at nu=2 the roots tend to {2, -1, -2}
    r = nc.cubic_roots(EvalPoint(2.0, 1e-4))
    assert_allclose(r.lambda_I, 2.0, atol=1e-8)
    assert_allclose(r.lambda_O, -1.0, atol=1e-8)
    assert_allclose(r.lambda_K, -2.0, atol=1e-8)


def test_cubic_roots_large_x_asymptotic():
    # lambda_I ~ x - 1/2 + (nu^2 + 1/4)/(2x) + nu^2/(2x^2), remainder O(x^-3)
    r = nc.cubic_roots(EvalPoint(1.0, 10.0))
    assert_allclose(r.lambda_I, 9.5675, atol=5e-6)


def _residual(lam: float, nu: float, x: float) -> float:
    return abs(((lam + 1.0) * lam - (nu * nu + x * x)) * lam - nu * nu)


def test_cubic_roots_residuals_ordering_brackets():
    nus = np.arange(0.0, 20.01, 0.5)
    xs = np.geomspace(1e-3, 1e3, 41)
    for nu in nus:
        for x in xs:
            p = EvalPoint(float(nu), float(x))
            r = nc.cubic_roots(p)
            h = math.hypot(nu, x)
            scale = max(1.0, (nu * nu + x * x) ** 1.5)
            for lam in (r.lambda_K, r.lambda_O, r.lambda_I):
                assert _residual(lam, nu, x) <= 1e-10 * scale
            assert r.lambda_K < r.lambda_O < r.lambda_I
            assert nu < r.lambda_I <= h + 1e-12
            assert -1.0 - h <= r.lambda_K < -nu or (nu == 0.0 and r.lambda_K < 0.0)
            assert -1.0 < r.lambda_O <= 0.0
            assert abs(r.acos_arg) <= 1.0


# ---------------------------------------------------------------------------
# w-values


def test_w_values_cases():
    assert nc.w_values(EvalPoint(0.0, 3.0)).w_O == 0.0
    w = nc.w_values(EvalPoint(1.0, 100.0))
    assert_allclose(w.w_I, 0.99005, atol=1e-4)
    assert_allclose(w.w_K, 1.01005, atol=1e-4)


def test_w_values_ordering():
    for nu in (0.25, 0.5, 1.5, 7.0, 19.75):
        for x in (1e-2, 1.0, 50.0):
            w = nc.w_values(EvalPoint(nu, x))
            assert w.w_K > w.w_I > 0.0 > w.w_O


# ---------------------------------------------------------------------------
# trigonometric ratio bounds


def test_trig_bound_I_values():
    b = nc.trig_bound_I(EvalPoint(0.0, 1.0))
    assert b.direction == "upper" and b.target == "Phi0" and b.valid
    assert_allclose(b.value, 0.6180339887498949, rtol=1e-14)
    assert oracle.i_ratio(EvalPoint(0.0, 1.0)).value < b.value

    b = nc.trig_bound_I(EvalPoint(0.5, 1.0))
    assert_allclose(b.value, 1.3406653218024889, rtol=1e-14)
    assert b.value > 1.0 / math.tanh(1.0)


def test_trig_bound_I_small_x_gap():
    # relative gap ~ x^4/(8 nu^2 (nu+1)^3 (nu+2)) = x^4/192 at nu=1
    p = EvalPoint(1.0, 0.01)
    q = oracle.i_ratio(p).value
    rel = (nc.trig_bound_I(p).value - q) / q
    assert_allclose(rel, 1e-8 / 192.0, rtol=0.10)


def test_trig_bound_K_values():
    b = nc.trig_bound_K(EvalPoint(0.5, 1.0))
    assert b.direction == "upper" and b.target == "K-ratio-pos" and b.valid
    assert_allclose(b.value, 1.1617021380432389, rtol=1e-14)
    assert b.value > 1.0  # oracle ratio is exactly 1 at nu = 1/2

    b = nc.trig_bound_K(EvalPoint(1.5, 1.0))
    assert b.value > 0.5  # oracle ratio x/(x+1) = 0.5 at nu = 3/2


def test_trig_bound_K_large_x_gap():
    p = EvalPoint(1.0, 100.0)
    q = -oracle.k_ratio(p).value
    rel = (nc.trig_bound_K(p).value - q) / q
    assert_allclose(rel, 2.5e-5, rtol=0.10)


def test_trig_bound_K_small_x_large_nu():
    # regression: the lambda_K + nu shift must survive cancellation; the
    # bound behaves like x/(2(nu-1)) as x -> 0
    b = nc.trig_bound_K(EvalPoint(19.75, 1e-3))
    assert_allclose(b.value, 1e-3 / (2.0 * 18.75), rtol=1e-6)
    assert_allclose(b.value, 2.666666664674355e-05, rtol=1e-12)


def test_trig_bounds_match_cubic_roots():
    # U_I x - nu = lambda_I, U_K x + nu = -lambda_K.  The K-side comparison
    # is limited by the trig evaluation of lambda_K near its collision with
    # lambda_O (nu ~ 1, x -> 0), so it gets a wider ulp budget.
    for nu in np.arange(0.0, 20.01, 0.25):
        for x in np.geomspace(1e-3, 1e3, 31):
            p = EvalPoint(float(nu), float(x))
            r = nc.cubic_roots(p)
            ui = nc.trig_bound_I(p).value
            uk = nc.trig_bound_K(p).value
            assert abs(ui * x - nu - r.lambda_I) <= 8.0 * EPS * r.g
            assert abs(uk * x + nu + r.lambda_K) <= 512.0 * EPS * r.g


# ---------------------------------------------------------------------------
# shifted-order family of bounds


def test_amos_bounds_a0():
    bi, bk = nc.amos_bounds(EvalPoint(0.5, 2.0), 0.0)
    assert bi.direction == "lower" and bi.valid
    assert_allclose(bi.value, 1.0, rtol=1e-15)
    # K-side equality case at nu = 1/2: value -1, flagged outside nu > 1/2
    assert bk.direction == "upper" and not bk.valid
    assert_allclose(bk.value, -1.0, rtol=1e-15)
    assert_allclose(oracle.k_ratio(EvalPoint(0.5, 2.0)).value, -1.0, rtol=1e-14)

    bi, bk = nc.amos_bounds(EvalPoint(1.0, 1.0), 0.0)
    assert bi.valid and bk.valid
    assert bi.value < oracle.i_ratio(EvalPoint(1.0, 1.0)).value
    assert bk.value > oracle.k_ratio(EvalPoint(1.0, 1.0)).value


def test_amos_bounds_a_minus_1():
    bi, bk = nc.amos_bounds(EvalPoint(1.0, 1.0), -1.0)
    assert bi.direction == "upper" and bi.valid
    assert_allclose(bi.value, 1.0 + math.sqrt(2.0), rtol=1e-15)
    assert oracle.i_ratio(EvalPoint(1.0, 1.0)).value < bi.value
    # valid down to nu = -1
    bi, _ = nc.amos_bounds(EvalPoint(-1.0, 1.0), -1.0)
    assert bi.valid


def test_amos_bounds_a1_all_orders():
    _, bk = nc.amos_bounds(EvalPoint(-0.5, 1.0), 1.0)
    assert bk.direction == "lower" and bk.valid
    assert bk.value < oracle.k_ratio(EvalPoint(-0.5, 1.0)).value


def test_amos_bounds_outer_exponents():
    # a = 2: lower bounds; a = -2: upper bounds; K side valid for all nu
    bi, bk = nc.amos_bounds(EvalPoint(1.0, 1.0), 2.0)
    assert bi.direction == "lower" and bk.direction == "lower"
    bi2, bk2 = nc.amos_bounds(EvalPoint(1.0, 1.0), -2.0)
    assert bi2.direction == "upper" and bk2.direction == "upper"
    q = oracle.i_ratio(EvalPoint(1.0, 1.0)).value
    assert bi.value < q < bi2.value
    qk = oracle.k_ratio(EvalPoint(1.0, 1.0)).value
    assert bk.value < qk < bk2.value


# ---------------------------------------------------------------------------
# product bounds


def test_product_bounds_values():
    pb = nc.product_bounds(EvalPoint(0.5, 1.0))
    assert_allclose(pb.upper.value, 0.5, rtol=1e-15)
    q = oracle.product(EvalPoint(0.5, 1.0)).value
    assert_allclose(q, (1.0 - math.exp(-2.0)) / 2.0, rtol=1e-13)
    assert q < pb.upper.value
    for b in (pb.lower_amos, pb.lower_trig, pb.lower_simple):
        assert b.value < q

    pb = nc.product_bounds(EvalPoint(0.0, 1.0))
    assert_allclose(pb.lower_simple.value, 1.0 / (2.0 * math.sqrt(4.0 / 3.0)), rtol=1e-15)
    assert not pb.upper.valid  # stated for nu >= 1/2
    assert pb.lower_conjecture.conjectural
    assert not pb.lower_amos.conjectural


def test_product_lower_trig_large_x_gap():
    p = EvalPoint(1.0, 100.0)
    q = oracle.product(p).value
    rel = 1.0 - nc.product_bounds(p).lower_trig.value / q
    assert_allclose(rel, 2.5e-5, rtol=0.10)


def test_product_bounds_ordering():
    # conjectured lower bound sits above the proved simple one; the upper
    # bound dominates it only on the upper bound's own validity range
    for nu in (0.0, 0.5, 3.25):
        for x in (0.05, 1.0, 40.0):
            pb = nc.product_bounds(EvalPoint(nu, x))
            assert pb.lower_conjecture.value > pb.lower_simple.value
            if pb.upper.valid:
                assert pb.upper.value > pb.lower_conjecture.value


def test_bound_producers_registry():
    ids = nc.bound_producers()
    assert len(ids) == len(set(ids)) == 25
    assert "trig-upper-I" in ids and "product-lower-conjecture" in ids


# ---------------------------------------------------------------------------
# array-first closed forms: one implementation, checked at random rows

_X_ROW = st.lists(log_x(10 ** -3.5, 1e3), min_size=1, max_size=8)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@PROPERTY
@given(nu=st.one_of(st.just(0.0), st.floats(-1.0, 20.0)), xs=_X_ROW,
       a=st.sampled_from([0.0, -1.0, 1.0, -2.0, 2.0, 0.5, -0.5]))
def test_rows_equal_one_point_calls(nu, xs, a):
    row = np.array(xs)
    pts = [EvalPoint(nu, x) for x in xs]
    pairs = [
        (nc.lambda_plus_row(a, nu, row), [nc.lambda_plus(a, p) for p in pts]),
        (nc.cubic_roots_row(nu, row),
         [[getattr(nc.cubic_roots(p), f) for p in pts]
          for f in ("lambda_K", "lambda_O", "lambda_I", "g", "acos_arg")]),
        (nc.w_values_row(nu, row),
         [[getattr(nc.w_values(p), f) for p in pts] for f in ("w_I", "w_K", "w_O")]),
        (nc.gamma_hat_row(a, nu, row), np.transpose([nc.gamma_hat(a, p) for p in pts])),
    ]
    forms = [(nc.TRIG_I, nc.trig_bound_I), (nc.TRIG_K, nc.trig_bound_K)]
    forms += [(form, lambda p, i=i: nc.amos_bounds(p, a)[i])
              for i, form in enumerate(nc.amos_forms(a))]
    forms += [(form, lambda p, name=name: getattr(nc.product_bounds(p), name))
              for name, form in nc.PRODUCT_FORMS.items()]
    for form, scalar in forms:
        values, direction, valid = form.row(nu, row)
        bounds = [scalar(p) for p in pts]
        assert {(b.direction, b.valid) for b in bounds} == {(direction, valid)}
        pairs.append((values, [b.value for b in bounds]))
    for row_values, point_values in pairs:
        np.testing.assert_array_equal(_bits(row_values), _bits(point_values))


def _decimal_root(coeffs, seed: float) -> Decimal:
    """50-digit Newton refinement of a root of sum(c * u**k), coefficients
    from the highest power down, starting at a float seed."""
    u = Decimal(seed)
    for _ in range(100):
        f = df = Decimal(0)
        for c in coeffs:
            df = df * u + f
            f = f * u + c
        step = f / df
        u -= step
        if abs(step) <= abs(u) * Decimal("1e-45"):
            return u
    raise AssertionError(f"no convergence from seed {seed!r}")


def _rel(value: float, ref: Decimal) -> float:
    return float(abs((Decimal(value) - ref) / ref))


@PROPERTY
@given(nu=st.floats(0.25, 20.0), x=log_x(10 ** -3.5, 1e3),
       a=st.sampled_from([0.0, -1.0, 1.0, -2.0, 2.0, 0.5, -0.5]))
def test_closed_forms_match_50_digit_roots(nu, x, a):
    p = EvalPoint(nu, x)
    r = nc.cubic_roots(p)
    with localcontext() as ctx:
        ctx.prec = 50
        n, y = Decimal(nu), Decimal(x)
        cubic = [1, 1, -(n * n + y * y), -n * n]
        for lam in (r.lambda_I, r.lambda_K, r.lambda_O):
            assert _rel(lam, _decimal_root(cubic, lam)) <= 1e-14
        # lambda_K + nu from its shifted cubic, through the trig K bound
        u = _decimal_root([1, 1 - 3 * n, 2 * n * (n - 1) - y * y, n * y * y],
                          r.lambda_K + nu)
        assert _rel(nc.trig_bound_K(p).value, -u / y) <= 1e-14
        # lambda_K + 1 from its shifted cubic, through w_K = lambda_K/(lambda_K + 1)
        u = _decimal_root([1, -2, 1 - n * n - y * y, y * y], r.lambda_K + 1.0)
        assert _rel(nc.w_values(p).w_K, (u - 1) / u) <= 1e-14
        # lambda_plus is the positive root of x*t**2 - 2*c*t - x
        c = n - (Decimal(a) + 1) / 2
        lam = nc.lambda_plus(a, p)
        assert _rel(lam, _decimal_root([y, -2 * c, -y], lam)) <= 1e-14


@PROPERTY
@given(xs=_X_ROW)
def test_row_with_nu_zero_takes_factored_branch(xs):
    # t**3 + t**2 - x**2 t = t (t**2 + t - x**2): lambda_O = 0 exactly and
    # lambda_I = 2 x**2/(1 + sqrt(1 + 4 x**2)), free of cancellation
    x = np.array(xs)
    nu = np.where(np.arange(len(xs)) % 2 == 0, 0.0, 1.5)
    lam_k, lam_o, lam_i, _, _ = nc.cubic_roots_row(nu, x)
    zero = nu == 0.0
    h = 2.0 * x * x / (1.0 + np.sqrt(1.0 + 4.0 * x * x))
    np.testing.assert_array_equal(lam_i[zero], h[zero])
    np.testing.assert_array_equal(lam_o[zero], 0.0)
    np.testing.assert_array_equal(nc.w_values_row(nu, x)[2][zero], 0.0)
    assert_allclose(lam_k[zero], -1.0 - h[zero], rtol=2 * EPS)
    assert np.all(lam_o[~zero] < 0.0)
