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


def _point(form, nu, x):
    """A bound's one-point row call: (value, direction, valid) at (nu, x)."""
    values, direction, valid = form.row(nu, [x])
    return values[0], direction, valid


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
# lambda_plus_row and gamma_hat_row


def test_lambda_plus_values():
    # nu = 1/2, a = 0 makes the shifted-order term vanish: identically 1
    assert_allclose(nc.lambda_plus_row(0.0, 0.5, [0.01, 1.0, 7.0, 300.0]), 1.0, rtol=1e-15)
    assert_allclose(
        nc.lambda_plus_row(0.0, 1.0, [1.0])[0], 0.5 + math.sqrt(5.0) / 2.0, rtol=1e-15
    )
    assert_allclose(nc.lambda_plus_row(-1.0, 0.0, [1.0])[0], 1.0, rtol=1e-15)
    assert nc.lambda_plus_row(3.0, -4.0, [0.3])[0] > 0.0


def _gamma_hat(a, nu, x):
    plus, minus = nc.gamma_hat_row(a, nu, np.array([x]))
    return plus[0], minus[0]


def test_gamma_hat_values():
    plus, minus = _gamma_hat(0.0, 0.5, 2.0)
    assert_allclose([plus, minus], [1.0, -1.0], rtol=1e-15)
    plus, minus = _gamma_hat(0.0, 1.0, 1.0)
    assert_allclose(plus, 1.618033988749895, rtol=1e-14)
    assert_allclose(minus, -0.6180339887498949, rtol=1e-14)
    plus, minus = _gamma_hat(-1.0, 0.0, 1.0)
    assert_allclose([plus, minus], [1.0, -1.0], rtol=1e-14)
    # the two branches multiply to -x^{-2a}
    plus, minus = _gamma_hat(0.75, 2.0, 3.0)
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
    lam_k, lam_o, lam_i, _, _ = (v[0] for v in nc.cubic_roots_row(0.0, [1.0]))
    assert_allclose(lam_i, 0.6180339887498949, rtol=1e-15)
    assert lam_o == 0.0
    assert_allclose(lam_k, -1.618033988749895, rtol=1e-15)


def test_cubic_roots_small_x_limit():
    # as x -> 0 at nu=2 the roots tend to {2, -1, -2}
    lam_k, lam_o, lam_i, _, _ = (v[0] for v in nc.cubic_roots_row(2.0, [1e-4]))
    assert_allclose(lam_i, 2.0, atol=1e-8)
    assert_allclose(lam_o, -1.0, atol=1e-8)
    assert_allclose(lam_k, -2.0, atol=1e-8)


def test_cubic_roots_large_x_asymptotic():
    # lambda_I ~ x - 1/2 + (nu^2 + 1/4)/(2x) + nu^2/(2x^2), remainder O(x^-3)
    assert_allclose(nc.cubic_roots_row(1.0, [10.0])[2][0], 9.5675, atol=5e-6)


def _residual(lam, nu, x):
    return np.abs(((lam + 1.0) * lam - (nu * nu + x * x)) * lam - nu * nu)


def test_cubic_roots_residuals_ordering_brackets():
    nus = np.arange(0.0, 20.01, 0.5)
    xs = np.geomspace(1e-3, 1e3, 41)
    for nu in nus.tolist():
        lam_k, lam_o, lam_i, _, acos_arg = nc.cubic_roots_row(nu, xs)
        h = np.hypot(nu, xs)
        scale = np.maximum(1.0, (nu * nu + xs * xs) ** 1.5)
        for lam in (lam_k, lam_o, lam_i):
            assert np.all(_residual(lam, nu, xs) <= 1e-10 * scale)
        assert np.all((lam_k < lam_o) & (lam_o < lam_i))
        assert np.all((nu < lam_i) & (lam_i <= h + 1e-12))
        assert np.all(((-1.0 - h <= lam_k) & (lam_k < -nu)) | ((nu == 0.0) & (lam_k < 0.0)))
        assert np.all((-1.0 < lam_o) & (lam_o <= 0.0))
        assert np.all(np.abs(acos_arg) <= 1.0)


# ---------------------------------------------------------------------------
# w-values


def test_w_values_cases():
    assert nc.w_values_row(0.0, np.array([3.0]))[2][0] == 0.0
    w_i, w_k, _ = nc.w_values_row(1.0, np.array([100.0]))
    assert_allclose(w_i[0], 0.99005, atol=1e-4)
    assert_allclose(w_k[0], 1.01005, atol=1e-4)


def test_w_values_ordering():
    for nu in (0.25, 0.5, 1.5, 7.0, 19.75):
        w_i, w_k, w_o = nc.w_values_row(nu, np.array([1e-2, 1.0, 50.0]))
        assert np.all((w_k > w_i) & (w_i > 0.0) & (0.0 > w_o))


def test_w_values_take_a_list_row():
    # x is converted as cubic_roots_row converts it; a list row used to
    # raise TypeError in x * x
    for got, want in zip(nc.w_values_row(1.0, [1.0, 2.0]),
                         nc.w_values_row(1.0, np.array([1.0, 2.0]))):
        np.testing.assert_array_equal(got, want)


def test_cubic_forms_return_empty_rows_on_empty_x():
    # the acos clamp check used to reduce an empty array and raise ValueError
    for nu in (1.0, np.array([[0.5], [2.5]])):
        shape = np.broadcast_shapes(np.shape(nu), (0,))
        for part in (*nc.cubic_roots_row(nu, np.array([])), *nc.w_values_row(nu, [])):
            assert part.shape == shape
        for cid, form in nc.BOUNDS.items():
            assert form.formula(nu, np.array([])).shape == shape, cid
    values, _, _ = nc.TRIG_I.row(1.0, [])
    assert values.shape == (0,)


# ---------------------------------------------------------------------------
# trigonometric ratio bounds


def test_trig_bound_I_values():
    value, direction, valid = _point(nc.TRIG_I, 0.0, 1.0)
    assert direction == "upper" and nc.TRIG_I.target == "Phi0" and valid
    assert_allclose(value, 0.6180339887498949, rtol=1e-14)
    assert oracle.i_ratio(EvalPoint(0.0, 1.0)).value < value

    value = _point(nc.TRIG_I, 0.5, 1.0)[0]
    assert_allclose(value, 1.3406653218024889, rtol=1e-14)
    assert value > 1.0 / math.tanh(1.0)


def test_trig_bound_I_small_x_gap():
    # relative gap ~ x^4/(8 nu^2 (nu+1)^3 (nu+2)) = x^4/192 at nu=1
    q = oracle.i_ratio(EvalPoint(1.0, 0.01)).value
    rel = (_point(nc.TRIG_I, 1.0, 0.01)[0] - q) / q
    assert_allclose(rel, 1e-8 / 192.0, rtol=0.10)


def test_trig_bound_K_values():
    value, direction, valid = _point(nc.TRIG_K, 0.5, 1.0)
    assert direction == "upper" and nc.TRIG_K.target == "K-ratio-pos" and valid
    assert_allclose(value, 1.1617021380432389, rtol=1e-14)
    assert value > 1.0  # oracle ratio is exactly 1 at nu = 1/2

    assert _point(nc.TRIG_K, 1.5, 1.0)[0] > 0.5  # oracle ratio x/(x+1) = 0.5 at nu = 3/2


def test_trig_bound_K_large_x_gap():
    q = -oracle.k_ratio(EvalPoint(1.0, 100.0)).value
    rel = (_point(nc.TRIG_K, 1.0, 100.0)[0] - q) / q
    assert_allclose(rel, 2.5e-5, rtol=0.10)


def test_trig_bound_K_small_x_large_nu():
    # regression: the lambda_K + nu shift must survive cancellation; the
    # bound behaves like x/(2(nu-1)) as x -> 0
    value = _point(nc.TRIG_K, 19.75, 1e-3)[0]
    assert_allclose(value, 1e-3 / (2.0 * 18.75), rtol=1e-6)
    assert_allclose(value, 2.666666664674355e-05, rtol=1e-12)


def test_trig_bounds_match_cubic_roots():
    # U_I x - nu = lambda_I, U_K x + nu = -lambda_K.  The K-side comparison
    # is limited by the trig evaluation of lambda_K near its collision with
    # lambda_O (nu ~ 1, x -> 0), so it gets a wider ulp budget.
    xs = np.geomspace(1e-3, 1e3, 31)
    for nu in np.arange(0.0, 20.01, 0.25).tolist():
        lam_k, _, lam_i, g, _ = nc.cubic_roots_row(nu, xs)
        ui = nc.TRIG_I.row(nu, xs)[0]
        uk = nc.TRIG_K.row(nu, xs)[0]
        assert np.all(np.abs(ui * xs - nu - lam_i) <= 8.0 * EPS * g)
        assert np.all(np.abs(uk * xs + nu + lam_k) <= 512.0 * EPS * g)


# ---------------------------------------------------------------------------
# shifted-order family of bounds


def _amos(nu, x, a):
    """(bound_I, bound_K) of ``amos_forms(a)`` at one point, each
    (value, direction, valid)."""
    return tuple(_point(form, nu, x) for form in nc.amos_forms(a))


def test_amos_bounds_a0():
    (bi, i_dir, i_valid), (bk, k_dir, k_valid) = _amos(0.5, 2.0, 0.0)
    assert i_dir == "lower" and i_valid
    assert_allclose(bi, 1.0, rtol=1e-15)
    # K-side equality case at nu = 1/2: value -1, flagged outside nu > 1/2
    assert k_dir == "upper" and not k_valid
    assert_allclose(bk, -1.0, rtol=1e-15)
    assert_allclose(oracle.k_ratio(EvalPoint(0.5, 2.0)).value, -1.0, rtol=1e-14)

    (bi, _, i_valid), (bk, _, k_valid) = _amos(1.0, 1.0, 0.0)
    assert i_valid and k_valid
    assert bi < oracle.i_ratio(EvalPoint(1.0, 1.0)).value
    assert bk > oracle.k_ratio(EvalPoint(1.0, 1.0)).value


def test_amos_bounds_a_minus_1():
    bi, i_dir, i_valid = _amos(1.0, 1.0, -1.0)[0]
    assert i_dir == "upper" and i_valid
    assert_allclose(bi, 1.0 + math.sqrt(2.0), rtol=1e-15)
    assert oracle.i_ratio(EvalPoint(1.0, 1.0)).value < bi
    # valid down to nu = -1
    assert _amos(-1.0, 1.0, -1.0)[0][2]


def test_amos_bounds_a1_all_orders():
    bk, k_dir, k_valid = _amos(-0.5, 1.0, 1.0)[1]
    assert k_dir == "lower" and k_valid
    assert bk < oracle.k_ratio(EvalPoint(-0.5, 1.0)).value


def test_amos_bounds_outer_exponents():
    # a = 2: lower bounds; a = -2: upper bounds; K side valid for all nu
    (bi, i_dir, _), (bk, k_dir, _) = _amos(1.0, 1.0, 2.0)
    assert i_dir == "lower" and k_dir == "lower"
    (bi2, i_dir, _), (bk2, k_dir, _) = _amos(1.0, 1.0, -2.0)
    assert i_dir == "upper" and k_dir == "upper"
    q = oracle.i_ratio(EvalPoint(1.0, 1.0)).value
    assert bi < q < bi2
    qk = oracle.k_ratio(EvalPoint(1.0, 1.0)).value
    assert bk < qk < bk2


# ---------------------------------------------------------------------------
# product bounds


def test_product_bounds_values():
    forms = nc.PRODUCT_FORMS
    upper = _point(forms["upper"], 0.5, 1.0)[0]
    assert_allclose(upper, 0.5, rtol=1e-15)
    q = oracle.product(EvalPoint(0.5, 1.0)).value
    assert_allclose(q, (1.0 - math.exp(-2.0)) / 2.0, rtol=1e-13)
    assert q < upper
    for name in ("lower_amos", "lower_trig", "lower_simple"):
        assert _point(forms[name], 0.5, 1.0)[0] < q

    assert_allclose(_point(forms["lower_simple"], 0.0, 1.0)[0],
                    1.0 / (2.0 * math.sqrt(4.0 / 3.0)), rtol=1e-15)
    assert not _point(forms["upper"], 0.0, 1.0)[2]  # stated for nu >= 1/2
    assert nc.PRODUCT_FORMS["lower_conjecture"].conjectural
    assert not nc.PRODUCT_FORMS["lower_amos"].conjectural


def test_product_lower_trig_large_x_gap():
    q = oracle.product(EvalPoint(1.0, 100.0)).value
    rel = 1.0 - _point(nc.PRODUCT_FORMS["lower_trig"], 1.0, 100.0)[0] / q
    assert_allclose(rel, 2.5e-5, rtol=0.10)


def test_product_bounds_ordering():
    # conjectured lower bound sits above the proved simple one; the upper
    # bound dominates it only on the upper bound's own validity range
    for nu in (0.0, 0.5, 3.25):
        for x in (0.05, 1.0, 40.0):
            conj = _point(nc.PRODUCT_FORMS["lower_conjecture"], nu, x)[0]
            upper, _, upper_valid = _point(nc.PRODUCT_FORMS["upper"], nu, x)
            assert conj > _point(nc.PRODUCT_FORMS["lower_simple"], nu, x)[0]
            if upper_valid:
                assert upper > conj


def test_bound_producers_registry():
    ids = tuple(nc.BOUNDS)
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
    # each element of a row equals the same function's call on its own x
    row = np.array(xs)
    fns = [lambda x: nc.lambda_plus_row(a, nu, x), lambda x: nc.cubic_roots_row(nu, x),
           lambda x: nc.w_values_row(nu, x), lambda x: nc.gamma_hat_row(a, nu, x)]
    pairs = [(np.reshape(fn(row), (-1, len(xs))),
              np.column_stack([np.reshape(fn(np.array([x])), -1) for x in xs])) for fn in fns]
    forms = [nc.TRIG_I, nc.TRIG_K, *nc.amos_forms(a), *nc.PRODUCT_FORMS.values()]
    for form in forms:
        values, direction, valid = form.row(nu, row)
        points = [_point(form, nu, x) for x in xs]
        assert {(d, v) for _, d, v in points} == {(direction, valid)}
        pairs.append((values, [value for value, _, _ in points]))
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
    lam_k, lam_o, lam_i, _, _ = (v[0] for v in nc.cubic_roots_row(nu, [x]))
    with localcontext() as ctx:
        ctx.prec = 50
        n, y = Decimal(nu), Decimal(x)
        cubic = [1, 1, -(n * n + y * y), -n * n]
        for lam in (lam_i, lam_k, lam_o):
            lam = float(lam)
            assert _rel(lam, _decimal_root(cubic, lam)) <= 1e-14
        # lambda_K + nu from its shifted cubic, through the trig K bound
        u = _decimal_root([1, 1 - 3 * n, 2 * n * (n - 1) - y * y, n * y * y],
                          float(lam_k + nu))
        assert _rel(float(_point(nc.TRIG_K, nu, x)[0]), -u / y) <= 1e-14
        # lambda_K + 1 from its shifted cubic, through w_K = lambda_K/(lambda_K + 1)
        u = _decimal_root([1, -2, 1 - n * n - y * y, y * y], float(lam_k + 1.0))
        assert _rel(float(nc.w_values_row(nu, np.array([x]))[1][0]), (u - 1) / u) <= 1e-14
        # lambda_plus is the positive root of x*t**2 - 2*c*t - x
        c = n - (Decimal(a) + 1) / 2
        lam = float(nc.lambda_plus_row(a, nu, [x])[0])
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
