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
from conftest import PROPERTY, log_x, quantity_at
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from besselbounds import oracle
from besselbounds.errors import DomainError, EvaluationError
from besselbounds.nullclines import EvalPoint
from besselbounds.oracle import default_x_start
from besselbounds.verify import Grid, OracleTable, default_grid


def _direct_k(nu: float, x: float) -> oracle.OracleResult:
    """Phi1 from one direct seed at the order itself (series, then Taylor
    steps): no ladder step and no reflection, the reference the ladder and
    the reflection are tested against."""
    vals, ests, used = oracle._k_seed_row(nu, np.array([x]))
    return oracle.OracleResult(float(vals[0]), float(ests[0]), used)


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
        assert r.method == "continued-fraction+ladder"
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


@pytest.mark.parametrize("nus, xs", [([math.nan], [1.0]), ([math.inf], [1.0]),
                                     ([0.5], [1.0, math.inf]), ([0.5], [math.nan]),
                                     ([0.5], [2.0, 1.0])])
def test_ratio_rows_refuse_non_finite_or_unordered_input(nus, xs):
    # a non-finite element would run the fraction to CF_MAX_ITER steps
    for rows in (oracle.i_ratio_rows, oracle.k_ratio_rows):
        with pytest.raises(DomainError):
            rows(nus, xs)


def _lentz_i_ratio(nu: float, x: float):
    """Reference: the scalar modified Lentz loop, zero guards included,
    that ``i_ratio_rows`` must reproduce bit for bit."""
    _EPS = 2.220446049250313e-16
    CF_TOL, CF_MAX_ITER, CF_TINY = 1.0e-14, 1_000_000, 1.0e-300
    b0 = 2.0 * nu / x
    f = b0 if b0 != 0.0 else CF_TINY
    c = f
    d = 0.0
    two_over_x = 2.0 / x
    for j in range(1, CF_MAX_ITER + 1):
        bj = two_over_x * (nu + j)
        d = bj + d
        if d == 0.0:
            d = CF_TINY
        c = bj + 1.0 / c
        if c == 0.0:
            c = CF_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < CF_TOL:
            return f, abs(f) * (4.0 * abs(delta - 1.0) + (j + 4) * _EPS)
    raise AssertionError("reference fraction did not converge")


def _scalar_i_ratio(nu: float, x: float):
    """Reference (value, est_error, method): the scalar Lentz loop at nu's
    anchor, then scalar ladder steps down to nu, the step to nu in [-1, 0)
    included."""
    _EPS = 2.220446049250313e-16
    span = oracle.I_ANCHOR_SPAN
    base = nu + 1.0 if nu < 0.0 else nu
    m = span - 1 - math.floor(base) % span
    d, e = _lentz_i_ratio(base + m, x)
    r, rel = 1.0 / d, e / abs(d)
    orders = [base + j for j in range(m - 1, -1, -1)] + [nu] * (nu < 0.0)
    for o in orders:
        d = 2.0 * o / x + r
        rel = rel * abs(r / d) + 2.0 * _EPS
        r = 1.0 / d
    return d, rel * abs(d), "continued-fraction+ladder" if orders else "continued-fraction"


def _assert_rows_equal_scalar(nus, xs):
    rows = oracle.i_ratio_rows(nus, xs)
    for nu in nus:
        vals, ests, method = rows[nu]
        for x, v, e in zip(xs, vals.tolist(), ests.tolist()):
            assert (v, e, method) == _scalar_i_ratio(nu, x), (nu, x)


@pytest.mark.parametrize("x_lo", [1e-3, 10 ** -3.5])
def test_i_ratio_rows_bit_equal_to_scalar_on_default_grid(x_lo):
    # the orders and the orders + 1, as an oracle table asks for them
    grid = default_grid(x_lo)
    _assert_rows_equal_scalar(grid.nu_values + tuple(nu + 1.0 for nu in grid.nu_values),
                              grid.x_values)


def test_i_ratio_rows_bit_equal_to_scalar_on_dense_half_integer_grid():
    nus = tuple(k + 0.5 for k in range(21))
    _assert_rows_equal_scalar(nus, tuple(np.geomspace(1e-3, 1e3, 1001)))


def test_i_ratio_rows_bit_equal_to_scalar_at_random_points():
    rng = np.random.default_rng(20)
    nus = tuple(rng.uniform(-1.0, 40.0, 40).tolist())
    xs = tuple(np.sort(10.0 ** rng.uniform(-3.5, 3.0, 75)).tolist())
    _assert_rows_equal_scalar(nus, xs)
    for nu, x in zip(nus, xs):
        r = oracle.i_ratio(EvalPoint(nu, x))
        assert (r.value, r.est_error, r.method) == _scalar_i_ratio(nu, x), (nu, x)


def test_i_ratio_rows_non_convergence_names_a_live_point(monkeypatch):
    # the fraction runs at 0.5's anchor, 15.5; x = 1 converges there within
    # 40 steps and x = 500, 1000 do not; a lane that has converged may still
    # sit in the live arrays, and must not be named
    monkeypatch.setattr(oracle, "CF_MAX_ITER", 40)
    with pytest.raises(EvaluationError, match=r"in 40 iterations at nu=15\.5, x=500\.0$"):
        oracle.i_ratio_rows([0.5], [1.0, 500.0, 1000.0])


@pytest.mark.parametrize("dense", [False, True])
def test_i_ratio_rows_raise_no_floating_point_exception(dense):
    # converged lanes stay in the live arrays until half have converged;
    # the default grid's orders come with their nu + 1 and with nu = 0
    # (b_0 = 0, the CF_TINY floor)
    grid = default_grid()
    nus, xs = (((k + 0.5 for k in range(21)), np.geomspace(1e-3, 1e3, 1001)) if dense else
               ((*grid.nu_values, *(nu + 1.0 for nu in grid.nu_values), 0.0), grid.x_values))
    nus = tuple(nus)
    with np.errstate(all="raise"):
        guarded = oracle.i_ratio_rows(nus, xs)
    plain = oracle.i_ratio_rows(nus, xs)
    for nu in nus:
        for got, want in zip(guarded[nu][:2], plain[nu][:2]):
            assert got.tobytes() == want.tobytes(), nu


def _phi0_40_digits(nu: float, x: float):
    # the order minus one in mpf: nu - 1 in float is rounded for nu < 1/2
    with mpmath.workdps(40):
        return mpmath.besseli(mpmath.mpf(nu) - 1, x) / mpmath.besseli(nu, x)


def _i_within_estimate(nu: float, x: float) -> bool:
    vals, ests, _ = oracle.i_ratio_row(nu, [x])
    with mpmath.workdps(40):
        return abs(mpmath.mpf(float(vals[0])) - _phi0_40_digits(nu, x)) <= ests[0]


def test_i_ratio_estimate_is_honest_at_random_points():
    # anchor rows, ladder rows and the step to negative orders
    rng = np.random.default_rng(31)
    nus = rng.uniform(-1.0, 40.0, 500).tolist()
    xs = (10.0 ** rng.uniform(-3.5, 3.0, 500)).tolist()
    for nu, x in zip(nus, xs):
        assert _i_within_estimate(nu, x), (nu, x)


@pytest.mark.parametrize("nu", [-0.9, -0.5, -0.1])
@pytest.mark.parametrize("offset", [1e-3, -1e-6, 1e-10, -1e-12])
def test_i_ratio_estimate_is_honest_near_a_zero_of_phi0(nu, offset):
    # for nu in (-1, 0), I_{nu-1} changes sign at some x: the step down to
    # nu cancels there, and its estimate must grow with the cancellation
    with mpmath.workdps(40):
        zero = float(mpmath.findroot(lambda x: mpmath.besseli(mpmath.mpf(nu) - 1, x),
                                     2.0 * math.sqrt(-nu * (nu + 1.0))))
    assert _i_within_estimate(nu, zero * (1.0 + offset))


_ANY_ORDERS = (-1.0, -0.75, -0.3, 0.0, 0.1, 0.5, 2.25, 2.718281828459045, 14.75,
               15.000000000000002, 15.5, 16.0, 29.9, 31.25)


@pytest.mark.parametrize("nu", _ANY_ORDERS)
def test_first_kind_rows_do_not_depend_on_the_other_orders(nu):
    # an element's bits are the same in a table, in rows requested with any
    # other orders and in a one-point call, for nu and for nu + 1.0
    xs = (1e-3, 0.37, 5.0, 640.0)
    others = ((), (nu + 2.0, 0.25, 17.5), _ANY_ORDERS, tuple(np.linspace(-1.0, 40.0, 23)))
    for order in (nu, nu + 1.0):
        want = oracle.i_ratio_rows([order], xs)[order]
        for extra in others:
            got = oracle.i_ratio_rows([*extra, order], xs)[order]
            assert (got[0].tobytes(), got[1].tobytes(), got[2]) == (
                want[0].tobytes(), want[1].tobytes(), want[2]), extra
        for table_orders in ((order,), tuple(dict.fromkeys((*_ANY_ORDERS, order)))):
            vals, ests = OracleTable(Grid(table_orders, xs)).rows[order].ratios["Phi0"]
            assert (vals.tobytes(), ests.tobytes()) == (want[0].tobytes(), want[1].tobytes())
        for x, v, e in zip(xs, want[0].tolist(), want[1].tolist()):
            r = oracle.i_ratio(EvalPoint(order, x))
            assert (r.value, r.est_error) == (v, e), x


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
    # the direct seed on half-integer rows, where the exact answer is known
    for nu in (0.5, 2.5, 7.5):
        for x in (0.1, 1.0, 10.0, 50.0):
            r = _direct_k(nu, x)
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


@pytest.mark.parametrize("lanes", [1, 2, 100])
def test_lane_recursion_is_the_scalar_one_bit_for_bit(lanes):
    # riccati_lab's lanes take the stacked recursion, the K seed the scalar
    # one: each S_k must be summed in order, as sum() does, since a pairwise
    # sum (numpy's along a one-lane column) rounds differently.  In half the
    # draws every other lane starts at x0 = phi0 = -0.0, where every b_k is a
    # signed zero, some of them -0.0, and the signs must match too
    rng = np.random.default_rng(lanes)
    for draw in range(12):
        nu, x0, phi0 = (rng.uniform(lo, hi, lanes)
                        for lo, hi in ((-1.0, 5.0), (0.05, 30.0), (-3.0, 3.0)))
        if draw % 2:
            x0[::2], phi0[::2] = -0.0, -0.0
        got = oracle.taylor_coefficients(nu, x0, phi0, 31)
        assert got.shape == (31, lanes)
        for i in range(lanes):
            want = oracle.taylor_coefficients(float(nu[i]), float(x0[i]), float(phi0[i]), 31)
            assert isinstance(want, list)
            assert got[:, i].tobytes() == np.array(want).tobytes(), (draw, i)


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
    # mu = 1/2 pits the direct seed against the exact half-integer ladder
    p = EvalPoint(mu + k, x)
    ladder = oracle.k_ratio(p)
    direct = _direct_k(p.nu, p.x)
    assert direct.method in ("taylor-riccati", "large-x-series")
    assert abs(ladder.value - direct.value) <= ladder.est_error + direct.est_error


def _phi1_40_digits(nu: float, x: float):
    # the order minus one in mpf: nu - 1 in float is rounded for nu < 1/2
    with mpmath.workdps(40):
        return -mpmath.besselk(mpmath.mpf(nu) - 1, x) / mpmath.besselk(nu, x)


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
    r = _direct_k(nu, x)
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
    direct = _direct_k(p.nu, p.x)
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
    assert_allclose(quantity_at("psi_K", 0.5, 3.0)[0], -3.5, rtol=1e-15)
    assert_allclose(
        quantity_at("psi_I", 0.5, 1.0)[0], 1.0 / math.tanh(1.0) - 0.5, rtol=1e-12
    )
    gap = quantity_at("psi_I", 2.0, 1e-3)[0] - 2.0
    assert_allclose(gap, 1e-6 / 6.0, rtol=1e-5)


def test_double_ratio_values():
    assert_allclose(quantity_at("W_I", 1.0, 1e-3)[0], 0.5, rtol=1e-6)
    assert_allclose(quantity_at("W_K", 0.5, 2.0)[0], 1.5, rtol=1e-13)
    assert_allclose(quantity_at("W_I", 0.0, 100.0)[0], 0.99, rtol=1e-4)


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


def _one_point(nu: float, x: float) -> dict:
    """(value, est_error) at one point of the ratios from ``oracle.i_ratio``
    and ``oracle.k_ratio``, of psi and W from ``oracle.quantity_row`` fed by
    those ratios, and of P from ``oracle.product``."""
    ratios = {name: (np.array([r.value]), np.array([r.est_error])) for name, r in (
        ("Phi0", oracle.i_ratio(EvalPoint(nu, x))),
        ("Phi0_up", oracle.i_ratio(EvalPoint(nu + 1.0, x))),
        ("Phi1", oracle.k_ratio(EvalPoint(nu, x))))}
    point = {qid: oracle.quantity_row(qid, nu, np.array([x]), ratios.__getitem__)
             for qid in ("psi_I", "psi_K", "W_I", "W_K")}
    r = oracle.product(EvalPoint(nu, x))
    return {**{qid: (vals[0], ests[0]) for qid, (vals, ests) in {**ratios, **point}.items()},
            "P": (r.value, r.est_error)}


@PROPERTY
@given(x=log_x(10 ** -3.5, 1e3))
def test_half_order_derived_est_error_is_honest(x):
    # through table rows (all six) and the one-point API (all but xP)
    table = OracleTable(Grid((0.5,), (x,)))
    point = _one_point(0.5, x)
    for qid, exact in _half_order_derived(x).items():
        vals, ests = table.block(qid, [0.5])
        results = [(vals[0, 0], ests[0, 0])]
        if qid in point:
            results.append(point[qid])
        for value, est in results:
            assert float(abs(Decimal(float(value)) - exact)) <= est, qid


@pytest.mark.parametrize("nu, x", [(0.5, 1.0), (0.8, 0.05), (2.25, 30.0),
                                   (7.5, 80.0), (-0.25, 1.7), (-1.0, 2.0)])
def test_one_point_api_equals_one_row_table(nu, x):
    table = OracleTable(Grid((nu,), (x,)))
    for qid, (value, est) in _one_point(nu, x).items():
        vals, ests = (table.rows[nu].ratios[qid] if qid == "Phi0_up"
                      else [part[0] for part in table.block(qid, [nu])])
        assert (value, est) == (vals[0], ests[0]), qid


def test_first_kind_derived_quantities_run_no_k_integration(monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("K integration on a first-kind quantity")

    monkeypatch.setattr(oracle, "_taylor_row", no_integration)
    nu, xs, methods = 0.8, np.array([0.05]), []

    def ratio(name):
        # the one-point ratio rows quantity_row asks for, by name
        if name == "Phi1":
            vals, ests, used = oracle.k_ratio_row(nu, xs)
        else:
            vals, ests, used = oracle.i_ratio_row(nu + 1.0 if name == "Phi0_up" else nu, xs)
        methods.append(used)
        return vals, ests

    for qid in ("psi_I", "W_I"):
        methods.clear()
        oracle.quantity_row(qid, nu, xs, ratio)
        assert set(methods) == {"continued-fraction+ladder"}, qid
    with pytest.raises(AssertionError):
        oracle.quantity_row("psi_K", nu, xs, ratio)
