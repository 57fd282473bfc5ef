"""Tests for trajectory integration and qualitative classification."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besselbounds import oracle, riccati_lab
from besselbounds.errors import DomainError
from besselbounds.nullclines import EvalPoint, cubic_levels, gamma_hat_row
from besselbounds.oracle import RatioKind
from besselbounds.riccati_lab import (
    BLOWUP_THRESHOLD,
    SolutionClass,
    classify,
    nullcline_contact,
    solve_riccati,
    w_along,
)
from conftest import PROPERTY

F = RatioKind.FIRST
S = RatioKind.SECOND


def test_constant_solution():
    # at a=0, nu=1/2 the right-hand side vanishes identically at y = -1
    traj = solve_riccati(0.0, 0.5, 1.0, -1.0, 0.1, 20.0)
    ys = np.asarray(traj.ys())
    assert traj.termination == "reached-end"
    assert np.max(np.abs(ys + 1.0)) < 1e-9
    assert traj.extrema == []
    assert classify(traj) is SolutionClass.MONOTONE_DECREASING


def test_samples_strictly_ordered():
    traj = solve_riccati(0.0, 2.0, 1.0, 1.0, 0.05, 30.0)
    xs = np.asarray(traj.xs())
    assert np.all(np.diff(xs) > 0.0)
    assert traj.a == 0.0 and traj.nu == 2.0


def test_mixed_solution_has_interior_extremum():
    p = EvalPoint(2.0, 1.0)
    y0 = 0.5 * (oracle.i_ratio(p).value + oracle.k_ratio(p).value)
    traj = solve_riccati(0.0, 2.0, 1.0, y0, 0.05, 30.0)
    assert classify(traj) is SolutionClass.HAS_INTERIOR_EXTREMUM
    assert len(traj.extrema) >= 1


def test_below_K_solution_blows_up():
    p = EvalPoint(2.0, 1.0)
    y0 = oracle.k_ratio(p).value - 0.5
    traj = solve_riccati(0.0, 2.0, 1.0, y0, 0.05, 30.0)
    assert classify(traj) is SolutionClass.BLOW_UP
    assert traj.termination == "blow-up"
    # below-K data escapes forward, with the asymptote past the seed point
    assert traj.blow_up_x is not None and 1.0 < traj.blow_up_x < 30.0
    assert max(abs(y) for y in traj.ys()) > 100.0


def test_oracle_seeded_trajectory_shadows_oracle():
    # seeded on the first-kind ratio at the attracting end, the flow must
    # reproduce independent oracle values along the whole window
    for nu in (1.0, 2.0, 5.0):
        x0 = 0.5
        y0 = oracle.i_ratio(EvalPoint(nu, x0)).value
        traj = solve_riccati(0.0, nu, x0, y0, x0, 30.0)
        assert classify(traj) in (
            SolutionClass.MONOTONE_DECREASING,
            SolutionClass.MONOTONE_INCREASING,
        )
        samples = traj.samples[:: max(1, len(traj.samples) // 12)]
        for x, y in samples:
            ref = oracle.i_ratio(EvalPoint(nu, float(x))).value
            assert abs(y - ref) <= 1e-6 * abs(ref)


def test_rescaled_flow_monotone_nullcline_seed():
    # a=-1 flow seeded on x*Phi0: gamma = x*Phi stays positive and increasing
    nu = 1.5
    y0 = 0.5 * oracle.i_ratio(EvalPoint(nu, 0.5)).value
    traj = solve_riccati(-1.0, nu, 0.5, y0, 0.5, 20.0)
    ys = np.asarray(traj.ys())
    assert np.all(ys > 0.0)
    assert classify(traj) is SolutionClass.MONOTONE_INCREASING


def test_w_along_oracle_kinds():
    for kind, expected_cls in (
        (F, SolutionClass.MONOTONE_INCREASING),
        (S, SolutionClass.MONOTONE_DECREASING),
    ):
        traj = w_along(kind, 1.0, 0.1, 50.0)
        assert classify(traj) is expected_cls
        x, w = traj.samples[:: max(1, len(traj.samples) // 10)].T
        w_i, w_k, _ = cubic_levels(1.0, x)[5:]
        cap = w_i if kind is F else w_k
        assert np.all((0.0 < w) & (w < cap + 1e-9))


def test_w_along_mixed_contacts_middle_nullcline():
    nu = 2.0
    p = EvalPoint(nu, 1.0)
    y0 = 0.5 * (oracle.i_ratio(p).value + oracle.k_ratio(p).value)
    traj = w_along((1.0, y0), nu, 0.2, 30.0)
    contacts = nullcline_contact(traj)
    assert len(contacts) >= 1
    w_min = min(w for _, w in traj.samples)
    assert w_min < 0.0
    for x_m, w_m, w_o in contacts:
        assert abs(w_m - w_o) <= 1e-6
        # depth bounded below by -nu^2/x^2
        assert w_m > -(nu / x_m) ** 2


def test_random_mixed_band_classification():
    # quick version of the acceptance sweep: strictly-between initial data
    # always produces an interior extremum, never a monotone class
    rng = np.random.default_rng(7)
    p = EvalPoint(1.5, 1.0)
    lo = oracle.k_ratio(p).value
    hi = oracle.i_ratio(p).value
    for u in rng.uniform(0.02, 0.98, size=5):
        y0 = lo + float(u) * (hi - lo)
        traj = solve_riccati(0.0, 1.5, 1.0, y0, 0.05, 30.0)
        assert classify(traj) is SolutionClass.HAS_INTERIOR_EXTREMUM


def test_extremum_between_seed_and_first_backward_sample():
    # seeded just above the nullcline, the maximum lies a few 1e-5 to the
    # left of x0, before the first backward sample
    y0 = float(gamma_hat_row(0.0, 1.5, np.array([1.0]))[0][0]) + 1e-4
    traj = solve_riccati(0.0, 1.5, 1.0, y0, 1e-3, 1e3)
    assert [kind for xm, kind in traj.extrema if 0.999 < xm < 1.0] == ["max"]


def test_w_along_extremum_next_to_seed():
    # psi seeded 1e-2 off the middle root: the cubic changes sign within
    # 0.3% of x0, on the backward side (+) or the forward side (-)
    nu = 2.0
    lam_o = float(cubic_levels(nu, [1.0])[1][0])
    for offset, lo, hi in ((1e-2, 0.997, 1.0), (-1e-2, 1.0, 1.003)):
        traj = w_along((1.0, lam_o + offset + nu), nu, 0.2, 30.0)
        assert [xm for xm, _ in traj.extrema if lo < xm < hi], offset
        for _, w_m, w_o in nullcline_contact(traj):
            assert abs(w_m - w_o) <= 1e-6


# ---------------------------------------------------------------------------
# batched starts


def _band(nu, x0=1.0):
    p = EvalPoint(nu, x0)
    return oracle.k_ratio(p).value, oracle.i_ratio(p).value


@settings(PROPERTY, max_examples=8)
@given(a=st.sampled_from([-1.0, 0.0]), nu=st.sampled_from([0.75, 1.5, 2.0, 3.5]),
       inside=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4),
       below=st.lists(st.floats(0.05, 3.0), max_size=2))
def test_batched_lanes_match_one_lane_runs(a, nu, inside, below):
    # starts inside the band carry extrema; starts below it blow up, so the
    # batch also restarts its other lanes from blow-up events
    lo, hi = _band(nu)
    y0s = [lo + u * (hi - lo) for u in inside] + [lo - d for d in below]
    batch = solve_riccati(a, nu, 1.0, np.array(y0s), 0.05, 30.0)
    assert len(batch) == len(y0s)
    for y0, got in zip(y0s, batch):
        one = solve_riccati(a, nu, 1.0, y0, 0.05, 30.0)
        assert classify(got) is classify(one)
        # no lane's arithmetic depends on another's: the same bits
        assert np.array_equal(got.samples, one.samples)
        assert got.extrema == one.extrema
        assert (got.termination, got.blow_up_x) == (one.termination, one.blow_up_x)
        assert got.samples.shape[1] == 2 and np.all(np.diff(got.xs()) > 0.0)


def test_scalar_start_is_a_one_lane_batch():
    lo, hi = _band(2.0)
    for y0 in (0.5 * (lo + hi), lo - 0.5):
        one = solve_riccati(0.0, 2.0, 1.0, y0, 0.05, 30.0)
        lane, = solve_riccati(0.0, 2.0, 1.0, [y0], 0.05, 30.0)
        assert np.array_equal(one.samples, lane.samples)
        assert one.samples.dtype == np.float64
        assert (one.extrema, one.termination, one.blow_up_x) == (
            lane.extrema, lane.termination, lane.blow_up_x)
    assert solve_riccati(0.0, 2.0, 1.0, np.array([]), 0.05, 30.0) == []


def test_starts_run_in_blocks(monkeypatch):
    # a block is an independent batch: the lone start of the last block
    # gets the same bits as a one-lane run
    lo, hi = _band(2.0)
    y0s = [lo + u * (hi - lo) for u in (0.2, 0.5, 0.8)]
    pair = solve_riccati(0.0, 2.0, 1.0, y0s[:2], 0.05, 30.0)
    monkeypatch.setattr(riccati_lab, "_MAX_LANES", 2)
    blocks = solve_riccati(0.0, 2.0, 1.0, y0s, 0.05, 30.0)
    alone = solve_riccati(0.0, 2.0, 1.0, y0s[2], 0.05, 30.0)
    assert len(blocks) == 3
    for got, want in zip(blocks, pair + [alone]):
        assert np.array_equal(got.samples, want.samples) and got.extrema == want.extrema


@pytest.mark.parametrize("x, found", [
    # an extremum at a sample, two at one x, one before and one past the samples
    ([1.0, 2.0, 3.0], [(2.0, "max", 7.0), (2.5, "min", 8.0), (2.5, "max", 9.0)]),
    ([1.0, 2.0, 3.0], [(3.5, "max", 7.0), (0.5, "min", 8.0), (1.5, "max", 9.0),
                       (1.0, "min", 6.0)]),
    ([1.0, 2.0, 3.0], []),
    # repeated samples (a window a few ulps wide) keep the first row of each x
    ([1.0, 1.0, 2.0], [(1.0, "max", 7.0), (1.5, "min", 8.0)]),
])
def test_extrema_merge_as_a_stable_sort_keeps_them(x, found):
    x = np.array(x)
    y = 10.0 * x + 1.0
    got = riccati_lab._merged(x, y, found)
    rows = np.concatenate([np.column_stack([x, y]),
                           np.array([(xm, v) for xm, _, v in found]).reshape(-1, 2)])
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    want = rows[np.r_[True, np.diff(rows[:, 0]) > 0.0]]
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_samples_increase_in_a_window_a_few_ulps_wide():
    # the log-spaced points of a window 3 ulps wide on each side of x0 = 0.3
    # repeat and turn; each side's points, the keys its steps are found
    # in, are made monotone from x0 to the edge, and each trajectory's
    # samples still strictly increase out to both edges
    x0 = lo = hi = 0.3
    for _ in range(3):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
    points = np.concatenate([np.geomspace(x0, lo, 401)[:0:-1], np.geomspace(x0, hi, 401)])
    assert (np.diff(points) < 0).any()
    back, fwd = riccati_lab._side_points(x0, lo), riccati_lab._side_points(x0, hi)
    assert (np.diff(back) <= 0).all() and (np.diff(fwd) >= 0).all()
    assert back[[0, -1]].tolist() == [x0, lo] and fwd[[0, -1]].tolist() == [x0, hi]
    for traj in solve_riccati(0.0, 2.0, x0, [0.1, -0.5], lo, hi):
        assert (np.diff(traj.xs()) > 0).all()
        assert traj.termination == "reached-end"
        assert traj.xs()[[0, -1]].tolist() == [lo, hi]


def test_non_finite_parameters_are_rejected():
    # a NaN order or exponent used to hang the step controller
    for a, nu in ((np.nan, 2.0), (np.inf, 2.0), (0.0, np.nan), (0.0, -np.inf)):
        with pytest.raises(DomainError):
            solve_riccati(a, nu, 1.0, 0.9, 0.5, 1.5)
    for nu in (np.nan, np.inf):
        with pytest.raises(DomainError):
            w_along(F, nu, 0.5, 1.5)
    with pytest.raises(DomainError):
        w_along((1.0, np.nan), 2.0, 0.5, 1.5)
    with pytest.raises(DomainError):
        solve_riccati(0.0, 2.0, 1.0, 0.9, 0.5, np.inf)


def test_starts_beyond_blow_up_threshold_are_rejected():
    # used to end in an IndexError: no sample was ever reached
    for y0 in (1e9, -BLOWUP_THRESHOLD, [0.5, 1e9]):
        with pytest.raises(DomainError):
            solve_riccati(0.0, 2.0, 1.0, y0, 0.05, 30.0)


def test_failure_before_first_step_is_a_step_failure():
    # x**1e300 overflows at every step off x0 = 1; used to raise IndexError
    with np.errstate(all="ignore"):
        traj = solve_riccati(1e300, 2.0, 1.0, 1.0, 0.05, 30.0)
    assert traj.termination == "step-failure"
    assert traj.samples.tolist() == [[1.0, 1.0]]


# ---------------------------------------------------------------------------
# exact reference: the mixed solution through each start


def _mixed_solution(a, nu, x0, y0):
    """gamma(x) = x**-a * Phi(x), in 30-digit mpmath, for the solution
    through gamma(x0) = y0: Phi = (I_{nu-1} - B K_{nu-1})/(I_nu + B K_nu)
    with B = (I_{nu-1}(x0) - y I_nu(x0))/(y K_nu(x0) + K_{nu-1}(x0)),
    y = x0**a * y0 = Phi(x0).  Bessel values are cached per x, since the
    lanes of one window share their sample abscissae."""
    cache = {}

    def bessel(x):
        if x not in cache:
            cache[x] = [f(m, x) for f in (mpmath.besseli, mpmath.besselk) for m in (nu - 1, nu)]
        return cache[x]

    with mpmath.workdps(30):
        i1, i0, k1, k0 = bessel(mpmath.mpf(x0))
        y = mpmath.mpf(x0) ** a * y0
        big_b = (i1 - y * i0) / (y * k0 + k1)

    def gamma(x):
        with mpmath.workdps(30):
            i1, i0, k1, k0 = bessel(mpmath.mpf(x))
            return mpmath.mpf(x) ** -a * (i1 - big_b * k1) / (i0 + big_b * k0)

    return gamma


@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
def test_lanes_match_exact_mixed_solution(a):
    # two starts inside the band, two below it (these blow up forward);
    # half-integer orders keep mpmath's K fast
    nu, x0 = 1.5, 1.0
    lo, hi = _band(nu, x0)
    y0s = x0 ** -a * np.array([lo + 0.3 * (hi - lo), lo + 0.8 * (hi - lo), lo - 0.2, lo - 2.0])
    trajs = solve_riccati(a, nu, x0, y0s, 0.05, 30.0)
    assert sum(t.termination == "blow-up" for t in trajs) == 2
    assert all(t.extrema for t in trajs[:2])
    for y0, traj in zip(y0s, trajs):
        gamma = _mixed_solution(a, nu, x0, y0)
        for x, y in traj.samples.tolist():
            ref = gamma(x)
            assert abs(y - ref) <= 1.3e-11 * max(1.0, abs(ref)), (y0, x)
        with mpmath.workdps(30):
            c = 2 * nu - 1 - a   # the turning function, which has the sign of gamma'

            def turn(x):
                phi = x ** a * gamma(x)
                return x + c * phi - x * phi * phi

            for xm, _ in traj.extrema:
                root = mpmath.findroot(turn, mpmath.mpf(xm))
                assert abs(xm - root) <= 1e-9 * root, (y0, xm)
            if traj.blow_up_x is not None:
                # 1/gamma is smooth through the pole beyond the crossing
                xb = mpmath.mpf(traj.blow_up_x)
                level = mpmath.sign(gamma(xb)) * BLOWUP_THRESHOLD
                root = mpmath.findroot(lambda x: 1 / gamma(x) - 1 / level, xb)
                assert abs(xb - root) <= 1e-9 * root, y0


@pytest.mark.parametrize("a, x0", [(0.0, 200.0), (2.0, 7.0)])
def test_blow_up_far_from_the_origin(a, x0):
    # near a pole the coefficients of Phi grow like (x*Phi)**k and would
    # overflow before |gamma| reaches the threshold; 1/Phi steps through it
    nu = 1.5
    y0 = x0 ** -a * (_band(nu, x0)[0] - 0.5)
    traj = solve_riccati(a, nu, x0, y0, 0.5 * x0, 2.0 * x0)
    assert traj.termination == "blow-up"
    gamma = _mixed_solution(a, nu, x0, y0)
    with mpmath.workdps(30):
        xb = mpmath.mpf(traj.blow_up_x)
        level = mpmath.sign(gamma(xb)) * BLOWUP_THRESHOLD
        root = mpmath.findroot(lambda x: 1 / gamma(x) - 1 / level, xb)
    assert abs(xb - root) <= 1e-9 * root
