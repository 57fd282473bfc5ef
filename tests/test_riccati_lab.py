"""Tests for trajectory integration and qualitative classification."""

import numpy as np

from besselbounds import oracle
from besselbounds.nullclines import EvalPoint, cubic_roots, gamma_hat, w_values
from besselbounds.oracle import RatioKind
from besselbounds.riccati_lab import (
    SolutionClass,
    classify,
    nullcline_contact,
    solve_riccati,
    w_along,
)

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
        for x, w in traj.samples[:: max(1, len(traj.samples) // 10)]:
            wv = w_values(EvalPoint(1.0, float(x)))
            cap = wv.w_I if kind is F else wv.w_K
            assert 0.0 < w < cap + 1e-9


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
    y0 = gamma_hat(0.0, EvalPoint(1.5, 1.0))[0] + 1e-4
    traj = solve_riccati(0.0, 1.5, 1.0, y0, 1e-3, 1e3)
    assert [kind for xm, kind in traj.extrema if 0.999 < xm < 1.0] == ["max"]


def test_w_along_extremum_next_to_seed():
    # psi seeded 1e-2 off the middle root: the cubic changes sign within
    # 0.3% of x0, on the backward side (+) or the forward side (-)
    nu = 2.0
    lam_o = cubic_roots(EvalPoint(nu, 1.0)).lambda_O
    for offset, lo, hi in ((1e-2, 0.997, 1.0), (-1e-2, 1.0, 1.003)):
        traj = w_along((1.0, lam_o + offset + nu), nu, 0.2, 30.0)
        assert [xm for xm, _ in traj.extrema if lo < xm < hi], offset
        for _, w_m, w_o in nullcline_contact(traj):
            assert abs(w_m - w_o) <= 1e-6
