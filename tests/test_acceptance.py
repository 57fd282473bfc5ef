"""Acceptance suite: seven gated criteria, one pass/fail line each.

The gate lines are echoed immediately (visible under `pytest -s`) and also
collected by conftest for the end-of-run terminal summary.
"""

import math
import time

import conftest
import numpy as np
import pytest

from besselbounds import nullclines as nc
from besselbounds import oracle
from besselbounds.nullclines import EvalPoint
from besselbounds.riccati_lab import (
    SolutionClass,
    classify,
    nullcline_contact,
    solve_riccati,
    w_along,
)
from besselbounds.verify import (
    Grid,
    OracleTable,
    bound_claims,
    conjecture_scan,
    default_grid,
    monotone_claims,
    scan_bound,
    scan_monotone,
    sharpness_battery,
)


def _gate(num: int, label: str, ok: bool, extra: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label} ({extra})"
    print(line)
    conftest.record_gate_line(line)


@pytest.fixture(scope="module")
def integer_row_table() -> OracleTable:
    grid = Grid(nu_values=(-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0),
                x_values=tuple(np.geomspace(1e-3, 1e3, 61)))
    return OracleTable(grid)


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_exactness_at_half_integers():
    t0 = time.perf_counter()
    tol = 1e-10
    xs = np.geomspace(0.1, 50.0, 15)
    worst = 0.0

    for x in xs:
        v = oracle.i_ratio(EvalPoint(0.5, float(x))).value
        worst = max(worst, abs(v - 1.0 / math.tanh(x)) / (1.0 / math.tanh(x)))

    for k in range(10):
        nu = k + 0.5
        for x in xs[::2]:
            x = float(x)
            r = 1.0  # local recurrence: K_{-1/2}/K_{1/2} = 1
            m = 0.5
            while m < nu - 0.25:
                r = 1.0 / (r + 2.0 * m / x)
                m += 1.0
            v = oracle._k_seed_row(nu, np.array([x]))[0][0]  # direct seed, no ladder
            worst = max(worst, abs(v + r) / r)

    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 5.0
    _gate(1, "half-integer oracle exactness", ok,
          f"max rel err {worst:.2e} <= {tol:.0e}, {elapsed:.1f}s < 5s")
    assert ok


def test_criterion_2_bound_validity_sweep(default_table):
    t0 = time.perf_counter()
    worst = math.inf
    bad = []
    total = 0
    for claim_id in bound_claims():
        rep = scan_bound(claim_id, table=default_table)
        total += rep.points_checked
        worst = min(worst, rep.worst_margin)
        if rep.violations:
            bad.append(claim_id)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    _gate(2, "bound validity sweep, slack > -1e-12 relative", ok,
          f"{len(bound_claims())} claims, {total} points, worst margin "
          f"{worst:.2e}, {elapsed:.1f}s < 120s"
          + (f", failing: {bad}" if bad else ""))
    assert ok


def test_criterion_3_nullcline_structure():
    grid = default_grid()
    res_tol = 1e-10
    worst_res = 0.0
    ok = True
    xs = np.asarray(grid.x_values)
    for nu in grid.nu_values:
        lam_k, lam_o, lam_i, _, _ = nc.cubic_levels(nu, xs)[:5]
        scale = np.maximum(1.0, (nu * nu + xs * xs) ** 1.5)
        for lam in (lam_k, lam_o, lam_i):
            res = np.abs(((lam + 1.0) * lam - (nu * nu + xs * xs)) * lam - nu * nu)
            worst_res = max(worst_res, float(np.max(res / scale)))
        ok &= bool(np.all((lam_k < lam_o) & (lam_o < lam_i)))
        ok &= bool(np.all(lam_i > abs(nu)))
        ok &= bool(np.all((-1.0 < lam_o) & (lam_o <= 0.0)))
        ok &= bool(np.all((lam_k < -abs(nu)) | ((nu == 0.0) & (lam_k < 0.0))))
        if nu > 0.0:
            w_i, w_k, w_o = nc.cubic_levels(nu, xs)[5:]
            ok &= bool(np.all((w_k > w_i) & (w_i > 0.0) & (0.0 > w_o)))
    ok = ok and worst_res <= res_tol
    _gate(3, "cubic residuals/ordering/intervals and w ordering", ok,
          f"worst scaled residual {worst_res:.2e} <= {res_tol:.0e}, "
          f"{len(grid.nu_values) * len(grid.x_values)} points")
    assert ok


def test_criterion_4_monotonicity_suite(default_table, integer_row_table):
    tol = 1e-9
    bad = []
    # every registered monotonicity claim on the default grid
    for qid in monotone_claims():
        rep = scan_monotone(qid, table=default_table, tol=tol)
        if rep.violations:
            bad.append(qid)
    # integer orders called out explicitly: P on {-1,...,5}, xP on {0.5,...,5}
    for qid in ("P", "xP", "Phi0", "Phi1", "W_I", "W_K", "w_I", "w_K", "w_O"):
        rep = scan_monotone(qid, table=integer_row_table, tol=tol)
        if rep.violations:
            bad.append(qid + "[integer rows]")
    ok = not bad
    _gate(4, "monotonicity suite at 1e-9 relative tolerance", ok,
          f"{len(monotone_claims())} registered + 9 integer-row scans"
          + (f", failing: {bad}" if bad else ""))
    assert ok


def test_criterion_5_sharpness_constants():
    t0 = time.perf_counter()
    reports = sharpness_battery()
    bad = []
    details = []
    for rep in reports:
        st = rep.stats
        good = st.get("fit_ok", False) and st["exponent_ok"] and st["coefficient_ok"]
        if not good:
            bad.append(rep.claim_id)
        k, c = rep.fitted
        details.append(f"{rep.claim_id} ({k:+.2f}, {c:.4g})")
    elapsed = time.perf_counter() - t0
    ok = not bad and len(reports) == 7 and elapsed < 60.0
    _gate(5, "sharpness exponents/coefficients within (0.15, 10%)", ok,
          f"{'; '.join(details)}, {elapsed:.1f}s < 60s"
          + (f", failing: {bad}" if bad else ""))
    assert ok


def test_criterion_6_trajectory_classification():
    t0 = time.perf_counter()
    nu, x0 = 2.0, 1.0
    p = EvalPoint(nu, x0)
    lo = oracle.k_ratio(p).value
    hi = oracle.i_ratio(p).value
    rng = np.random.default_rng(20260814)

    mixed_ok = True
    contact_worst = 0.0
    contacts_seen = 0
    for u in rng.uniform(1e-3, 1.0 - 1e-3, size=20):
        y0 = lo + float(u) * (hi - lo)
        traj = solve_riccati(0.0, nu, x0, y0, 0.05, 30.0)
        mixed_ok &= classify(traj) is SolutionClass.HAS_INTERIOR_EXTREMUM
        wtraj = w_along((x0, y0), nu, 0.2, 30.0)
        contacts = nullcline_contact(wtraj)
        contacts_seen += len(contacts)
        for _, w_m, w_o in contacts:
            contact_worst = max(contact_worst, abs(w_m - w_o))

    blow_ok = True
    for delta in (0.05, 0.2, 0.5, 1.0, 3.0):
        traj = solve_riccati(0.0, nu, x0, lo - delta, 0.05, 30.0)
        blow_ok &= classify(traj) is SolutionClass.BLOW_UP

    elapsed = time.perf_counter() - t0
    ok = (mixed_ok and blow_ok and contacts_seen >= 20
          and contact_worst <= 1e-6 and elapsed < 30.0)
    _gate(6, "trajectory classification and nullcline contact", ok,
          f"20/20 mixed with extremum: {mixed_ok}, 5/5 blow-up: {blow_ok}, "
          f"{contacts_seen} contacts, worst |W - w_O| = {contact_worst:.2e} "
          f"<= 1e-6, {elapsed:.1f}s < 30s")
    assert ok


def test_criterion_7_conjecture_scan(default_table):
    rep = conjecture_scan(table=default_table)
    sup = rep.stats["sup_s_verified"]
    margin_proved = rep.stats["margin_proved_cap"]
    margin_conj = rep.stats["margin_conjectured_cap"]
    ok = not rep.violations and sup < 1.0 / 3.0 and margin_proved > 0.0
    _gate(7, "conjecture scan: sup s < 1/3 on nu >= 0 rows", ok,
          f"sup s = {sup:.8f} at (nu={rep.stats['sup_s_verified_nu']}, "
          f"x={rep.stats['sup_s_verified_x']:.4g}); margin to 1/3: "
          f"{margin_proved:.4f}; margin to 1/5: {margin_conj:.6f} "
          f"(reported, not gated)")
    assert ok
