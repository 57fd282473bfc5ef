"""Tests for the grid-scan verification engine.

Full default-grid sweeps live in the acceptance suite; these tests exercise
the machinery on small grids.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from besselbounds import nullclines as nc
from besselbounds import oracle, verify
from besselbounds.errors import DomainError, UnfittableError
from besselbounds.verify import (
    Grid,
    OracleTable,
    bound_claims,
    conjecture_scan,
    corrupt_claim,
    default_grid,
    fit_error_order,
    get_claim,
    monotone_claims,
    scan_bound,
    scan_monotone,
    sharpness_battery,
    write_report_csv,
)


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(nu_values=(1.0,), x_values=(0.0, 1.0))
    with pytest.raises(DomainError):
        Grid(nu_values=(1.0,), x_values=(2.0, 1.0))
    with pytest.raises(DomainError):
        Grid(nu_values=(), x_values=(1.0,))
    # rows are no longer built from validated EvalPoints, so the grid checks
    for nus, xs in (((math.nan,), (1.0,)), ((1.0,), (1.0, math.nan)),
                    ((1.0,), (1.0, math.inf))):
        with pytest.raises(DomainError):
            Grid(nu_values=nus, x_values=xs)


def test_default_grid_shape():
    g = default_grid()
    nus = list(g.nu_values)
    assert nus[0] == -1.0 and nus[-1] == 19.75
    assert len(nus) == 64
    # non-negative integers excluded (log terms in the K series), -1 kept
    assert 0.0 not in nus and 5.0 not in nus and -1.0 in nus
    xs = np.asarray(g.x_values)
    assert len(xs) == 121
    assert_allclose(xs[0], 1e-3, rtol=1e-12)
    assert_allclose(xs[-1], 1e3, rtol=1e-12)
    assert np.all(np.diff(np.log(xs)) > 0.0)


# ---------------------------------------------------------------------------
# claim catalog


def test_catalog_covers_every_bound_producer():
    missing = set(nc.bound_producers()) - set(bound_claims())
    assert missing == set()


def test_get_claim_and_corrupt():
    claim = get_claim("trig-upper-I")
    assert claim.target == "Phi0"
    bad = corrupt_claim(claim, factor=1.001)
    assert bad.claim_id == "trig-upper-I[corrupted]"
    with pytest.raises(DomainError):
        get_claim("no-such-claim")


# ---------------------------------------------------------------------------
# bound scans


def test_scan_bound_zero_violations_small_grid(small_table):
    for claim_id in bound_claims():
        rep = scan_bound(claim_id, table=small_table)
        assert rep.violations == [], claim_id
        assert rep.ok(), claim_id


def test_scan_bound_half_order_row_matches_closed_form():
    g = Grid(nu_values=(0.5,), x_values=(0.25, 1.0, 4.0))
    rep = scan_bound("trig-upper-I", grid=g)
    assert rep.points_checked == 3
    for nu, x, bound, orc, margin in rep.rows:
        assert_allclose(orc, 1.0 / math.tanh(x), rtol=1e-12)
        assert_allclose(margin, (bound - orc) / orc, rtol=1e-12)
        assert margin >= 0.0


def test_scan_bound_respects_validity_ranges(small_table):
    # product-upper is stated for nu >= 1/2: the nu = -1 and -1/2 rows are
    # skipped (2 rows x 5 points), the rest checked
    rep = scan_bound("product-upper", table=small_table)
    assert rep.skipped == 10
    assert rep.points_checked == 15


def test_scan_bound_flags_corruption(small_table):
    # 5% corruption lands inside the sharp-regime gap of each claim; this
    # covers negative-valued bounds (K side) as well as positive ones
    for claim_id in ("trig-upper-I", "amos-K-a0", "product-upper", "psi-I-lower"):
        rep = scan_bound(corrupt_claim(claim_id, factor=1.05), table=small_table)
        assert len(rep.violations) > 0, claim_id
        assert rep.worst_margin < 0.0
        assert not rep.ok()


def test_scan_bound_deterministic(small_table):
    a = scan_bound("product-lower-trig", table=small_table)
    b = scan_bound("product-lower-trig", table=small_table)
    assert np.array_equal(a.rows, b.rows)
    assert a.worst_margin == b.worst_margin


def test_negative_order_k_rows_are_checked():
    # the a = 1 K bound is proved for every real order and the oracle serves
    # nu = -0.75 by reflection: every point is checked, and a corrupted copy
    # of the claim is caught on that row
    g = Grid(nu_values=(-0.75,), x_values=(0.5, 1.0, 600.0))
    rep = scan_bound("amos-K-a1", grid=g)
    assert rep.points_checked == 3 and rep.skipped == 0
    assert rep.violations == [] and rep.unverified == []
    bad = scan_bound(corrupt_claim("amos-K-a1"), grid=g)
    assert [(nu, x) for nu, x, _ in bad.violations] == [(-0.75, 600.0)]


# ---------------------------------------------------------------------------
# monotonicity scans


def test_scan_monotone_registry_runs(small_table):
    assert len(monotone_claims()) == 21
    for qid in ("P", "xP", "Phi0", "xPhi0", "W_I", "W_K"):
        rep = scan_monotone(qid, table=small_table)
        assert rep.violations == [], qid


def test_scan_monotone_closed_form_rows():
    g = Grid(nu_values=(2.0,), x_values=tuple(np.geomspace(0.01, 100.0, 41)))
    for qid, expected in (("w_K", "decreasing"), ("w_I", "increasing"),
                          ("lambda_K", "decreasing"), ("gamma-hat-plus[a=1]", "decreasing")):
        rep = scan_monotone(qid, grid=g)
        assert rep.violations == [], qid
        assert rep.claim_id == f"monotone-{qid}-{expected}"


def test_scan_monotone_detects_wrong_direction():
    g = Grid(nu_values=(2.0,), x_values=tuple(np.geomspace(0.01, 100.0, 21)))
    rep = scan_monotone("w_K", grid=g, expected="increasing")
    assert len(rep.violations) > 0


def test_scan_monotone_unknown_quantity():
    with pytest.raises(DomainError):
        scan_monotone("no-such-quantity")


# ---------------------------------------------------------------------------
# order fitting


def test_fit_error_order_exact_power_law():
    fit = fit_error_order([(s, 0.25 / (s * s)) for s in (25.0, 50.0, 100.0, 200.0)], "large-x")
    assert_allclose(fit, (-2.0, 0.25), rtol=1e-10)
    fit = fit_error_order([(s, s ** 4 / 192.0) for s in (0.02, 0.04, 0.08, 0.16)], "small-x")
    assert_allclose(fit, (4.0, 1.0 / 192.0), rtol=1e-10)


def test_fit_error_order_unfittable():
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 1e-3), (20.0, 2e-4)], "large-nu")
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 1e-3), (12.0, 9e-4), (13.0, 8e-4)], "large-nu")
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 1e-3), (20.0, 2e-4), (40.0, 5e-5)], "large-nu",
                        noise_floor=1e-2)
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 0.0), (20.0, 2e-4), (40.0, 5e-5)], "large-nu")


def test_fit_error_order_measured_ratio_gap():
    # gap of the cubic-root bound on the I-ratio at nu=1, sampled over x
    from besselbounds import oracle, verify
    from besselbounds.expansions import relative_error
    from besselbounds.nullclines import EvalPoint, trig_bound_I

    samples = []
    for x in (25.0, 50.0, 100.0, 200.0):
        p = EvalPoint(1.0, x)
        samples.append((x, relative_error(trig_bound_I(p).value,
                                          oracle.i_ratio(p).value, "upper")))
    k, c = fit_error_order(samples, "large-x")
    assert abs(k - (-2.0)) <= 0.1
    assert abs(c - 0.25) <= 0.025


# ---------------------------------------------------------------------------
# sharpness battery (gate checks live in the acceptance suite)


def test_sharpness_battery_structure():
    reports = sharpness_battery()
    assert len(reports) == 7
    ids = {r.claim_id for r in reports}
    assert len(ids) == 7
    for r in reports:
        assert r.fitted is not None
        assert {"expected_exponent", "expected_coefficient",
                "exponent_ok", "coefficient_ok"} <= set(r.stats)


def test_sharpness_rows_equal_one_point_values():
    # the battery reads one oracle table and the claims' row formulas; each
    # row must still carry the one-point bound and oracle values bit for bit
    one_point = {
        "I": lambda p: (nc.trig_bound_I(p).value, oracle.i_ratio(p).value),
        "K": lambda p: (nc.trig_bound_K(p).value, -oracle.k_ratio(p).value),
        "P": lambda p: (nc.PRODUCT_FORMS["lower_trig"].at(p).value,
                        oracle.product(p).value),
    }
    n = 0
    for rep in sharpness_battery():
        values = one_point[rep.claim_id.split("-")[1]]
        for nu, x, bound, orc, _ in rep.rows.tolist():
            assert (bound, orc) == values(nc.EvalPoint(nu, x)), (rep.claim_id, nu, x)
            n += 1
    assert n == 25


# ---------------------------------------------------------------------------
# conjecture scan


def test_conjecture_scan_small_grid(monkeypatch):
    g = Grid(nu_values=(-1.0, -0.5, 0.5, 1.5),
             x_values=tuple(np.geomspace(0.05, 50.0, 25)))
    rep = conjecture_scan(grid=g)
    assert rep.violations == []
    assert rep.stats["sup_s"] < 1.0 / 3.0
    assert rep.stats["proved_cap"] == pytest.approx(1.0 / 3.0)
    assert rep.stats["conjectured_cap"] == 0.2
    # rows below order 0 are mapped but not gated: with the cap lowered
    # under the nu = -1 row's maximum, only the nu >= 0 rows trip it
    nus = rep.rows[:, 0]
    assert {-1.0, -0.5} <= set(nus.tolist())
    assert rep.rows[nus == -1.0, 3].max() > 0.15
    monkeypatch.setattr(verify, "_PROVED_CAP", 0.15)
    low = conjecture_scan(grid=g)
    assert {nu for nu, _, _ in low.violations} == {1.5}


def test_conjecture_scan_half_order_row_closed_form():
    xs = tuple(np.geomspace(0.1, 10.0, 13))
    g = Grid(nu_values=(0.5,), x_values=xs)
    rep = conjecture_scan(grid=g)
    for (nu, x, cap, s, margin), xg in zip(rep.rows, xs):
        ref = (x / (1.0 - math.exp(-2.0 * x))) ** 2 - x * x - 0.25
        assert_allclose(s, ref, rtol=1e-8, atol=1e-12)
        assert s < 1.0 / 3.0


# ---------------------------------------------------------------------------
# fail-closed gates: a NaN must never read as a pass


def _nan_k_table() -> OracleTable:
    table = OracleTable(Grid(nu_values=(0.5, 1.5), x_values=(0.5, 1.0, 2.0)))
    for row in table.rows.values():
        row.phi1_est = np.full(3, np.nan)
    return table


def test_scan_bound_fails_closed():
    table = _nan_k_table()
    # corrupted claims would violate everywhere; NaN gates used to hide that
    rep = scan_bound(corrupt_claim("trig-upper-K"), table=table)
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 6)
    rep = scan_bound(corrupt_claim("trig-upper-I"), table=table, tol=math.nan)
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 6)


def test_scan_monotone_fails_closed():
    rep = scan_monotone("P", expected="increasing", table=_nan_k_table())
    assert rep.violations == []
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 4)


def test_conjecture_scan_fails_closed():
    rep = conjecture_scan(table=_nan_k_table())
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 6)


# ---------------------------------------------------------------------------
# oracle work per table build, counted rather than timed


def _count_seeds(monkeypatch) -> list:
    """One entry per K row seeded by Taylor steps: its number of steps."""
    steps = []
    real_row, real_coefficients = oracle._taylor_row, oracle.taylor_coefficients

    def counting_row(*args, **kwargs):
        steps.append(0)
        return real_row(*args, **kwargs)

    def counting_coefficients(*args, **kwargs):
        steps[-1] += 1
        return real_coefficients(*args, **kwargs)

    monkeypatch.setattr(oracle, "_taylor_row", counting_row)
    monkeypatch.setattr(oracle, "taylor_coefficients", counting_coefficients)
    return steps


def test_default_table_integrates_once_per_order_class(monkeypatch):
    # classes 1/4, 3/4 and the integers (nu = -1 reflects to 2); 1/2 is exact
    steps = _count_seeds(monkeypatch)
    OracleTable(default_grid())
    assert len(steps) == 3


def test_half_integer_table_needs_no_integration(monkeypatch):
    steps = _count_seeds(monkeypatch)
    table = OracleTable(Grid(nu_values=tuple(k + 0.5 for k in range(-1, 20)),
                             x_values=tuple(np.geomspace(1e-3, 1e3, 31))))
    assert steps == []
    assert {r.k_method for r in table.rows.values()} == {
        "half-integer-recurrence", "reflection+half-integer-recurrence"}


def test_sharpness_battery_integrates_once(monkeypatch):
    # one table over all 25 battery points: the nu = 1 seed below x = 20 is
    # the only Taylor-stepped K row (six one-point seeds before the table)
    steps = _count_seeds(monkeypatch)
    sharpness_battery()
    assert len(steps) == 1


def test_k_cost_is_flat_in_order(monkeypatch):
    steps = _count_seeds(monkeypatch)
    oracle.k_ratio(nc.EvalPoint(0.25, 1.0))
    low = sum(steps)
    steps.clear()
    oracle.k_ratio(nc.EvalPoint(1000.25, 1.0))
    assert 0 < sum(steps) <= low


# ---------------------------------------------------------------------------
# CSV emission


def test_write_report_csv(tmp_path):
    g = Grid(nu_values=(0.5,), x_values=(1.0, 2.0))
    rep = scan_bound("trig-upper-K", grid=g)
    out = tmp_path / "report.csv"
    write_report_csv(rep, out)
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "claim_id,nu,x,bound,oracle,margin"
    assert len(lines) == 4 and lines[-1] == ""
    first = lines[1].split(",")
    assert first[0] == "trig-upper-K"
    assert first[1] == "0.5" and first[2] == "1"
    assert_allclose(float(first[3]), 1.1617021380432389, rtol=1e-16)
    assert "\r" not in text
