"""Tests for the grid-scan verification engine.

Full default-grid sweeps live in the acceptance suite; these tests exercise
the machinery on small grids.
"""

import copy
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from besselbounds import nullclines as nc
from besselbounds import g17, oracle, verify
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
                    ((1.0,), (1.0, math.inf)), ((1.5, 1.5), (1.0, 2.0))):
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



@pytest.mark.parametrize("args", [(0.0, math.nan, 0.25), (0.0, 1.0, math.inf),
                                  (0.0, math.inf, 0.25), (-math.inf, 1.0, 0.25),
                                  (math.nan, 1.0, 0.25), (0.0, 1.0, math.nan)])
def test_ranged_orders_rejects_non_finite_arguments(args):
    # these used to escape as ValueError (a NaN order reached round(); an
    # infinite step makes 0 * inf) or OverflowError (an infinite count)
    with pytest.raises(DomainError):
        verify.ranged_orders(*args)


@pytest.mark.parametrize("args", [(-1e308, 1e308, 1.0), (0.0, 1e9, 1e-9)])
def test_ranged_orders_refuses_too_many_orders(args):
    # the first used to escape as OverflowError (the span overflows to inf);
    # the second would build a list of about 1e18 orders
    with pytest.raises(DomainError, match="at most"):
        verify.ranged_orders(*args)


def test_ranged_orders_limit_counts_the_orders(monkeypatch):
    # GRID_LIMIT orders pass (the integers 2 and 3 among them are then dropped);
    # one more is refused before anything is built
    monkeypatch.setattr(verify, "GRID_LIMIT", 4)
    assert verify.ranged_orders(1.5, 3.0, 0.5) == [1.5, 2.5]
    with pytest.raises(DomainError):
        verify.ranged_orders(1.5, 3.5, 0.5)


# ---------------------------------------------------------------------------
# claim catalog


def test_catalog_covers_every_bound_producer():
    missing = set(nc.BOUNDS) - set(bound_claims())
    assert missing == set()


# the catalog in scan and print order, each claim with the oracle quantity
# it bounds
_CATALOG = (
    ("trig-upper-I", "Phi0"), ("amos-I-a0", "Phi0"), ("amos-I-a-1", "Phi0"),
    ("amos-I-a1", "Phi0"), ("amos-I-a-2", "Phi0"), ("amos-I-a2", "Phi0"),
    ("trig-upper-K", "K-ratio-pos"), ("amos-K-a0", "Phi1"), ("amos-K-a-1", "Phi1"),
    ("amos-K-a1", "Phi1"), ("amos-K-a-2", "Phi1"), ("amos-K-a2", "Phi1"),
    ("product-upper", "P"), ("product-lower-amos", "P"),
    ("product-lower-trig", "P"), ("product-lower-simple", "P"),
    ("product-lower-conjecture", "P"), ("psi-I-lower", "psi_I"),
    ("psi-I-upper", "psi_I"), ("psi-K-lower", "psi_K"), ("psi-K-upper", "psi_K"),
    ("double-I-lower", "W_I"), ("double-I-upper", "W_I"), ("double-K-lower", "W_K"),
    ("double-K-upper", "W_K"),
)


def test_catalog_order_and_targets(small_table):
    assert bound_claims() == tuple(cid for cid, _ in _CATALOG)
    assert [(cid, get_claim(cid).form.target) for cid in bound_claims()] == list(_CATALOG)
    # a mistyped target would only show as per-row oracle failures in a scan
    for cid, form in nc.BOUNDS.items():
        vals = small_table.block(form.target, [1.5])[0][0]
        assert vals.shape == (5,), cid


def test_claims_of_one_target_are_contiguous():
    # verify scans and prints the claims in catalog order in one pass, and
    # the claims of one oracle quantity share its CSV text only when they
    # are scanned one after another
    targets = [form.target for form in nc.BOUNDS.values()]
    runs = [t for i, t in enumerate(targets) if i == 0 or t != targets[i - 1]]
    assert len(runs) == len(set(runs)) == 8


def test_get_claim_and_corrupt():
    claim = get_claim("trig-upper-I")
    assert claim.form.target == "Phi0"
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


def test_scan_monotone_detects_wrong_direction(monkeypatch):
    g = Grid(nu_values=(2.0,), x_values=tuple(np.geomspace(0.01, 100.0, 21)))
    claims = verify._MONOTONE_CLAIMS
    monkeypatch.setitem(claims, "w_K", dataclasses.replace(claims["w_K"], expected="increasing"))
    rep = scan_monotone("w_K", grid=g)
    assert rep.claim_id == "monotone-w_K-increasing" and len(rep.violations) > 0


def test_scan_monotone_unknown_quantity():
    with pytest.raises(DomainError):
        scan_monotone("no-such-quantity")


# ---------------------------------------------------------------------------
# order fitting


def test_fit_error_order_exact_power_law():
    fit = fit_error_order([(s, 0.25 / (s * s)) for s in (25.0, 50.0, 100.0, 200.0)])
    assert_allclose(fit, (-2.0, 0.25), rtol=1e-10)
    fit = fit_error_order([(s, s ** 4 / 192.0) for s in (0.02, 0.04, 0.08, 0.16)])
    assert_allclose(fit, (4.0, 1.0 / 192.0), rtol=1e-10)


def test_fit_error_order_unfittable():
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 1e-3), (20.0, 2e-4)])
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 1e-3), (12.0, 9e-4), (13.0, 8e-4)])
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 1e-3), (20.0, 2e-4), (40.0, 5e-5)], noise_floor=1e-2)
    with pytest.raises(UnfittableError):
        fit_error_order([(10.0, 0.0), (20.0, 2e-4), (40.0, 5e-5)])


def test_fit_error_order_nan_floor_is_unfittable():
    # `eps <= floor` is False for a NaN floor, which used to let the fit run
    samples = [(25.0, 4e-4), (50.0, 1e-4), (100.0, 2.5e-5)]
    with pytest.raises(UnfittableError):
        fit_error_order(samples, noise_floor=[1e-9, math.nan, 1e-9])
    with pytest.raises(UnfittableError):
        fit_error_order(samples[:2] + [(100.0, math.nan)])


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
def test_fit_error_order_rejects_non_finite_scales(scale, capfd):
    # a NaN or infinite scale used to reach the least-squares solve, which
    # raised numpy's LinAlgError and printed a LAPACK complaint to stderr
    with pytest.raises(DomainError):
        fit_error_order([(1.0, 1e-3), (scale, 2e-3), (4.0, 4e-3)])
    assert capfd.readouterr().err == ""


def test_fit_error_order_infinite_eps_is_unfittable():
    # an infinite eps used to fit to (nan, nan)
    with pytest.raises(UnfittableError):
        fit_error_order([(1.0, 1e-3), (2.0, math.inf), (4.0, 4e-3)])


def test_sharpness_battery_fails_closed_on_nan_estimates(monkeypatch):
    # NaN oracle estimates give NaN noise floors: no case may pass on them
    real = OracleTable.block

    def nan_estimates(self, qid, nus):
        vals, ests = real(self, qid, nus)
        return vals, np.full_like(ests, np.nan)

    monkeypatch.setattr(OracleTable, "block", nan_estimates)
    reports = sharpness_battery()
    assert len(reports) == 7
    assert all(rep.fitted is None and len(rep.oracle_failures) == 1 for rep in reports)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_sharpness_battery_fails_closed_on_bad_oracle_values(monkeypatch, bad):
    # an oracle value that is not positive and finite measures nothing: the
    # case is unfittable, never a pass and never an exception
    real = OracleTable.block

    def bad_value(self, qid, nus):
        vals, ests = real(self, qid, nus)
        vals = vals.copy()
        vals[-1] = bad       # the last order row of each case
        return vals, ests

    monkeypatch.setattr(OracleTable, "block", bad_value)
    reports = sharpness_battery()
    assert all(rep.fitted is None and rep.stats["fit_ok"] == 0.0 for rep in reports)
    assert all(rep.oracle_failures[0][2] == "oracle value not positive and finite"
               for rep in reports)


def test_sharpness_battery_fails_closed_on_bounds_on_the_wrong_side(monkeypatch):
    # oracle values moved 5% past each bound (up for the upper bounds on
    # Phi0 and K-ratio-pos, down for the lower bound on P), where every
    # true gap is below 1e-3: eps = bound/oracle - 1 (upper) and
    # 1 - bound/oracle (lower) come out negative, and no case may fit
    real = OracleTable.block

    def moved(self, qid, nus):
        vals, ests = real(self, qid, nus)
        return vals * (0.95 if qid == "P" else 1.05), ests

    monkeypatch.setattr(OracleTable, "block", moved)
    reports = sharpness_battery()
    for rep in reports:
        moved_eps = 1.0 - 1.0 / 0.95 if rep.claim_id.startswith("sharpness-P") else 1.0 / 1.05 - 1.0
        assert_allclose(rep.rows[:, 4], moved_eps, rtol=0.02)
        assert rep.fitted is None and np.all(rep.rows[:, 4] < 0.0)
    assert all(rep.oracle_failures[0][2] == "relative error not positive in samples"
               for rep in reports)


def test_fit_error_order_measured_ratio_gap():
    # gap of the cubic-root bound on the I-ratio at nu=1, sampled over x
    from besselbounds.nullclines import EvalPoint, TRIG_I

    samples = []
    for x in (25.0, 50.0, 100.0, 200.0):
        p = EvalPoint(1.0, x)
        samples.append((x, TRIG_I.formula(1.0, np.array([x]))[0] / oracle.i_ratio(p).value - 1.0))
    k, c = fit_error_order(samples)
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
    # the battery reads one oracle block per case and the claims' formulas
    # on order columns; each row must still carry the one-point bound and
    # oracle values, and the relative error of the bound, bit for bit
    one_point = {
        "I": (nc.TRIG_I, lambda p: oracle.i_ratio(p).value),
        "K": (nc.TRIG_K, lambda p: -oracle.k_ratio(p).value),
        "P": (nc.PRODUCT_FORMS["lower_trig"], lambda p: oracle.product(p).value),
    }
    n = 0
    for rep in sharpness_battery():
        form, value = one_point[rep.claim_id.split("-")[1]]
        for nu, x, bound, orc, eps in rep.rows.tolist():
            one_bound = form.formula(nu, np.array([x]))[0]
            assert (bound, orc) == (one_bound, value(nc.EvalPoint(nu, x))), (rep.claim_id, nu, x)
            # upper: bound/oracle - 1; lower: 1 - bound/oracle; either is
            # positive exactly when the bound is on the correct side
            assert eps == (bound / orc - 1.0 if form.direction == "upper" else 1.0 - bound / orc)
            assert eps > 0.0, (rep.claim_id, nu, x)
            if (rep.claim_id, nu, x) == ("sharpness-I-large-x", 1.0, 100.0):
                # gap of the cubic-root upper bound on the I-ratio is ~ 1/(4 x^2)
                assert_allclose(eps, 2.5e-5, rtol=0.10)
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
        row.ratios["Phi1"] = (row.ratios["Phi1"][0], np.full(3, np.nan))
    return table


def test_scan_bound_fails_closed():
    table = _nan_k_table()
    # corrupted claims would violate everywhere; NaN gates used to hide that
    rep = scan_bound(corrupt_claim("trig-upper-K"), table=table)
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 6)
    rep = scan_bound(corrupt_claim("trig-upper-I"), table=table, tol=math.nan)
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 6)


def test_scan_monotone_fails_closed():
    rep = scan_monotone("P", table=_nan_k_table())
    assert rep.violations == []
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 4)


def test_conjecture_scan_fails_closed():
    rep = conjecture_scan(table=_nan_k_table())
    assert (rep.points_checked, len(rep.oracle_failures)) == (0, 6)


def test_scan_sweeps_its_tables_grid():
    # a table serves only its own grid: a different grid used to read the
    # table's values under the grid's labels
    table = OracleTable(Grid((1.5,), (4.0, 5.0, 6.0)))
    for grid in (Grid((1.5,), (1.0, 2.0, 3.0)), Grid((1.5,), (4.0, 5.0))):
        for scan in (lambda: scan_bound("trig-upper-I", grid=grid, table=table),
                     lambda: scan_monotone("Phi0", grid=grid, table=table),
                     lambda: conjecture_scan(grid=grid, table=table)):
            with pytest.raises(DomainError):
                scan()
    assert scan_bound("trig-upper-I", grid=table.grid, table=table).points_checked == 3


def test_conjecture_margin_is_nan_without_verified_rows():
    # no row at nu >= 0 is gated, so there is no margin to the proved cap
    rep = conjecture_scan(grid=Grid((-1.0,), (0.5, 1.0, 2.0)))
    assert rep.points_checked == 3
    assert math.isnan(rep.worst_margin) and math.isnan(rep.stats["margin_proved_cap"])


def test_failed_table_rows_outside_the_range_are_skipped():
    # the order -1.5 fails the whole table; every scan skips the rows outside
    # its claim's proved range before fetching them, and counts failures on
    # the in-range rows only
    table = OracleTable(Grid(nu_values=(-1.5, 0.25, 1.5), x_values=(0.5, 1.0, 2.0)))
    assert all(row.error is not None for row in table.rows.values())
    for rep, skipped, failed in ((scan_bound("amos-I-a0", table=table), 6, 3),
                                 (scan_monotone("Phi0", table=table), 4, 2)):
        assert (rep.points_checked, rep.skipped) == (0, skipped), rep.claim_id
        assert [nu for nu, _, _ in rep.oracle_failures] == [1.5] * failed, rep.claim_id


@pytest.mark.parametrize("failing", ["table", "P-gap row"])
def test_every_point_is_checked_failed_or_skipped(failing):
    # a monotone row has one point fewer than x values (its differences); a
    # row the table cannot serve used to add one failure per x value, so
    # counts overran the scan's points
    if failing == "table":
        table = OracleTable(Grid(nu_values=(-1.5, 0.25, 1.5), x_values=(0.5, 1.0, 2.0)))
    else:
        table = _altered_table()
    grid = table.grid
    reports = ([(scan_bound(c, table=table), 0) for c in bound_claims()]
               + [(scan_monotone(q, table=table), 1) for q in monotone_claims()]
               + [(conjecture_scan(table=table), 0)])
    for rep, fewer in reports:
        assert rep.points_checked + len(rep.oracle_failures) + rep.skipped == \
            len(grid.nu_values) * (len(grid.x_values) - fewer), rep.claim_id
    monotone_p = scan_monotone("P", table=table)
    assert monotone_p.oracle_failures and all(
        x in grid.x_values[:-1] for _, x, _ in monotone_p.oracle_failures)


# ---------------------------------------------------------------------------
# block scans: a scan over a grid is the concatenation of its one-order scans


def _one_order(table: OracleTable, nu: float) -> OracleTable:
    """A table over the order row ``nu`` alone that shares ``table``'s row
    object, so both read the same (possibly altered) ratios."""
    sub = copy.copy(table)
    sub.grid = Grid((nu,), table.grid.x_values)
    sub.rows = {nu: table.rows[nu]}
    return sub


def _altered_table() -> OracleTable:
    """Negative orders, rows outside most claims' ranges, a row with NaN K
    estimates, one with a NaN K value, one whose P gap is zero at one x and
    one the table failed to serve."""
    table = OracleTable(Grid((-1.0, -0.75, -0.25, 0.25, 0.5, 0.75, 1.5, 2.5, 3.25, 4.5),
                             tuple(np.geomspace(1e-2, 50.0, 9))))
    rows = table.rows
    rows[0.75].ratios["Phi1"] = (rows[0.75].ratios["Phi1"][0], np.full(9, np.nan))
    vals, ests = rows[1.5].ratios["Phi1"]
    rows[1.5].ratios["Phi1"] = (np.where(np.arange(9) == 4, np.nan, vals), ests)
    phi0, est0 = rows[2.5].ratios["Phi0"]
    rows[2.5].ratios["Phi0"] = (np.where(np.arange(9) == 3, rows[2.5].ratios["Phi1"][0], phi0),
                                est0)
    rows[-0.25].error = "row withheld"
    return table


def _report_fields(reports) -> tuple:
    rows = np.concatenate([np.asarray(r.rows).reshape(-1, 5) for r in reports])
    return (rows.tobytes(), rows.shape, sum((r.violations for r in reports), []),
            sum((r.oracle_failures for r in reports), []),
            sum(r.skipped for r in reports), sum(r.points_checked for r in reports))


def _scans(table: OracleTable) -> list:
    claims = [get_claim(cid) for cid in bound_claims()]
    return ([scan_bound(c, table=table) for c in claims]
            + [scan_bound(corrupt_claim(c), table=table) for c in claims]
            + [scan_monotone(q, table=table) for q in monotone_claims()]
            + [conjecture_scan(table=table)])


@pytest.mark.parametrize("block_points", [None, 20, 5])
def test_block_scans_equal_row_scans(monkeypatch, block_points):
    # every field of every scan, also where violations, non-finite oracle
    # values, a zero P gap and a withheld row fail single points or rows;
    # a block constant of 20 points holds two rows of 9, one of 5 splits no
    # row, so one row is a block
    if block_points is not None:
        monkeypatch.setattr(verify, "SCAN_BLOCK_POINTS", block_points)
    table = _altered_table()
    for flip in (False, True):
        if flip:    # every monotone claim expects the other direction
            for q, claim in verify._MONOTONE_CLAIMS.items():
                other = "decreasing" if claim.expected == "increasing" else "increasing"
                monkeypatch.setitem(verify._MONOTONE_CLAIMS, q,
                                    dataclasses.replace(claim, expected=other))
            monkeypatch.setattr(verify, "_PROVED_CAP", 0.15)
        whole = _scans(table)
        per_row = [_scans(_one_order(table, nu)) for nu in table.grid.nu_values]
        assert len(whole) == 72
        for k, rep in enumerate(whole):
            assert _report_fields([rep]) == _report_fields([scans[k] for scans in per_row]), \
                (flip, rep.claim_id)
    failures = {m for rep in whole for _, _, m in rep.oracle_failures}
    assert {"ratio gap not positive at nu=2.5", "row nu=-0.25 unavailable: row withheld",
            "non-finite oracle value", "non-finite margin or gate"} <= failures
    assert any(rep.violations for rep in whole)


def test_scan_blocks_stay_within_the_block_constant(monkeypatch):
    monkeypatch.setattr(verify, "SCAN_BLOCK_POINTS", 20)
    sizes = []
    real = verify._gate

    def recording(rep, nus, xs, *args, **kwargs):
        sizes.append((len(nus), len(nus) * len(xs)))
        return real(rep, nus, xs, *args, **kwargs)

    monkeypatch.setattr(verify, "_gate", recording)
    table = OracleTable(Grid((0.5, 1.5, 2.5, 3.5, 4.5), tuple(np.geomspace(0.1, 10.0, 9))))
    _scans(table)
    assert max(n for n, _ in sizes) == 2 and max(p for _, p in sizes) <= 20
    # a row longer than the constant is a block of its own
    sizes.clear()
    scan_bound("trig-upper-I", grid=Grid((0.5, 1.5), tuple(np.geomspace(0.1, 10.0, 30))))
    assert sizes == [(1, 30), (1, 30)]


def test_every_formula_broadcasts_over_an_order_column():
    # the scans evaluate each bound and closed-form monotone quantity on a
    # column of orders against the x row: every element must equal its
    # one-order row bit for bit, signed zeros included
    nus = [-1.0, -0.75, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 19.75]
    formulas = {**{cid: form.formula for cid, form in nc.BOUNDS.items()},
                **{q: c.closed_form for q, c in verify._MONOTONE_CLAIMS.items()
                   if c.closed_form is not None},
                **{q: lambda nu, x, i=nc.CUBIC_LEVELS.index(q): nc.cubic_levels(nu, x)[i]
                   for q in verify._MONOTONE_CLAIMS if q in nc.CUBIC_LEVELS}}
    assert len(formulas) == 25 + 14
    for xs in (np.geomspace(1e-3, 1e3, 37), np.array([2.5])):
        col = np.array(nus).reshape(-1, 1)
        for name, formula in formulas.items():
            block = formula(col, xs)
            assert block.shape == (len(nus), len(xs)), name
            rows = np.array([formula(nu, xs) for nu in nus])
            assert block.tobytes() == rows.tobytes(), name


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


def test_table_makes_one_first_kind_call(monkeypatch):
    calls = []
    for name in ("i_ratio_rows", "i_ratio_row", "i_ratio"):
        def counting(*args, _name=name, _real=getattr(oracle, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counting)
    OracleTable(default_grid())
    assert calls == ["i_ratio_rows"]


def test_order_below_minus_one_fails_every_row():
    # one call per family serves every row, so its failure has no single row
    with pytest.raises(DomainError) as exc:
        oracle.i_ratio_rows([-1.25], [1.0])
    table = OracleTable(Grid(nu_values=(-1.25, 0.5, 1.5), x_values=(0.5, 1.0)))
    assert [r.error for r in table.rows.values()] == [str(exc.value)] * 3


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
    blocks = []
    real = OracleTable.block

    def counting(self, qid, nus):
        blocks.append(qid)
        return real(self, qid, nus)

    monkeypatch.setattr(OracleTable, "block", counting)
    sharpness_battery()
    assert len(steps) == 1
    assert len(blocks) == 7     # one block per case


def test_large_x_coefficients_generated_once_per_seed(monkeypatch):
    # the start probe, the series above the start and the Taylor start value
    # share one coefficient list per K seed (3 seeds on the default grid)
    calls = []
    real = oracle.large_x_coefficients

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "large_x_coefficients", counting)
    OracleTable(default_grid())
    assert len(calls) == 3
    calls.clear()
    sharpness_battery()
    assert len(calls) == 1


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
    write_report_csv(rep, out, verify.CsvText(g.nu_values, g.x_values))
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "claim_id,nu,x,bound,oracle,margin"
    assert len(lines) == 4 and lines[-1] == ""
    first = lines[1].split(",")
    assert first[0] == "trig-upper-K"
    assert first[1] == "0.5" and first[2] == "1"
    assert_allclose(float(first[3]), 1.1617021380432389, rtol=1e-16)
    assert "\r" not in text


def test_csv_text_holds_each_value_once():
    # a report repeats each order and x over its rows; the text a report
    # CSV is written through keeps each once, and nothing the size of the
    # grid: text per (order, x) would be about 50 MiB here
    text = verify.CsvText([1.5, 0.5, 1.5, 0.5], [2.0, 1.0, 2.0, 2.0])
    assert text.nu.values.tolist() == [0.5, 1.5] and text.x.values.tolist() == [1.0, 2.0]
    nus, xs = np.arange(1000) + 0.25, np.geomspace(1e-3, 1e3, 1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = verify.CsvText(nus, xs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20, held


def _report_of_rows(claim_id: str, rows) -> verify.ScanReport:
    """A report of arbitrary (n, 5) rows: one block of two columns, one
    point per row, which the writer reads as it reads a scan's blocks."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    return verify.ScanReport(claim_id=claim_id, blocks=[verify.ReportBlock(
        rows[:, :1], rows[:, 1:2], np.ones((len(rows), 1), dtype=bool),
        (rows[:, 2:3], rows[:, 3:4]), rows[:, 4:])])


def _own_text(rows) -> verify.CsvText:
    """The CsvText over rows' own orders and x values."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    return verify.CsvText(rows[:, 0], rows[:, 1])


def test_shared_csv_text_matches_per_value_formatting(tmp_path, monkeypatch):
    # orders and x off the axes, signed zeros, non-finite values and a
    # second report with other oracle floats at the same cells all keep
    # per-value bytes, through the grid's text and through text over the
    # report's own orders and x values, which repeat here
    monkeypatch.setattr(verify, "CSV_CHUNK_VALUES", 21)
    nus, xs = (-1.0, -0.0, 0.5, 2.5), (1e-3, 0.1, 1.0, 30.0)
    text = verify.CsvText(nus, xs)
    rng = np.random.default_rng(5)
    for k in range(3):
        rows = np.column_stack([rng.choice(nus + (0.0, 7.25), 40), rng.choice(xs + (2.0,), 40),
                                rng.normal(size=(40, 3))])
        rows[:6, 3] = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324)
        rows[6:9, :2] = np.nan      # repeated NaN orders and x
        if k == 2:
            rows[:, 3] = np.nextafter(rows[:, 3], np.inf)
        rep = _report_of_rows("c%d", rows)
        plain = "".join("c%%d,%s\n" % ",".join("%.17g" % v for v in row)
                        for row in rows.tolist())
        for path, shared in ((tmp_path / "shared.csv", text),
                             (tmp_path / "own.csv", _own_text(rows))):
            write_report_csv(rep, path, shared)
            assert path.read_text() == "claim_id,nu,x,bound,oracle,margin\n" + plain


def test_narrow_order_and_x_cells_hold_the_longest_text(tmp_path, monkeypatch):
    # order and x cells are TEXT_WIDTH bytes wide: a 24-byte text on an axis
    # fits whole, and one off the axes is formatted by the fallback and
    # compacted to fit, with the kernel on every block or on none
    longest = -2.2250738585072014e-308
    assert len(b"%.17g" % longest) == g17.TEXT_WIDTH
    text = verify.CsvText((longest, 0.5), (longest, 1.0))
    off = (-1.7976931348623157e308, -2.2250738585072009e-308, -4.9406564584124654e-324)
    rows = np.array([(nu, x, -1.0000000000000002e-300, 0.1, 1.0 / 3.0)
                     for nu in (longest, 0.5) + off for x in (longest, 1.0) + off])
    rep = _report_of_rows("c", rows)
    plain = "".join("c,%s\n" % ",".join("%.17g" % v for v in row) for row in rows.tolist())
    for cutoff in (0, 10 ** 9):
        monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", cutoff)
        for shared in (text, _own_text(rows)):
            write_report_csv(rep, tmp_path / "r.csv", shared)
            assert (tmp_path / "r.csv").read_text() == "claim_id,nu,x,bound,oracle,margin\n" + plain


_CUTOFF = g17.MIN_KERNEL_VALUES
# values the kernel must get right in every column: NaN, infinities, signed
# zeros, subnormals, a decimal tie and the edges of its 17-digit window
_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308,
                      1000000000000000.25, 1e17, 2.0 ** 53, -1e16])


def _with_specials(rows: np.ndarray, cols) -> np.ndarray:
    """``rows`` with every len(cols)-th row of each column in ``cols``
    cycling through _SPECIALS, each column in another phase."""
    for k, col in enumerate(cols):
        rows[k::len(cols), col] = np.resize(np.roll(_SPECIALS, k), len(rows[k::len(cols)]))
    return rows


@pytest.mark.parametrize("cutoff", [0, _CUTOFF, 10 ** 9])
def test_report_csv_bytes_at_block_and_cutoff_edges(tmp_path, monkeypatch, cutoff):
    # at each size where a chunk (200 lines here) or the kernel's cutoff
    # (three values a line, bound, oracle and margin) begins or ends, the
    # bytes are those of per-value %.17g: with the kernel on every chunk
    # (cutoff 0), at the real cutoff, and with every chunk on the % fallback
    # (a huge cutoff)
    monkeypatch.setattr(verify, "CSV_CHUNK_VALUES", 600)
    monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", cutoff)
    rng = np.random.default_rng(11)
    nus, xs = (-1.0, -0.0, 0.5, 2.5), (1e-3, 1.0, 30.0)
    third = _CUTOFF // 3
    for n in (0, 1, third - 1, third, third + 1, 199, 200, 201, 401):
        rows = np.column_stack([rng.choice(nus + (7.25,), n), rng.choice(xs + (2.0,), n),
                                rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))])
        rep = _report_of_rows("c%d", _with_specials(rows, (2, 3, 4)))
        plain = "".join("c%%d,%s\n" % ",".join("%.17g" % v for v in row) for row in rows.tolist())
        path = tmp_path / ("r%d.csv" % n)
        for shared in (verify.CsvText(nus, xs), _own_text(rows)):
            write_report_csv(rep, path, shared)
            assert path.read_text() == "claim_id,nu,x,bound,oracle,margin\n" + plain


@pytest.mark.parametrize("cutoff", [0, _CUTOFF, 10 ** 9])
def test_csv_rows_bytes_at_block_and_cutoff_edges(monkeypatch, cutoff):
    # the same for the tabulate writer, in chunks of 150 rows here: three
    # values a row, so 64 and 65 rows sit on either side of the cutoff; a
    # text stream gets the decoded text
    monkeypatch.setattr(verify, "CSV_CHUNK_VALUES", 450)
    monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", cutoff)
    rng = np.random.default_rng(12)
    for n in (0, 1, _CUTOFF // 3, _CUTOFF // 3 + 1, 149, 150, 151, 301):
        rows = _with_specials(rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-30, 30, (n, 3)),
                              (0, 1, 2))
        stream = io.StringIO()
        verify.write_csv_rows(stream, rows)
        assert stream.getvalue() == "".join("%s\n" % ",".join("%.17g" % v for v in row)
                                            for row in rows.tolist())


@pytest.mark.parametrize("cutoff", [0, _CUTOFF, 10 ** 9])
def test_samples_bytes_at_block_and_cutoff_edges(monkeypatch, cutoff):
    # explore's writer: starts on either side of a chunk's (150 lines here)
    # and the kernel's edges (one value a line), x off the longest start's
    # axis, special values, and tags of every width in one narrow tag cell
    monkeypatch.setattr(verify, "CSV_CHUNK_VALUES", 150)
    monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", cutoff)
    rng = np.random.default_rng(13)
    xs = np.sort(rng.uniform(0.0, 10.0, 301))
    samples = {}
    for tag, n in zip((0, 7, 10, 99, 100, 1234), (301, 0, _CUTOFF - 1, _CUTOFF, 150, 151)):
        rows = _with_specials(np.column_stack([xs[:n], rng.normal(size=n)]), (1,))
        rows[tag % 7::7, 0] = np.nextafter(rows[tag % 7::7, 0], np.inf)
        samples[tag] = rows
    stream = io.StringIO()
    verify.write_samples(stream, samples)
    assert stream.getvalue() == "".join("%d,%s\n" % (tag, ",".join("%.17g" % v for v in row))
                                        for tag, rows in samples.items() for row in rows.tolist())
    stream = io.StringIO()
    verify.write_samples(stream, {})
    assert stream.getvalue() == ""


@pytest.mark.parametrize("cutoff", [0, _CUTOFF, 10 ** 9])
def test_samples_bytes_where_chunks_cross_starts(monkeypatch, cutoff):
    # chunks of 250 lines: the first holds four whole starts (one empty, one
    # with an extremum spliced in off the shared x axis) and the head of a
    # fifth, a chunk boundary falls inside that start, and the last chunk
    # holds its tail and one more start
    monkeypatch.setattr(verify, "CSV_CHUNK_VALUES", 250)
    monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", cutoff)
    rng = np.random.default_rng(14)
    xs = np.sort(rng.uniform(0.1, 10.0, 300))
    samples = {}
    for tag, n in zip((1, 2, 3, 4, 5, 12), (100, 0, 60, 50, 300, 40)):
        rows = _with_specials(np.column_stack([xs[:n], rng.normal(size=n)]), (1,))
        if tag == 3:        # an extremum between two sample points
            rows = np.insert(rows, 30, [(0.5 * (xs[29] + xs[30]), 0.25)], axis=0)
        samples[tag] = rows
    assert not np.isin(samples[3][:, 0], xs).all()
    stream = io.StringIO()
    verify.write_samples(stream, samples)
    assert stream.getvalue() == "".join("%d,%s\n" % (tag, ",".join("%.17g" % v for v in row))
                                        for tag, rows in samples.items() for row in rows.tolist())


@pytest.mark.parametrize("cutoff", [0, _CUTOFF, 10 ** 9])
def test_report_csv_bytes_where_a_chunk_spans_scan_blocks(tmp_path, monkeypatch, cutoff):
    # two grid blocks of 3 orders x 60 x, some points unchecked, in chunks
    # of 200 lines: the first chunk holds all of the first block's checked
    # points and the head of the second's
    monkeypatch.setattr(verify, "CSV_CHUNK_VALUES", 600)
    monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", cutoff)
    rng = np.random.default_rng(15)
    xs = np.geomspace(1e-3, 1e3, 60)
    blocks = []
    for nus in ((-1.0, -0.0, 0.5), (2.5, 7.25, 19.75)):
        checked = rng.uniform(size=(3, 60)) < 0.8
        cols = _with_specials(rng.normal(size=(180, 3)) * 10.0 ** rng.integers(-20, 20, (180, 3)),
                              (0, 1, 2)).T.reshape(3, 3, 60)
        blocks.append(verify.ReportBlock(np.array(nus)[:, None], xs, checked,
                                         (cols[0], cols[1]), cols[2]))
    rep = verify.ScanReport(claim_id="c", blocks=blocks)
    first = np.count_nonzero(blocks[0].checked)
    assert first < 200 < first + np.count_nonzero(blocks[1].checked)
    path = tmp_path / "r.csv"
    write_report_csv(rep, path, verify.CsvText((-1.0, -0.0, 0.5, 2.5, 7.25, 19.75), xs))
    assert path.read_text() == "claim_id,nu,x,bound,oracle,margin\n" + "".join(
        "c,%s\n" % ",".join("%.17g" % v for v in row) for row in rep.rows.tolist())


def test_explore_samples_take_one_kernel_call_per_chunk(monkeypatch):
    # 100 starts of 801 samples, as a 100-start explore run writes: one
    # g17.texts call per chunk of CSV_CHUNK_VALUES lines, not one per start,
    # and one x lookup per group of whole starts that fills a chunk
    xs = np.geomspace(0.05, 30.0, 801)
    samples = {tag: np.column_stack([xs, np.sin(tag * xs)]) for tag in range(1, 101)}
    calls = {"texts": 0, "text_of": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(g17, "texts", counted("texts", g17.texts))
    monkeypatch.setattr(verify._Axis, "text_of", counted("text_of", verify._Axis.text_of))
    stream = io.StringIO()
    verify.write_samples(stream, samples)
    assert stream.getvalue().count("\n") == 80100
    assert calls["texts"] == math.ceil(80100 / verify.CSV_CHUNK_VALUES) == 27
    per_group = math.ceil(verify.CSV_CHUNK_VALUES / 801)
    assert calls["text_of"] == math.ceil(100 / per_group) == 25


def test_report_csv_of_a_scan_with_zero_and_subnormal_bounds(tmp_path, monkeypatch):
    # a form whose bounds are signed zeros, subnormals and huge values goes
    # through a real scan; its report keeps per-value %.17g bytes
    monkeypatch.setattr(g17, "MIN_KERNEL_VALUES", 0)
    form = get_claim("trig-upper-K").form
    bounds = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, 0.5])

    def formula(nu, x):
        return np.resize(bounds, np.broadcast(nu, x).shape)

    claim = verify.BoundClaim("bent", dataclasses.replace(form, formula=formula))
    rep = scan_bound(claim, grid=Grid((0.5, 1.5), tuple(np.geomspace(0.01, 100.0, 150))))
    bound = rep.rows[:, 2]
    assert len(bound) == 300 and (np.signbit(bound) & (bound == 0)).any()
    assert (bound == 5e-324).any() and (bound == 1e300).any()
    path = tmp_path / "bent.csv"
    write_report_csv(rep, path, _own_text(rep.rows))
    assert path.read_text() == "claim_id,nu,x,bound,oracle,margin\n" + "".join(
        "bent,%s\n" % ",".join("%.17g" % v for v in row) for row in rep.rows.tolist())


# ---------------------------------------------------------------------------
# reports kept as grid blocks


def _every_report(table: OracleTable) -> list:
    return ([scan_bound(cid, table=table) for cid in bound_claims()]
            + [scan_monotone(q, table=table) for q in monotone_claims()]
            + [conjecture_scan(table=table)])


@pytest.mark.parametrize("altered", [False, True])
def test_blocks_and_rows_write_the_same_csv(tmp_path, default_table, altered):
    # one writer path: a scan's blocks and the same rows given whole write
    # the same bytes, through the grid's shared text and through text over
    # the report's own orders and x; rows read before any write equal rows
    # read after one
    table = _altered_table() if altered else default_table
    text = verify.CsvText(table.grid.nu_values, table.grid.x_values)
    read_first, written_first = _every_report(table), _every_report(table)
    assert len(read_first) == 47
    for rep, other in zip(read_first, written_first):
        rows = rep.rows
        for shared in ((text, _own_text(rows)) if altered else (text,)):
            write_report_csv(other, tmp_path / "blocks.csv", shared)
            write_report_csv(_report_of_rows(rep.claim_id, rows), tmp_path / "rows.csv", shared)
            assert ((tmp_path / "blocks.csv").read_bytes()
                    == (tmp_path / "rows.csv").read_bytes()), rep.claim_id
        assert other.rows.shape == rows.shape and other.rows.tobytes() == rows.tobytes()
        assert rep.points_checked == len(rows)


def test_every_report_is_grid_blocks(default_table):
    # one access shape: every block of every report the package makes is an
    # order column (k, 1) against an x row (m,), its checked mask, columns
    # and margins (k, m), the sharpness battery's included
    battery = sharpness_battery()
    assert len(battery) == 7
    for rep in _every_report(default_table) + battery:
        assert rep.blocks, rep.claim_id
        for block in rep.blocks:
            k, m = len(block.nus), len(block.xs)
            assert block.nus.shape == (k, 1) and block.xs.shape == (m,), rep.claim_id
            for part in (block.checked, *block.cols, block.margin):
                assert np.shape(part) == (k, m), rep.claim_id
    for rep in battery:
        (block,) = rep.blocks
        assert block.checked.all() and rep.points_checked == block.checked.size


def test_rows_follow_the_blocks_assigned():
    # rows are read from the blocks the report holds now, not kept from an
    # earlier read
    rep = verify.ScanReport(claim_id="c")
    assert rep.rows.shape == (0, 5)
    block = scan_bound("trig-upper-I", grid=Grid((0.5, 1.5), (0.1, 1.0, 10.0))).blocks[0]
    rep.blocks = [block]
    want = np.column_stack([np.broadcast_to(c, block.checked.shape)[block.checked]
                            for c in (block.nus, block.xs, *block.cols, block.margin)])
    assert rep.rows.shape == (6, 5) and rep.rows.tobytes() == want.tobytes()


def _dense_grid() -> Grid:
    """The monotone suite's grid: 20 half-integer orders x 1,001 x."""
    return Grid(tuple(0.5 + k for k in range(20)), tuple(np.geomspace(1e-3, 1e3, 1001)))


def test_cubic_is_solved_once_per_order_block(monkeypatch):
    # the six cubic-based monotone claims share one solve per block of 4
    # orders (5 blocks); each used to solve it again
    calls = []
    real = nc._cubic
    monkeypatch.setattr(nc, "_cubic", lambda nu, x: calls.append(1) or real(nu, x))
    grid = _dense_grid()
    table = OracleTable(grid)
    reports = {q: scan_monotone(q, table=table) for q in monotone_claims()}
    assert len(calls) == 5
    # the values the blocks hold are those of the one-call row functions
    xs = np.asarray(grid.x_values)
    levels = ("lambda_K", "lambda_O", "lambda_I", "g", "acos_arg", "w_I", "w_K", "w_O")
    for q in ("lambda_K", "lambda_O", "lambda_I", "w_I", "w_K", "w_O"):
        assert len(reports[q].blocks) == 5
        for block in reports[q].blocks:
            want = nc.cubic_levels(block.nus, xs)[levels.index(q)]
            right, left = block.cols
            assert np.ascontiguousarray(left).tobytes() == want[:, :-1].tobytes(), q
            assert np.ascontiguousarray(right).tobytes() == want[:, 1:].tobytes(), q


def test_closed_form_scan_without_a_table_builds_none(monkeypatch):
    grid = Grid((0.5, 1.5, 2.5), tuple(np.geomspace(1e-2, 10.0, 7)))
    with_table = scan_monotone("lambda_I", table=OracleTable(grid))
    built = []

    class CountingTable(OracleTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(verify, "OracleTable", CountingTable)
    alone = scan_monotone("lambda_I", grid=grid)
    assert built == []
    assert _report_fields([alone]) == _report_fields([with_table])


def test_monotone_suite_reports_hold_no_rows():
    # the reports keep their blocks (values, margins and the checked mask),
    # not an (n, 5) copy of their rows: 15.2 MiB traced for the suite when
    # every report held its rows
    grid = _dense_grid()
    table = OracleTable(grid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [scan_monotone(q, table=table) for q in monotone_claims()]
        del table
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == 21 and held <= 7.6 * 2 ** 20, held / 2 ** 20
