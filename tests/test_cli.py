"""Tests for the command-line front end (run in-process through main)."""

import argparse
import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from besselbounds import cli, oracle, riccati_lab, verify
from besselbounds import nullclines as nc
from besselbounds.errors import DomainError
from besselbounds.cli import (
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)

HEADER = ("nu,x,i_ratio,k_ratio,product,U_I,U_K,lambda_I,lambda_K,lambda_O,"
          "w_I,w_K,w_O,product_upper,product_lower_trig")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse paths
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# tabulate


def test_tabulate_half_order_point():
    code, out, _ = run(["tabulate", "--nu", "0.5", "--x", "1"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 2
    vals = [float(t) for t in lines[1].split(",")]
    expect = [0.5, 1.0,
              1.313035285499331,    # coth(1)
              -1.0,
              0.4323323583816937,   # (1 - e^-2)/2
              1.3406653218024889, 1.1617021380432389,
              0.84066532180248887, -1.6617021380432386, -0.17896318375924961,
              0.45671818328128194, 2.5112539955774715, -0.21797217885875256,
              0.5, 0.39962156479674282]
    assert_allclose(vals, expect, rtol=1e-13)


def test_tabulate_nu_zero_point():
    code, out, _ = run(["tabulate", "--nu", "0", "--x", "1"])
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    named = dict(zip(HEADER.split(","), (float(t) for t in row)))
    assert_allclose(named["lambda_I"], 0.6180339887498949, rtol=1e-14)
    assert named["lambda_O"] == 0.0
    assert named["w_O"] == 0.0
    assert_allclose(named["i_ratio"], 0.44638996589653446, rtol=1e-13)
    assert_allclose(named["k_ratio"], -1.429625398260673, rtol=1e-10)
    assert_allclose(named["product"], 0.53304467495619157, rtol=1e-10)


def test_tabulate_empty_grid_header_only():
    code, out, _ = run(["tabulate", "--x-points", "0"])
    assert code == EXIT_OK
    assert out == HEADER + "\n"


def test_tabulate_grid_row_count(tmp_path):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(["tabulate", "--nu-min", "0.5", "--nu-max", "1.5",
                      "--nu-step", "0.5", "--x-min", "1", "--x-max", "10",
                      "--x-points", "4", "--out", str(out_file)])
    assert code == EXIT_OK
    lines = out_file.read_text().strip().split("\n")
    # nu=1 dropped (integer order), so 1 header + 2 rows x 4 points
    assert len(lines) == 9
    assert lines[0] == HEADER


def test_tabulate_row_longer_than_one_block(tmp_path, monkeypatch):
    # a row written in blocks has the bytes of one format call over the row
    n = verify.SCAN_BLOCK_POINTS + 3
    argv = ["tabulate", "--nu", "1.5", "--x-min", "0.01", "--x-max", "10",
            "--x-points", str(n)]
    blocked, whole = tmp_path / "blocked.csv", tmp_path / "whole.csv"
    assert run(argv + ["--out", str(blocked)])[0] == EXIT_OK
    monkeypatch.setattr(verify, "SCAN_BLOCK_POINTS", 10 * n)
    assert run(argv + ["--out", str(whole)])[0] == EXIT_OK
    assert blocked.read_bytes() == whole.read_bytes()
    assert blocked.read_text().count("\n") == n + 1


def test_tabulate_tables_stay_within_one_block(tmp_path, monkeypatch):
    # each oracle table holds at most SCAN_BLOCK_POINTS points (whole rows of a
    # few orders, or one x-block of one order) and the bytes do not change
    argv = ["tabulate", "--nu-min", "0.25", "--nu-max", "2.75", "--nu-step", "0.5",
            "--x-min", "0.01", "--x-max", "10", "--x-points", "12"]
    whole = tmp_path / "whole.csv"
    assert run(argv + ["--out", str(whole)])[0] == EXIT_OK
    sizes = []

    class CountingTable(verify.OracleTable):
        def __init__(self, grid):
            sizes.append(len(grid.nu_values) * len(grid.x_values))
            super().__init__(grid)

    monkeypatch.setattr(verify, "OracleTable", CountingTable)
    for block, tables in ((5, 18), (30, 3)):
        monkeypatch.setattr(verify, "SCAN_BLOCK_POINTS", block)
        sizes.clear()
        blocked = tmp_path / f"block{block}.csv"
        assert run(argv + ["--out", str(blocked)])[0] == EXIT_OK
        assert blocked.read_bytes() == whole.read_bytes()
        assert len(sizes) == tables and max(sizes) <= block


def _tabulate_rows(table, bad=None):
    """The default-grid ``tabulate`` CSV assembled row by row: the oracle
    columns from one-order ``table.block`` calls, each closed form from its
    one-order call; the row at order ``bad`` gets NaN oracle columns."""
    xs = table.xs
    text = [HEADER + "\n"]
    for nu in table.grid.nu_values:
        if nu == bad:
            oracle_cols = [np.full(len(xs), np.nan)] * 3
        else:
            oracle_cols = [table.block(q, [nu])[0][0] for q in ("Phi0", "Phi1", "P")]
        lam_k, lam_o, lam_i, _, _ = nc.cubic_levels(nu, xs)[:5]
        cols = [np.full(len(xs), nu), xs, *oracle_cols,
                nc.TRIG_I.formula(nu, xs), nc.TRIG_K.formula(nu, xs), lam_i, lam_k, lam_o,
                *nc.cubic_levels(nu, xs)[5:], nc.PRODUCT_FORMS["upper"].formula(nu, xs),
                nc.PRODUCT_FORMS["lower_trig"].formula(nu, xs)]
        text += [",".join("%.17g" % v for v in row) + "\n" for row in zip(*cols)]
    return "".join(text).encode()


def test_tabulate_blocks_equal_row_by_row_csv(tmp_path, default_table):
    out = tmp_path / "table.csv"
    assert run(["tabulate", "--out", str(out)])[0] == EXIT_OK
    assert out.read_bytes() == _tabulate_rows(default_table)


def test_tabulate_unservable_row_fails_alone(tmp_path, monkeypatch, default_table):
    # one order's K row makes its P gap negative: that row's three oracle
    # columns turn NaN, every other value keeps its bytes, and its 121
    # failures (1.6% of the grid) exceed the exit-3 limit
    bad = default_table.grid.nu_values[10]
    k_rows = oracle.k_ratio_rows

    def bad_gap(nus, xs):
        rows = k_rows(nus, xs)
        if bad in rows:
            vals, ests, used = rows[bad]
            rows[bad] = (np.full(len(vals), 1e300), ests, used)
        return rows

    monkeypatch.setattr(oracle, "k_ratio_rows", bad_gap)
    out = tmp_path / "table.csv"
    code, _, err = run(["tabulate", "--out", str(out)])
    assert code == EXIT_ORACLE
    assert "oracle failures: 121/7744" in err
    assert out.read_bytes() == _tabulate_rows(default_table, bad=bad)


def test_no_command_loads_scipy():
    # scipy is not a dependency, and the exact series of expansions (on
    # fractions) stay off the command line; a fresh process shows what loads
    script = textwrap.dedent("""
        import sys
        import besselbounds.cli as cli
        assert "scipy" not in sys.modules, "import besselbounds.cli"
        assert "fractions" not in sys.modules, "import besselbounds.cli"
        grid = ["--nu-min", "0.25", "--nu-max", "2.25", "--nu-step", "0.5",
                "--x-min", "0.01", "--x-max", "50", "--x-points", "7"]
        for argv in (["verify"] + grid, ["conjecture"] + grid, ["sharpness"],
                     ["tabulate"] + grid, ["explore", "--sample", "2"]):
            assert cli.main(argv) == 0, argv[0]
            assert "scipy" not in sys.modules, argv[0]
            assert "besselbounds.expansions" not in sys.modules, argv[0]
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_explore_draws_without_numpy_random():
    # the seeded starts come from besselbounds.pcg64, loaded by the first
    # run with draws to make; numpy.random (several MiB) never loads
    script = textwrap.dedent("""
        import sys
        import besselbounds.cli as cli
        for name in ("numpy.random", "besselbounds.pcg64"):
            assert name not in sys.modules, "import besselbounds.cli: " + name
        argv = ["explore", "--nu", "2", "--x-min", "0.05", "--x-max", "30"]
        assert cli.main(argv + ["--y0", "1"]) == 0
        assert "besselbounds.pcg64" not in sys.modules, "explore --y0"
        assert cli.main(argv + ["--sample", "3"]) == 0
        assert "besselbounds.pcg64" in sys.modules, "explore --sample"
        assert "numpy.random" not in sys.modules, "explore --sample"
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_ok_on_small_grid():
    code, out, _ = run(["verify", "--nu-min", "0.5", "--nu-max", "1.5",
                        "--nu-step", "0.5", "--x-min", "0.1", "--x-max", "100",
                        "--x-points", "13"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    ok_lines = [ln for ln in lines if ": OK" in ln]
    assert len(ok_lines) >= 20
    assert not any("FAIL" in ln for ln in lines)


def test_verify_corrupt_claim_trips():
    code, out, _ = run(["verify", "--nu-min", "0.5", "--nu-max", "1.5",
                        "--nu-step", "0.5", "--x-min", "0.1", "--x-max", "100",
                        "--x-points", "13", "--corrupt-claim", "trig-upper-I"])
    assert code == EXIT_VIOLATION
    assert "trig-upper-I[corrupted]: VIOLATION" in out
    assert "failing claims: trig-upper-I[corrupted]" in out


def test_verify_rejects_unknown_corrupt_claim():
    # a typo in the self-test id used to run the plain scan and exit 0
    code, out, err = run(["verify", "--corrupt-claim", "trig-upper-X", "--nu", "1.5",
                          "--x-points", "3"])
    assert code == EXIT_USAGE
    assert out == "" and "trig-upper-X" in err


@pytest.mark.parametrize("claim_id, grid", [
    ("double-I-lower", ["--nu-min", "0.5", "--nu-max", "3", "--x-points", "21"]),
    ("double-K-lower", ["--nu-min", "0.5", "--nu-max", "3", "--x-points", "21"]),
    ("psi-K-upper", ["--nu", "0", "--x-points", "5"]),
])
def test_verify_refuses_a_corruption_that_changes_no_bound(claim_id, grid):
    # these bounds are 0 on the grid, and a relative shift of 0 is 0: the
    # corrupted scan used to print OK and exit 0, testing nothing
    code, out, err = run(["verify", "--corrupt-claim", claim_id] + grid)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and claim_id in err


@pytest.mark.parametrize("claim_id, grid, margin", [
    ("amos-I-a2", [], "3.74e-07"),
    ("psi-K-upper", ["--nu", "0.5", "--x-points", "5"], "0.000998"),
])
def test_verify_refuses_a_corruption_that_violates_nothing(tmp_path, claim_id, grid, margin):
    # the corruption moves these bounds by less than their slack: the
    # corrupted scan used to print OK and exit 0, testing nothing
    target = tmp_path / "report"
    code, out, err = run(["verify", "--corrupt-claim", claim_id, "--out", str(target)] + grid)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and claim_id in err
    assert f"worst margin {margin}" in err
    assert not target.exists()


def test_verify_warns_on_empty_claim_ranges():
    code, out, _ = run(["verify", "--nu-min", "-0.75", "--nu-max", "-0.75",
                        "--x-min", "0.5", "--x-max", "2", "--x-points", "3"])
    assert code == EXIT_OK
    assert "WARNING 0 points" in out


def test_verify_rejects_non_finite_or_negative_tol(tmp_path):
    # a NaN tolerance used to turn every gate comparison into a pass
    args = ["verify", "--nu-min", "0.5", "--nu-max", "1", "--x-points", "21",
            "--corrupt-claim", "trig-upper-I"]
    for tol in ("nan", "inf", "-1e-12"):
        code, out, err = run(args + ["--tol", tol])
        assert code == EXIT_USAGE and "tol" in err and "OK" not in out
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("tol=nan\n")
    assert run(args + ["--config", str(cfg)])[0] == EXIT_USAGE


def test_grid_flags_must_be_finite():
    # --nu-max inf used to die in _nu_list with an OverflowError (exit 1);
    # NaN orders and arguments ran and reported oracle failures (exit 3)
    for flag in ("--nu-min", "--nu-max", "--nu-step", "--nu", "--x-min",
                 "--x-max", "--x"):
        for value in ("nan", "inf", "-inf"):
            code, out, err = run(["verify", "--x-points", "3", f"{flag}={value}"])
            assert code == EXIT_USAGE and "must be finite" in err and out == ""


def test_x_bounds_must_be_positive():
    for flag in ("--x-min", "--x-max", "--x"):
        for value in ("0", "-1"):
            code, out, err = run(["verify", "--nu", "0.5", f"{flag}={value}"])
            assert code == EXIT_USAGE and "must be positive" in err and out == ""


def test_huge_orders_fail_fast():
    # the K ladder takes one step per unit of order: refuse, do not climb
    for args in (["--nu=100000.25"], ["--nu=-2e4"], ["--nu-max=1e5"],
                 ["--nu-min=-1e6", "--nu-max=0"]):
        code, out, err = run(["verify", "--x-points", "3"] + args)
        assert code == EXIT_USAGE and "must not exceed" in err and out == ""
    assert run(["tabulate", "--nu", "10000", "--x", "1"])[0] == EXIT_OK


def test_grid_commands_refuse_orders_below_minus_one():
    # one oracle call serves a whole table, so one such order would fail
    # every row; verify --nu-min -2 used to scan the rest and exit 3
    for command in ("tabulate", "verify", "conjecture"):
        for args in (["--nu=-1.5"], ["--nu-min=-2", "--nu-max=0.5"]):
            code, out, err = run([command, "--x-points", "3"] + args)
            assert code == EXIT_USAGE and "orders must be >= -1" in err and out == ""


def test_grid_commands_refuse_repeated_orders():
    # a sub-ulp step repeats nu = 1.5; tabulate splits rows longer than
    # 2,048 x into one-order tables, where no Grid check saw the repeat,
    # and used to write the row twice with exit 0
    orders = ["--nu-min", "1.5", "--nu-max", "1.5000000000000002", "--nu-step", "1e-16"]
    for command, points in (("tabulate", "2049"), ("tabulate", "20"),
                            ("verify", "3"), ("conjecture", "3")):
        code, out, err = run([command, "--x-points", points] + orders)
        assert code == EXIT_USAGE and "orders must be distinct" in err and out == ""


def test_grid_commands_refuse_arguments_past_x_limit():
    # the first-kind ladder starts about 6*sqrt(x) steps above its anchor
    for command in ("tabulate", "verify", "conjecture"):
        for args in (["--nu", "2.5", "--x", "1e12"],
                     ["--x-points", "3", "--x-max", "%r" % (cli.X_LIMIT * (1 + 1e-15))]):
            code, out, err = run([command] + args)
            assert code == EXIT_USAGE and "must not exceed 1e+06" in err and out == ""


def test_oversized_runs_fail_fast(tmp_path, monkeypatch):
    # --nu-step 1e-12 asks for about 2e13 orders and --x-points 2e9 for
    # 16 GB of arguments.  Only the merged config is built here, and the
    # end-to-end run fails if it reaches the grid build, so a broken check
    # fails the test instead of starting such a build.
    parser = cli._build_parser()
    cfg = tmp_path / "big.cfg"
    cfg.write_text("nu_step=1e-12\nx_points=2000000000\n")
    for argv in (["verify", "--nu-step", "1e-12"],
                 ["tabulate", "--x-points", "2000000000"],
                 ["conjecture", "--config", str(cfg)],
                 ["verify", "--nu-step", "0.001", "--x-points", "2001"],
                 ["explore", "--sample", str(cli.SAMPLE_LIMIT + 1)]):
        with pytest.raises(DomainError):
            cli._merge_config(parser.parse_args(argv))

    def unreached(cfg):
        raise AssertionError("the grid size check let an oversized grid through")

    monkeypatch.setattr(cli, "_grid_axes", unreached)
    code, out, err = run(["verify", "--nu-step", "1e-12"])
    assert code == EXIT_USAGE and "at most" in err and out == ""
    # the largest benchmark grid (20 x 1001) and 100 samples stay inside;
    # config files are shared, and commands that build no grid take one
    # sized for no grid
    for argv in (["verify", "--nu-min", "0.5", "--nu-max", "19.5", "--nu-step", "1",
                  "--x-points", "1001"],
                 ["explore", "--nu", "2", "--sample", "100"],
                 ["tabulate", "--nu", "1", "--x-points", str(verify.GRID_LIMIT)],
                 ["sharpness", "--config", str(cfg)], ["explore", "--config", str(cfg)]):
        cli._merge_config(parser.parse_args(argv))


def test_verify_fails_closed_on_nan_error_estimates(monkeypatch):
    real = oracle.k_ratio_rows

    def nan_estimates(*args, **kwargs):
        return {nu: (vals, np.full_like(ests, np.nan), used)
                for nu, (vals, ests, used) in real(*args, **kwargs).items()}

    monkeypatch.setattr(oracle, "k_ratio_rows", nan_estimates)
    code, out, err = run(["verify", "--nu-min", "0.5", "--nu-max", "1",
                          "--x-points", "21"])
    assert code == EXIT_ORACLE
    assert "trig-upper-K: WARNING 0 points oracle_failures=42" in out
    code, out, _ = run(["conjecture", "--nu-min", "0.5", "--nu-max", "1",
                        "--x-points", "21"])
    assert code == EXIT_ORACLE and "points=0" in out


def test_verify_reports_are_byte_stable(tmp_path):
    args = ["verify", "--nu-min", "0.5", "--nu-max", "0.5", "--x-min", "0.5",
            "--x-max", "50", "--x-points", "5"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(d1)])[0] == EXIT_OK
    assert run(args + ["--out", str(d2)])[0] == EXIT_OK
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2)) and len(names) == 25
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    text = (d1 / names[0]).read_text()
    assert text.startswith("claim_id,nu,x,bound,oracle,margin\n")


# orders -1 to 1.5 (rows outside several claims' proved ranges) x 9 points
REFERENCE_GRID = ["--nu-min", "-1", "--nu-max", "1.5", "--nu-step", "0.25",
                  "--x-min", "0.05", "--x-max", "40", "--x-points", "9"]


def _plain_csv(rep) -> bytes:
    """A report CSV by plain per-value %.17g formatting: the reference
    every report CSV must equal byte for byte."""
    lines = ["claim_id,nu,x,bound,oracle,margin\n"]
    lines += ["%s,%s\n" % (rep.claim_id, ",".join("%.17g" % v for v in row))
              for row in np.asarray(rep.rows).tolist()]
    return "".join(lines).encode()


def _cli_grid(argv):
    """The grid a grid command builds from argv."""
    nus, xs = cli._grid_axes(cli._merge_config(cli._build_parser().parse_args(argv)))
    return verify.Grid(tuple(nus), tuple(xs))


@pytest.mark.parametrize("corrupt", [None, "amos-I-a-1"])
def test_verify_csvs_match_per_value_formatting(tmp_path, monkeypatch, corrupt):
    # every CSV of a run shares one order and x text; one Phi0 claim drops
    # a point the others of Phi0 keep, as non-finite
    argv = ["verify"] + REFERENCE_GRID + (["--corrupt-claim", corrupt] if corrupt else [])
    grid = _cli_grid(argv)
    drop = (0.5, grid.x_values[4])
    plain = verify.get_claim("trig-upper-I").form

    def formula(nu, x):
        return np.where((nu == drop[0]) & (x == drop[1]), np.nan, plain.formula(nu, x))

    monkeypatch.setitem(verify._BOUND_CLAIMS, "trig-upper-I", verify.BoundClaim(
        "trig-upper-I", dataclasses.replace(plain, formula=formula)))
    code, _, _ = run(argv + ["--out", str(tmp_path)])
    assert code == (EXIT_VIOLATION if corrupt else EXIT_OK)
    assert len(os.listdir(tmp_path)) == 25
    table = verify.OracleTable(grid)
    reports = {}
    for cid in verify.bound_claims():
        claim = verify.get_claim(cid)
        if cid == corrupt:
            claim = verify.corrupt_claim(claim)
        rep = reports[cid] = verify.scan_bound(claim, table=table)
        assert (tmp_path / cli._claim_filename(rep.claim_id)).read_bytes() == _plain_csv(rep)
    assert grid.nu_values[0] == -1.0
    assert any(rep.skipped for rep in reports.values())
    assert any(len(rep.rows) and rep.rows[0, 0] == -1.0 for rep in reports.values())
    assert drop in [(nu, x) for nu, x, _ in reports["trig-upper-I"].oracle_failures]
    kept = reports["amos-I-a0"].rows
    assert np.any((kept[:, 0] == drop[0]) & (kept[:, 1] == drop[1]))


def test_verify_stdout_stays_in_catalog_order(tmp_path, monkeypatch):
    # claims are reported in one pass in catalog order, which groups them by
    # oracle quantity; the failing-claims list keeps it too
    scanned = []
    real = verify.scan_bound

    def recording(claim, *args, **kwargs):
        scanned.append(claim.claim_id)
        return real(claim, *args, **kwargs)

    monkeypatch.setattr(verify, "scan_bound", recording)
    monkeypatch.setitem(verify._BOUND_CLAIMS, "amos-I-a-1", verify.corrupt_claim("amos-I-a-1"))
    code, out, _ = run(["verify"] + REFERENCE_GRID + ["--corrupt-claim", "trig-upper-K",
                                                      "--out", str(tmp_path)])
    assert code == EXIT_VIOLATION
    lines = out.strip().split("\n")
    assert [ln.split(":")[0] for ln in lines[:-1]] == [
        verify._BOUND_CLAIMS[cid].claim_id + ("[corrupted]" if cid == "trig-upper-K" else "")
        for cid in verify.bound_claims()]
    assert lines[-1] == "failing claims: amos-I-a-1[corrupted], trig-upper-K[corrupted]"
    # the --corrupt-claim scan runs first, so that a corruption that violates
    # nothing is refused before any output; every claim is scanned once
    assert scanned == ["trig-upper-K[corrupted]"] + [
        verify._BOUND_CLAIMS[cid].claim_id for cid in verify.bound_claims()
        if cid != "trig-upper-K"]


def test_conjecture_and_sharpness_csvs_match_per_value_formatting(tmp_path):
    argv = ["conjecture"] + REFERENCE_GRID
    assert run(argv + ["--out", str(tmp_path / "conj.csv")])[0] == EXIT_OK
    rep = verify.conjecture_scan(grid=_cli_grid(argv))
    assert (tmp_path / "conj.csv").read_bytes() == _plain_csv(rep)
    assert run(["sharpness", "--out", str(tmp_path / "fits")])[0] == EXIT_OK
    for rep in verify.sharpness_battery():
        path = tmp_path / "fits" / cli._claim_filename(rep.claim_id)
        assert path.read_bytes() == _plain_csv(rep)


# ---------------------------------------------------------------------------
# sharpness


def test_sharpness_gates_pass(tmp_path):
    code, out, _ = run(["sharpness", "--out", str(tmp_path / "fits")])
    assert code == EXIT_OK
    lines = [ln for ln in out.strip().split("\n") if "PASS" in ln or "FAIL" in ln]
    assert len(lines) == 7
    assert all("PASS" in ln for ln in lines)
    assert len(os.listdir(tmp_path / "fits")) == 7


def test_sharpness_writes_every_case_through_one_csv_text(tmp_path, monkeypatch):
    # a CsvText per 3-4 row case cost more than formatting the values
    built = []

    class CountingText(verify.CsvText):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(verify, "CsvText", CountingText)
    assert run(["sharpness", "--out", str(tmp_path / "fits")])[0] == EXIT_OK
    assert len(built) == 1 and len(os.listdir(tmp_path / "fits")) == 7


def test_sharpness_unfittable_cases_exit_3(monkeypatch):
    # infinite estimates make every case unfittable, which used to exit 0
    real = verify.OracleTable.block

    def inf_estimates(self, qid, nus):
        vals, ests = real(self, qid, nus)
        return vals, np.full_like(ests, np.inf)

    monkeypatch.setattr(verify.OracleTable, "block", inf_estimates)
    code, out, err = run(["sharpness"])
    assert code == EXIT_ORACLE
    assert out.count("UNFITTABLE") == 7 and "PASS" not in out
    assert "oracle failures: 7/7" in err


# ---------------------------------------------------------------------------
# conjecture


def test_conjecture_report(tmp_path):
    out_file = tmp_path / "conj.csv"
    code, out, _ = run(["conjecture", "--nu-min", "0.25", "--nu-max", "1.75",
                        "--x-min", "0.1", "--x-max", "10", "--x-points", "9",
                        "--out", str(out_file)])
    assert code == EXIT_OK
    assert "sup s = " in out
    assert "margin to proved cap 1/3" in out
    assert "(reported, not gated)" in out
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 1 + 54  # header + 6 nu rows x 9 points


def test_conjecture_margin_within_roundoff_is_undecided():
    # s cancels terms near 4e7 here, so its estimate at the supremum (about
    # 3e-6) dwarfs a -3e-9 margin to 1/5, which used to print as a plain
    # negative margin: roundoff read as a counterexample
    code, out, _ = run(["conjecture", "--nu", "6400.5", "--x-min", "5100", "--x-max", "5350",
                        "--x-points", "2001"])
    assert code == EXIT_OK
    line = next(ln for ln in out.splitlines() if ln.startswith("margin to conjectured cap"))
    margin, note = line.split(": ", 1)[1].split(" ", 1)
    est = float(note.split("estimate ")[1].split(",")[0])
    assert float(margin) < 0.0 and abs(float(margin)) <= est
    assert note == f"(undecided within estimate {'%.17g' % est}, reported, not gated)"
    # a margin outside the estimate keeps its line
    code, out, _ = run(["conjecture"])
    assert code == EXIT_OK
    assert "margin to conjectured cap 1/5: 0.0002346863833054269 (reported, not gated)\n" in out


# ---------------------------------------------------------------------------
# explore


def test_explore_constant_solution():
    code, out, err = run(["explore", "--a", "0", "--nu", "0.5", "--x0", "1",
                          "--y0", "-1", "--x-min", "0.1", "--x-max", "20"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "sample,x,y"
    assert all(ln.endswith(",-1") for ln in lines[1:])
    assert "class=monotone-decreasing" in err


def test_explore_blow_up():
    code, _, err = run(["explore", "--a", "0", "--nu", "2", "--x0", "1",
                        "--y0", "-3.5", "--x-min", "0.05", "--x-max", "30"])
    assert code == EXIT_OK
    assert "class=blow-up" in err
    assert "blow_up_x=" in err


def test_explore_seeded_sampling_is_reproducible(tmp_path):
    args = ["explore", "--a", "0", "--nu", "2", "--x0", "1", "--sample", "3",
            "--seed", "11", "--x-min", "0.05", "--x-max", "30"]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    c1, o1, _ = run(args + ["--out", str(f1)])
    c2, o2, _ = run(args + ["--out", str(f2)])
    assert c1 == c2 == EXIT_OK
    assert f1.read_bytes() == f2.read_bytes()
    # summaries move to stdout when the CSV goes to a file
    assert o1 == o2
    # mixed-band draws at nu=2 all carry an interior extremum
    assert o1.count("class=has-interior-extremum") == 3


def test_explore_csv_matches_row_formatting(tmp_path):
    # the CSV is formatted with one % per trajectory; it must match the
    # plain per-row formatting byte for byte
    out = tmp_path / "one.csv"
    code, _, _ = run(["explore", "--a", "0", "--nu", "2", "--x0", "1", "--y0", "0.3",
                      "--x-min", "0.05", "--x-max", "30", "--out", str(out)])
    assert code == EXIT_OK
    traj = riccati_lab.solve_riccati(0.0, 2.0, 1.0, 0.3, 0.05, 30.0)
    rows = "".join("%d,%s,%s\n" % (0, "%.17g" % x, "%.17g" % y)
                   for x, y in traj.samples.tolist())
    assert out.read_text() == "sample,x,y\n" + rows


def test_explore_rejects_non_finite_inputs(tmp_path):
    # --a nan used to hang the step controller; --a inf died in a traceback
    base = ["explore", "--nu", "2", "--x-min", "0.05", "--x-max", "30"]
    for flag in ("--a", "--x0", "--y0"):
        for value in ("nan", "inf", "-inf"):
            extra = [] if flag == "--y0" else ["--y0", "1"]
            code, out, err = run(base + extra + [f"{flag}={value}"])
            assert code == EXIT_USAGE and "must be finite" in err and out == ""
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("a=nan\n")
    assert run(base + ["--y0", "1", "--config", str(cfg)])[0] == EXIT_USAGE
    # a negative seed used to die in numpy's default_rng with a traceback
    code, out, err = run(base + ["--sample", "2", "--seed", "-1"])
    assert code == EXIT_USAGE and "seed" in err and out == ""
    cfg.write_text("seed=-1\n")
    assert run(base + ["--sample", "2", "--config", str(cfg)])[0] == EXIT_USAGE
    # a negative sample used to be dropped silently, exiting 0
    code, out, err = run(base + ["--y0", "1", "--sample", "-3"])
    assert code == EXIT_USAGE and "sample must be non-negative" in err and out == ""
    cfg.write_text("sample=-3\n")
    code, out, err = run(base + ["--y0", "1", "--config", str(cfg)])
    assert code == EXIT_USAGE and "sample must be non-negative" in err and out == ""


def test_explore_reports_start_past_blow_up_threshold(tmp_path):
    # such a start used to end in an IndexError; now it is reported on its
    # own and the batch of the remaining starts is unchanged
    args = ["explore", "--a", "0", "--nu", "2", "--x0", "1", "--sample", "3",
            "--seed", "11", "--x-min", "0.05", "--x-max", "30"]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    c1, o1, _ = run(args + ["--out", str(f1)])
    c2, o2, _ = run(args + ["--y0", "1e9", "--out", str(f2)])
    assert c1 == c2 == EXIT_OK
    first, rest = o2.split("\n", 1)
    assert first.startswith("sample 0: y0=1000000000 error: ") and "blow-up threshold" in first
    assert rest == o1
    assert f1.read_bytes() == f2.read_bytes()


def test_explore_step_failure_before_first_step():
    # x**1e300 overflows off x0 = 1, so both sides fail at once; this used
    # to exit with an IndexError traceback
    with np.errstate(all="ignore"):
        code, out, err = run(["explore", "--a", "1e300", "--nu", "2", "--x0", "1",
                              "--y0", "1", "--x-min", "0.05", "--x-max", "30"])
    assert code == EXIT_OK
    assert out == "sample,x,y\n0,1,1\n"
    assert "termination=step-failure" in err


def test_explore_reports_overflowing_scale():
    # x0**(-a) overflows a float: each sampled start is reported on its own
    # line, as an overflowing --y0 start is; this used to end in an
    # OverflowError traceback
    code, out, err = run(["explore", "--x0", "1000", "--x-max", "2000", "--a", "-200",
                          "--sample", "3"])
    assert (code, out) == (EXIT_OK, "sample,x,y\n")
    lines = err.splitlines()
    assert len(lines) == 3
    for k, line in enumerate(lines, start=1):
        assert line.startswith(f"sample {k}: y0=") and "inf error: initial value" in line


def test_explore_rejects_bad_window():
    code, out, err = run(["explore", "--a", "0", "--nu", "2", "--x0", "100",
                          "--y0", "1", "--x-min", "0.1", "--x-max", "30"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: explore needs x_min < x0 < x_max, got (0.1, 100.0, 30.0)\n"
    code, out, err = run(["explore", "--nu", "2"])
    assert (code, out, err) == (EXIT_USAGE, "", "error: explore needs --y0 or --sample N\n")


def test_explore_rejects_far_window_edge():
    # trajectory cost grows with x_max, so a far edge must fail fast
    # instead of running until it is killed
    for x_max in ("1e300", "%r" % (cli.EXPLORE_X_LIMIT * (1 + 1e-15))):
        code, out, err = run(["explore", "--nu", "2", "--y0", "1",
                              "--x-min", "0.5", "--x-max", x_max])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: explore needs x_max <= 10000, got ")


# ---------------------------------------------------------------------------
# config handling


def test_usage_errors():
    assert run(["tabulate", "--no-such-flag"])[0] == EXIT_USAGE
    assert run(["no-such-command"])[0] == EXIT_USAGE
    assert run([])[0] == EXIT_USAGE


def test_help_exits_zero():
    for sub in ("tabulate", "verify", "sharpness", "conjecture", "explore"):
        assert run([sub, "--help"])[0] == 0


def test_dump_config_round_trip(tmp_path):
    code, dump, _ = run(["verify", "--tol", "5e-9", "--nu-max", "3",
                         "--dump-config"])
    assert code == EXIT_OK
    assert "tol=5.0000000000000001e-09" in dump
    cfg = tmp_path / "run.cfg"
    cfg.write_text(dump + "# trailing comment\n")
    code, dump2, _ = run(["verify", "--config", str(cfg), "--dump-config"])
    assert code == EXIT_OK
    assert dump2 == dump
    # CLI flags take precedence over the file
    code, dump3, _ = run(["verify", "--config", str(cfg), "--nu-max", "7",
                          "--dump-config"])
    assert "nu_max=7" in dump3


def test_config_hash_starts_a_comment_only_after_whitespace(tmp_path):
    # out=res#1.csv used to read back as out=res
    code, dump, _ = run(["tabulate", "--out", "res#1.csv", "--dump-config"])
    assert code == EXIT_OK and "out=res#1.csv" in dump.splitlines()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(dump + "seed=3 # a comment\n# a comment line\n  #indented\n")
    code, dump2, _ = run(["tabulate", "--config", str(cfg), "--dump-config"])
    assert (code, dump2) == (EXIT_OK, dump.replace("seed=0", "seed=3"))
    cfg.write_text("out=#1.csv\n")
    assert "out=#1.csv" in run(["tabulate", "--config", str(cfg), "--dump-config"])[1]
    # a value that no config line reads back is refused, nothing printed
    for out in ("res #1.csv", "res\t#1.csv", "a\nb.csv", "a\rb.csv", " lead.csv"):
        code, stdout, err = run(["tabulate", "--out", out, "--dump-config"])
        assert (code, stdout) == (EXIT_USAGE, "") and err.startswith("config error:"), out


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert run(["tabulate", "--nu", "1.5", "--x", "1", "--dump-config"])[0] == EXIT_OK
    assert run(["verify", "--nu", "2.5", "--dump-config"])[1].count("nu=2.5") == 1


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nu_max=3\nwibble=1\n")
    code, _, err = run(["tabulate", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "wibble" in err


def test_unwritable_out_is_a_usage_error(tmp_path):
    # an --out that cannot be written used to end in a traceback and exit 1,
    # the violation code
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = str(tmp_path / "missing" / "out.csv")
    for argv in (["tabulate", "--nu", "1", "--x", "1", "--out", missing],
                 ["conjecture", "--nu", "1", "--x", "1", "--out", missing],
                 ["explore", "--nu", "2", "--y0", "0.3", "--out", missing],
                 ["verify", "--nu", "1.5", "--x", "1", "--out", str(taken)],
                 ["sharpness", "--out", str(taken)]):
        code, _, err = run(argv)
        assert code == EXIT_USAGE and err.startswith("error: "), argv


def _option_surface(parser):
    """subcommand -> {(option strings, dest, parse type name)}; a flag that
    takes no value has no type, and one without a type keeps its text."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {(tuple(a.option_strings), a.dest,
                    None if a.nargs == 0 else (a.type or str).__name__) for a in sub._actions}
            for name, sub in subs.choices.items()}


_COMMANDS = ("tabulate", "verify", "sharpness", "conjecture", "explore")
_GRID = ("tabulate", "verify", "conjecture")
# option -> (parse type name, the subcommands that read it): the only ones
# that take its flag
_READERS = {
    "nu_min": ("float", _GRID), "nu_max": ("float", _GRID), "nu_step": ("float", _GRID),
    "x_points": ("int", _GRID), "x": ("float", _GRID),
    "nu": ("float", _GRID + ("explore",)), "x_min": ("float", _GRID + ("explore",)),
    "x_max": ("float", _GRID + ("explore",)),
    "tol": ("float", ("verify",)), "corrupt_claim": ("str", ("verify",)),
    "seed": ("int", ("explore",)), "a": ("float", ("explore",)), "x0": ("float", ("explore",)),
    "y0": ("float", ("explore",)), "sample": ("int", ("explore",)),
    "out": ("str", _COMMANDS),
}
# what every subcommand takes besides its options
_ALWAYS = {(("-h", "--help"), "help", None), (("--config",), "config", "str"),
           (("--dump-config",), "dump_config", None)}


def _taken(command):
    return [name for name, (_, readers) in _READERS.items() if command in readers]


def _flag(name):
    return "--" + name.replace("_", "-")


def test_option_surface_per_subcommand():
    surface = _option_surface(cli._build_parser())
    assert list(surface) == list(_COMMANDS)
    for command, options in surface.items():
        assert options == _ALWAYS | {((_flag(name),), name, _READERS[name][0])
                                     for name in _taken(command)}, command
    counts = {command: len(_taken(command)) for command in _COMMANDS}
    assert counts == {"tabulate": 9, "verify": 11, "sharpness": 1, "conjecture": 9,
                      "explore": 9}
    assert sum(counts.values()) == 39


def test_options_a_subcommand_does_not_read_are_refused():
    # a flag that its subcommand ignored used to run and exit 0: the 21
    # pairs of an option that every subcommand took with one that does not
    # read it
    refused = [(command, name) for command in _COMMANDS for name in _READERS
               if command not in _READERS[name][1]]
    once_everywhere = ("nu_min", "nu_max", "nu_step", "x_min", "x_max", "x_points", "nu",
                       "x", "tol", "out", "seed")
    assert len(refused) == 41
    assert len([pair for pair in refused if pair[1] in once_everywhere]) == 21
    for command, name in refused:
        code, out, err = run([command, _flag(name), "1"])
        assert (code, out) == (EXIT_USAGE, "") and "error:" in err, (command, name)


# two values per option, neither its default, each printed by --dump-config
# as written here
_OPTION_VALUES = {
    "nu_min": ("-0.5", "0.75"), "nu_max": ("3", "4"), "nu_step": ("0.5", "0.125"),
    "x_min": ("0.25", "0.5"), "x_max": ("50", "60"), "x_points": ("7", "9"),
    "nu": ("1.5", "2.5"), "x": ("2", "3"), "tol": ("0.25", "0.125"),
    "out": ("a.csv", "b.csv"), "seed": ("4", "5"), "a": ("0.5", "-1"),
    "x0": ("2", "3"), "y0": ("0.25", "-0.5"), "sample": ("3", "6"),
    "corrupt_claim": ("amos-K-a1", "trig-upper-I"),
}


def _dump_lines(names, values):
    return [f"{name}={values[name]}" for name in names if name in values]


def test_every_option_round_trips_through_dump_config(tmp_path):
    names = [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "command"]
    assert sorted(names) == sorted(_OPTION_VALUES) == sorted(_READERS)
    first = {name: pair[0] for name, pair in _OPTION_VALUES.items()}
    cfg = tmp_path / "run.cfg"
    for command in ("tabulate", "sharpness", "conjecture", "verify", "explore"):
        taken = _taken(command)
        defaults = dict(line.split("=", 1)
                        for line in run([command, "--dump-config"])[1].splitlines())
        dump = _dump_lines(names, {**defaults, **{name: first[name] for name in taken}})
        flags = [arg for name in taken for arg in (_flag(name), first[name])]
        code, out, err = run([command] + flags + ["--dump-config"])
        assert (code, out.splitlines()) == (EXIT_OK, dump), (command, err)
        # the dump read back as a config file gives the same config
        cfg.write_text(out)
        code, out, err = run([command, "--config", str(cfg), "--dump-config"])
        assert (code, out.splitlines()) == (EXIT_OK, dump), (command, err)
        # and each flag wins over the file
        for name in taken:
            second = _OPTION_VALUES[name][1]
            code, out, err = run([command, "--config", str(cfg), _flag(name), second,
                                  "--dump-config"])
            expect = [f"{name}={second}" if line.startswith(name + "=") else line
                      for line in dump]
            assert (code, out.splitlines()) == (EXIT_OK, expect), (command, name, err)
    # every key reads back from a file, also under a subcommand that does
    # not take its flag
    cfg.write_text("\n".join(_dump_lines(names, first)) + "\n")
    code, out, err = run(["tabulate", "--config", str(cfg), "--dump-config"])
    assert (code, out.splitlines()) == (EXIT_OK, _dump_lines(names, first)), err


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_ORACLE) == (0, 1, 2, 3)
