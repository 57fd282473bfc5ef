"""The benchmark (perfbench/) replaces package attributes by name and reads
report fields and CLI output, so renaming one would silently break its
runs.  These tests pin what it wraps and what it reads."""

import contextlib
import importlib.util
import io
from pathlib import Path

from besselbounds import cli, oracle, riccati_lab, verify
from besselbounds.nullclines import EvalPoint

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    t = _load("tracing")
    hooks = (
        (oracle, t.ORACLE_ROWS + t.ORACLE_POINTS + ("solve_ivp",)),
        (verify, t.VERIFY_FNS + ("OracleTable", "get_claim", "bound_claims")),
        (riccati_lab, t.RICCATI_FNS + ("solve_ivp",)),
        (cli, ("main",)),
    )
    for module, names in hooks:
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert isinstance(verify.BoundClaim.bound_fn, property)


def test_runtime_calls_still_run():
    # the reference check calls the one-point oracle functions and the
    # closed-form pass every bound at run time; a deletion that breaks
    # either must fail here
    p = EvalPoint(1.5, 1.0)
    for fn in (oracle.i_ratio, oracle.k_ratio, oracle.product):
        r = fn(p)
        assert isinstance(r, oracle.OracleResult) and 0.0 < r.est_error < 1e-12, fn.__name__
    evals, seconds = _load("tracing").closed_forms_pass(verify, [(1.5, 1.0)])
    assert evals == 25 and seconds >= 0.0


def test_read_fields_exist():
    # the tracer counts len(rep.unverified); the dense-halfint workload
    # lists failed table rows by .nu and .error; default-grid builds its
    # reference points from default_grid(x_lo=...)
    grid = verify.Grid((-0.75, 0.5), (0.5, 1.0))
    assert verify.scan_bound("amos-K-a1", grid=grid).unverified == []
    table = verify.OracleTable(grid)
    assert [(nu, row.nu, row.error) for nu, row in table.rows.items()] == [
        (-0.75, -0.75, None), (0.5, 0.5, None)]
    assert verify.default_grid(x_lo=2e-3).x_values[0] == 2e-3


def test_workload_checks_pass_on_cli_output(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))    # workloads imports speed
    w = _load("workloads")
    args = w.grid_args(-1.0, 1.5, 0.25, w.DEFAULT_X_MIN, 7)
    for command, check, out in (
            ("verify", w.check_verify_output, tmp_path / "verify"),
            ("conjecture", w.check_conjecture_output, tmp_path / "conjecture.csv")):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert cli.main([command] + args + ["--out", str(out)]) == cli.EXIT_OK
        op = w.Op(command)
        check(op, text.getvalue())
        assert op.problems == [], (command, op.problems)
