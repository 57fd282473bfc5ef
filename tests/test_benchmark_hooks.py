"""The benchmark's tracer (perfbench/tracing.py) replaces package
attributes by name, so renaming one would silently break traced runs."""

import importlib.util
from pathlib import Path

from besselbounds import cli, oracle, riccati_lab, verify


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    t = _tracing()
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
