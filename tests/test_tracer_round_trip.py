"""perfbench's tracer swaps package attributes by name and puts them back.
This runs a traced pass end to end, as the benchmark does, and checks that
every layer is reported and that removal restores each original object,
the ``solve_ivp`` stand-in that `riccati_lab` takes from `oracle`
included."""

import contextlib
import importlib.util
import io
from pathlib import Path

from besselbounds import cli, oracle, riccati_lab, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TINY_GRID = ["--nu-min", "-1", "--nu-max", "0.5", "--nu-step", "0.25", "--x-points", "5"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_reports_every_layer_and_restores_the_package(tmp_path):
    t = _load_tracing()
    swapped = (
        (oracle, t.ORACLE_ROWS + t.ORACLE_POINTS + ("solve_ivp",)),
        (verify, t.VERIFY_FNS + ("OracleTable",)),
        (riccati_lab, t.RICCATI_FNS + ("solve_ivp",)),
        (cli, ("main",)),
    )
    originals = {(module, name): getattr(module, name)
                 for module, names in swapped for name in names}
    # one stand-in, two module attributes
    assert riccati_lab.solve_ivp is oracle.solve_ivp

    tracer = t.Tracer()
    tracer.install(cli, oracle, verify, riccati_lab)
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", *TINY_GRID, "--out", str(tmp_path / "verify")]) \
                == cli.EXIT_OK
            assert cli.main(["explore", "--sample", "2",
                             "--out", str(tmp_path / "explore.csv")]) == cli.EXIT_OK
    finally:
        tracer.remove()

    metrics = tracer.layer_metrics()
    assert list(metrics) == [name for name, _, _ in t.PER_LAYER]
    assert metrics["verify.scan_bound.calls"] == 25
    assert metrics["verify.scan_bound.points"] > 0
    assert metrics["riccati_lab.solve_riccati.calls"] > 0
    assert metrics["cli.self_s"] > 0.0
    # the Taylor steppers never reach the stand-in
    assert metrics["oracle.k_integrations"] == metrics["riccati_lab.rhs_evals"] == 0
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, f"{module.__name__}.{name}"
