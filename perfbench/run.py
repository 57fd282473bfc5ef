"""Benchmark of the besselbounds CLI and library, run from the repo root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  Each pass runs the workload's two
steps in one process, in a closed loop with a single caller, with BLAS and
OpenMP pinned to one thread.  With --trace 0 the benchmark repeats passes
for about S seconds with tracing off and reports the end-to-end metrics:
the median time of each step, the set-up time (median of several fresh
interpreters importing the CLI) and the peak resident set size.  Times are
wall times rescaled to a fixed host speed by speed.Stopwatch, which
samples the speed of the shared host while it times; the text output
also shows the raw wall times.
With --trace 1 it makes a traced, an untraced and a second traced pass
and reports the per-layer metrics of tracing.py, whose counts must repeat
exactly between the two traced passes.

Outputs are checked outside the timed region: exit codes and printed
verdicts after every command, printed output identical on every pass, and
a seeded sample of the written report CSVs against mpmath.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("step1_s", "s"),
    ("step2_s", "s"),
    ("peak_rss_mb", "MiB"),
)


_IMPORT_TIMER = ("from speed import Stopwatch; w = Stopwatch(pure=True).start(); "
                 "import besselbounds.cli; print(*w.stop())")


def setup_times(n):
    """(rescaled, raw) seconds a fresh interpreter takes to import the CLI
    module (and with it numpy, scipy and the claim registry), measured n
    times."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    return [tuple(float(v) for v in subprocess.run(
                [sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT, check=True,
                capture_output=True, text=True).stdout.split())
            for _ in range(n)]


class Pass:
    def __init__(self, walls, raw, ops, elapsed, tracer=None):
        self.walls = walls        # mean rescaled seconds of one step 1 and one step 2
        self.raw = raw            # the same, as raw wall seconds
        self.ops = ops            # every Op of both steps, in order
        self.elapsed = elapsed    # including the output checks
        self.tracer = tracer


def run_pass(wl, modules, repeats=(1, 1), tracer=None):
    """Run step 1 repeats[0] times back to back, then step 2 repeats[1]
    times; a step's time is the mean over its repeats."""
    start = time.perf_counter()
    walls, raw, ops = [], [], []
    if tracer is not None:
        tracer.install(*modules)
    try:
        for i, n in enumerate(repeats):
            total = [0.0, 0.0]
            for _ in range(n):
                (rescaled, wall), step_ops = wl.run_step(i)
                total[0] += rescaled
                total[1] += wall
                ops += step_ops
            walls.append(total[0] / n)
            raw.append(total[1] / n)
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        tracer.counts["cli.out_bytes"] = sum(op.out_bytes for op in ops)
    return Pass(walls, raw, ops, time.perf_counter() - start, tracer)


def check_repeats(passes):
    """Printed output must be identical on every pass of one seed; a
    difference fails the operation on the later pass."""
    first = passes[0].ops
    for p in passes[1:]:
        for a, b in zip(first, p.ops):
            if a.fingerprint != b.fingerprint:
                b.problems.append("output differs from the first pass")


def trace_metrics(traced, untraced, tracing):
    """Per-layer metrics from two traced passes; counts must agree."""
    per_pass = [p.tracer.layer_metrics() for p in traced]
    metrics, mismatches = {}, []
    for name, unit, _ in tracing.PER_LAYER:
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                mismatches.append(f"{name} differs between traced passes: {values}")
    metrics["trace.overhead_s"] = (statistics.median(sum(p.walls) for p in traced)
                                   - statistics.median(sum(p.walls) for p in untraced))
    return metrics, mismatches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "besselbounds")):
        print(f"besselbounds sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    load = os.getloadavg()

    import mpmath
    import numpy
    import scipy
    from besselbounds import cli, oracle, riccati_lab, verify
    import reference
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    modules = (cli, oracle, verify, riccati_lab)

    print(f"env: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, mpmath {mpmath.__version__}, "
          f"nproc {os.cpu_count()}, load average at start "
          + " ".join(f"{v:.2f}" for v in load))
    print(f"workload {wl.name}, seed {args.seed}, steps: step1 = {wl.steps[0]}, "
          f"step2 = {wl.steps[1]}")

    wl.warm_up()

    problems = []
    if args.trace:
        traced = [run_pass(wl, modules, tracer=tracing.Tracer())]
        untraced = [run_pass(wl, modules)]
        traced.append(run_pass(wl, modules, tracer=tracing.Tracer()))
        passes, timed = traced[:1] + untraced + traced[1:], untraced
        metrics, problems = trace_metrics(traced, untraced, tracing)
        evals, secs = tracing.closed_forms_pass(verify, wl.points())
        metrics["nullclines.closed_forms.evals"] = evals
        metrics["nullclines.closed_forms.s"] = secs
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        setup = setup_times(SETUP_REPEATS)
        print("setup_s samples (rescaled/raw): "
              + ", ".join(f"{t:.4f}/{w:.4f}" for t, w in setup))
        passes, start = [], time.perf_counter()
        while True:
            passes.append(run_pass(wl, modules, wl.repeats))
            if time.perf_counter() - start + passes[-1].elapsed > args.seconds:
                break
        timed = passes
        metrics = {
            "setup_s": statistics.median(t for t, _ in setup),
            "step1_s": statistics.median(p.walls[0] for p in passes),
            "step2_s": statistics.median(p.walls[1] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    check_repeats(passes)
    try:
        checked, worst, on_estimate, ref_problems = reference.check_csvs(
            wl.csv_outputs(), args.seed)
    except OSError as exc:
        checked, worst, on_estimate, ref_problems = 0, 0.0, 0, [f"report CSVs: {exc}"]
    passes[-1].ops[0].problems += ref_problems
    print(f"mpmath reference: {checked} sampled CSV oracle values, worst relative "
          f"error {worst:.3g}, {on_estimate} above 1e-8 but within the oracle's "
          f"own error estimate")

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.label}: " + "; ".join(op.problems))
    for msg in problems:
        print(f"NOT DETERMINISTIC: {msg}")

    for i, step in enumerate(wl.steps):
        walls = [p.walls[i] for p in timed]
        raw = [p.raw[i] for p in timed]
        print(f"{step}_s (step{i + 1}_s): median {statistics.median(walls):.4f} s rescaled "
              f"(min {min(walls):.4f}, max {max(walls):.4f}), raw wall median "
              f"{statistics.median(raw):.4f} s (min {min(raw):.4f}, max {max(raw):.4f}), "
              f"over {len(walls)} untraced passes")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    result = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    shutil.rmtree(OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
