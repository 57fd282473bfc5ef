"""The three workloads: their inputs, their two timed steps and the checks
on what each step returns.

A workload pass runs two steps back to back in one process, each step only
after the previous one returned (a closed loop with a single caller).  Each
step is made of operations: one CLI command or one library call.  An
operation fails when it raises, returns a wrong exit code or fails a check;
the checks run outside the timed region.
"""

import contextlib
import io
import os
import random
import re

import numpy as np

from besselbounds import cli, verify
from speed import Stopwatch

DEFAULT_X_MIN = 1e-3
X_MAX = 1e3
_FMT = "%.17g"


class Op:
    """One CLI command or library call and what its checks found."""

    def __init__(self, label):
        self.label = label
        self.problems = []
        self.fingerprint = ""     # output that must repeat exactly across passes
        self.out_bytes = 0        # bytes the CLI printed and wrote

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def seeded_x_min(seed: int) -> float:
    """Seed 0 is the paper's default; others draw x_min log-uniformly
    from [10^-3.5, 10^-2.5]."""
    if seed == 0:
        return DEFAULT_X_MIN
    return 10.0 ** random.Random(seed).uniform(-3.5, -2.5)


def _path_bytes(path):
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_cli(label, argv, out_path):
    """Run one CLI command in-process; returns ((rescaled, raw) seconds, Op,
    stdout)."""
    op = Op(label)
    out, err = io.StringIO(), io.StringIO()
    watch = Stopwatch().start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out", out_path])
    except Exception as exc:     # a raising command is a failed operation
        wall = watch.stop()
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        return wall, op, ""
    wall = watch.stop()
    text = out.getvalue()
    op.check(rc == 0, f"exit code {rc}; stderr: {err.getvalue().strip()[:300]}")
    op.fingerprint = text + err.getvalue()
    op.out_bytes = len(op.fingerprint.encode()) + _path_bytes(out_path)
    return wall, op, text


def check_verify_output(op, text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    op.check(not any("VIOLATION" in ln for ln in lines), "VIOLATION line printed")
    op.check(not any("oracle_failures=" in ln for ln in lines),
             "oracle_failures= line printed")
    checked = sum(1 for ln in lines if ": OK points=" in ln)
    op.check(checked == len(verify.bound_claims()),
             f"{checked} claims reported OK, expected {len(verify.bound_claims())}")


def check_conjecture_output(op, text):
    m = re.search(r"^sup s \(verified rows\) = (\S+)", text, re.M)
    op.check(m is not None, "no 'sup s (verified rows)' line")
    if m:
        op.check(float(m.group(1)) < 1.0 / 3.0, f"sup s (verified rows) = {m.group(1)}")
    fails = [int(v) for v in re.findall(r"oracle_failures=(\d+)", text)]
    op.check(fails == [0], f"conjecture oracle_failures={fails}")
    op.check("violations of the proved cap" not in text, "proved cap violated")


def grid_args(nu_min, nu_max, nu_step, x_min, x_points):
    return ["--nu-min=" + _FMT % nu_min, "--nu-max=" + _FMT % nu_max,
            "--nu-step=" + _FMT % nu_step, "--x-min=" + _FMT % x_min,
            "--x-max=" + _FMT % X_MAX, "--x-points=%d" % x_points]


class Workload:
    """Base: `steps` names the two timed steps, `run_step(i)` runs one and
    returns ((rescaled, raw) seconds, [Op]), timed by speed.Stopwatch; `csv_outputs` lists the report CSVs the
    last pass wrote into `report_dir`; `points` are the (nu, x) the
    workload checks.

    `repeats` is how many times a timed pass runs each step back to back.
    Short steps repeat so that each timing spans a few seconds: CPU speed
    on a shared host drifts over seconds, and one timing of a one-second
    command lands wholly in a fast or a slow stretch.
    """

    steps = ("", "")
    repeats = (1, 1)
    report_dir = "verify"

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out = out_dir

    def path(self, name):
        return os.path.join(self.out, name)

    def csv_outputs(self):
        d = self.path(self.report_dir)
        return [os.path.join(d, f) for f in sorted(os.listdir(d))]

    def _verify(self):
        wall, op, text = run_cli("verify", ["verify"] + self.args, self.path("verify"))
        if not op.problems:
            check_verify_output(op, text)
        return wall, [op]


class DefaultGrid(Workload):
    """verify, then conjecture, on the paper's default grid
    (64 orders, 121 log-spaced x)."""

    name = "default-grid"
    steps = ("verify", "conjecture")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.x_min = seeded_x_min(seed)
        self.args = grid_args(-1.0, 20.0, 0.25, self.x_min, 121)

    def warm_up(self):
        tiny = grid_args(0.25, 1.5, 0.25, self.x_min, 5)
        run_cli("warm-up", ["verify"] + tiny, self.path("warm"))
        run_cli("warm-up", ["conjecture"] + tiny, self.path("warm.csv"))

    def run_step(self, i):
        if i == 0:
            return self._verify()
        wall, op, text = run_cli("conjecture", ["conjecture"] + self.args,
                                 self.path("conjecture.csv"))
        if not op.problems:
            check_conjecture_output(op, text)
        return wall, [op]

    def points(self):
        g = verify.default_grid(x_lo=self.x_min)
        return [(nu, x) for nu in g.nu_values for x in g.x_values]


class DenseHalfInt(Workload):
    """verify on 20 half-integer orders x 1001 x, then the library
    monotone suite (one OracleTable, then every registered claim)."""

    name = "dense-halfint"
    steps = ("verify", "monotone")
    repeats = (1, 3)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.x_min = seeded_x_min(seed)
        self.args = grid_args(0.5, 19.5, 1.0, self.x_min, 1001)
        self.grid = verify.Grid(tuple(0.5 + k for k in range(20)),
                                tuple(np.geomspace(self.x_min, X_MAX, 1001)))

    def warm_up(self):
        run_cli("warm-up", ["verify"] + grid_args(0.5, 2.5, 1.0, self.x_min, 5),
                self.path("warm"))
        self._monotone(verify.Grid((0.5, 1.5), self.grid.x_values[::250]))

    def _monotone(self, grid):
        """Returns ((rescaled, raw) seconds, [Op]) for one table build and
        every scan."""
        ops, reports = [Op("OracleTable")], []
        watch = Stopwatch().start()
        try:
            table = verify.OracleTable(grid)
            for q in verify.monotone_claims():
                ops.append(Op("scan_monotone " + q))
                reports.append(verify.scan_monotone(q, grid=grid, table=table))
        except Exception as exc:
            ops[-1].problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            wall = watch.stop()
        if not ops[0].problems:
            errors = [r.nu for r in table.rows.values() if r.error is not None]
            ops[0].check(not errors, f"oracle rows failed at nu={errors}")
        for op, rep in zip(ops[1:], reports):
            op.check(not rep.violations, f"{len(rep.violations)} violations")
            op.check(not rep.oracle_failures,
                     f"{len(rep.oracle_failures)} oracle failures")
            op.fingerprint = "%d %d %d %.17g" % (
                rep.points_checked, rep.skipped, len(rep.violations), rep.worst_margin)
        return wall, ops

    def run_step(self, i):
        return self._verify() if i == 0 else self._monotone(self.grid)

    def points(self):
        return [(nu, x) for nu in self.grid.nu_values for x in self.grid.x_values]


class Pointwise(Workload):
    """sharpness, then a seeded batch of 100 explore trajectories."""

    name = "pointwise"
    steps = ("sharpness", "explore")
    repeats = (5, 1)
    report_dir = "sharpness"
    SAMPLES = 100

    def _explore(self, label, sample):
        return run_cli(label, ["explore", "--a", "0", "--nu", "2", "--x0", "1",
                               "--x-min", "0.05", "--x-max", "30",
                               "--sample", str(sample), "--seed", str(self.seed)],
                       self.path("explore.csv"))

    def warm_up(self):
        run_cli("warm-up", ["sharpness"], self.path("warm"))
        self._explore("warm-up", 2)

    def run_step(self, i):
        if i == 0:
            wall, op, text = run_cli("sharpness", ["sharpness"], self.path("sharpness"))
            if not op.problems:
                passed = sum(1 for ln in text.splitlines() if ": PASS " in ln)
                n = len(verify.SHARPNESS_EXPECTED)
                op.check(passed == n, f"{passed}/{n} sharpness cases PASS")
        else:
            wall, op, text = self._explore("explore", self.SAMPLES)
            if not op.problems:
                good = len(re.findall(r"^sample \d+: .*class=has-interior-extremum",
                                      text, re.M))
                op.check(good == self.SAMPLES,
                         f"{good}/{self.SAMPLES} samples class=has-interior-extremum")
        return wall, [op]

    def points(self):
        """The (nu, x) of every sharpness battery row."""
        pts = []
        for path in self.csv_outputs():
            with open(path) as fh:
                next(fh)
                pts += [tuple(float(v) for v in ln.split(",")[1:3]) for ln in fh]
        return pts


WORKLOADS = {w.name: w for w in (DefaultGrid, DenseHalfInt, Pointwise)}
