"""Command-line front end.

Subcommands: ``tabulate`` (oracle/bound table as CSV), ``verify`` (scan the
whole claim catalog), ``sharpness`` (fit error orders against the expected
constants), ``conjecture`` (map s = 1/(4P**2) - x**2 - nu**2), ``explore``
(integrate one rescaled-Riccati trajectory, or a seeded random batch).

Configuration precedence: command-line flags > ``--config`` key=value file
> built-in defaults.  Exit codes: 0 success, 1 claim violation, 2 usage
error, 3 oracle failure rate above 1%.  All CSV output uses '.' decimals,
17 significant digits and LF line endings so runs diff cleanly.
"""

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import nullclines as nc
from . import oracle
from . import riccati_lab
from . import verify
from .errors import BesselBoundsError, DomainError, EvaluationError
from .nullclines import EvalPoint

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3

ORACLE_FAILURE_LIMIT = 0.01      # above this failure fraction -> exit 3
# Largest |order| accepted: the K ladder takes one vectorised step per unit
# of order, so a huge order must fail fast instead of running for minutes.
NU_LIMIT = 1.0e4
# Largest orders x arguments a ranged grid may hold, and largest --sample,
# both checked before any list is built: a run past them would hang or run
# out of memory instead of failing fast with exit 2.
GRID_LIMIT = 1_000_000
SAMPLE_LIMIT = 10_000
# Largest explore window edge: trajectory steps stay near 5.5 in x far from
# the origin, so cost grows in proportion to x_max and a far edge must fail
# fast with exit 2 instead of running until it is killed.
EXPLORE_X_LIMIT = 1.0e4
_FMT = "%.17g"

_TABULATE_COLUMNS = (
    "nu", "x", "i_ratio", "k_ratio", "product", "U_I", "U_K",
    "lambda_I", "lambda_K", "lambda_O", "w_I", "w_K", "w_O",
    "product_upper", "product_lower_trig",
)


@dataclass
class RunConfig:
    """Effective settings for one CLI run (flags merged over config file)."""

    command: str = ""
    nu_min: float = -1.0
    nu_max: float = 20.0
    nu_step: float = 0.25
    x_min: float = 1e-3
    x_max: float = 1e3
    x_points: int = 121
    nu: Optional[float] = None       # single-row override, kept verbatim
    x: Optional[float] = None        # single-column override
    tol: float = verify.DEFAULT_TOL
    out: Optional[str] = None
    seed: int = 0
    a: float = 0.0
    x0: float = 1.0
    y0: Optional[float] = None
    sample: int = 0
    corrupt_claim: Optional[str] = None

    def config_lines(self) -> List[str]:
        out = []
        for f in fields(self):
            if f.name == "command":
                continue
            v = getattr(self, f.name)
            if v is None:
                continue
            if isinstance(v, float):
                out.append("%s=%s" % (f.name, _FMT % v))
            else:
                out.append("%s=%s" % (f.name, v))
        return out


def _read_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment; unknown keys rejected."""
    known = {f.name: f for f in fields(RunConfig) if f.name != "command"}
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}")
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {ln}: expected key=value, got {raw!r}")
        key, _, txt = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise DomainError(f"config line {ln}: unknown key {key!r}")
        txt = txt.strip()
        ftype = known[key].type
        try:
            if ftype in ("int", int) or key in ("x_points", "seed", "sample"):
                values[key] = int(txt)
            elif key in ("out", "corrupt_claim"):
                values[key] = txt
            else:
                values[key] = float(txt)
        except ValueError:
            raise DomainError(f"config line {ln}: bad value for {key}: {txt!r}")
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = _read_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            setattr(cfg, f.name, cli_val)
        elif f.name in file_values:
            setattr(cfg, f.name, file_values[f.name])
    if not (math.isfinite(cfg.tol) and cfg.tol >= 0.0):
        # a NaN tolerance would let every comparison pass
        raise DomainError(f"tol must be finite and non-negative, got {cfg.tol!r}")
    for name in ("nu_min", "nu_max", "nu_step", "nu", "x_min", "x_max", "x", "a", "x0", "y0"):
        v = getattr(cfg, name)
        if v is None:
            continue
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
        if name.startswith("x") and v <= 0.0:
            raise DomainError(f"{name} must be positive, got {v!r}")
        if name in ("nu_min", "nu_max", "nu") and abs(v) > NU_LIMIT:
            raise DomainError(f"|{name}| must not exceed {NU_LIMIT:g}, got {v!r}")
    if cfg.seed < 0:
        raise DomainError(f"seed must be non-negative, got {cfg.seed!r}")
    if cfg.sample > SAMPLE_LIMIT:
        raise DomainError(f"sample must not exceed {SAMPLE_LIMIT}, got {cfg.sample!r}")
    # the sizes _nu_list and _x_values would build, with an empty axis as 1
    n_nu = 1.0
    if cfg.nu is None and cfg.nu_step > 0 and cfg.nu_max >= cfg.nu_min:
        n_nu = (cfg.nu_max - cfg.nu_min) / cfg.nu_step + 1.0
    n_x = 1 if cfg.x is not None else min(max(cfg.x_points, 1), GRID_LIMIT + 1)
    if n_nu * n_x > GRID_LIMIT:
        raise DomainError(f"grid must hold at most {GRID_LIMIT} orders x arguments")
    return cfg


def _nu_list(cfg: RunConfig) -> List[float]:
    """`verify.ranged_orders` over the configured range; an explicit --nu
    bypasses the integer exclusion."""
    if cfg.nu is not None:
        return [cfg.nu]
    return verify.ranged_orders(cfg.nu_min, cfg.nu_max, cfg.nu_step)


def _x_values(cfg: RunConfig) -> np.ndarray:
    if cfg.x is not None:
        return np.array([cfg.x])
    return np.geomspace(cfg.x_min, cfg.x_max, max(cfg.x_points, 0))


@contextlib.contextmanager
def _open_out(cfg: RunConfig):
    """The --out file, closed on exit, or stdout, left open."""
    if cfg.out is None:
        yield sys.stdout
    else:
        with open(cfg.out, "w", newline="") as fh:
            yield fh


def _too_many_failures(failures: int, attempted: int) -> bool:
    """The exit-3 rule: oracle failures above 1% of the points attempted."""
    if failures and failures / attempted > ORACLE_FAILURE_LIMIT:
        print(f"oracle failures: {failures}/{attempted}", file=sys.stderr)
        return True
    return False


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_tabulate(cfg: RunConfig) -> int:
    nus, xs = _nu_list(cfg), _x_values(cfg)
    with _open_out(cfg) as stream:
        stream.write(",".join(_TABULATE_COLUMNS) + "\n")
        if not nus or not len(xs):
            return EXIT_OK
        line = ",".join([_FMT] * len(_TABULATE_COLUMNS)) + "\n"
        failures = 0
        # one oracle table per CSV block: whole rows of a few orders, or one
        # x-block of a long row (no oracle value at x depends on the other
        # points of its table), so memory stays bounded as rows grow
        size = verify.CSV_BLOCK_ROWS
        per = max(1, size // len(xs))
        for first in range(0, len(nus), per):
            for lo in range(0, len(xs), size):
                table = verify.OracleTable(verify.Grid(tuple(nus[first:first + per]),
                                                       tuple(xs[lo:lo + size])))
                block_xs = np.asarray(table.grid.x_values)
                for nu in table.grid.nu_values:
                    try:
                        oracle_cols = [table.quantity(q, nu)[0] for q in ("Phi0", "Phi1", "P")]
                    except (DomainError, EvaluationError):
                        oracle_cols = [np.full(len(block_xs), math.nan)] * 3
                        failures += len(block_xs)
                    lam_k, lam_o, lam_i, _, _ = nc.cubic_roots_row(nu, block_xs)
                    verify.write_csv_rows(stream, line, np.column_stack([
                        np.full(len(block_xs), nu), block_xs, *oracle_cols,
                        nc.TRIG_I.formula(nu, block_xs), nc.TRIG_K.formula(nu, block_xs),
                        lam_i, lam_k, lam_o, *nc.w_values_row(nu, block_xs),
                        nc.PRODUCT_FORMS["upper"].formula(nu, block_xs),
                        nc.PRODUCT_FORMS["lower_trig"].formula(nu, block_xs),
                    ]))
        if _too_many_failures(failures, len(nus) * len(xs)):
            return EXIT_ORACLE
        return EXIT_OK


def _claim_filename(claim_id: str) -> str:
    return claim_id.replace("[", "-").replace("]", "") + ".csv"


def cmd_verify(cfg: RunConfig) -> int:
    nus, xs = _nu_list(cfg), _x_values(cfg)
    if not nus or not len(xs):
        for cid in verify.bound_claims():
            print(f"{cid}: WARNING 0 points (empty grid)")
        return EXIT_OK
    grid = verify.Grid(tuple(nus), tuple(xs))
    table = verify.OracleTable(grid)
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
    failing: List[str] = []
    points = failures = 0
    for cid in verify.bound_claims():
        claim = verify.get_claim(cid)
        if cfg.corrupt_claim == cid:
            claim = verify.corrupt_claim(claim)
        rep = verify.scan_bound(claim, tol=cfg.tol, table=table)
        points += rep.points_checked
        failures += len(rep.oracle_failures)
        status = "OK" if rep.ok() else "VIOLATION"
        if not rep.ok():
            failing.append(rep.claim_id)
        extra = ""
        if rep.oracle_failures:
            extra += f" oracle_failures={len(rep.oracle_failures)}"
        if rep.points_checked == 0:
            print(f"{rep.claim_id}: WARNING 0 points{extra}")
        else:
            print(f"{rep.claim_id}: {status} points={rep.points_checked} "
                  f"violations={len(rep.violations)} "
                  f"worst_margin={_FMT % rep.worst_margin}{extra}")
        if cfg.out is not None:
            verify.write_report_csv(
                rep, os.path.join(cfg.out, _claim_filename(rep.claim_id)))
    if failing:
        print("failing claims: " + ", ".join(failing))
        return EXIT_VIOLATION
    if _too_many_failures(failures, points + failures):
        return EXIT_ORACLE
    return EXIT_OK


def cmd_sharpness(cfg: RunConfig) -> int:
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
    bad = False
    for rep, (_, exp_k, exp_c) in zip(verify.sharpness_battery(), verify.SHARPNESS_EXPECTED):
        if rep.fitted is None:
            msgs = "; ".join(m for _, _, m in rep.oracle_failures)
            print(f"{rep.claim_id}: UNFITTABLE ({msgs})")
            continue
        k, c = rep.fitted
        ok = bool(rep.stats["fit_ok"])
        bad = bad or not ok
        print(f"{rep.claim_id}: {'PASS' if ok else 'FAIL'} "
              f"exponent={k:.4f} (expected {exp_k:g} +-{verify.SHARPNESS_TOL_EXPONENT:g}) "
              f"coefficient={c:.6g} (expected {exp_c:.6g} "
              f"+-{100.0 * verify.SHARPNESS_TOL_COEFFICIENT:g}%)")
        if cfg.out is not None:
            verify.write_report_csv(rep, os.path.join(
                cfg.out, _claim_filename(rep.claim_id)))
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_conjecture(cfg: RunConfig) -> int:
    nus, xs = _nu_list(cfg), _x_values(cfg)
    if not nus or not len(xs):
        print("conjecture-scan: WARNING 0 points (empty grid)")
        return EXIT_OK
    grid = verify.Grid(tuple(nus), tuple(xs))
    rep = verify.conjecture_scan(grid=grid)
    st = rep.stats
    print(f"points={rep.points_checked} oracle_failures={len(rep.oracle_failures)}")
    print(f"sup s = {_FMT % st['sup_s']} at (nu={st['sup_s_nu']:g}, "
          f"x={_FMT % st['sup_s_x']})")
    print(f"sup s (verified rows) = {_FMT % st['sup_s_verified']} at "
          f"(nu={st['sup_s_verified_nu']:g}, x={_FMT % st['sup_s_verified_x']})")
    print(f"margin to proved cap 1/3: {_FMT % st['margin_proved_cap']}")
    print(f"margin to conjectured cap 1/5: {_FMT % st['margin_conjectured_cap']}"
          f" (reported, not gated)")
    if cfg.out is not None:
        verify.write_report_csv(rep, cfg.out)
    if rep.violations:
        print(f"violations of the proved cap: {len(rep.violations)}")
        return EXIT_VIOLATION
    failures = len(rep.oracle_failures)
    if _too_many_failures(failures, rep.points_checked + failures):
        return EXIT_ORACLE
    return EXIT_OK


def _explore_band(nu: float, x0: float) -> Tuple[float, float]:
    p = EvalPoint(nu, x0)
    lo = oracle.k_ratio(p).value
    hi = oracle.i_ratio(p).value
    return lo, hi


def cmd_explore(cfg: RunConfig) -> int:
    x_lo, x_hi = cfg.x_min, cfg.x_max
    if not (0 < x_lo < cfg.x0 < x_hi):
        print(f"explore needs x_min < x0 < x_max, got ({x_lo}, {cfg.x0}, {x_hi})",
              file=sys.stderr)
        return EXIT_USAGE
    if x_hi > EXPLORE_X_LIMIT:
        print(f"explore needs x_max <= {EXPLORE_X_LIMIT:g}, got {x_hi}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.y0 is None and cfg.sample <= 0:
        print("explore needs --y0 or --sample N", file=sys.stderr)
        return EXIT_USAGE

    starts: List[Tuple[int, float]] = []
    if cfg.y0 is not None:
        starts.append((0, cfg.y0))
    if cfg.sample > 0:
        # seeded uniform draws strictly inside the two principal branches
        lo, hi = _explore_band(cfg.nu if cfg.nu is not None else 0.5, cfg.x0)
        rng = np.random.default_rng(cfg.seed)
        scale = cfg.x0 ** (-cfg.a)
        for k, t in enumerate(rng.uniform(0.02, 0.98, size=cfg.sample)):
            starts.append((k + 1, scale * (lo + t * (hi - lo))))

    nu = cfg.nu if cfg.nu is not None else 0.5
    errors = {}
    for tag, y0 in starts:
        try:
            riccati_lab.check_start(y0)
        except DomainError as exc:
            errors[tag] = exc
    # every valid start is a lane of one batched integration
    trajs = iter(riccati_lab.solve_riccati(
        cfg.a, nu, cfg.x0, np.array([y0 for tag, y0 in starts if tag not in errors]),
        x_lo, x_hi))
    with _open_out(cfg) as stream:
        summary = sys.stderr if stream is sys.stdout else sys.stdout
        stream.write("sample,x,y\n")
        for tag, y0 in starts:
            if tag in errors:
                print(f"sample {tag}: y0={_FMT % y0} error: {errors[tag]}", file=summary)
                continue
            traj = next(trajs)
            verify.write_csv_rows(stream, "%d,%%.17g,%%.17g\n" % tag, traj.samples)
            note = ""
            if traj.termination == "step-failure":
                note = " termination=step-failure"
            try:
                cls = riccati_lab.classify(traj)
            except DomainError as exc:
                print(f"sample {tag}: y0={_FMT % y0}{note} error: {exc}", file=summary)
                continue
            if traj.blow_up_x is not None:
                note += f" blow_up_x={_FMT % traj.blow_up_x}"
            if traj.extrema:
                pts = "; ".join(f"{kind} at x={_FMT % xm}"
                                for xm, kind in traj.extrema)
                note += f" extrema: {pts}"
            print(f"sample {tag}: y0={_FMT % y0} class={cls.value}{note}",
                  file=summary)
        return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("grid")
    g.add_argument("--nu-min", dest="nu_min", type=float, help="lowest order (default -1)")
    g.add_argument("--nu-max", dest="nu_max", type=float, help="highest order (default 20)")
    g.add_argument("--nu-step", dest="nu_step", type=float, help="order step (default 0.25)")
    g.add_argument("--x-min", dest="x_min", type=float, help="lowest argument (default 1e-3)")
    g.add_argument("--x-max", dest="x_max", type=float, help="highest argument (default 1e3)")
    g.add_argument("--x-points", dest="x_points", type=int, help="log-spaced count (default 121)")
    g.add_argument("--nu", type=float, help="single order (overrides the range)")
    g.add_argument("--x", type=float, help="single argument (overrides the range)")
    common.add_argument("--tol", type=float, help="violation tolerance (default 1e-12)")
    common.add_argument("--out", help="output path (tabulate/explore/conjecture: CSV file; verify/sharpness: report directory)")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, help="seed for randomized sampling (default 0)")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config as key=value lines and exit")

    ap = argparse.ArgumentParser(
        prog="besselbounds",
        description="Evaluate, tabulate and verify ratio/product bounds for "
                    "the modified Bessel recurrence flows.")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("tabulate", parents=[common],
                   help="CSV table of oracle values, bounds and nullcline data")
    pv = sub.add_parser("verify", parents=[common],
                        help="scan every registered bound claim over the grid")
    pv.add_argument("--corrupt-claim", dest="corrupt_claim",
                    help="deliberately corrupt this claim id (self-test hook)")
    sub.add_parser("sharpness", parents=[common],
                   help="fit sharpness error orders against expected constants")
    sub.add_parser("conjecture", parents=[common],
                   help="map s = 1/(4P^2) - x^2 - nu^2 and report its supremum")
    pe = sub.add_parser("explore", parents=[common],
                        help="integrate rescaled-Riccati trajectories")
    pe.add_argument("--a", type=float, help="rescaling exponent (default 0)")
    pe.add_argument("--x0", type=float, help="initial abscissa (default 1)")
    pe.add_argument("--y0", type=float, help="initial value")
    pe.add_argument("--sample", type=int,
                    help="also run N seeded-random starts between the principal branches")
    return ap


_COMMANDS = {
    "tabulate": cmd_tabulate,
    "verify": cmd_verify,
    "sharpness": cmd_sharpness,
    "conjecture": cmd_conjecture,
    "explore": cmd_explore,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except BesselBoundsError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "dump_config", False):
        for line in cfg.config_lines():
            print(line)
        return EXIT_OK
    try:
        return _COMMANDS[cfg.command](cfg)
    except BesselBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
