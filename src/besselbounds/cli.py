"""Command-line front end.

Subcommands: ``tabulate`` (oracle/bound table as CSV), ``verify`` (scan the
whole claim catalog), ``sharpness`` (fit error orders against the expected
constants), ``conjecture`` (map s = 1/(4P**2) - x**2 - nu**2), ``explore``
(integrate one rescaled-Riccati trajectory, or a seeded random batch).

Configuration precedence: command-line flags > ``--config`` key=value file
> built-in defaults.  Exit codes: 0 success, 1 claim violation, 2 usage
error, 3 oracle failure rate above 1%.  All CSV output uses '.' decimals,
17 significant digits and LF line endings so runs diff cleanly.

``verify --out`` writes its claim CSVs in shares, one per usable CPU but
none under MIN_SHARE_VOLUME grid points x claims: a forked child per share
but the first scans and writes its claims, while this process scans and
prints every claim in catalog order and writes the first share, so stdout
and exit codes are those of one process.  With one share (one CPU, a small
grid, no ``os.fork``) the same loop runs with no child.
"""

import argparse
import contextlib
import functools
import math
import os
import pickle
import re
import sys
from dataclasses import Field, dataclass, field, fields
from typing import List, Optional, Sequence, Tuple, get_args

import numpy as np

from . import nullclines as nc
from . import oracle
from . import riccati_lab
from . import verify
from .errors import BesselBoundsError, DomainError, EvaluationError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3

ORACLE_FAILURE_LIMIT = 0.01      # above this failure fraction -> exit 3
# Largest |order| accepted: the K ladder takes one vectorised step per unit
# of order, so a huge order must fail fast instead of running for minutes.
NU_LIMIT = 1.0e4
# Largest --sample, checked before any list is built: a run past it would
# hang or run out of memory instead of failing fast with exit 2 (the grid's
# limit is verify.GRID_LIMIT).
SAMPLE_LIMIT = 10_000
# Largest explore window edge: trajectory steps stay near 5.5 in x far from
# the origin, so cost grows in proportion to x_max and a far edge must fail
# fast with exit 2 instead of running until it is killed.
EXPLORE_X_LIMIT = 1.0e4
# Largest argument the grid commands accept: the first-kind ladder starts
# about 6*sqrt(x) steps above its anchor, twice that where the first
# bracket stays too wide, so a lone point at 1e6 costs about 0.1 s, and
# from about 3e10 it passes oracle.I_MAX_DEPTH.
X_LIMIT = 1.0e6
# Fewest grid points x claims a verify CSV share holds: below it, forking
# a process to write the share costs more than it saves (see
# BENCH_report_shares.json)
MIN_SHARE_VOLUME = 20_000
_FMT = "%.17g"

_TABULATE_COLUMNS = (
    "nu", "x", "i_ratio", "k_ratio", "product", "U_I", "U_K",
    "lambda_I", "lambda_K", "lambda_O", "w_I", "w_K", "w_O",
    "product_upper", "product_lower_trig",
)


# the subcommands that build a grid, those that also read an order and an
# x window, and all of them
_GRID = ("tabulate", "verify", "conjecture")
_WINDOW = _GRID + ("explore",)
_ALL = _WINDOW + ("sharpness",)


def _option(default, help: str, commands: Tuple[str, ...]):
    """A RunConfig field, the one declaration of an option: its flag is
    ``--`` plus the name with dashes, its config key is the name, its parse
    type is the annotation's (``Optional[T]`` gives T), and ``commands``
    names the subcommands that read it, the only ones that take its flag."""
    return field(default=default, metadata={"help": help, "commands": commands})


@dataclass
class RunConfig:
    """Effective settings for one CLI run (flags merged over config file).
    Every field but ``command`` is an option; a new option is one field."""

    command: str = ""
    nu_min: float = _option(verify.NU_MIN, "lowest order", _GRID)
    nu_max: float = _option(verify.NU_MAX, "highest order", _GRID)
    nu_step: float = _option(verify.NU_STEP, "order step", _GRID)
    x_min: float = _option(verify.X_MIN, "lowest argument", _WINDOW)
    x_max: float = _option(verify.X_MAX, "highest argument", _WINDOW)
    x_points: int = _option(verify.X_POINTS, "log-spaced count", _GRID)
    nu: Optional[float] = _option(None, "single order (overrides the range)", _WINDOW)
    x: Optional[float] = _option(None, "single argument (overrides the range)", _GRID)
    tol: float = _option(verify.DEFAULT_TOL, "violation tolerance", ("verify",))
    out: Optional[str] = _option(None, "output path (tabulate/explore/conjecture: CSV "
                                       "file; verify/sharpness: report directory)", _ALL)
    seed: int = _option(0, "seed for randomized sampling", ("explore",))
    a: float = _option(0.0, "rescaling exponent", ("explore",))
    x0: float = _option(1.0, "initial abscissa", ("explore",))
    y0: Optional[float] = _option(None, "initial value", ("explore",))
    sample: int = _option(0, "also run N seeded-random starts between the principal "
                             "branches", ("explore",))
    corrupt_claim: Optional[str] = _option(
        None, "deliberately corrupt this claim id (self-test hook)", ("verify",))

    def config_lines(self) -> List[str]:
        """The options as key=value lines that read back as this config;
        DomainError for a value that no config line reads back as itself
        (a '#' after whitespace, a line break)."""
        lines = []
        for name in _OPTIONS:
            v = getattr(self, name)
            if v is None:
                continue
            line = "%s=%s" % (name, _FMT % v if isinstance(v, float) else v)
            if "\n" in line or "\r" in line or _config_line(line, 0) != (name, v):
                raise DomainError(f"{name}={v!r} cannot be read back from a config line")
            lines.append(line)
        return lines


_OPTIONS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


def _parse_type(f: Field) -> type:
    return next(iter(get_args(f.type)), f.type)


def _config_line(raw: str, ln: int) -> Optional[tuple]:
    """(key, value) of config line ``ln``, None if it holds no setting.  A
    '#' at the start of the line or after whitespace starts a comment;
    unknown keys are rejected."""
    line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise DomainError(f"config line {ln}: expected key=value, got {raw!r}")
    key, _, txt = line.partition("=")
    key = key.strip().replace("-", "_")
    if key not in _OPTIONS:
        raise DomainError(f"config line {ln}: unknown key {key!r}")
    txt = txt.strip()
    try:
        return key, _parse_type(_OPTIONS[key])(txt)
    except ValueError:
        raise DomainError(f"config line {ln}: bad value for {key}: {txt!r}")


def _read_config_file(path: str) -> dict:
    """Flat key=value text, one ``_config_line`` per line."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}")
    settings = (_config_line(raw, ln) for ln, raw in enumerate(lines, start=1))
    return dict(item for item in settings if item is not None)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values = _read_config_file(args.config) if args.config else {}
    values.update((name, v) for name, v in vars(args).items()
                  if name in _OPTIONS and v is not None)     # flags win over the file
    cfg = RunConfig(command=args.command, **values)
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
    if cfg.sample < 0:
        raise DomainError(f"sample must be non-negative, got {cfg.sample!r}")
    if cfg.sample > SAMPLE_LIMIT:
        raise DomainError(f"sample must not exceed {SAMPLE_LIMIT}, got {cfg.sample!r}")
    if cfg.command not in _GRID:
        return cfg
    # the sizes _grid_axes would build, with an empty axis as 1
    n_nu = 1.0
    if cfg.nu is None and cfg.nu_step > 0 and cfg.nu_max >= cfg.nu_min:
        n_nu = (cfg.nu_max - cfg.nu_min) / cfg.nu_step + 1.0
    limit = verify.GRID_LIMIT
    n_x = 1 if cfg.x is not None else min(max(cfg.x_points, 1), limit + 1)
    if n_nu * n_x > limit:
        raise DomainError(f"grid must hold at most {limit} orders x arguments")
    return cfg


def _grid_axes(cfg: RunConfig) -> Tuple[List[float], np.ndarray]:
    """(orders, arguments) of a grid command: `verify.ranged_orders` over
    the configured range, or --nu, which bypasses the integer exclusion;
    --x or the log-spaced range.  Repeated orders (an order step below the
    float spacing) are refused, since tabulate splits long rows into
    one-order tables that no `verify.Grid` check would see; so are orders
    below -1, where the oracle is undefined (one oracle call serves a whole
    table, so one such order would fail every row), and arguments above
    X_LIMIT."""
    nus = [cfg.nu] if cfg.nu is not None else verify.ranged_orders(
        cfg.nu_min, cfg.nu_max, cfg.nu_step)
    xs = np.array([cfg.x]) if cfg.x is not None else np.geomspace(
        cfg.x_min, cfg.x_max, max(cfg.x_points, 0))
    if len(set(nus)) < len(nus):
        raise DomainError("orders must be distinct; the order step is below "
                          "the spacing of floats there")
    if min(nus, default=-1.0) < -1.0:
        raise DomainError(f"orders must be >= -1, got {min(nus):g}")
    if xs.max(initial=X_LIMIT) > X_LIMIT:
        raise DomainError(f"arguments must not exceed {X_LIMIT:g}, got {xs.max():g}")
    return nus, xs


@contextlib.contextmanager
def _open_out(cfg: RunConfig):
    """The --out file, closed on exit, or stdout, left open."""
    if cfg.out is None:
        yield sys.stdout
    else:
        with open(cfg.out, "w", newline="") as fh:
            yield fh


def _verdict(violated: bool, failures: int, attempted: int) -> int:
    """The exit code of a run: 1 on a violation, else 3 (with an ``oracle
    failures`` line) when oracle failures exceed 1% of the points
    attempted, else 0."""
    if violated:
        return EXIT_VIOLATION
    if failures and failures / attempted > ORACLE_FAILURE_LIMIT:
        print(f"oracle failures: {failures}/{attempted}", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_tabulate(cfg: RunConfig) -> int:
    nus, xs = _grid_axes(cfg)
    with _open_out(cfg) as stream:
        stream.write(",".join(_TABULATE_COLUMNS) + "\n")
        if not nus or not len(xs):
            return EXIT_OK
        failures = 0
        # one oracle table per CSV block: whole rows of a few orders, or one
        # x-block of a long row (no oracle value at x depends on the other
        # points of its table), so memory stays bounded as rows grow; the
        # closed forms take the table's orders as a column against its x row
        size = verify.SCAN_BLOCK_POINTS
        per = max(1, size // len(xs))
        for first in range(0, len(nus), per):
            for lo in range(0, len(xs), size):
                table = verify.OracleTable(verify.Grid(tuple(nus[first:first + per]),
                                                       tuple(xs[lo:lo + size])))
                nu, x = np.array(table.grid.nu_values).reshape(-1, 1), table.xs
                oracle_cols = np.full((3, len(nu), len(x)), math.nan)
                for i, row_nu in enumerate(table.grid.nu_values):
                    try:
                        oracle_cols[:, i] = [table.block(q, [row_nu])[0][0] for q in ("Phi0", "Phi1", "P")]
                    except (DomainError, EvaluationError):
                        failures += len(x)
                lam_k, lam_o, lam_i, _, _, *w_levels = nc.cubic_levels(nu, x)
                columns = [nu, x, *oracle_cols, nc.TRIG_I.formula(nu, x), nc.TRIG_K.formula(nu, x),
                           lam_i, lam_k, lam_o, *w_levels,
                           nc.PRODUCT_FORMS["upper"].formula(nu, x),
                           nc.PRODUCT_FORMS["lower_trig"].formula(nu, x)]
                verify.write_csv_rows(stream, np.column_stack(
                    [np.broadcast_to(c, (len(nu), len(x))).ravel() for c in columns]))
        return _verdict(False, failures, len(nus) * len(xs))


def _claim_filename(claim_id: str) -> str:
    return claim_id.replace("[", "-").replace("]", "") + ".csv"


def _report_shares(volume: int) -> int:
    """How many processes write verify's claim CSVs: one per usable CPU,
    but no more than leave each share MIN_SHARE_VOLUME grid points x
    claims, and one where the platform cannot fork or name its usable
    CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), volume // MIN_SHARE_VOLUME))


def _fork_share(claims: range, run) -> Tuple[int, int]:
    """Fork a process that calls ``run(k)`` for each claim index k in
    ``claims`` and ends in ``os._exit``: status 0, or 1 after it sends
    (k, exception) of a failed claim, pickled, down a pipe.  Returns the
    child's pid and the pipe's read end."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(wfd)
        return pid, rfd
    k = claims.start
    try:
        os.close(rfd)
        for k in claims:
            run(k)
        os._exit(0)
    except BaseException as exc:
        with os.fdopen(wfd, "wb") as fh:
            fh.write(pickle.dumps((k, exc)))
    finally:
        os._exit(1)


def _reap_shares(children, last: int) -> List[tuple]:
    """Wait for every share process; (claim index, exception) of each that
    failed.  One that ended nonzero with no message counts as failing
    after the ``last`` claim index, with a ChildProcessError."""
    ends = []
    for pid, rfd in children:
        with os.fdopen(rfd, "rb") as fh:
            msg = fh.read()
        ends.append((msg, os.waitpid(pid, 0)[1]))
    return [pickle.loads(msg) if msg else
            (last, ChildProcessError("a process writing claim CSVs ended with status "
                                     f"{os.waitstatus_to_exitcode(status)} and no message"))
            for msg, status in ends if msg or status]


def cmd_verify(cfg: RunConfig) -> int:
    nus, xs = _grid_axes(cfg)
    bad = None if cfg.corrupt_claim is None else verify.corrupt_claim(cfg.corrupt_claim)
    if not nus or not len(xs):
        if bad is not None:
            raise DomainError(f"corrupting claim {cfg.corrupt_claim!r} tests nothing on an "
                              "empty grid")
        for cid in verify.bound_claims():
            print(f"{cid}: WARNING 0 points (empty grid)")
        return EXIT_OK
    grid = verify.Grid(tuple(nus), tuple(xs))
    table = verify.OracleTable(grid)
    # the corrupted claim is scanned first: a corruption that makes no
    # violation on the grid tests nothing, so it is a usage error, as an
    # unknown claim id is; a bound that is 0 at every checked point, whose
    # relative shift is 0, gets its own message
    bad_rep = None if bad is None else verify.scan_bound(bad, tol=cfg.tol, table=table)
    if bad_rep is not None and not bad_rep.violations:
        why = (f"makes no violation on this grid (worst margin {bad_rep.worst_margin:.3g})"
               if np.any(bad_rep.rows[:, 2]) else "changes no bound value checked on this grid")
        raise DomainError(f"corrupting claim {cfg.corrupt_claim!r} {why}")
    text = None
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
        text = verify.CsvText(grid.nu_values, grid.x_values)
    cids = verify.bound_claims()
    shares = 1 if text is None else _report_shares(len(cids) * len(nus) * len(xs))

    def scan(k):
        cid = cids[k]
        return bad_rep if cfg.corrupt_claim == cid else verify.scan_bound(
            verify.get_claim(cid), tol=cfg.tol, table=table)

    def write(rep):
        verify.write_report_csv(rep, os.path.join(cfg.out, _claim_filename(rep.claim_id)), text)

    # share i > 0 is a forked process that scans and writes claims i,
    # i + shares, ...; this process writes share 0 but scans and prints
    # every claim, in catalog order, grouped by the oracle quantity they
    # bound; that sets only the order of the lines printed, and every CSV
    # shares the one order and x text
    children, failing, errors = [], [], []
    points = failures = k = 0
    try:
        for i in range(1, shares):
            children.append(_fork_share(range(i, len(cids), shares), lambda j: write(scan(j))))
        for k in range(len(cids)):
            rep = scan(k)
            points += rep.points_checked
            failures += len(rep.oracle_failures)
            extra = f" oracle_failures={len(rep.oracle_failures)}" if rep.oracle_failures else ""
            if rep.points_checked == 0:
                print(f"{rep.claim_id}: WARNING 0 points{extra}")
            else:
                print(f"{rep.claim_id}: {'OK' if rep.ok() else 'VIOLATION'} "
                      f"points={rep.points_checked} violations={len(rep.violations)} "
                      f"worst_margin={_FMT % rep.worst_margin}{extra}")
            if not rep.ok():
                failing.append(rep.claim_id)
            if text is not None and k % shares == 0:
                write(rep)
    except Exception as exc:
        errors.append((k, exc))
    finally:
        errors += _reap_shares(children, len(cids))
    if errors:
        # the error a one-process run meets first: the earliest claim's
        raise min(errors, key=lambda e: e[0])[1]
    if failing:
        print("failing claims: " + ", ".join(failing))
    return _verdict(bool(failing), failures, points + failures)


def cmd_sharpness(cfg: RunConfig) -> int:
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
    reports = verify.sharpness_battery()
    # one CsvText over the battery's grid serves every case's CSV
    text = verify.CsvText(verify.SHARPNESS_GRID.nu_values, verify.SHARPNESS_GRID.x_values)
    bad, unfittable = False, 0
    for rep, (_, exp_k, exp_c) in zip(reports, verify.SHARPNESS_EXPECTED):
        if rep.fitted is None:
            msgs = "; ".join(m for _, _, m in rep.oracle_failures)
            print(f"{rep.claim_id}: UNFITTABLE ({msgs})")
            unfittable += 1
            continue
        k, c = rep.fitted
        ok = bool(rep.stats["fit_ok"])
        bad = bad or not ok
        print(f"{rep.claim_id}: {'PASS' if ok else 'FAIL'} "
              f"exponent={k:.4f} (expected {exp_k:g} +-{verify.SHARPNESS_TOL_EXPONENT:g}) "
              f"coefficient={c:.6g} (expected {exp_c:.6g} "
              f"+-{100.0 * verify.SHARPNESS_TOL_COEFFICIENT:g}%)")
        if cfg.out is not None:
            verify.write_report_csv(rep, os.path.join(cfg.out, _claim_filename(rep.claim_id)),
                                    text)
    return _verdict(bad, unfittable, len(verify.SHARPNESS_EXPECTED))


def cmd_conjecture(cfg: RunConfig) -> int:
    nus, xs = _grid_axes(cfg)
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
    # a margin within the estimate of s is roundoff, not a sign either way
    margin, note = st["margin_conjectured_cap"], "reported, not gated"
    if abs(margin) <= st["sup_s_est"]:
        note = f"undecided within estimate {_FMT % st['sup_s_est']}, {note}"
    print(f"margin to conjectured cap 1/5: {_FMT % margin} ({note})")
    if cfg.out is not None:
        verify.write_report_csv(rep, cfg.out, verify.CsvText(grid.nu_values, grid.x_values))
    if rep.violations:
        print(f"violations of the proved cap: {len(rep.violations)}")
    failures = len(rep.oracle_failures)
    return _verdict(bool(rep.violations), failures, rep.points_checked + failures)


def cmd_explore(cfg: RunConfig) -> int:
    x_lo, x_hi = cfg.x_min, cfg.x_max
    if not (0 < x_lo < cfg.x0 < x_hi):
        raise DomainError(f"explore needs x_min < x0 < x_max, got ({x_lo}, {cfg.x0}, {x_hi})")
    if x_hi > EXPLORE_X_LIMIT:
        raise DomainError(f"explore needs x_max <= {EXPLORE_X_LIMIT:g}, got {x_hi}")
    if cfg.y0 is None and cfg.sample <= 0:
        raise DomainError("explore needs --y0 or --sample N")

    nu = cfg.nu if cfg.nu is not None else 0.5
    starts: List[Tuple[int, float]] = []
    if cfg.y0 is not None:
        starts.append((0, cfg.y0))
    if cfg.sample > 0:
        # seeded uniform draws strictly inside the two principal branches
        lo, hi = (float(ratio_row(nu, [cfg.x0])[0][0])
                  for ratio_row in (oracle.k_ratio_row, oracle.i_ratio_row))
        from . import pcg64     # loaded only when there are draws to make
        try:
            scale = cfg.x0 ** (-cfg.a)
        except OverflowError:       # each start then fails check_start below
            scale = math.inf
        for k, t in enumerate(pcg64.uniform(cfg.seed, 0.02, 0.98, cfg.sample)):
            starts.append((k + 1, scale * (lo + t * (hi - lo))))

    errors = {}
    for tag, y0 in starts:
        try:
            riccati_lab.check_start(y0)
        except DomainError as exc:
            errors[tag] = exc
    # every valid start is a lane of one batched integration
    valid = [tag for tag, _ in starts if tag not in errors]
    trajs = dict(zip(valid, riccati_lab.solve_riccati(
        cfg.a, nu, cfg.x0, np.array([y0 for tag, y0 in starts if tag not in errors]),
        x_lo, x_hi)))
    with _open_out(cfg) as stream:
        summary = sys.stderr if stream is sys.stdout else sys.stdout
        stream.write("sample,x,y\n")
        verify.write_samples(stream, {tag: traj.samples for tag, traj in trajs.items()})
        for tag, y0 in starts:
            if tag in errors:
                print(f"sample {tag}: y0={_FMT % y0} error: {errors[tag]}", file=summary)
                continue
            traj = trajs[tag]
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

# subcommand -> (function, help)
_COMMANDS = {
    "tabulate": (cmd_tabulate, "CSV table of oracle values, bounds and nullcline data"),
    "verify": (cmd_verify, "scan every registered bound claim over the grid"),
    "sharpness": (cmd_sharpness, "fit sharpness error orders against expected constants"),
    "conjecture": (cmd_conjecture, "map s = 1/(4P^2) - x^2 - nu^2 and report its supremum"),
    "explore": (cmd_explore, "integrate rescaled-Riccati trajectories"),
}


def _add_option(parser, f: Field) -> None:
    default = "" if f.default is None else " (default %g)" % f.default
    parser.add_argument("--" + f.name.replace("_", "-"), type=_parse_type(f),
                        help=f.metadata["help"] + default)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves a parser unchanged
    ap = argparse.ArgumentParser(
        prog="besselbounds",
        description="Evaluate, tabulate and verify ratio/product bounds for "
                    "the modified Bessel recurrence flows.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for f in _OPTIONS.values():
            if command in f.metadata["commands"]:
                _add_option(p, f)
        p.add_argument("--config", help="key=value config file (every key, shared by "
                                        "all subcommands)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective config as key=value lines and exit")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        dump = cfg.config_lines() if args.dump_config else None
    except BesselBoundsError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if dump is not None:
        for line in dump:
            print(line)
        return EXIT_OK
    try:
        return _COMMANDS[cfg.command][0](cfg)
    except (BesselBoundsError, OSError) as exc:     # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
