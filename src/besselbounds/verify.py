"""Grid-scan engine: bounds, monotonicity, sharpness orders, conjecture.

Every bound in the `nullclines.BOUNDS` catalog is registered here as a
claim holding its `nullclines.BoundForm`: a formula, a direction, a
proved order range and the oracle quantity it bounds.  Every scan (bound,
monotone, conjecture) runs the same block loop, `_blocks`, and the same
gate, `_gate`.
A row outside the claim's proved order range is skipped before anything is
fetched, since every proved range depends on the order only.  The other
rows are taken in blocks of whole order rows, at most SCAN_BLOCK_POINTS
points each (one row when a row is longer), and each block is one oracle
fetch, one formula call on its column of orders against the x row and one
2-d gate; every element is computed as in its own row, and report rows
stay in grid order.  A row the oracle cannot serve fails alone, one
failure per point the scan has in that row.  `scan_bound` reports signed
relative margins; a margin is a violation only when it undercuts the
tolerance plus the oracle's own error estimate, so oracle noise cannot
manufacture false counterexamples, and a non-finite margin, gate or oracle
value is counted as an oracle failure, never as a pass.  `scan_monotone`
does the same for forward differences of monotone quantities (oracle rows
or closed-form row functions), `fit_error_order` turns sharpness
measurements into fitted (exponent, coefficient) pairs, and
`conjecture_scan` maps the quantity s = 1/(4 P**2) - x**2 - nu**2 whose
supremum the conjectured product bound caps at 1/5 (proved: 1/3, for
nu >= 0).

All default scans are deterministic: fixed grids, fixed evaluation order,
no randomness.

The package's CSV writers live here too: `write_report_csv` (a scan
report), `write_csv_rows` (a float table) and `write_samples` (explore's
trajectories).  Each hands its blocks of text columns and float values
to `_write_lines`, the one place a CSV line is laid out and the lines are
cut into chunks of CSV_CHUNK_VALUES float values each; a chunk spans as
many blocks as it takes.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from . import g17
from . import nullclines as nc
from .errors import DomainError, EvaluationError, UnfittableError
from .nullclines import EvalPoint
from . import oracle

DEFAULT_TOL = 1.0e-12
MONOTONE_TOL = 1.0e-9
# most (order, x) points a scan evaluates in one numpy pass, and that one
# `tabulate` oracle table holds: a block of whole order rows, or one row
# (tabulate: one x-block of a row) when a row is longer.  Twice as many saved
# no measurable time but held about 1 MiB more of formula temporaries at
# the peak of a 20 x 1,001 verify run
SCAN_BLOCK_POINTS = 4096
# Largest orders x arguments a ranged grid may hold, so also the most
# orders `ranged_orders` builds: checked before any list is built, so a
# huge range fails fast instead of hanging or running out of memory.
GRID_LIMIT = 1_000_000
_TINY = 1.0e-300
# the paper's grid (`default_grid`), and the CLI's default range: orders
# NU_MIN to NU_MAX in steps of NU_STEP, X_POINTS x log-spaced from X_MIN
# to X_MAX
NU_MIN, NU_MAX, NU_STEP = -1.0, 20.0, 0.25
X_MIN, X_MAX, X_POINTS = 1e-3, 1e3, 121


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Scan lattice: distinct finite orders; x finite, positive and ascending."""

    nu_values: Tuple[float, ...]
    x_values: Tuple[float, ...]

    def __post_init__(self):
        nus = tuple(float(v) for v in self.nu_values)
        xs = tuple(float(v) for v in self.x_values)
        if len(xs) == 0 or len(nus) == 0:
            raise DomainError("grid must contain at least one row and column")
        if not all(math.isfinite(v) for v in nus) or len(set(nus)) < len(nus):
            raise DomainError("nu_values must be finite and distinct")
        if (not all(0 < x < math.inf for x in xs)
                or any(b <= a for a, b in zip(xs, xs[1:]))):
            raise DomainError("x_values must be finite, positive and strictly ascending")
        object.__setattr__(self, "nu_values", nus)
        object.__setattr__(self, "x_values", xs)


def ranged_orders(nu_min: float, nu_max: float, nu_step: float) -> List[float]:
    """Orders nu_min + k * nu_step up to nu_max, with the non-negative
    integers dropped (the second-kind small-x series pick up logarithmic
    terms there); empty for a non-positive step or an empty range.  Every
    argument must be finite, and the range may hold at most GRID_LIMIT
    orders."""
    if not all(math.isfinite(v) for v in (nu_min, nu_max, nu_step)):
        raise DomainError("nu_min, nu_max and nu_step must be finite")
    if nu_step <= 0 or nu_max < nu_min:
        return []
    steps = (nu_max - nu_min) / nu_step + 1e-9      # inf where the span overflows
    if not steps < GRID_LIMIT:
        raise DomainError(f"an order range must hold at most {GRID_LIMIT} orders, got "
                          f"({nu_min!r}, {nu_max!r}, {nu_step!r})")
    n = int(math.floor(steps))
    nus = [nu_min + k * nu_step for k in range(n + 1)]
    return [v for v in nus if v < 0.0 or v != round(v)]


def default_grid(x_lo: float = X_MIN) -> Grid:
    """The paper's grid: `ranged_orders` from -1 to 20 in steps of 1/4 (the
    -1 endpoint stays, carried by the reflection path), and 121 x
    log-spaced from x_lo to 1e3."""
    return Grid(tuple(ranged_orders(NU_MIN, NU_MAX, NU_STEP)),
                tuple(np.geomspace(x_lo, X_MAX, X_POINTS)))


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

class ReportBlock(NamedTuple):
    """One block of a report's points, in the grid-block form every scan
    computes them in: ``nus``, a column of k orders (k, 1), and ``xs``, a
    row of m x values (m,), broadcast against each other to the block's
    shape, (k, m).  ``checked`` marks the points checked, and ``cols`` (the
    columns reported between x and the margin: bound and oracle) and
    ``margin`` have the block's shape too.  The block's report rows are its
    checked points in row-major order."""

    nus: np.ndarray
    xs: np.ndarray
    checked: np.ndarray
    cols: tuple
    margin: np.ndarray

    def rows(self) -> np.ndarray:
        return np.column_stack([np.broadcast_to(c, self.checked.shape)[self.checked]
                                for c in (self.nus, self.xs, *self.cols, self.margin)])


@dataclass
class ScanReport:
    """Outcome of one scan; margins are signed relative slack (neg = bad).

    A scan keeps its checked points in ``blocks`` (see ``ReportBlock``), and
    ``points_checked`` and ``worst_margin`` come from them.  ``rows`` is an
    (n, 5) array of (nu, x, bound, oracle, margin) in evaluation order —
    exactly the CSV columns — built anew from the blocks on each read, so
    it always shows the blocks the report holds.  ``fitted`` is set only by
    order-estimation scans.  ``skipped`` counts points outside a claim's
    proved order range; every other point is checked or is an oracle
    failure.  ``unverified`` is always empty; it stays for
    ``perfbench/tracing.py``, which reads its length.
    """

    claim_id: str
    points_checked: int = 0
    violations: List[Tuple[float, float, float]] = field(default_factory=list)
    worst_margin: float = math.nan
    fitted: Optional[Tuple[float, float]] = None
    oracle_failures: List[Tuple[float, float, str]] = field(default_factory=list)
    unverified: List[Tuple[float, float, str]] = field(default_factory=list)
    skipped: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    blocks: List[ReportBlock] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    @property
    def rows(self) -> np.ndarray:
        return np.concatenate([np.empty((0, 5)), *(block.rows() for block in self.blocks)])


# float values per chunk of every CSV writer, so a chunk holds this many
# over its float cells per line: 1,024 report lines, 3,072 explore lines.
# `g17.texts` costs least per value near this size, and a chunk's texts and
# line bytes add nothing to a run's peak memory
CSV_CHUNK_VALUES = 3072


def _write_lines(write, prefix: bytes, count: int, cells, blocks) -> None:
    """Write ``count`` CSV lines, ``prefix`` and then one cell per column:
    the one place a CSV line is laid out.  ``cells`` lists runs of columns
    as (count, width) pairs, the last run the float columns.  ``blocks``
    yields (texts, values): one text array per leading run, (lines,
    cells), and the block's float values, (lines, cells).  The lines are
    cut into chunks of CSV_CHUNK_VALUES // (float cells per line) lines
    each (the last may be short), and a chunk is filled from as many
    blocks as it takes: its lines are one byte matrix, each run one view
    of it, of dtype S{width} and one column per cell, set to the blocks'
    texts and, in the last run, to one ``g17.texts`` call on the chunk's
    values; the matrix is written after one ``translate`` compacts it.
    The matrix is made once, and a block is let go before the next is
    made, so a writer's memory stays one chunk's and one block's."""
    line, starts = bytearray(prefix), []
    for cols, width in cells:
        starts.append(len(line))
        line += (bytes(width) + b",") * cols
    line[-1:] = b"\n"
    n = max(1, min(count, CSV_CHUNK_VALUES // cells[-1][0]))
    raw, values = line * n, np.empty((n, cells[-1][0]))
    # (shape, dtype, buffer, offset, strides): a run's cells of n lines, a view
    views = [np.ndarray((n, cols), "S%d" % width, raw, start, (len(line), width + 1))
             for (cols, width), start in zip(cells, starts)]

    def flush(lines):
        views[-1][:lines] = g17.texts(values[:lines])
        # a whole chunk is compacted with no copy of its bytes first
        write((raw if lines == n else raw[:lines * len(line)]).translate(None, b"\0"))

    filled = 0
    for texts, block in blocks:
        done = 0
        while done < len(block):
            take = min(len(block) - done, n - filled)
            for out, part in zip([*views[:-1], values], [*texts, block]):
                out[filled:filled + take] = part[done:done + take]
            filled, done = filled + take, done + take
            if filled == n:
                flush(n)
                filled = 0
        del texts, block        # before the next block is built
    if filled:
        flush(filled)


def write_csv_rows(stream, rows: np.ndarray) -> None:
    """Write each row of a 2-d float array to a text stream as one CSV
    line, the row's values as %.17g."""
    _write_lines(lambda data: stream.write(data.decode("ascii")), b"", len(rows),
                 [(rows.shape[1], g17.WIDTH)], [((), rows)])


def write_samples(stream, samples: Dict[int, np.ndarray]) -> None:
    """Write each start's samples ({tag: (n, 2) array of (x, y) rows}, in
    order) to a text stream as ``tag,x,y`` lines; the tag cell is as wide
    as the largest tag's text.  The starts share their sample points, so
    the x text comes from one axis over the longest start's x, an x it
    lacks formatted anew.  Consecutive whole starts go to the writer as
    one block, closed once it holds a chunk's CSV_CHUNK_VALUES lines, so
    the tag text and the x lookup run once per block, and no array spans
    more than a chunk and one start."""
    axis = _Axis(max(samples.values(), key=len, default=np.empty((0, 2)))[:, 0])

    def block(group):
        tags, starts = zip(*group)
        rows = np.concatenate(starts)
        tags = np.repeat([b"%d" % tag for tag in tags], [len(start) for start in starts])
        return (tags[:, None], axis.text_of(rows[:, :1])), rows[:, 1:]

    def blocks():
        group, lines = [], 0
        for tag, rows in samples.items():
            group.append((tag, rows))
            lines += len(rows)
            if lines >= CSV_CHUNK_VALUES:
                yield block(group)
                group, lines = [], 0
        if group:
            yield block(group)

    _write_lines(lambda data: stream.write(data.decode("ascii")), b"",
                 sum(len(rows) for rows in samples.values()),
                 [(1, len(b"%d" % max(samples, default=0))), (1, g17.TEXT_WIDTH), (1, g17.WIDTH)],
                 blocks())


class _Axis:
    """Distinct values, sorted, with their text, found again bit for bit."""

    def __init__(self, values):
        values = np.sort(np.asarray(values, dtype=float))
        distinct = np.ones(len(values), dtype=bool)
        distinct[1:] = values[1:] != values[:-1]
        self.values = values[distinct]
        self.text = g17.percent(self.values, g17.TEXT_WIDTH)

    def text_of(self, values) -> np.ndarray:
        """The text of each value, in the values' shape: the axis's own
        where it holds that very float, bit for bit (so 0.0 and -0.0, whose
        text differs, never match), else formatted anew."""
        values = np.asarray(values, dtype=float)
        flat = values.ravel()
        at = np.minimum(np.searchsorted(self.values, flat), len(self.values) - 1)
        text = self.text[at]
        found = self.values[at].view(np.int64) == flat.view(np.int64)
        if not found.all():
            text[~found] = g17.percent(flat[~found], g17.TEXT_WIDTH)
        return text.reshape(values.shape)


class CsvText:
    """%.17g text of the orders and x values that report CSVs over one grid
    share.

    Each order and each x is formatted once and kept compact
    (S{g17.TEXT_WIDTH}, so their report cells are narrow too), not one
    object per value; an order or x off the axes is formatted anew.  Bound,
    oracle and margin are formatted with each report, one ``g17.texts``
    call per chunk of ``_write_lines``.  So a report written through any
    ``CsvText`` has the bytes of per-value formatting, and the text held
    stays the size of the two axes, not of the grid.
    """

    # the cells of a report row, as (count, width) runs: nu, x, then bound,
    # oracle and margin
    CELLS = ((1, g17.TEXT_WIDTH), (1, g17.TEXT_WIDTH), (3, g17.WIDTH))

    def __init__(self, nu_values, x_values):
        self.nu, self.x = _Axis(nu_values), _Axis(x_values)

    def texts(self, blocks: Sequence[ReportBlock]) -> Iterator[tuple]:
        """The ``CELLS`` of report blocks' checked points, a block at a
        time, as ``_write_lines`` takes them: the order and x text, each
        looked up once per block and shared by its points, and the bound,
        oracle and margin values.  It binds no name to them, so none is
        held while the next block is built."""
        for block in blocks:
            checked = block.checked
            yield (tuple(np.broadcast_to(axis.text_of(values), checked.shape)[checked][:, None]
                         for axis, values in ((self.nu, block.nus), (self.x, block.xs))),
                   np.column_stack([col[checked] for col in (*block.cols, block.margin)]))


def write_report_csv(report: ScanReport, path, text: CsvText) -> None:
    """Emit the per-point rows as CSV, from the report's blocks:
    claim_id,nu,x,bound,oracle,margin, every value as %.17g.  The nu and x
    columns come from ``text``, the CsvText the reports over one grid
    share (an order or x off its axes is formatted anew); bound, oracle and
    margin are formatted with the report."""
    blocks = report.blocks
    with open(path, "wb") as fh:
        fh.write(b"claim_id,nu,x,bound,oracle,margin\n")
        _write_lines(fh.write, report.claim_id.encode() + b",",
                     sum(int(np.count_nonzero(b.checked)) for b in blocks),
                     text.CELLS, text.texts(blocks))


# ----------------------------------------------------------------------
# oracle table
# ----------------------------------------------------------------------

@dataclass
class _Row:
    nu: float
    # "Phi0", "Phi0_up" (Phi0 at order nu + 1), "Phi1" -> (values, est_errors)
    ratios: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    k_method: str = ""
    error: Optional[str] = None


class OracleTable:
    """Row cache of oracle ratio values over a grid.

    One ``oracle.i_ratio_rows`` call serves the first-kind rows at every
    order in {nu} and {nu + 1}: one cold ladder run to the anchor orders
    of the whole table, then the ladder down.  One ``oracle.k_ratio_rows``
    call serves all second-kind rows: one seed per order class, then the
    order ladder.  Each call serves many
    rows, so a failure of either marks every row.  Derived quantities come
    from ``oracle.quantity_row`` over the cached ratios, for a block of
    rows at once (``block``; one row is a one-order block).  The ratio
    cubic's levels are solved once per block of orders (``cubic_levels``)
    and kept as long as the table.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.xs = np.asarray(grid.x_values)
        self._levels: Dict[Tuple[float, ...], Tuple[np.ndarray, ...]] = {}
        self.rows: Dict[float, _Row] = {nu: _Row(nu=nu) for nu in grid.nu_values}
        try:
            i_rows = oracle.i_ratio_rows([*self.rows, *(nu + 1.0 for nu in self.rows)], self.xs)
            k_rows = oracle.k_ratio_rows(list(self.rows), self.xs)
        except (DomainError, EvaluationError) as exc:
            for row in self.rows.values():
                row.error = str(exc)
            return
        for nu, row in self.rows.items():
            row.ratios = {"Phi0": i_rows[nu][:2], "Phi0_up": i_rows[nu + 1.0][:2],
                          "Phi1": k_rows[nu][:2]}
            row.k_method = k_rows[nu][2]

    def block(self, qid: str, nus) -> Tuple[np.ndarray, np.ndarray]:
        """(values, est_errors) for one quantity, one row per order of
        ``nus``: each row's ``ratios``, stacked as they are read, handed to
        ``oracle.quantity_row`` with the orders as a column.  Raises
        DomainError for an order not in the table and EvaluationError for
        a row that is unavailable."""
        nus = np.asarray(nus, dtype=float).reshape(-1, 1)
        try:
            rows = [self.rows[nu] for nu in nus[:, 0].tolist()]
        except KeyError as exc:
            raise DomainError(f"order {exc.args[0]} not in table") from None
        for r in rows:
            if r.error is not None:
                raise EvaluationError(f"row nu={r.nu} unavailable: {r.error}")
        return oracle.quantity_row(qid, nus, self.xs, lambda name: tuple(
            np.array(part) for part in zip(*(r.ratios[name] for r in rows))))

    def cubic_levels(self, nus) -> Tuple[np.ndarray, ...]:
        """``nullclines.cubic_levels`` for a column of orders against the
        table's x: solved on the first call for these orders, then read
        again by every cubic-based monotone scan over the table."""
        key = tuple(np.ravel(nus).tolist())
        if key not in self._levels:
            self._levels[key] = nc.cubic_levels(np.reshape(nus, (-1, 1)), self.xs)
        return self._levels[key]


# ----------------------------------------------------------------------
# bound claims
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundClaim:
    """A registered inequality: ``form`` is its closed form, whose
    ``form.formula(nu, xs)`` scans evaluate on a column of orders."""

    claim_id: str
    form: nc.BoundForm

    @property
    def bound_fn(self) -> Callable[[EvalPoint], float]:
        """The claim's bound value at one point."""
        formula = self.form.formula
        return lambda p: float(formula(p.nu, np.array([p.x]))[0])


_BOUND_CLAIMS = {cid: BoundClaim(cid, form) for cid, form in nc.BOUNDS.items()}


def bound_claims() -> Tuple[str, ...]:
    """Registered bound claim ids, catalog order."""
    return tuple(_BOUND_CLAIMS)


def get_claim(claim_id: str) -> BoundClaim:
    try:
        return _BOUND_CLAIMS[claim_id]
    except KeyError:
        raise DomainError(f"unknown bound claim {claim_id!r}") from None


def corrupt_claim(claim: Union[str, BoundClaim], factor: float = 1.001) -> BoundClaim:
    """Deliberately broken copy of a claim, for exercising the violation
    path: upper bounds are tightened below the truth, lower bounds above."""
    if isinstance(claim, str):
        claim = get_claim(claim)
    form = claim.form
    # shift against the bound's own direction regardless of its sign
    sign = -1.0 if form.direction == "upper" else 1.0

    def formula(nu, x):
        values = form.formula(nu, x)
        return values + sign * (np.abs(values) * (factor - 1.0))

    return BoundClaim(claim.claim_id + "[corrupted]", dataclasses.replace(form, formula=formula))


def _table_for(grid: Optional[Grid], table: Optional[OracleTable],
               needed: bool = True) -> Tuple[Grid, Optional[OracleTable]]:
    """The grid a scan sweeps (the table's own, else the paper's) and the
    table serving it, built over that grid when ``needed`` and not given.
    A table serves only its own grid."""
    if grid is not None and table is not None and grid != table.grid:
        raise DomainError("a scan sweeps its table's grid; the grid given differs")
    if grid is None:
        grid = table.grid if table is not None else default_grid()
    if table is None and needed:
        table = OracleTable(grid)
    return grid, table


def _blocks(rep: ScanReport, grid: Grid, holds: Callable[[float], bool],
            fetch: Callable, points: Sequence[float]) -> Iterator[tuple]:
    """The block loop of every scan: (nus, values, est_errors) for blocks
    of the order rows where ``holds(nu)``, in grid order, ``nus`` a column
    and ``values`` one row per order against the grid's x, which the scan
    holds as one array for all its blocks.  ``points`` are the x of the
    scan's points in a row.  A row outside that range adds one skipped
    point per x of ``points`` and is never fetched.  A block whose
    ``fetch(nus)`` raises is fetched again one row at a time, so a row that
    cannot be served fails alone, one oracle failure at each x of
    ``points``."""
    nus = [nu for nu in grid.nu_values if holds(nu)]
    rep.skipped += len(points) * (len(grid.nu_values) - len(nus))
    per = max(1, SCAN_BLOCK_POINTS // len(grid.x_values))
    pending = [nus[first:first + per] for first in range(0, len(nus), per)]
    while pending:
        col = np.array(pending.pop(0)).reshape(-1, 1)
        try:    # catches what fetch raises; the caller's errors never enter here
            yield (col, *fetch(col))
        except (DomainError, EvaluationError) as exc:
            if len(col) > 1:
                pending[:0] = col.tolist()      # one block per row: [[nu], ...]
            else:
                rep.oracle_failures += [(col.item(), x, str(exc)) for x in points]


def _gate(rep: ScanReport, nus: np.ndarray, xs: np.ndarray, slack, scale, est,
          tol: float, finite, cols, gated=True) -> ReportBlock:
    """Gate a block of order rows (``nus`` a column against the x row):
    margin = slack/scale is a violation where it is below -(tol + est/scale)
    and ``gated``.  A point whose oracle values, margin or gate are not
    finite is an oracle failure, never a pass.  Returns the checked points
    as a report block; ``cols`` have the block's shape."""
    with np.errstate(all="ignore"):
        margin = slack / scale
        gate = tol + est / scale
    ok = finite & np.isfinite(margin) & np.isfinite(gate)
    nu_at, x_at = np.broadcast_arrays(nus, xs)
    rep.oracle_failures += [(nu, x, "non-finite margin or gate" if f else "non-finite oracle value")
                            for nu, x, f in zip(nu_at[~ok].tolist(), x_at[~ok].tolist(),
                                                finite[~ok].tolist())]
    bad = ok & gated & (margin < -gate)
    rep.violations += zip(nu_at[bad].tolist(), x_at[bad].tolist(), margin[bad].tolist())
    return ReportBlock(nus, xs, ok, cols, margin)


def _finish(rep: ScanReport, blocks: List[ReportBlock]) -> ScanReport:
    rep.blocks = blocks
    margins = np.concatenate([np.empty(0), *(b.margin[b.checked] for b in blocks)])
    rep.points_checked = len(margins)
    rep.worst_margin = float(margins.min()) if len(margins) else math.nan
    return rep


def scan_bound(claim: Union[str, BoundClaim], grid: Optional[Grid] = None,
               tol: float = DEFAULT_TOL,
               table: Optional[OracleTable] = None) -> ScanReport:
    """Sweep one bound claim over the grid, a block of order rows at a time.

    A point is a violation when its signed relative margin is below
    -(tol + est_error/|oracle|).  A row is checked exactly when the
    claim's proved order range holds there, negative orders included, and
    skipped before any oracle fetch otherwise; oracle failures are
    collected, not raised, and a non-finite oracle value, margin or gate
    is one.
    """
    if isinstance(claim, str):
        claim = get_claim(claim)
    grid, table = _table_for(grid, table)
    rep = ScanReport(claim_id=claim.claim_id)
    blocks = []
    xs = table.xs
    for nus, vals, ests in _blocks(rep, grid, claim.form.proved.holds,
                                   lambda nus: table.block(claim.form.target, nus), grid.x_values):
        bound = claim.form.formula(nus, xs)
        with np.errstate(all="ignore"):
            slack = bound - vals if claim.form.direction == "upper" else vals - bound
        blocks.append(_gate(rep, nus, xs, slack, np.maximum(np.abs(vals), _TINY),
                            ests, tol, np.isfinite(vals), (bound, vals)))
    return _finish(rep, blocks)


# ----------------------------------------------------------------------
# monotone claims
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneClaim:
    quantity: str
    expected: str                       # "increasing" or "decreasing"
    proved: nc.OrderRange = nc.ALL_NU
    # function (nu, xs) -> values for closed-form quantities, broadcast over
    # a column of orders; None: the quantity is one of nc.CUBIC_LEVELS, the
    # levels of the ratio cubic, or else an oracle-table row
    closed_form: Optional[Callable[[float, np.ndarray], np.ndarray]] = None


def _gamma_hat(branch: int, a: float):
    return lambda nu, x: nc.gamma_hat_row(a, nu, x)[branch]


_MONOTONE_CLAIMS: Dict[str, MonotoneClaim] = {c.quantity: c for c in [
    MonotoneClaim("P", "decreasing", nc.NU_GE_M1),
    MonotoneClaim("xP", "increasing", nc.NU_GE_HALF),
    MonotoneClaim("Phi0", "decreasing", nc.NU_GE_HALF),
    MonotoneClaim("xPhi0", "increasing", nc.NU_GE_M1),
    MonotoneClaim("Phi1", "decreasing", nc.OrderRange(0.5, True, "nu > 1/2")),
    MonotoneClaim("W_I", "increasing", nc.NU_GE_0),
    MonotoneClaim("W_K", "decreasing", nc.NU_GE_0),
    # levels of the ratio cubic: one solve per order block of a table
    # serves all six
    MonotoneClaim("w_I", "increasing"),
    MonotoneClaim("w_K", "decreasing"),
    MonotoneClaim("w_O", "increasing"),
    MonotoneClaim("lambda_I", "increasing"),
    MonotoneClaim("lambda_K", "decreasing"),
    MonotoneClaim("lambda_O", "increasing"),
    # nullcline branches with one-signed slope: |a| >= 1 is extremum-free;
    # 0 < |a| < 1 is monotone when the interior extremum abscissa is
    # non-positive
    MonotoneClaim("gamma-hat-plus[a=1]", "decreasing", closed_form=_gamma_hat(0, 1.0)),
    MonotoneClaim("gamma-hat-plus[a=-1]", "increasing", closed_form=_gamma_hat(0, -1.0)),
    MonotoneClaim("gamma-hat-plus[a=2]", "decreasing", closed_form=_gamma_hat(0, 2.0)),
    MonotoneClaim("gamma-hat-plus[a=-2]", "increasing", closed_form=_gamma_hat(0, -2.0)),
    MonotoneClaim("gamma-hat-minus[a=1]", "increasing", closed_form=_gamma_hat(1, 1.0)),
    MonotoneClaim("gamma-hat-minus[a=-1]", "decreasing", closed_form=_gamma_hat(1, -1.0)),
    MonotoneClaim("gamma-hat-plus[a=0.5]", "decreasing",
                  nc.OrderRange(0.75, False, "nu >= 3/4"), _gamma_hat(0, 0.5)),
    MonotoneClaim("gamma-hat-plus[a=-0.5]", "increasing",
                  nc.OrderRange(-math.inf, False, "nu <= 1/4", 0.25), _gamma_hat(0, -0.5)),
]}


def monotone_claims() -> Tuple[str, ...]:
    return tuple(_MONOTONE_CLAIMS)


def scan_monotone(quantity: str, grid: Optional[Grid] = None, tol: float = MONOTONE_TOL,
                  table: Optional[OracleTable] = None) -> ScanReport:
    """Forward-difference monotonicity check along x for each order row,
    a block of rows at a time.

    Margin for one difference is its signed step (oriented so that the
    expected direction is positive) divided by the larger neighbour
    magnitude; violations must beat tol plus the two oracle estimates
    (4 eps |value| for closed forms).  CSV rows are
    (nu, x_left, next_value, value, margin).  A level of the ratio cubic
    is read from the table's ``cubic_levels``, so the six cubic claims
    share one solve per order block; with no table given it is solved
    here and no oracle table is built.
    """
    try:
        claim = _MONOTONE_CLAIMS[quantity]
    except KeyError:
        raise DomainError(f"unknown monotone quantity {quantity!r}") from None
    level = nc.CUBIC_LEVELS.index(quantity) if quantity in nc.CUBIC_LEVELS else None
    grid, table = _table_for(grid, table, needed=claim.closed_form is None and level is None)
    xs = np.asarray(grid.x_values) if table is None else table.xs

    def fetch(nus):
        if level is not None:
            vals = (nc.cubic_levels(nus, xs) if table is None else table.cubic_levels(nus))[level]
        elif claim.closed_form is not None:
            vals = claim.closed_form(nus, xs)
        else:
            return table.block(quantity, nus)
        return vals, 4.0 * nc.EPS * np.abs(vals)

    rep = ScanReport(claim_id=f"monotone-{quantity}-{claim.expected}")
    sign = 1.0 if claim.expected == "increasing" else -1.0
    blocks = []
    for nus, vals, ests in _blocks(rep, grid, claim.proved.holds, fetch, grid.x_values[:-1]):
        v0, v1 = vals[:, :-1], vals[:, 1:]
        with np.errstate(all="ignore"):
            slack = sign * (v1 - v0)
        blocks.append(_gate(rep, nus, xs[:-1], slack,
                            np.maximum(np.maximum(np.abs(v0), np.abs(v1)), _TINY),
                            ests[:, :-1] + ests[:, 1:], tol,
                            np.isfinite(v0) & np.isfinite(v1), (v1, v0)))
    return _finish(rep, blocks)


# ----------------------------------------------------------------------
# sharpness fits
# ----------------------------------------------------------------------

def relative_error(bound, oracle_value, direction: str):
    """Signed relative accuracy of a bound against a positive reference,
    on scalars or arrays: bound/oracle - 1 for an upper bound, 1 -
    bound/oracle for a lower one.  Either is positive exactly when the
    bound is on the correct side.
    """
    if direction not in ("upper", "lower"):
        raise DomainError(f"unknown direction {direction!r}")
    ratio = bound / oracle_value
    return ratio - 1.0 if direction == "upper" else 1.0 - ratio


def fit_error_order(samples: Sequence[Tuple[float, float]],
                    noise_floor: Union[float, Sequence[float]] = 0.0
                    ) -> Tuple[float, float]:
    """Least-squares (exponent, coefficient) of eps ~ C * scale**k.

    Needs at least 3 positive samples spanning at least half a decade in
    the scaling variable; a scale that is not finite and positive is a
    DomainError.  A sample whose eps is not positive and finite (a NaN
    included) makes the fit unfittable, and so does one not above its
    ``noise_floor`` (scalar or per-sample: the level below which eps is
    oracle noise; a NaN floor included).
    """
    if len(samples) < 3:
        raise UnfittableError(f"need >= 3 samples, got {len(samples)}")
    scales = np.array([s for s, _ in samples], dtype=float)
    eps = np.array([e for _, e in samples], dtype=float)
    if not np.all((scales > 0) & (scales < np.inf)):
        raise DomainError("scaling variable must be finite and positive")
    if not np.all(eps > 0):
        raise UnfittableError("relative error not positive in samples")
    if not np.all(eps < np.inf):
        raise UnfittableError("relative error not finite in samples")
    floors = np.broadcast_to(np.asarray(noise_floor, dtype=float), eps.shape)
    if not np.all(eps > floors):    # a NaN floor is never below eps
        raise UnfittableError("samples at or below the oracle noise floor")
    span = math.log10(scales.max() / scales.min())
    if span < 0.5:
        raise UnfittableError(f"need >= 0.5 decades of scale, got {span:.3g}")
    A = np.column_stack([np.log(scales), np.ones_like(scales)])
    coef, *_ = np.linalg.lstsq(A, np.log(eps), rcond=None)
    return float(coef[0]), float(math.exp(coef[1]))


# fit gates: absolute on the exponent, relative on the coefficient
SHARPNESS_TOL_EXPONENT = 0.15
SHARPNESS_TOL_COEFFICIENT = 0.10
# sample points as (orders, xs), every order at every x: x scales at
# nu = 1, nu scales at x = 1
_LARGE_X = ((1.0,), (25.0, 50.0, 100.0, 200.0))
_SMALL_X = ((1.0,), (0.02, 0.04, 0.08, 0.16))
_LARGE_NU = ((10.0, 20.0, 40.0), (1.0,))
_TRIG_I, _TRIG_K, _TRIG_P = (_BOUND_CLAIMS[c] for c in
                             ("trig-upper-I", "trig-upper-K", "product-lower-trig"))
# (case id, bound claim, regime, (orders, xs), expected exponent, expected
# coefficient): the relative error of the claim's bound against its oracle
# target, and the sharpness constants its fit must reproduce
_SHARPNESS_CASES = (
    ("sharpness-I-large-x", _TRIG_I, "large-x", _LARGE_X, -2.0, 0.25),
    ("sharpness-I-small-x", _TRIG_I, "small-x", _SMALL_X, 4.0, 1.0 / 192.0),
    ("sharpness-I-large-nu", _TRIG_I, "large-nu", _LARGE_NU, -6.0, 0.125),
    ("sharpness-K-large-x", _TRIG_K, "large-x", _LARGE_X, -2.0, 0.25),
    ("sharpness-K-large-nu", _TRIG_K, "large-nu", _LARGE_NU, -4.0, 0.5),
    ("sharpness-P-large-x", _TRIG_P, "large-x", _LARGE_X, -2.0, 0.25),
    ("sharpness-P-large-nu", _TRIG_P, "large-nu", _LARGE_NU, -6.0, 0.25),
)
# (case id, expected exponent, expected coefficient)
SHARPNESS_EXPECTED: Tuple[Tuple[str, float, float], ...] = tuple(
    (case_id, k, c) for case_id, _, _, _, k, c in _SHARPNESS_CASES)
# the grid of the battery's one oracle table: every order and x of its cases
SHARPNESS_GRID = Grid(*(tuple(sorted(set().union(*axis)))
                        for axis in zip(*(case[3] for case in _SHARPNESS_CASES))))


def _extrapolate_large_nu(samples: Sequence[Tuple[float, float]],
                          expected_exponent: float) -> Tuple[float, float]:
    """(exponent, coefficient) with the O(1/nu) sharpness correction removed.

    At reachable orders the relative errors carry corrections as large as
    (1 - 5/nu), so a raw log-log line misstates both constants (and pushing
    nu high enough to tame the correction lands below any double-precision
    noise floor).  Instead: Richardson-combine the two pairwise log-slopes
    (cancels the 1/nu term of the local slope), and extrapolate the
    rate-normalized coefficients eps * nu**(-k0) to 1/nu = 0 through the
    quadratic interpolant, which kills both 1/nu and 1/nu**2 terms.
    Needs exactly 3 samples at geometric nu.
    """
    if len(samples) != 3:
        raise UnfittableError("large-nu extrapolation needs exactly 3 samples")
    (n1, e1), (n2, e2), (n3, e3) = samples
    if not (n1 < n2 < n3) or abs(n2 / n1 - n3 / n2) > 1e-9 * (n3 / n2):
        raise UnfittableError("samples must be geometric in nu")
    s1 = math.log(e2 / e1) / math.log(n2 / n1)
    s2 = math.log(e3 / e2) / math.log(n3 / n2)
    k = 2.0 * s2 - s1
    y = [e * n ** (-expected_exponent) for n, e in samples]
    c = y[0] / 3.0 - 2.0 * y[1] + 8.0 * y[2] / 3.0
    return k, c


def sharpness_battery() -> List[ScanReport]:
    """Measure and fit the trig-bound relative errors in all three regimes.

    One oracle table over SHARPNESS_GRID, the union of the battery's
    points, serves every case, and each case is one ``OracleTable.block``
    fetch and one formula call on its column of orders against its x row.
    One report per case, whose one block is that grid block (every point
    checked, eps as its margin); ``rows`` holds (nu, x, bound, oracle,
    eps), order by order, with eps = bound/oracle - 1 for an upper bound
    and 1 - bound/oracle for a lower one; ``fitted`` is (exponent,
    coefficient) and ``stats`` the expected pair plus pass flags at
    SHARPNESS_TOL_EXPONENT and SHARPNESS_TOL_COEFFICIENT.  large-x and
    small-x cases use the plain log-log fit; large-nu cases use the
    1/nu-corrected extrapolation (see _extrapolate_large_nu) on samples
    that pass the same checks.  A case fails closed: an oracle failure, an
    oracle value that is not positive and finite, an eps that is not
    positive (a bound on the wrong side) or samples at the noise floor
    leave it unfitted, with one oracle failure naming the cause.
    """
    table = OracleTable(SHARPNESS_GRID)
    reports: List[ScanReport] = []
    for case_id, claim, regime, (orders, xs), exp_k, exp_c in _SHARPNESS_CASES:
        rep = ScanReport(claim_id=case_id)
        reports.append(rep)
        nus, xs = np.array(orders).reshape(-1, 1), np.array(xs)
        try:
            vals, ests = (part[:, np.searchsorted(table.xs, xs)]
                          for part in table.block(claim.form.target, nus))
            if not np.all((vals > 0.0) & np.isfinite(vals)):
                raise UnfittableError("oracle value not positive and finite")
            bounds = claim.form.formula(nus, xs)
            eps = relative_error(bounds, vals, claim.form.direction)
            rep.blocks = [ReportBlock(nus, xs, np.ones(vals.shape, bool), (bounds, vals), eps)]
            # (scale, eps): the scale is nu at large nu, else x
            samples = rep.rows[:, [0 if regime == "large-nu" else 1, 4]].tolist()
            k, c = fit_error_order(samples, noise_floor=(100.0 * ests / np.abs(vals)).ravel())
            if regime == "large-nu":
                k, c = _extrapolate_large_nu(samples, exp_k)
        except EvaluationError as exc:     # UnfittableError included
            rep.oracle_failures.append((math.nan, math.nan, str(exc)))
            rep.stats.update({"fit_ok": 0.0})
            continue
        rep.fitted = (k, c)
        rep.points_checked = len(samples)
        exp_ok = abs(k - exp_k) <= SHARPNESS_TOL_EXPONENT
        coef_ok = abs(c - exp_c) <= SHARPNESS_TOL_COEFFICIENT * exp_c
        rep.stats.update({
            "expected_exponent": exp_k,
            "expected_coefficient": exp_c,
            "exponent_ok": float(exp_ok),
            "coefficient_ok": float(coef_ok),
            "fit_ok": float(exp_ok and coef_ok),
        })
        if not (exp_ok and coef_ok):
            rep.violations.append((exp_k, exp_c, k - exp_k))
    return reports


# ----------------------------------------------------------------------
# conjecture scan
# ----------------------------------------------------------------------

# caps on s: the proved one is gated (less the slack), the conjectured one
# only reported
_PROVED_CAP = 1.0 / 3.0
_CONJECTURED_CAP = 0.2
_GATE_SLACK = 1.0e-6


def _sup_s(rows: np.ndarray) -> Tuple[float, float, float]:
    """(s, nu, x) at the first maximum of s in report rows, -inf if none."""
    if not len(rows):
        return -math.inf, math.nan, math.nan
    top = int(np.argmax(rows[:, 3]))
    return float(rows[top, 3]), float(rows[top, 0]), float(rows[top, 1])


def _s_map(nus, xs, p, p_est):
    """(s, est_s): s = 1/(4 P**2) - x**2 - nu**2 and its cancellation-aware
    error estimate (d s / d P = -1/(2 P**3))."""
    with np.errstate(all="ignore"):
        s = 1.0 / (4.0 * p * p) - xs * xs - nus * nus
        return s, p_est / (2.0 * p ** 3) + 4.0 * nc.EPS * (xs * xs + nus * nus + np.abs(s))


def conjecture_scan(grid: Optional[Grid] = None,
                    table: Optional[OracleTable] = None) -> ScanReport:
    """Map s(nu, x) = 1/(4 P**2) - x**2 - nu**2 over the grid.

    The proved product bound caps s at 1/3 on nu >= 0; points there must
    stay below 1/3 - 1e-6 (violations otherwise), and the ``sup_s_verified``
    stats and ``margin_proved_cap`` cover the same rows.  Every row is
    mapped: rows below order 0 enter ``sup_s``, the full-grid supremum that
    the conjectured cap 1/5 is compared with in ``stats``, never gated;
    ``sup_s_est`` is the error estimate of s there, the one its gate used.
    """
    grid, table = _table_for(grid, table)
    rep = ScanReport(claim_id="conjecture-scan")
    blocks = []
    xs = table.xs
    for nus, p, p_est in _blocks(rep, grid, nc.ALL_NU.holds,
                                 lambda nus: table.block("P", nus), grid.x_values):
        s, est_s = _s_map(nus, xs, p, p_est)
        blocks.append(_gate(rep, nus, xs, _PROVED_CAP - s, 1.0, est_s, -_GATE_SLACK,
                            np.isfinite(p) & (p > 0), (np.broadcast_to(_PROVED_CAP, s.shape), s),
                            gated=nus >= 0.0))
    rows = _finish(rep, blocks).rows
    sup_all, sup_ver = _sup_s(rows), _sup_s(rows[rows[:, 0] >= 0.0])
    for key, (top, nu, x) in (("sup_s", sup_all), ("sup_s_verified", sup_ver)):
        rep.stats.update({key: top, key + "_nu": nu, key + "_x": x})
    rep.stats["sup_s_est"] = math.nan
    if len(rows):
        nus = np.array([[sup_all[1]]])
        est_s = _s_map(nus, table.xs, *table.block("P", nus))[1]
        rep.stats["sup_s_est"] = float(est_s[0, np.searchsorted(table.xs, sup_all[2])])
    rep.worst_margin = _PROVED_CAP - sup_ver[0] if math.isfinite(sup_ver[0]) else math.nan
    rep.stats.update({"margin_proved_cap": rep.worst_margin,
                      "margin_conjectured_cap": _CONJECTURED_CAP - sup_all[0],
                      "proved_cap": _PROVED_CAP, "conjectured_cap": _CONJECTURED_CAP})
    return rep
