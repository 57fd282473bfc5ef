"""Grid-scan engine: bounds, monotonicity, sharpness orders, conjecture.

Every closed-form inequality produced by `nullclines` is registered here as
a claim with an oracle target and its `nullclines.BoundForm`: a row formula,
a direction and a proved order range.  Scans work one order row at a time:
the oracle table serves the row, the claim's formula is evaluated on the
whole x row in one numpy pass, and validity is one flag per row, since every
proved range depends on the order only.  `scan_bound` reports signed
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
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import nullclines as nc
from .errors import DomainError, EvaluationError, UnfittableError
from .expansions import REGIMES, relative_error
from .nullclines import Bound, EvalPoint
from . import oracle

__all__ = [
    "DEFAULT_TOL",
    "MONOTONE_TOL",
    "Grid",
    "ScanReport",
    "OracleTable",
    "BoundClaim",
    "MonotoneClaim",
    "bound_claims",
    "monotone_claims",
    "get_claim",
    "corrupt_claim",
    "scan_bound",
    "scan_monotone",
    "fit_error_order",
    "conjecture_scan",
    "sharpness_battery",
    "SHARPNESS_EXPECTED",
    "SHARPNESS_TOL_EXPONENT",
    "SHARPNESS_TOL_COEFFICIENT",
    "write_report_csv",
    "write_csv_rows",
    "default_grid",
    "ranged_orders",
]

DEFAULT_TOL = 1.0e-12
MONOTONE_TOL = 1.0e-9
_TINY = 1.0e-300
_EPS = float(np.finfo(float).eps)


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Scan lattice: finite orders; x finite, positive and ascending."""

    nu_values: Tuple[float, ...]
    x_values: Tuple[float, ...]

    def __post_init__(self):
        nus = tuple(float(v) for v in self.nu_values)
        xs = tuple(float(v) for v in self.x_values)
        if len(xs) == 0 or len(nus) == 0:
            raise DomainError("grid must contain at least one row and column")
        if not all(math.isfinite(v) for v in nus):
            raise DomainError("nu_values must be finite")
        if (not all(0 < x < math.inf for x in xs)
                or any(b <= a for a, b in zip(xs, xs[1:]))):
            raise DomainError("x_values must be finite, positive and strictly ascending")
        object.__setattr__(self, "nu_values", nus)
        object.__setattr__(self, "x_values", xs)


def ranged_orders(nu_min: float, nu_max: float, nu_step: float) -> List[float]:
    """Orders nu_min + k * nu_step up to nu_max, with the non-negative
    integers dropped (the second-kind small-x series pick up logarithmic
    terms there); empty for a non-positive step or an empty range."""
    if nu_step <= 0 or nu_max < nu_min:
        return []
    n = int(math.floor((nu_max - nu_min) / nu_step + 1e-9))
    nus = [nu_min + k * nu_step for k in range(n + 1)]
    return [v for v in nus if v < 0.0 or v != round(v)]


def default_grid(x_lo: float = 1e-3) -> Grid:
    """The paper's grid: `ranged_orders` from -1 to 20 in steps of 1/4 (the
    -1 endpoint stays, carried by the reflection path), and 121 x
    log-spaced from x_lo to 1e3."""
    return Grid(tuple(ranged_orders(-1.0, 20.0, 0.25)),
                tuple(np.geomspace(x_lo, 1e3, 121)))


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class ScanReport:
    """Outcome of one scan; margins are signed relative slack (neg = bad).

    ``rows`` is an (n, 5) array of (nu, x, bound, oracle, margin) in
    evaluation order — exactly the CSV columns.  ``fitted`` is set only by
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
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 5)))
    oracle_failures: List[Tuple[float, float, str]] = field(default_factory=list)
    unverified: List[Tuple[float, float, str]] = field(default_factory=list)
    skipped: int = 0
    stats: Dict[str, float] = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.violations


CSV_BLOCK_ROWS = 4096


def write_csv_rows(stream, line: str, rows: np.ndarray) -> None:
    """Write each row of a 2-d array through the %-format ``line``, one
    format call per block of CSV_BLOCK_ROWS rows, so the text built at once
    stays bounded however long ``rows`` is."""
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        stream.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_report_csv(report: ScanReport, path) -> None:
    """Emit the per-point rows as CSV: claim_id,nu,x,bound,oracle,margin."""
    line = report.claim_id.replace("%", "%%") + ",%.17g,%.17g,%.17g,%.17g,%.17g\n"
    with open(path, "w", newline="") as fh:
        fh.write("claim_id,nu,x,bound,oracle,margin\n")
        write_csv_rows(fh, line, np.asarray(report.rows, dtype=float).reshape(-1, 5))


# ----------------------------------------------------------------------
# oracle table
# ----------------------------------------------------------------------

@dataclass
class _Row:
    nu: float
    xs: np.ndarray
    phi0: np.ndarray = None
    phi0_est: np.ndarray = None
    phi0_up: np.ndarray = None      # first-kind ratio at order nu + 1
    phi0_up_est: np.ndarray = None
    phi1: np.ndarray = None
    phi1_est: np.ndarray = None
    k_method: str = ""
    error: Optional[str] = None


class OracleTable:
    """Row cache of oracle ratio values over a grid.

    The first-kind continued fraction runs once per distinct order in
    {nu} and {nu + 1}.  All second-kind rows come from one
    ``oracle.k_ratio_rows`` call: one seed per order class, then the order
    ladder, which is what keeps full-grid sweeps cheap.  Derived
    quantities come from ``oracle.quantity_row`` over the cached ratios.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.rows: Dict[float, _Row] = {}
        xs = np.asarray(grid.x_values)
        i_rows: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

        def i_row(nu: float) -> Tuple[np.ndarray, np.ndarray]:
            if nu not in i_rows:
                i_rows[nu] = oracle.i_ratio_row(nu, xs)
            return i_rows[nu]

        for nu in grid.nu_values:
            row = self.rows[nu] = _Row(nu=nu, xs=xs)
            try:
                row.phi0, row.phi0_est = i_row(nu)
                row.phi0_up, row.phi0_up_est = i_row(nu + 1.0)
            except (DomainError, EvaluationError) as exc:
                row.error = str(exc)
        k_nus = [nu for nu, row in self.rows.items() if row.error is None]
        try:
            k_rows = oracle.k_ratio_rows(k_nus, xs)
        except (DomainError, EvaluationError) as exc:
            # one seed serves a whole class, so a failure has no single row
            k_rows = {}
            for nu in k_nus:
                self.rows[nu].error = str(exc)
        for nu, (vals, ests, method) in k_rows.items():
            row = self.rows[nu]
            row.phi1, row.phi1_est, row.k_method = vals, ests, method

    def row(self, nu: float) -> _Row:
        if nu not in self.rows:
            raise DomainError(f"order {nu} not in table")
        return self.rows[nu]

    def quantity(self, qid: str, nu: float) -> Tuple[np.ndarray, np.ndarray]:
        """(values, est_errors) for one quantity along an order row: the
        cached ratio rows handed to ``oracle.quantity_row``."""
        r = self.row(nu)
        if r.error is not None:
            raise EvaluationError(f"row nu={nu} unavailable: {r.error}")
        ratios = {"Phi0": (r.phi0, r.phi0_est), "Phi0_up": (r.phi0_up, r.phi0_up_est),
                  "Phi1": (r.phi1, r.phi1_est)}
        return oracle.quantity_row(qid, nu, r.xs, ratios.__getitem__)


# ----------------------------------------------------------------------
# bound claims
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundClaim:
    """A registered inequality: ``target`` is the oracle quantity it bounds
    and ``form`` its closed form, whose ``form.row(nu, xs)`` returns
    (values, direction, valid) along an x row."""

    claim_id: str
    target: str                         # oracle quantity id
    form: nc.BoundForm

    @property
    def bound_fn(self) -> Callable[[EvalPoint], Bound]:
        """One-point call of the claim's row formula."""
        return self.form.at


def _bracket(claim_id: str, target: str, direction: str, formula) -> BoundClaim:
    # psi and double-ratio brackets, all proved for nu >= 0
    return BoundClaim(claim_id, target, nc.BoundForm(formula, direction, target, nc.NU_GE_0))


def _build_bound_claims() -> Dict[str, BoundClaim]:
    claims: List[BoundClaim] = [
        BoundClaim("trig-upper-I", "Phi0", nc.TRIG_I),
        BoundClaim("trig-upper-K", "K-ratio-pos", nc.TRIG_K),
    ]
    for a, tag in ((0.0, "a0"), (-1.0, "a-1"), (1.0, "a1"),
                   (-2.0, "a-2"), (2.0, "a2")):
        form_i, form_k = nc.amos_forms(a)
        claims.append(BoundClaim(f"amos-I-{tag}", "Phi0", form_i))
        claims.append(BoundClaim(f"amos-K-{tag}", "Phi1", form_k))
    claims += [BoundClaim("product-" + name.replace("_", "-"), "P", form)
               for name, form in nc.PRODUCT_FORMS.items()]
    claims += [
        _bracket("psi-I-lower", "psi_I", "lower", lambda nu, x: np.full_like(x, nu)),
        _bracket("psi-I-upper", "psi_I", "upper", lambda nu, x: nc.cubic_roots_row(nu, x)[2]),
        _bracket("psi-K-lower", "psi_K", "lower", lambda nu, x: nc.cubic_roots_row(nu, x)[0]),
        _bracket("psi-K-upper", "psi_K", "upper", lambda nu, x: np.full_like(x, -nu)),
        _bracket("double-I-lower", "W_I", "lower", lambda nu, x: np.zeros_like(x)),
        _bracket("double-I-upper", "W_I", "upper", lambda nu, x: nc.w_values_row(nu, x)[0]),
        _bracket("double-K-lower", "W_K", "lower", lambda nu, x: np.zeros_like(x)),
        _bracket("double-K-upper", "W_K", "upper", lambda nu, x: nc.w_values_row(nu, x)[1]),
    ]
    return {c.claim_id: c for c in claims}


_BOUND_CLAIMS = _build_bound_claims()


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

    return BoundClaim(claim.claim_id + "[corrupted]", claim.target,
                      dataclasses.replace(form, formula=formula))


def _gate_row(rep: ScanReport, nu: float, xs: np.ndarray, slack, scale, est,
              tol: float, finite, cols) -> np.ndarray:
    """Gate one order row: margin = slack/scale is a violation when it is
    below -(tol + est/scale).  A point whose oracle values, margin or gate
    are not finite is an oracle failure, never a pass.  Returns the checked
    points as report rows (nu, x, *cols, margin)."""
    with np.errstate(all="ignore"):
        margin = slack / scale
        gate = tol + est / scale
    ok = finite & np.isfinite(margin) & np.isfinite(gate)
    for i in np.flatnonzero(~ok):
        rep.oracle_failures.append((nu, float(xs[i]), "non-finite margin or gate"
                                    if finite[i] else "non-finite oracle value"))
    bad = ok & (margin < -gate)
    rep.violations += [(nu, x, m) for x, m in zip(xs[bad].tolist(), margin[bad].tolist())]
    return np.column_stack([np.full(np.count_nonzero(ok), nu), xs[ok],
                            *(c[ok] for c in cols), margin[ok]])


def _finish(rep: ScanReport, blocks: List[np.ndarray]) -> ScanReport:
    rep.rows = np.concatenate(blocks) if blocks else np.empty((0, 5))
    rep.points_checked = len(rep.rows)
    rep.worst_margin = float(rep.rows[:, 4].min()) if len(rep.rows) else math.nan
    return rep


def scan_bound(claim: Union[str, BoundClaim], grid: Optional[Grid] = None,
               tol: float = DEFAULT_TOL,
               table: Optional[OracleTable] = None) -> ScanReport:
    """Sweep one bound claim over the grid, one order row at a time.

    A point is a violation when its signed relative margin is below
    -(tol + est_error/|oracle|).  A row is checked exactly when the
    claim's proved order range holds there, negative orders included, and
    skipped otherwise; oracle failures are collected, not raised, and a
    non-finite oracle value, margin or gate is one.
    """
    if isinstance(claim, str):
        claim = get_claim(claim)
    if grid is None:
        grid = table.grid if table is not None else default_grid()
    if table is None:
        table = OracleTable(grid)

    rep = ScanReport(claim_id=claim.claim_id)
    xs = np.asarray(grid.x_values)
    blocks = []
    for nu in grid.nu_values:
        try:
            vals, ests = table.quantity(claim.target, nu)
        except (DomainError, EvaluationError) as exc:
            rep.oracle_failures += [(nu, x, str(exc)) for x in grid.x_values]
            continue
        bound, direction, valid = claim.form.row(nu, xs)
        if not valid:
            rep.skipped += len(xs)
        else:
            with np.errstate(all="ignore"):
                slack = bound - vals if direction == "upper" else vals - bound
            blocks.append(_gate_row(rep, nu, xs, slack, np.maximum(np.abs(vals), _TINY),
                                    ests, tol, np.isfinite(vals), (bound, vals)))
    return _finish(rep, blocks)


# ----------------------------------------------------------------------
# monotone claims
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneClaim:
    quantity: str
    expected: str                       # "increasing" or "decreasing"
    nu_lo: float = -math.inf
    nu_hi: float = math.inf
    nu_lo_strict: bool = False
    # row function (nu, xs) -> values for closed-form quantities, which
    # need no oracle table; None: the quantity is an oracle-table row
    closed_form: Optional[Callable[[float, np.ndarray], np.ndarray]] = None


def _gamma_hat(branch: int, a: float):
    return lambda nu, x: nc.gamma_hat_row(a, nu, x)[branch]


_MONOTONE_CLAIMS: Dict[str, MonotoneClaim] = {c.quantity: c for c in [
    MonotoneClaim("P", "decreasing", nu_lo=-1.0),
    MonotoneClaim("xP", "increasing", nu_lo=0.5),
    MonotoneClaim("Phi0", "decreasing", nu_lo=0.5),
    MonotoneClaim("xPhi0", "increasing", nu_lo=-1.0),
    MonotoneClaim("Phi1", "decreasing", nu_lo=0.5, nu_lo_strict=True),
    MonotoneClaim("W_I", "increasing", nu_lo=0.0),
    MonotoneClaim("W_K", "decreasing", nu_lo=0.0),
    MonotoneClaim("w_I", "increasing", closed_form=lambda nu, x: nc.w_values_row(nu, x)[0]),
    MonotoneClaim("w_K", "decreasing", closed_form=lambda nu, x: nc.w_values_row(nu, x)[1]),
    MonotoneClaim("w_O", "increasing", closed_form=lambda nu, x: nc.w_values_row(nu, x)[2]),
    MonotoneClaim("lambda_I", "increasing",
                  closed_form=lambda nu, x: nc.cubic_roots_row(nu, x)[2]),
    MonotoneClaim("lambda_K", "decreasing",
                  closed_form=lambda nu, x: nc.cubic_roots_row(nu, x)[0]),
    MonotoneClaim("lambda_O", "increasing",
                  closed_form=lambda nu, x: nc.cubic_roots_row(nu, x)[1]),
    # nullcline branches with one-signed slope: |a| >= 1 is extremum-free;
    # 0 < |a| < 1 is monotone when the interior extremum abscissa is
    # non-positive
    MonotoneClaim("gamma-hat-plus[a=1]", "decreasing", closed_form=_gamma_hat(0, 1.0)),
    MonotoneClaim("gamma-hat-plus[a=-1]", "increasing", closed_form=_gamma_hat(0, -1.0)),
    MonotoneClaim("gamma-hat-plus[a=2]", "decreasing", closed_form=_gamma_hat(0, 2.0)),
    MonotoneClaim("gamma-hat-plus[a=-2]", "increasing", closed_form=_gamma_hat(0, -2.0)),
    MonotoneClaim("gamma-hat-minus[a=1]", "increasing", closed_form=_gamma_hat(1, 1.0)),
    MonotoneClaim("gamma-hat-minus[a=-1]", "decreasing", closed_form=_gamma_hat(1, -1.0)),
    MonotoneClaim("gamma-hat-plus[a=0.5]", "decreasing", nu_lo=0.75,
                  closed_form=_gamma_hat(0, 0.5)),
    MonotoneClaim("gamma-hat-plus[a=-0.5]", "increasing", nu_hi=0.25,
                  closed_form=_gamma_hat(0, -0.5)),
]}


def monotone_claims() -> Tuple[str, ...]:
    return tuple(_MONOTONE_CLAIMS)


def scan_monotone(quantity: str, grid: Optional[Grid] = None,
                  expected: Optional[str] = None, tol: float = MONOTONE_TOL,
                  table: Optional[OracleTable] = None) -> ScanReport:
    """Forward-difference monotonicity check along x for each order row.

    Margin for one difference is its signed step (oriented so that the
    expected direction is positive) divided by the larger neighbour
    magnitude; violations must beat tol plus the two oracle estimates
    (4 eps |value| for closed forms).  CSV rows are
    (nu, x_left, next_value, value, margin).
    """
    try:
        claim = _MONOTONE_CLAIMS[quantity]
    except KeyError:
        raise DomainError(f"unknown monotone quantity {quantity!r}") from None
    direction = expected or claim.expected
    if direction not in ("increasing", "decreasing"):
        raise DomainError(f"unknown direction {direction!r}")
    if grid is None:
        grid = table.grid if table is not None else default_grid()
    if claim.closed_form is None and table is None:
        table = OracleTable(grid)

    rep = ScanReport(claim_id=f"monotone-{quantity}-{direction}")
    sign = 1.0 if direction == "increasing" else -1.0
    xs = np.asarray(grid.x_values)
    blocks = []
    for nu in grid.nu_values:
        below = nu < claim.nu_lo or (claim.nu_lo_strict and nu == claim.nu_lo)
        if below or nu > claim.nu_hi:
            rep.skipped += len(xs) - 1
            continue
        try:
            if claim.closed_form is None:
                vals, ests = table.quantity(quantity, nu)
            else:
                vals = claim.closed_form(nu, xs)
                ests = 4.0 * _EPS * np.abs(vals)
        except (DomainError, EvaluationError) as exc:
            rep.oracle_failures += [(nu, x, str(exc)) for x in grid.x_values]
            continue
        v0, v1 = vals[:-1], vals[1:]
        with np.errstate(all="ignore"):
            slack = sign * (v1 - v0)
        blocks.append(_gate_row(rep, nu, xs[:-1], slack,
                                np.maximum(np.maximum(np.abs(v0), np.abs(v1)), _TINY),
                                ests[:-1] + ests[1:], tol,
                                np.isfinite(v0) & np.isfinite(v1), (v1, v0)))
    return _finish(rep, blocks)


# ----------------------------------------------------------------------
# sharpness fits
# ----------------------------------------------------------------------

def fit_error_order(samples: Sequence[Tuple[float, float]], regime: str,
                    noise_floor: Union[float, Sequence[float]] = 0.0
                    ) -> Tuple[float, float]:
    """Least-squares (exponent, coefficient) of eps ~ C * scale**k.

    Needs at least 3 positive samples spanning at least half a decade in
    the scaling variable.  ``noise_floor`` (scalar or per-sample) marks the
    level below which eps is oracle noise; any sample at or under its floor
    makes the fit unfittable.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if len(samples) < 3:
        raise UnfittableError(f"need >= 3 samples, got {len(samples)}")
    scales = np.array([s for s, _ in samples], dtype=float)
    eps = np.array([e for _, e in samples], dtype=float)
    if np.any(scales <= 0):
        raise DomainError("scaling variable must be positive")
    if np.any(eps <= 0):
        raise UnfittableError("non-positive relative error in samples")
    floors = np.broadcast_to(np.asarray(noise_floor, dtype=float), eps.shape)
    if np.any(eps <= floors):
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
# sample points as (order, xs) rows: x scales at nu = 1, nu scales at x = 1
_LARGE_X = ((1.0, (25.0, 50.0, 100.0, 200.0)),)
_SMALL_X = ((1.0, (0.02, 0.04, 0.08, 0.16)),)
_LARGE_NU = ((10.0, (1.0,)), (20.0, (1.0,)), (40.0, (1.0,)))
_TRIG_I, _TRIG_K, _TRIG_P = (_BOUND_CLAIMS[c] for c in
                             ("trig-upper-I", "trig-upper-K", "product-lower-trig"))
# (case id, bound claim, regime, sample rows, expected exponent, expected
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

    One oracle table over the union of the battery's points serves every
    case.  One report per case; ``rows`` holds (nu, x, bound, oracle, eps),
    ``fitted`` (exponent, coefficient) and ``stats`` the expected pair plus
    pass flags at SHARPNESS_TOL_EXPONENT and SHARPNESS_TOL_COEFFICIENT.
    large-x and small-x cases use the plain log-log fit; large-nu cases use
    the 1/nu-corrected extrapolation (see _extrapolate_large_nu), with the
    raw fit kept in ``stats`` for comparison.
    """
    pairs = [pair for case in _SHARPNESS_CASES for pair in case[3]]
    table = OracleTable(Grid(tuple(sorted({nu for nu, _ in pairs})),
                             tuple(sorted({x for _, xs in pairs for x in xs}))))
    table_xs = np.asarray(table.grid.x_values)
    reports: List[ScanReport] = []
    for case_id, claim, regime, orders, exp_k, exp_c in _SHARPNESS_CASES:
        rep = ScanReport(claim_id=case_id)
        reports.append(rep)
        rows, floors = [], []
        for nu, xs in orders:
            vals, ests = table.quantity(claim.target, nu)
            cols = np.searchsorted(table_xs, xs)
            bounds, direction, _ = claim.form.row(nu, xs)
            for x, b, q, est in zip(xs, bounds.tolist(), vals[cols].tolist(),
                                    ests[cols].tolist()):
                rows.append((nu, x, b, q, relative_error(b, q, direction)))
                floors.append(100.0 * est / abs(q))
        rep.rows = np.array(rows)
        # (scale, eps): the scale is nu at large nu, else x
        samples = rep.rows[:, [0 if regime == "large-nu" else 1, 4]].tolist()
        try:
            raw_k, raw_c = fit_error_order(samples, regime, noise_floor=floors)
            if regime == "large-nu":
                k, c = _extrapolate_large_nu(samples, exp_k)
                rep.stats.update({"raw_exponent": raw_k, "raw_coefficient": raw_c})
            else:
                k, c = raw_k, raw_c
        except UnfittableError as exc:
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


def conjecture_scan(grid: Optional[Grid] = None,
                    table: Optional[OracleTable] = None) -> ScanReport:
    """Map s(nu, x) = 1/(4 P**2) - x**2 - nu**2 over the grid.

    The proved product bound caps s at 1/3 on nu >= 0; points there must
    stay below 1/3 - 1e-6 (violations otherwise), and the ``sup_s_verified``
    stats and ``margin_proved_cap`` cover the same rows.  Every row is
    mapped: rows below order 0 enter ``sup_s``, the full-grid supremum that
    the conjectured cap 1/5 is compared with in ``stats``, never gated.
    """
    if grid is None:
        grid = table.grid if table is not None else default_grid()
    if table is None:
        table = OracleTable(grid)

    rep = ScanReport(claim_id="conjecture-scan")
    sup_all = sup_ver = -math.inf
    sup_all_at = sup_ver_at = (math.nan, math.nan)
    xs = np.asarray(grid.x_values)
    blocks = []
    for nu in grid.nu_values:
        try:
            pvals, pests = table.quantity("P", nu)
        except (DomainError, EvaluationError) as exc:
            rep.oracle_failures += [(nu, x, str(exc)) for x in grid.x_values]
            continue
        good_p = np.isfinite(pvals) & (pvals > 0)
        with np.errstate(all="ignore"):
            s = 1.0 / (4.0 * pvals * pvals) - xs * xs - nu * nu
            # cancellation-aware error: d s / d P = -1/(2 P**3)
            est_s = pests / (2.0 * pvals ** 3) + 4.0 * _EPS * (xs * xs + nu * nu + np.abs(s))
            excess = s - (_PROVED_CAP - _GATE_SLACK)
        ok = good_p & np.isfinite(excess) & np.isfinite(est_s)
        for i in np.flatnonzero(~ok):
            rep.oracle_failures.append((nu, float(xs[i]), "non-finite s or error estimate"
                                        if good_p[i] else "bad product value"))
        s, x_ok = s[ok], xs[ok]
        if not len(s):
            continue
        top = int(np.argmax(s))           # first point of the row maximum
        if s[top] > sup_all:
            sup_all, sup_all_at = float(s[top]), (nu, float(x_ok[top]))
        if nu >= 0.0:
            if s[top] > sup_ver:
                sup_ver, sup_ver_at = float(s[top]), (nu, float(x_ok[top]))
            bad = excess[ok] > est_s[ok]
            rep.violations += [(nu, x, _PROVED_CAP - v)
                               for x, v in zip(x_ok[bad].tolist(), s[bad].tolist())]
        blocks.append(np.column_stack([np.full(len(s), nu), x_ok,
                                       np.full(len(s), _PROVED_CAP), s, _PROVED_CAP - s]))
    _finish(rep, blocks)
    rep.worst_margin = _PROVED_CAP - sup_ver if math.isfinite(sup_ver) else math.nan
    rep.stats.update({
        "sup_s": sup_all,
        "sup_s_nu": sup_all_at[0],
        "sup_s_x": sup_all_at[1],
        "sup_s_verified": sup_ver,
        "sup_s_verified_nu": sup_ver_at[0],
        "sup_s_verified_x": sup_ver_at[1],
        "margin_proved_cap": _PROVED_CAP - sup_ver,
        "margin_conjectured_cap": _CONJECTURED_CAP - sup_all,
        "proved_cap": _PROVED_CAP,
        "conjectured_cap": _CONJECTURED_CAP,
    })
    return rep
