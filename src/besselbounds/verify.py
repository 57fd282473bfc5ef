"""Grid-scan engine: bounds, monotonicity, sharpness orders, conjecture.

Every closed-form inequality produced by `nullclines` is registered here as
a claim with an oracle target, a direction and a proved validity region.
`scan_bound` sweeps a claim over a (nu, x) grid and reports signed relative
margins; a margin is a violation only when it undercuts the tolerance plus
the oracle's own error estimate, so oracle noise cannot manufacture false
counterexamples.  `scan_monotone` does the same for forward differences of
monotone quantities, `fit_error_order` turns sharpness measurements into
fitted (exponent, coefficient) pairs, and `conjecture_scan` maps the
quantity s = 1/(4 P**2) - x**2 - nu**2 whose supremum the conjectured
product bound caps at 1/5 (proved: 1/3, for nu >= 0).

Coverage policy for the second kind below nu = 0: the backward-integration
oracle is exact-by-symmetry only at nu = -1/2 (half-integer reflection), so
ratio claims on other negative rows are recorded as unverified rather than
checked; product claims use the reflection path, which the product scan
explicitly supports, with reflection error carried inside est_error.

All default scans are deterministic: fixed grids, fixed evaluation order,
no randomness.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import nullclines as nc
from .errors import DomainError, EvaluationError, UnfittableError
from .expansions import REGIMES, relative_error
from .nullclines import Bound, EvalPoint
from . import oracle
from .oracle import RatioKind

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
    "write_report_csv",
    "default_grid",
]

DEFAULT_TOL = 1.0e-12
MONOTONE_TOL = 1.0e-9
_TINY = 1.0e-300
_EPS = float(np.finfo(float).eps)

# quantity ids the oracle table can serve
_ORACLE_QUANTITIES = (
    "Phi0", "Phi1", "K-ratio-pos", "xPhi0", "psi_I", "psi_K",
    "W_I", "W_K", "P", "xP",
)
# second-kind-ratio targets fall under the negative-order coverage rule
_K_RESTRICTED = ("Phi1", "K-ratio-pos", "psi_K", "W_K")


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Scan lattice; x ascending and positive, integer orders excludable."""

    nu_values: Tuple[float, ...]
    x_values: Tuple[float, ...]
    exclusions: str = ""

    def __post_init__(self):
        nus = tuple(float(v) for v in self.nu_values)
        xs = tuple(float(v) for v in self.x_values)
        if len(xs) == 0 or len(nus) == 0:
            raise DomainError("grid must contain at least one row and column")
        if any(x <= 0 for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("x_values must be positive and strictly ascending")
        object.__setattr__(self, "nu_values", nus)
        object.__setattr__(self, "x_values", xs)


def default_grid(nu_max: float = 20.0, x_lo: float = 1e-3, x_hi: float = 1e3,
                 n_x: int = 121) -> Grid:
    """nu from -1 to nu_max in steps of 1/4 with the natural numbers removed
    (the small-x series pick up logarithmic terms there; the -1 endpoint
    stays, carried by the reflection path); x log-spaced."""
    nus = [(-4 + k) * 0.25 for k in range(int(round(4 * (nu_max + 1))) + 1)]
    nus = [v for v in nus if v < 0.0 or v != round(v)]
    xs = np.geomspace(x_lo, x_hi, n_x)
    return Grid(tuple(nus), tuple(xs), exclusions="nu in {0, 1, 2, ...} excluded")


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class ScanReport:
    """Outcome of one scan; margins are signed relative slack (neg = bad).

    ``rows`` holds (nu, x, bound, oracle, margin) in evaluation order —
    exactly the CSV columns.  ``fitted`` is set only by order-estimation
    scans.  ``unverified`` lists points whose oracle path is not trusted
    (negative-order second kind away from nu = -1/2).
    """

    claim_id: str
    points_checked: int = 0
    violations: List[Tuple[float, float, float]] = field(default_factory=list)
    worst_margin: float = math.nan
    fitted: Optional[Tuple[float, float]] = None
    rows: List[Tuple[float, float, float, float, float]] = field(default_factory=list)
    oracle_failures: List[Tuple[float, float, str]] = field(default_factory=list)
    unverified: List[Tuple[float, float, str]] = field(default_factory=list)
    skipped: int = 0
    stats: Dict[str, float] = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.violations


def write_report_csv(report: ScanReport, path) -> None:
    """Emit the per-point rows as CSV: claim_id,nu,x,bound,oracle,margin."""
    with open(path, "w", newline="") as fh:
        fh.write("claim_id,nu,x,bound,oracle,margin\n")
        for nu, x, b, q, m in report.rows:
            fh.write("%s,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                     % (report.claim_id, nu, x, b, q, m))


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
    ladder, which is what keeps full-grid sweeps cheap.  All derived
    quantities are assembled from the cached ratios in forms free of
    catastrophic cancellation, with error estimates propagated.
    """

    def __init__(self, grid: Grid, rtol: float = oracle.ODE_RTOL,
                 atol: float = oracle.ODE_ATOL):
        self.grid = grid
        self.rtol = rtol
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
            k_rows = oracle.k_ratio_rows(k_nus, xs, rtol=rtol, atol=atol)
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
        """(values, est_errors) for one quantity along an order row."""
        r = self.row(nu)
        if r.error is not None:
            raise EvaluationError(f"row nu={nu} unavailable: {r.error}")
        xs = r.xs
        if qid == "Phi0":
            return r.phi0, r.phi0_est
        if qid == "Phi1":
            return r.phi1, r.phi1_est
        if qid == "K-ratio-pos":
            return -r.phi1, r.phi1_est
        if qid == "xPhi0":
            v = xs * r.phi0
            return v, xs * r.phi0_est + _EPS * np.abs(v)
        if qid == "psi_I":
            v = xs * r.phi0 - nu
            return v, xs * r.phi0_est + _EPS * (np.abs(xs * r.phi0) + abs(nu))
        if qid == "psi_K":
            v = xs * r.phi1 - nu
            return v, xs * r.phi1_est + _EPS * (np.abs(xs * r.phi1) + abs(nu))
        if qid == "W_I":
            # quotient of two first-kind ratios: no subtraction anywhere
            v = r.phi0 / r.phi0_up
            est = (r.phi0_est / np.abs(r.phi0_up)
                   + np.abs(v) * r.phi0_up_est / np.abs(r.phi0_up)
                   + _EPS * np.abs(v))
            return v, est
        if qid == "W_K":
            # factored form (phi1)*(phi1 - 2 nu/x): both factors negative
            # for nu >= 0, so no cancellation
            shift = r.phi1 - 2.0 * nu / xs
            v = r.phi1 * shift
            est = ((np.abs(r.phi1) + np.abs(shift)) * r.phi1_est
                   + _EPS * (np.abs(r.phi1) + np.abs(shift)) * np.abs(r.phi1))
            return v, est
        if qid in ("P", "xP"):
            gap = r.phi0 - r.phi1      # both-signs gap, always > 0
            if np.any(gap <= 0):
                raise EvaluationError(f"ratio gap not positive at nu={nu}")
            p = 1.0 / (xs * gap)
            est = (r.phi0_est + r.phi1_est) / (xs * gap * gap) + _EPS * p
            if qid == "P":
                return p, est
            return xs * p, xs * est + _EPS * xs * p
        raise DomainError(f"unknown oracle quantity {qid!r}")


# ----------------------------------------------------------------------
# bound claims
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundClaim:
    claim_id: str
    target: str                         # oracle quantity id
    bound_fn: Callable[[EvalPoint], Bound]
    conjectural: bool = False


def _amos_i(a: float):
    return lambda p: nc.amos_bounds(p, a)[0]


def _amos_k(a: float):
    return lambda p: nc.amos_bounds(p, a)[1]


def _simple(value_fn, direction, target, valid_fn, note):
    def fn(p: EvalPoint) -> Bound:
        return Bound(value_fn(p), direction, target, valid_fn(p), note)
    return fn


def _build_bound_claims() -> Dict[str, BoundClaim]:
    claims: List[BoundClaim] = [
        BoundClaim("trig-upper-I", "Phi0", nc.trig_bound_I),
        BoundClaim("trig-upper-K", "K-ratio-pos", nc.trig_bound_K),
    ]
    for a, tag in ((0.0, "a0"), (-1.0, "a-1"), (1.0, "a1"),
                   (-2.0, "a-2"), (2.0, "a2")):
        claims.append(BoundClaim(f"amos-I-{tag}", "Phi0", _amos_i(a)))
        claims.append(BoundClaim(f"amos-K-{tag}", "Phi1", _amos_k(a)))
    claims += [
        BoundClaim("product-upper", "P", lambda p: nc.product_bounds(p).upper),
        BoundClaim("product-lower-amos", "P",
                   lambda p: nc.product_bounds(p).lower_amos),
        BoundClaim("product-lower-trig", "P",
                   lambda p: nc.product_bounds(p).lower_trig),
        BoundClaim("product-lower-simple", "P",
                   lambda p: nc.product_bounds(p).lower_simple),
        BoundClaim("product-lower-conjecture", "P",
                   lambda p: nc.product_bounds(p).lower_conjecture,
                   conjectural=True),
        # bracket claims for the log-derivative shift and the double ratios
        BoundClaim("psi-I-lower", "psi_I", _simple(
            lambda p: p.nu, "lower", "psi-I", lambda p: p.nu >= 0.0, "nu >= 0")),
        BoundClaim("psi-I-upper", "psi_I", _simple(
            lambda p: nc.cubic_roots(p).lambda_I, "upper", "psi-I",
            lambda p: p.nu >= 0.0, "nu >= 0")),
        BoundClaim("psi-K-lower", "psi_K", _simple(
            lambda p: nc.cubic_roots(p).lambda_K, "lower", "psi-K",
            lambda p: p.nu >= 0.0, "nu >= 0")),
        BoundClaim("psi-K-upper", "psi_K", _simple(
            lambda p: -p.nu, "upper", "psi-K", lambda p: p.nu >= 0.0, "nu >= 0")),
        BoundClaim("double-I-lower", "W_I", _simple(
            lambda p: 0.0, "lower", "double-I", lambda p: p.nu >= 0.0, "nu >= 0")),
        BoundClaim("double-I-upper", "W_I", _simple(
            lambda p: nc.w_values(p).w_I, "upper", "double-I",
            lambda p: p.nu >= 0.0, "nu >= 0")),
        BoundClaim("double-K-lower", "W_K", _simple(
            lambda p: 0.0, "lower", "double-K", lambda p: p.nu >= 0.0, "nu >= 0")),
        BoundClaim("double-K-upper", "W_K", _simple(
            lambda p: nc.w_values(p).w_K, "upper", "double-K",
            lambda p: p.nu >= 0.0, "nu >= 0")),
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
    base_fn = claim.bound_fn

    def fn(p: EvalPoint) -> Bound:
        b = base_fn(p)
        # shift against the bound's own direction regardless of its sign
        shift = abs(b.value) * (factor - 1.0)
        value = b.value - shift if b.direction == "upper" else b.value + shift
        return Bound(value, b.direction, b.target, b.valid,
                     b.validity_note, b.conjectural)

    return BoundClaim(claim.claim_id + "[corrupted]", claim.target, fn,
                      claim.conjectural)


def scan_bound(claim: Union[str, BoundClaim], grid: Optional[Grid] = None,
               tol: float = DEFAULT_TOL,
               table: Optional[OracleTable] = None) -> ScanReport:
    """Sweep one bound claim over the grid.

    A point is a violation when its signed relative margin is below
    -(tol + est_error/|oracle|).  Points outside the claim's proved range
    are skipped; second-kind targets on negative non-half-integer rows are
    recorded as unverified; oracle failures are collected, not raised, and
    a non-finite margin or gate is one.
    """
    if isinstance(claim, str):
        claim = get_claim(claim)
    if grid is None:
        grid = table.grid if table is not None else default_grid()
    if table is None:
        table = OracleTable(grid)

    rep = ScanReport(claim_id=claim.claim_id)
    margins: List[float] = []
    for nu in grid.nu_values:
        try:
            vals, ests = table.quantity(claim.target, nu)
        except (DomainError, EvaluationError) as exc:
            rep.oracle_failures += [(nu, x, str(exc)) for x in grid.x_values]
            continue
        restricted = claim.target in _K_RESTRICTED and nu < 0.0 and nu != -0.5
        for i, x in enumerate(grid.x_values):
            p = EvalPoint(nu, x)
            b = claim.bound_fn(p)
            if not b.valid:
                rep.skipped += 1
                continue
            if restricted:
                rep.unverified.append(
                    (nu, x, "second-kind oracle untrusted below nu=0"))
                continue
            q = float(vals[i])
            if not math.isfinite(q):
                rep.oracle_failures.append((nu, x, "non-finite oracle value"))
                continue
            denom = max(abs(q), _TINY)
            if b.direction == "upper":
                margin = (b.value - q) / denom
            else:
                margin = (q - b.value) / denom
            gate = tol + float(ests[i]) / denom
            if not (math.isfinite(margin) and math.isfinite(gate)):
                # a NaN gate would make `margin < -gate` False: fail closed
                rep.oracle_failures.append((nu, x, "non-finite margin or gate"))
                continue
            if margin < -gate:
                rep.violations.append((nu, x, margin))
            margins.append(margin)
            rep.rows.append((nu, x, b.value, q, margin))
    rep.points_checked = len(rep.rows)
    rep.worst_margin = min(margins) if margins else math.nan
    return rep


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
    oracle_backed: bool = True          # False: closed-form, no table needed


def _closed_form_row(qid: str, nu: float, xs: Sequence[float]):
    vals = np.empty(len(xs))
    for i, x in enumerate(xs):
        p = EvalPoint(nu, x)
        if qid in ("w_I", "w_K", "w_O"):
            vals[i] = getattr(nc.w_values(p), qid)
        elif qid in ("lambda_I", "lambda_K", "lambda_O"):
            vals[i] = getattr(nc.cubic_roots(p), qid)
        elif qid.startswith("gamma-hat-"):
            # id pattern: gamma-hat-plus[a=0.5] / gamma-hat-minus[a=-1]
            branch, a_txt = qid[len("gamma-hat-"):].split("[a=")
            pair = nc.gamma_hat(float(a_txt[:-1]), p)
            vals[i] = pair[0] if branch == "plus" else pair[1]
        else:
            raise DomainError(f"unknown closed-form quantity {qid!r}")
    ests = 4.0 * _EPS * np.abs(vals)
    return vals, ests


_MONOTONE_CLAIMS: Dict[str, MonotoneClaim] = {c.quantity: c for c in [
    MonotoneClaim("P", "decreasing", nu_lo=-1.0),
    MonotoneClaim("xP", "increasing", nu_lo=0.5),
    MonotoneClaim("Phi0", "decreasing", nu_lo=0.5),
    MonotoneClaim("xPhi0", "increasing", nu_lo=-1.0),
    MonotoneClaim("Phi1", "decreasing", nu_lo=0.5, nu_lo_strict=True),
    MonotoneClaim("W_I", "increasing", nu_lo=0.0),
    MonotoneClaim("W_K", "decreasing", nu_lo=0.0),
    MonotoneClaim("w_I", "increasing", oracle_backed=False),
    MonotoneClaim("w_K", "decreasing", oracle_backed=False),
    MonotoneClaim("w_O", "increasing", oracle_backed=False),
    MonotoneClaim("lambda_I", "increasing", oracle_backed=False),
    MonotoneClaim("lambda_K", "decreasing", oracle_backed=False),
    MonotoneClaim("lambda_O", "increasing", oracle_backed=False),
    # nullcline branches with one-signed slope: |a| >= 1 is extremum-free;
    # 0 < |a| < 1 is monotone when the interior extremum abscissa is
    # non-positive
    MonotoneClaim("gamma-hat-plus[a=1]", "decreasing", oracle_backed=False),
    MonotoneClaim("gamma-hat-plus[a=-1]", "increasing", oracle_backed=False),
    MonotoneClaim("gamma-hat-plus[a=2]", "decreasing", oracle_backed=False),
    MonotoneClaim("gamma-hat-plus[a=-2]", "increasing", oracle_backed=False),
    MonotoneClaim("gamma-hat-minus[a=1]", "increasing", oracle_backed=False),
    MonotoneClaim("gamma-hat-minus[a=-1]", "decreasing", oracle_backed=False),
    MonotoneClaim("gamma-hat-plus[a=0.5]", "decreasing", nu_lo=0.75,
                  oracle_backed=False),
    MonotoneClaim("gamma-hat-plus[a=-0.5]", "increasing", nu_hi=0.25,
                  oracle_backed=False),
]}


def monotone_claims() -> Tuple[str, ...]:
    return tuple(_MONOTONE_CLAIMS)


def scan_monotone(quantity: str, grid: Optional[Grid] = None,
                  expected: Optional[str] = None, tol: float = MONOTONE_TOL,
                  table: Optional[OracleTable] = None) -> ScanReport:
    """Forward-difference monotonicity check along x for each order row.

    Margin for one difference is its signed step (oriented so that the
    expected direction is positive) divided by the larger neighbour
    magnitude; violations must beat tol plus the two oracle estimates.
    CSV rows are (nu, x_left, next_value, value, margin).
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
    if claim.oracle_backed and table is None:
        table = OracleTable(grid)

    rep = ScanReport(claim_id=f"monotone-{quantity}-{direction}")
    margins: List[float] = []
    sign = 1.0 if direction == "increasing" else -1.0
    for nu in grid.nu_values:
        below = nu < claim.nu_lo or (claim.nu_lo_strict and nu == claim.nu_lo)
        if below or nu > claim.nu_hi:
            rep.skipped += len(grid.x_values) - 1
            continue
        try:
            if claim.oracle_backed:
                vals, ests = table.quantity(quantity, nu)
            else:
                vals, ests = _closed_form_row(quantity, nu, grid.x_values)
        except (DomainError, EvaluationError) as exc:
            rep.oracle_failures += [(nu, x, str(exc)) for x in grid.x_values]
            continue
        for i in range(len(vals) - 1):
            v0, v1 = float(vals[i]), float(vals[i + 1])
            if not (math.isfinite(v0) and math.isfinite(v1)):
                rep.oracle_failures.append(
                    (nu, grid.x_values[i], "non-finite oracle value"))
                continue
            scale = max(abs(v0), abs(v1), _TINY)
            margin = sign * (v1 - v0) / scale
            gate = tol + (float(ests[i]) + float(ests[i + 1])) / scale
            if not (math.isfinite(margin) and math.isfinite(gate)):
                rep.oracle_failures.append(
                    (nu, grid.x_values[i], "non-finite margin or gate"))
                continue
            if margin < -gate:
                rep.violations.append((nu, grid.x_values[i], margin))
            margins.append(margin)
            rep.rows.append((nu, grid.x_values[i], v1, v0, margin))
    rep.points_checked = len(rep.rows)
    rep.worst_margin = min(margins) if margins else math.nan
    return rep


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


# (claim id, expected exponent, expected coefficient), the quantitative
# sharpness constants the fits must reproduce
SHARPNESS_EXPECTED: Tuple[Tuple[str, float, float], ...] = (
    ("sharpness-I-large-x", -2.0, 0.25),
    ("sharpness-I-small-x", 4.0, 1.0 / 192.0),
    ("sharpness-I-large-nu", -6.0, 0.125),
    ("sharpness-K-large-x", -2.0, 0.25),
    ("sharpness-K-large-nu", -4.0, 0.5),
    ("sharpness-P-large-x", -2.0, 0.25),
    ("sharpness-P-large-nu", -6.0, 0.25),
)

_SHARPNESS_SETUP = {
    # claim id -> (regime, fixed nu or x, sample scales)
    "sharpness-I-large-x": ("large-x", 1.0, (25.0, 50.0, 100.0, 200.0)),
    "sharpness-I-small-x": ("small-x", 1.0, (0.02, 0.04, 0.08, 0.16)),
    "sharpness-I-large-nu": ("large-nu", 1.0, (10.0, 20.0, 40.0)),
    "sharpness-K-large-x": ("large-x", 1.0, (25.0, 50.0, 100.0, 200.0)),
    "sharpness-K-large-nu": ("large-nu", 1.0, (10.0, 20.0, 40.0)),
    "sharpness-P-large-x": ("large-x", 1.0, (25.0, 50.0, 100.0, 200.0)),
    "sharpness-P-large-nu": ("large-nu", 1.0, (10.0, 20.0, 40.0)),
}


def _sharpness_point(case_id: str, nu: float, x: float):
    """(bound_value, oracle_value, est, direction) for one battery point."""
    p = EvalPoint(nu, x)
    kind = case_id.split("-")[1]
    if kind == "I":
        r = oracle.i_ratio(p)
        return nc.trig_bound_I(p).value, r.value, r.est_error, "upper"
    if kind == "K":
        # tightened step control: the battery reads errors down to ~1e-7
        r = oracle.k_ratio(p, rtol=1e-13)
        return nc.trig_bound_K(p).value, -r.value, r.est_error, "upper"
    r = oracle.product(p)
    return nc.product_bounds(p).lower_trig.value, r.value, r.est_error, "lower"


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


def sharpness_battery(tol_exponent: float = 0.15,
                      tol_coefficient: float = 0.10) -> List[ScanReport]:
    """Measure and fit the trig-bound relative errors in all three regimes.

    One report per case; ``fitted`` holds (exponent, coefficient) and
    ``stats`` the expected pair plus pass flags at the given tolerances.
    large-x and small-x cases use the plain log-log fit; large-nu cases use
    the 1/nu-corrected extrapolation (see _extrapolate_large_nu), with the
    raw fit kept in ``stats`` for comparison.
    """
    reports: List[ScanReport] = []
    for case_id, exp_k, exp_c in SHARPNESS_EXPECTED:
        regime, fixed, scales = _SHARPNESS_SETUP[case_id]
        rep = ScanReport(claim_id=case_id)
        samples: List[Tuple[float, float]] = []
        floors: List[float] = []
        for s in scales:
            nu, x = (fixed, s) if regime != "large-nu" else (s, fixed)
            b, q, est, direction = _sharpness_point(case_id, nu, x)
            eps = relative_error(b, q, direction)
            samples.append((s, eps))
            floors.append(100.0 * est / abs(q))
            rep.rows.append((nu, x, b, q, eps))
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
            reports.append(rep)
            continue
        rep.fitted = (k, c)
        rep.points_checked = len(samples)
        exp_ok = abs(k - exp_k) <= tol_exponent
        coef_ok = abs(c - exp_c) <= tol_coefficient * exp_c
        rep.stats.update({
            "expected_exponent": exp_k,
            "expected_coefficient": exp_c,
            "exponent_ok": float(exp_ok),
            "coefficient_ok": float(coef_ok),
            "fit_ok": float(exp_ok and coef_ok),
        })
        if not (exp_ok and coef_ok):
            rep.violations.append((exp_k, exp_c, k - exp_k))
        reports.append(rep)
    return reports


# ----------------------------------------------------------------------
# conjecture scan
# ----------------------------------------------------------------------

def conjecture_scan(grid: Optional[Grid] = None,
                    table: Optional[OracleTable] = None,
                    proved_cap: float = 1.0 / 3.0,
                    conjectured_cap: float = 0.2,
                    gate_slack: float = 1.0e-6) -> ScanReport:
    """Map s(nu, x) = 1/(4 P**2) - x**2 - nu**2 over the grid.

    The proved product bound caps s at 1/3 on nu >= 0; points there must
    stay below proved_cap - gate_slack (violations otherwise).  The
    conjectured cap 1/5 is compared and reported in ``stats`` but never
    gated.  Negative non-half-integer rows ride the reflection oracle path
    and are flagged unverified; their s values still inform the reported
    supremum over the full grid.
    """
    if grid is None:
        grid = table.grid if table is not None else default_grid()
    if table is None:
        table = OracleTable(grid)

    rep = ScanReport(claim_id="conjecture-scan")
    sup_all = -math.inf
    sup_all_at = (math.nan, math.nan)
    sup_ver = -math.inf
    sup_ver_at = (math.nan, math.nan)
    for nu in grid.nu_values:
        try:
            pvals, pests = table.quantity("P", nu)
        except (DomainError, EvaluationError) as exc:
            rep.oracle_failures += [(nu, x, str(exc)) for x in grid.x_values]
            continue
        verified_row = nu >= 0.0 or nu == -0.5
        for i, x in enumerate(grid.x_values):
            pv = float(pvals[i])
            if not (math.isfinite(pv) and pv > 0):
                rep.oracle_failures.append((nu, x, "bad product value"))
                continue
            s = 1.0 / (4.0 * pv * pv) - x * x - nu * nu
            # cancellation-aware error: d s / d P = -1/(2 P**3)
            est_s = float(pests[i]) / (2.0 * pv ** 3) \
                + 4.0 * _EPS * (x * x + nu * nu + abs(s))
            excess = s - (proved_cap - gate_slack)
            if not (math.isfinite(excess) and math.isfinite(est_s)):
                rep.oracle_failures.append((nu, x, "non-finite s or error estimate"))
                continue
            if s > sup_all:
                sup_all, sup_all_at = s, (nu, x)
            if verified_row:
                if s > sup_ver:
                    sup_ver, sup_ver_at = s, (nu, x)
                if nu >= 0.0 and excess > est_s:
                    rep.violations.append((nu, x, proved_cap - s))
            else:
                rep.unverified.append(
                    (nu, x, "second-kind oracle untrusted below nu=0"))
            rep.rows.append((nu, x, proved_cap, s, proved_cap - s))
    rep.points_checked = len(rep.rows)
    rep.worst_margin = proved_cap - sup_ver if math.isfinite(sup_ver) else math.nan
    rep.stats.update({
        "sup_s": sup_all,
        "sup_s_nu": sup_all_at[0],
        "sup_s_x": sup_all_at[1],
        "sup_s_verified": sup_ver,
        "sup_s_verified_nu": sup_ver_at[0],
        "sup_s_verified_x": sup_ver_at[1],
        "margin_proved_cap": proved_cap - sup_ver,
        "margin_conjectured_cap": conjectured_cap - sup_all,
        "proved_cap": proved_cap,
        "conjectured_cap": conjectured_cap,
    })
    return rep
