"""Reference evaluation of Bessel ratios built only from recurrence structure.

Nothing here calls a Bessel implementation.  The oracles rest on the
three-term recurrence C_{nu+1}(x) = C_{nu-1}(x) - (2*nu/x)*C_nu(x) and on
the Riccati equation the ratios satisfy,

      Phi'(x) = 1 + ((2*nu-1)/x)*Phi - Phi**2.

* ``i_ratio``: Phi0 = I_{nu-1}/I_nu via the continued fraction

      Phi0(nu, x) = 2*nu/x + 1/(2*(nu+1)/x + 1/(2*(nu+2)/x + ...)),

  evaluated with the modified Lentz algorithm.  The fraction converges to
  the minimal-solution ratio, which is the I family.

* ``k_ratio_rows`` (and its one-row and one-point forms ``k_ratio_row`` and
  ``k_ratio``): Phi1 = -K_{nu-1}/K_nu as seed, then ladder.  Orders are
  grouped by class nu mod 1 and each class is computed once at its lowest
  order (the seed), then carried up by the forward recurrence
  r_{nu+1} = 1/(2*nu/x + r_nu) on r = K_{nu-1}/K_nu > 0.  K is the dominant
  solution of that recurrence (Gautschi 1967), so each step adds two
  positive terms: relative error shrinks by r/(2*nu/x + r) and gains 2 eps.
  Seeds come from three sources:

  - half-integer classes: K_{1/2} = K_{-1/2} gives r_{1/2} = 1 exactly;
  - x >= 20: the large-x series Phi ~ sum_k c_k x**-k generated from the
    Riccati equation itself (``large_x_coefficients``), c_0 = -1 for Phi1
    (+1 for Phi0),
    c_{k+1} = [(k + 2*nu - 1) c_k - sum_{i=1..k} c_i c_{k+1-i}]/(2 c_0),
    truncated before its smallest term (the error is the first omitted
    term);
  - x < 20: Taylor steps of the Riccati equation itself back from x = 20,
    seeded by that series (Corliss & Chang 1982).  Around a centre x_c,
    Phi(x_c*(1 + s)) = sum_k b_k s**k with S_k = sum_{i=0..k} b_i b_{k-i} and
    b_{k+1} = [x_c ([k=0] + [k=1]) + (2*nu-1-k) b_k - x_c (S_k + S_{k-1})]/(k+1)
    (``taylor_coefficients``).  Each step is as long as the decay of its
    coefficients allows (Jorba & Zou 2005), and every requested x is
    evaluated on its own step's polynomial.  The K solution is the one
    bounded as x -> oo and attracts every other in the backward direction.

Negative orders in [-1, 0) are served like any other: the I side steps
the recurrence down once from nu+1 >= 0, and the K side uses the symmetry
K_{-mu} = K_mu, which gives Phi1(nu, x) = 1/Phi1(1-nu, x).  `verify` checks
every claim whose proved order range reaches these rows.

Derived quantities are assembled from the two ratios through exact
algebraic relations, arranged to avoid cancellation, by one row function,
``quantity_row``; each result carries an honest ``est_error``.  ``psi``,
``double_ratio`` and ``product`` are its one-point calls.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

# not called here: a module attribute that perfbench's tracer wraps by name
from ._lazy import solve_ivp  # noqa: F401
from .errors import DomainError, EvaluationError
from .nullclines import EvalPoint

_EPS = 2.220446049250313e-16
CF_TOL = 1.0e-14          # relative stop for the Lentz continued fraction
CF_MAX_ITER = 1_000_000
CF_TINY = 1.0e-300        # floor against zero denominators in Lentz
# Taylor steps (taylor_step: the backward K seed, and riccati_lab's
# trajectories) keep b_0 .. b_n, n = _TAYLOR_ORDER, and move at most
# _MAX_STEP times their centre: half the distance to x = 0, the singular
# point of the equation (for the K seed the nearest singularity, since K_nu
# has no zeros in Re x > 0).
_TAYLOR_ORDER = 30
_MAX_STEP = 0.5


class RatioKind(enum.Enum):
    """Selects the Bessel family: FIRST is I (regular), SECOND is K."""

    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class OracleResult:
    """A reference value with an error estimate and the method that made it."""

    value: float
    est_error: float
    method: str


def _check_order_range(nu: float) -> None:
    if nu < -1.0:
        raise DomainError(f"oracle supports orders nu >= -1, got nu={nu}")


# ----------------------------------------------------------------------
# I-ratio: continued fraction (modified Lentz)
# ----------------------------------------------------------------------

def _lentz_i_ratio(nu: float, x: float) -> Tuple[float, float]:
    """Continued fraction for I_{nu-1}(x)/I_nu(x), nu >= 0.

    Returns (value, est_error).  The estimate covers the truncation (four
    times the last relative delta) and roundoff: each Lentz step multiplies
    the value by one more rounded factor, so it grows with the iteration
    count j as (j + 4) eps.  Against 40- and 50-digit references at 24,000
    random points (nu in [-1, 40], x in [10**-3.5, 10**3]) the error stays
    below 0.75x this estimate, while 4*(delta + eps) alone was exceeded (by
    1.33x at nu = 1/2, x = 1.99).
    """
    b0 = 2.0 * nu / x
    f = b0 if b0 != 0.0 else CF_TINY
    c = f
    d = 0.0
    two_over_x = 2.0 / x
    for j in range(1, CF_MAX_ITER + 1):
        bj = two_over_x * (nu + j)
        d = bj + d
        if d == 0.0:
            d = CF_TINY
        c = bj + 1.0 / c
        if c == 0.0:
            c = CF_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < CF_TOL:
            return f, abs(f) * (4.0 * abs(delta - 1.0) + (j + 4) * _EPS)
    raise EvaluationError(
        f"continued fraction did not converge in {CF_MAX_ITER} iterations at nu={nu}, x={x}"
    )


def i_ratio(p: EvalPoint) -> OracleResult:
    """Reference value of I_{nu-1}(x)/I_nu(x) for nu >= -1.

    For nu >= 0 this is the continued fraction directly; orders in [-1, 0)
    take one exact recurrence step down, Phi0(nu) = 2*nu/x + 1/Phi0(nu+1)
    (the step is exact but can lose relative precision at small x,
    reflected in est_error).
    """
    _check_order_range(p.nu)
    if p.nu >= 0.0:
        return OracleResult(*_lentz_i_ratio(p.nu, p.x), "continued-fraction")
    up, up_err = _lentz_i_ratio(p.nu + 1.0, p.x)
    head = 2.0 * p.nu / p.x
    val = head + 1.0 / up
    est = up_err / (up * up) + _EPS * (abs(head) + abs(1.0 / up))
    return OracleResult(val, est, "continued-fraction+step-down")


def i_ratio_row(nu: float, xs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Vector form of ``i_ratio`` along one order row; returns (values, est_errors)."""
    vals = np.empty(len(xs))
    ests = np.empty(len(xs))
    for i, x in enumerate(xs):
        r = i_ratio(EvalPoint(nu, x))
        vals[i] = r.value
        ests[i] = r.est_error
    return vals, ests


# ----------------------------------------------------------------------
# K-ratio: class seed (exact, large-x series or backward Riccati), ladder
# ----------------------------------------------------------------------

SERIES_X = 20.0           # the series serves x >= this at every seed order


def large_x_coefficients(nu: float, c0: float, n: int = 61) -> List[float]:
    """The first n coefficients c_k of the large-x series Phi ~ sum c_k x**-k
    of the Riccati equation: c0 = 1 gives Phi0, c0 = -1 gives Phi1 (module
    docstring).  Stops early before the first non-finite coefficient."""
    c = [c0]
    for k in range(n - 1):
        nxt = ((k + 2.0 * nu - 1.0) * c[k]
               - sum(map(operator.mul, c[1:k + 1], c[k:0:-1]))) / (2.0 * c0)
        if not math.isfinite(nxt):
            break
        c.append(nxt)
    return c


def large_x_series(nu: float, xs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Phi1(nu, x) from the Riccati-generated large-x series; (values,
    est_errors).  Each x stops before its smallest omitted term; the error
    estimate is the larger of the next two omitted terms (one coefficient
    can vanish by accident, as c_4 does at nu = 5/2) plus roundoff."""
    c = large_x_coefficients(nu, -1.0)
    k = np.arange(len(c))[:, None]
    terms = np.array(c)[:, None] * np.asarray(xs, dtype=float) ** -k
    omitted = np.maximum(np.abs(terms[1:-1]), np.abs(terms[2:]))  # row m: stop after m
    last = np.argmin(omitted, axis=0)
    vals = np.where(k <= last, terms, 0.0)[::-1].cumsum(axis=0)[-1]  # smallest first
    return vals, omitted[last, np.arange(len(xs))] + 2.0 * _EPS * np.abs(vals)


def default_x_start(nu: float) -> float:
    """Start of the backward Taylor steps at order nu: the first of 20, 40,
    80, ... where the large-x series is good to roundoff.  That is 20 at
    every order in [-1, 1], which holds all ladder seeds; forced
    integrations at high orders start near nu**2 and cost in proportion."""
    x, (v, e) = SERIES_X, large_x_series(nu, [SERIES_X])
    while e[0] > 4.0 * _EPS * abs(v[0]):
        x *= 2.0
        v, e = large_x_series(nu, [x])
    return x


def taylor_coefficients(nu: float, x0: float, phi0: float, n: int) -> List[float]:
    """The first n coefficients b_k of Phi(x0*(1 + s)) = sum b_k s**k for the
    solution of the Riccati equation through (x0, phi0) (module docstring)."""
    b, c, prev = [phi0], 2.0 * nu - 1.0, 0.0
    q = (1.0 - phi0) * (1.0 + phi0)       # 1 - S_0 without cancellation at phi0 ~ -1
    for k in range(n - 1):
        sk = sum(map(operator.mul, b, reversed(b)))     # b holds b_0..b_k
        t = q if k == 0 else (q - sk if k == 1 else -(sk + prev))
        b.append((x0 * t + (c - k) * b[k]) / (k + 1))
        prev = sk
    return b


def horner(b, s):
    """(sum b_k s**k, roundoff bound) by Horner's rule with Higham's running
    error bound; b is a list of floats, or of arrays shaped like s."""
    y = b[-1]
    mu = 0.5 * abs(y)
    for bk in b[-2::-1]:
        y = y * s + bk
        mu = abs(s) * mu + abs(y)
    return y, _EPS * (2.0 * mu - abs(y))


def taylor_step(nu: float, xc, phi):
    """(b, h): the coefficients b_0..b_n, n = _TAYLOR_ORDER, of the solution
    through (xc, phi), and the longest relative step h whose last two terms
    stay below eps*|b_0| (coefficient decay, Jorba & Zou), at most
    _MAX_STEP; h is 0 where b_{n-1} + b_n is not finite.  nu, xc and phi
    are floats or arrays of lanes.  Where eps*|b_0| is 0 (at a zero of Phi,
    or when it underflows) the bound is eps*|b_1|, the scale of Phi next to
    its zero."""
    n = _TAYLOR_ORDER
    b = taylor_coefficients(nu, xc, phi, n + 1)
    tol = _EPS * np.abs(phi)
    tol = np.where(tol > 0.0, tol, _EPS * np.abs(b[1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.fmin((tol / np.abs(b[n - 1])) ** (1.0 / (n - 1)), (tol / np.abs(b[n])) ** (1.0 / n))
        return b, np.where(np.isfinite(b[n - 1] + b[n]), np.minimum(h, _MAX_STEP), 0.0)


def _step_error(nu: float, xc, b, s, y, rounding):
    """Error a Taylor step adds to its value y at s: the truncation tail
    (taken as the last two terms kept), Horner roundoff, the rounding of
    s = x/xc - 1 (at most eps*x in x) and that of b_1, whose three terms
    nearly cancel at large x.  The later coefficients' rounding stayed
    below the Horner bound against 50-digit coefficient sums."""
    n, a, c = len(b) - 1, abs(s), 2.0 * nu - 1.0
    x = xc * (1.0 + s)
    return (abs(b[n]) * a ** n + abs(b[n - 1]) * a ** (n - 1) + rounding
            + _EPS * abs(x + c * y - x * y * y)
            + 2.0 * _EPS * a * (xc * abs((1.0 - b[0]) * (1.0 + b[0])) + abs(c * b[0])))


def _taylor_row(nu: float, x0: float, phi0: float, err0: float, xs: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """(values, est_errors) at increasing xs < x0 of the Riccati solution
    through (x0, phi0), known to err0, by Taylor steps back from x0.

    A step keeps b_0..b_n at its centre xc and runs to xc*(1 - h), h from
    ``taylor_step``.  The xs inside it, and the next centre, are evaluated
    on its polynomial.  The error at x is the step's own (``_step_error``)
    plus the relative error carried in at xc, which the flow shrinks: along
    a negative solution, a relative perturbation obeys
    d ln|delta/Phi| / d(-x) = Phi + 1/Phi <= -2.
    """
    centres, rels, coefs = [], [], []
    step = np.empty(len(xs), dtype=int)        # the step each x falls in
    xc, phi, rel, j = x0, phi0, err0 / abs(phi0), len(xs)
    while j > 0:
        b, h = taylor_step(nu, xc, phi)
        if not h > 0.0:
            raise EvaluationError(f"Taylor step collapsed at nu={nu}, x={xc}")
        x_next = xc * (1.0 - h)
        i = int(np.searchsorted(xs, x_next))   # xs[i:j] lie in [x_next, xc)
        step[i:j] = len(coefs)
        centres.append(xc)
        rels.append(rel)
        coefs.append(b)
        s = x_next / xc - 1.0
        phi, rounding = horner(b, s)
        rel = (rel * math.exp(-2.0 * (xc - x_next))
               + _step_error(nu, xc, b, s, phi, rounding) / abs(phi))
        xc, j = x_next, i
    xc = np.array(centres)[step]
    b = np.array(coefs).T[:, step]
    s = xs / xc - 1.0
    vals, rounding = horner(b, s)
    ests = (np.abs(vals) * np.array(rels)[step] * np.exp(-2.0 * (xc - xs))
            + _step_error(nu, xc, b, s, vals, rounding))
    return vals, ests


def _k_seed_row(nu: float, xs: np.ndarray):
    """(values, est_errors, method) of Phi1 at order nu: the series at
    x >= default_x_start(nu), Taylor steps of the Riccati equation below it."""
    x0 = default_x_start(nu)
    lo = xs < x0
    vals, ests = np.empty(len(xs)), np.empty(len(xs))
    vals[~lo], ests[~lo] = large_x_series(nu, xs[~lo])
    if not lo.any():
        return vals, ests, "large-x-series"
    (v0,), (e0,) = large_x_series(nu, [x0])
    vals[lo], ests[lo] = _taylor_row(nu, x0, v0, e0, xs[lo])
    return vals, ests, "taylor-riccati"


def k_ratio_rows(nus: Sequence[float], xs: Sequence[float], method: str = "auto"
                 ) -> Dict[float, Tuple[np.ndarray, np.ndarray, str]]:
    """Reference rows of Phi1 = -K_{nu-1}/K_nu: one seed per order class,
    then the ladder (module docstring), vectorised over xs; orders in
    [-1, 0) join the class of 1 - nu by reflection.  Nothing is cached
    across calls.

    xs must be positive and strictly increasing.  ``method`` is "auto" or
    "integration": one direct seed (series, then Taylor steps) at each
    requested order, with no ladder step and no reflection, the reference the ladder is tested
    against.  Returns {nu: (values, est_errors, method_used)}.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) == 0 or np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
        raise DomainError("xs must be a non-empty, positive, strictly increasing 1-d sequence")
    if method not in ("auto", "integration"):
        raise DomainError(f"unknown k_ratio method {method!r}")
    direct = method == "integration"
    # order -> the order actually computed; seed order -> orders it climbs to
    bases, classes = {}, {}
    for nu in nus:
        _check_order_range(nu)
        base = bases[nu] = 1.0 - nu if nu < 0.0 and not direct else nu
        # seed: the fractional part, else 1 (0 for 0: the ladder only climbs)
        classes.setdefault(base if direct else base % 1.0 or min(base, 1.0), set()).add(base)

    rows = {}
    for seed, orders in classes.items():
        if seed == 0.5 and not direct:
            vals, ests, used = -np.ones(len(xs)), np.zeros(len(xs)), "half-integer-recurrence"
        else:
            vals, ests, used = _k_seed_row(seed, xs)
        r, rel, nu = -vals, ests / np.abs(vals), seed
        for target in sorted(orders):
            for _ in range(round(target - nu)):
                d = 2.0 * nu / xs + r
                rel = rel * (r / d) + 2.0 * _EPS
                r = 1.0 / d
                nu += 1.0
            climbed = target > seed and seed != 0.5
            rows[target] = (-r, rel * r, used + "+ladder" if climbed else used)

    out = {}
    for nu, base in bases.items():
        vals, ests, used = rows[base]
        if base != nu:  # K_{-mu} = K_mu gives Phi1(nu, x) * Phi1(1-nu, x) = 1
            inv = 1.0 / vals
            vals, ests, used = inv, ests * inv * inv + _EPS * np.abs(inv), "reflection+" + used
        out[nu] = (vals, ests, used)
    return out


def k_ratio_row(nu: float, xs: Sequence[float], method: str = "auto"
                ) -> Tuple[np.ndarray, np.ndarray, str]:
    """One order row of ``k_ratio_rows``: (values, est_errors, method_used)."""
    return k_ratio_rows([nu], xs, method=method)[nu]


def k_ratio(p: EvalPoint, method: str = "auto") -> OracleResult:
    """Reference value of Phi1(nu, x) = -K_{nu-1}(x)/K_nu(x) for nu >= -1."""
    vals, ests, used = k_ratio_row(p.nu, [p.x], method=method)
    return OracleResult(float(vals[0]), float(ests[0]), used)


# ----------------------------------------------------------------------
# Derived quantities
# ----------------------------------------------------------------------

def quantity_row(qid: str, nu: float, xs: np.ndarray,
                 ratio: Callable[[str], Tuple[np.ndarray, np.ndarray]]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """(values, est_errors) of one oracle quantity along an order row.

    ``qid`` is one of "Phi0", "Phi1", "K-ratio-pos" (-Phi1), "xPhi0",
    "psi_I", "psi_K" (psi = x*Phi - nu), "W_I", "W_K" (W = Phi(nu)/Phi(nu+1)),
    "P" (I_nu*K_nu) or "xP".  ``ratio(name)`` serves the (values,
    est_errors) row of "Phi0", "Phi0_up" (Phi0 at order nu + 1) or "Phi1";
    it is asked only for the ratios ``qid`` needs.
    """
    if qid in ("Phi0", "Phi1"):
        return ratio(qid)
    if qid == "K-ratio-pos":
        phi1, est = ratio("Phi1")
        return -phi1, est
    if qid == "xPhi0":
        phi0, est = ratio("Phi0")
        v = xs * phi0
        return v, xs * est + _EPS * np.abs(v)
    if qid in ("psi_I", "psi_K"):
        phi, est = ratio("Phi0" if qid == "psi_I" else "Phi1")
        return xs * phi - nu, xs * est + _EPS * (np.abs(xs * phi) + abs(nu))
    if qid == "W_I":
        # quotient of two first-kind ratios: no subtraction anywhere
        (phi0, est), (up, up_est) = ratio("Phi0"), ratio("Phi0_up")
        v = phi0 / up
        return v, est / np.abs(up) + np.abs(v) * up_est / np.abs(up) + _EPS * np.abs(v)
    if qid == "W_K":
        # factored form phi1*(phi1 - 2 nu/x): both factors negative for
        # nu >= 0, so no cancellation
        phi1, est = ratio("Phi1")
        shift = phi1 - 2.0 * nu / xs
        v = phi1 * shift
        return v, ((np.abs(phi1) + np.abs(shift)) * est
                   + _EPS * (np.abs(phi1) + np.abs(shift)) * np.abs(phi1))
    if qid in ("P", "xP"):
        # the Wronskian relation P = 1/(x*(Phi0 - Phi1))
        (phi0, est0), (phi1, est1) = ratio("Phi0"), ratio("Phi1")
        gap = phi0 - phi1      # both-signs gap, always > 0
        if np.any(gap <= 0):
            raise EvaluationError(f"ratio gap not positive at nu={nu}")
        p = 1.0 / (xs * gap)
        est = (est0 + est1) / (xs * gap * gap) + _EPS * p
        if qid == "P":
            return p, est
        return xs * p, xs * est + _EPS * xs * p
    raise DomainError(f"unknown oracle quantity {qid!r}")


def _at_point(qid: str, p: EvalPoint) -> OracleResult:
    """One-point call of ``quantity_row``, fed by ``i_ratio`` and ``k_ratio``;
    the method names the ratio methods used."""
    used: Dict[str, OracleResult] = {}

    def ratio(name: str) -> Tuple[np.ndarray, np.ndarray]:
        if name == "Phi1":
            r = k_ratio(p)
        else:
            r = i_ratio(EvalPoint(p.nu + 1.0, p.x) if name == "Phi0_up" else p)
        used[name] = r
        return np.array([r.value]), np.array([r.est_error])

    vals, ests = quantity_row(qid, p.nu, np.array([p.x]), ratio)
    method = "/".join(dict.fromkeys(r.method for r in used.values()))
    return OracleResult(float(vals[0]), float(ests[0]), method)


def _kind_suffix(kind: RatioKind) -> str:
    if kind is RatioKind.FIRST:
        return "_I"
    if kind is RatioKind.SECOND:
        return "_K"
    raise DomainError(f"unknown ratio kind {kind!r}")


def psi(kind: RatioKind, p: EvalPoint) -> OracleResult:
    """Logarithmic-derivative shift psi = x*Phi - nu.

    For FIRST this equals x*I_nu'(x)/I_nu(x); for SECOND, x*K_nu'(x)/K_nu(x)
    (both from C' = C_{nu-1} -+ (nu/x)*C with the sign conventions above).
    """
    return _at_point("psi" + _kind_suffix(kind), p)


def double_ratio(kind: RatioKind, p: EvalPoint) -> OracleResult:
    """W = Phi(nu)/Phi(nu+1), the ratio of consecutive ratios.

    Algebraically W = (psi**2 - nu**2)/x**2 = Phi*(Phi - 2*nu/x).  The I
    side is computed as a quotient of two continued fractions and the K side
    through the factored form (Phi - 2*nu/x has no cancellation for nu >= 0
    since Phi1 < 0); both routes avoid the psi**2 - nu**2 subtraction, which
    loses most of its precision at small x.
    """
    return _at_point("W" + _kind_suffix(kind), p)


def product(p: EvalPoint) -> OracleResult:
    """P = I_nu(x)*K_nu(x) through the Wronskian relation P = 1/(x*(Phi0 - Phi1)).

    Valid for nu >= -1 (orders in [-1, 0) ride on the documented oracle
    extensions for the two ratios).
    """
    return _at_point("P", p)
