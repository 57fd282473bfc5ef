"""Reference evaluation of Bessel ratios built only from recurrence structure.

Nothing here calls a Bessel implementation.  The oracles rest on the
three-term recurrence C_{nu+1}(x) = C_{nu-1}(x) - (2*nu/x)*C_nu(x) and on
the Riccati equation the ratios satisfy,

      Phi'(x) = 1 + ((2*nu-1)/x)*Phi - Phi**2.

* ``i_ratio_rows`` (and its one-row form ``i_ratio_row``): Phi0 =
  I_{nu-1}/I_nu by backward recurrence (Gautschi 1967; Amos 1974), the
  recurrence Phi0(nu) = 2*nu/x + 1/Phi0(nu+1) stepped down the orders.  In
  s = 1/Phi0 that is s(nu) = 1/(2*nu/x + s(nu+1)), the same step the K
  ladder takes upward (``_ladder_step``), and I being the minimal
  solution, each step shrinks the relative error carried down by
  s(nu+1)/Phi0(nu).  The value at an anchor order a comes from the ladder
  itself, started cold far above a at both ends of the range s is known
  to lie in, so the two runs bracket Phi0(a) (``_anchor_ends``); every
  (anchor, x) pair is one lane of flat arrays.  From the anchor the row
  steps on down to the requested order.  The anchor depends on the order
  alone: base order b = nu (nu + 1 for nu in [-1, 0), which then takes
  one more step down), anchor b + m at the top of b's block of
  I_ANCHOR_SPAN unit steps.

* ``k_ratio_rows`` (and its one-row form ``k_ratio_row``): Phi1 = -K_{nu-1}/K_nu as seed, then ladder.  Orders are
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
the recurrence down once more from nu+1 >= 0, and the K side uses the symmetry
K_{-mu} = K_mu, which gives Phi1(nu, x) = 1/Phi1(1-nu, x).  `verify` checks
every claim whose proved order range reaches these rows.

Derived quantities are assembled from the two ratios through exact
algebraic relations, arranged to avoid cancellation, by one row function,
``quantity_row``; each result carries an honest ``est_error``.

The one-point calls ``i_ratio``, ``k_ratio`` and ``product`` (an
``OracleResult`` at an ``EvalPoint``) serve only the benchmark's reference
check; every package caller takes rows, a lone point as a one-element row.

``solve_ivp`` is a stand-in for scipy's, and nothing in the package calls
it: the oracle and ``riccati_lab`` integrate the Riccati equation by
Taylor steps (``taylor_step``).  It stays because perfbench's tracer wraps
``oracle.solve_ivp`` and ``riccati_lab.solve_ivp`` by name (``riccati_lab``
imports this one).  It would import scipy only when called, and scipy is
not a dependency of the package.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, EvaluationError
from .nullclines import EPS, EvalPoint

# first-kind anchors: an order's row comes down the ladder from the top of
# its block of I_ANCHOR_SPAN unit steps (``_i_chains``), where
# ``_anchor_ends`` starts at most I_MAX_DEPTH steps higher (6*sqrt(x) + 10
# steps reach it near x = 2.8e10)
I_ANCHOR_SPAN = 16
I_MAX_DEPTH = 1_000_000
# Taylor steps (taylor_step: the backward K seed, and riccati_lab's
# trajectories) keep b_0 .. b_n, n = _TAYLOR_ORDER, and move at most
# _MAX_STEP times their centre: half the distance to x = 0, the singular
# point of the equation (for the K seed the nearest singularity, since K_nu
# has no zeros in Re x > 0).
_TAYLOR_ORDER = 30
_MAX_STEP = 0.5


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use; see the module
    docstring for why it stays."""
    from scipy.integrate import solve_ivp as impl
    return impl(*args, **kwargs)


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


def _check_rows(nus: Sequence[float], xs: Sequence[float]) -> np.ndarray:
    """xs as an array, once every order is finite and >= -1 and xs is
    finite, positive and strictly increasing; else DomainError."""
    for nu in nus:
        if not -1.0 <= nu < math.inf:
            raise DomainError(f"oracle supports finite orders nu >= -1, got nu={nu}")
    xs = np.asarray(xs, dtype=float)
    if not (xs.ndim == 1 and len(xs) and np.all(xs > 0) and np.all(np.diff(xs) > 0)
            and xs[-1] < math.inf):
        raise DomainError("xs must be a non-empty, finite, positive, strictly increasing 1-d sequence")
    return xs


# ----------------------------------------------------------------------
# I-ratio: the order ladder, cold to the anchor orders, then down
# ----------------------------------------------------------------------

def _ladder_step(two_nu, xs, r, rel):
    """One step of the order ladder: (d, 1/d, rel') for d = 2*nu/x + r,
    where r is known to relative error rel.  The K rows climb it upward in
    r = K_{nu-1}/K_nu, the I rows step down it in s = 1/Phi0, where d is
    Phi0 at order nu; two_nu = 2*nu is a float or a column for a block of
    rows.  rel' = rel*|r/d| + 2 eps covers the rounding of 2*nu/x, of the
    sum and of one reciprocal (unit roundoff is eps/2).  Only the I step to
    nu in [-1, 0) has 2*nu/x < 0, and there the sum can cancel.  Its
    rounding, eps/2 * |2*nu/x| <= eps/2 * (|r| + |d|), then fits in the eps
    that the step before it, at the exact base order, left spare in rel."""
    d = two_nu / xs + r
    return d, 1.0 / d, rel * np.abs(r / d) + 2.0 * EPS


def _i_chains(nus: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """(orders, lengths): row i lists the orders the first-kind row of
    nus[i] visits, anchor first: b + m, b + m - 1, ..., b, then nus[i]
    itself if it is negative.  The base b is nu, or nu + 1 for nu in
    [-1, 0); the anchor b + m tops b's block of I_ANCHOR_SPAN unit steps,
    m = I_ANCHOR_SPAN - 1 - floor(b) mod I_ANCHOR_SPAN.  Each row depends
    on its order alone.  Past its length a row goes on down b - 1, b - 2,
    ..., so the rows of the orders of one lattice block are equal."""
    nu = np.array(nus, dtype=float)
    neg = nu < 0.0
    base = np.where(neg, nu + 1.0, nu)
    m = I_ANCHOR_SPAN - 1 - np.floor(base) % I_ANCHOR_SPAN
    orders = base[:, None] + (m[:, None] - np.arange(I_ANCHOR_SPAN + 1))
    lengths = m.astype(int) + 1 + neg
    orders[neg, lengths[neg] - 1] = nu[neg]
    return orders, lengths


def _anchor_ends(anchors: np.ndarray, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(ends, rels): at every anchor order a and x, the two ends of a
    bracket on Phi0(a, x) and their running rounding bounds (relative),
    each a (2, len(anchors), len(xs)) array.

    Phi0(nu) = 2*nu/x + s(nu + 1) > 2*nu/x, so s = 1/Phi0 lies in
    (0, x/(2*nu)) at every order.  Each (anchor, x) lane starts the order
    ladder at both ends of that range at order a + D, with rel = 0, and
    steps both down to a.  The step s -> 1/(2*nu/x + s) is decreasing, so
    the two runs bracket Phi0 at every order on the way (Seidel-Stern),
    and since Phi0 is the minimal solution the bracket closes as D grows
    (Gautschi 1967).  D starts at ceil(6*sqrt(x) + 10): the contraction
    over the run is about exp(-D**2/x) at large x.  A lane whose bracket
    is still wider than 2 eps relative runs again from twice its depth;
    past I_MAX_DEPTH it raises EvaluationError naming the lane.  D depends
    on x alone and lanes never mix, so a lane's bits depend on its anchor
    and x alone.  The lanes of a run all take their first step together,
    each from its own start, and sit deepest first, so the lanes still
    stepping are a prefix that shrinks as lanes reach their anchors.
    The upper start x/(2*(a + D)) is rounded, so it may fall short of
    s(a + D) by eps/2 of the range, which the run contracts as it
    contracts the range itself."""
    a, x = np.repeat(anchors, len(xs)), np.tile(xs, len(anchors))
    depth = np.ceil(6.0 * np.sqrt(x) + 10.0)
    ends, rels = np.empty((2, len(x))), np.empty((2, len(x)))
    todo = np.arange(len(x))
    while len(todo):
        lanes = todo[np.argsort(-depth[todo], kind="stable")]
        la, lx, ld = a[lanes], x[lanes], depth[lanes]
        if ld[0] > I_MAX_DEPTH:
            raise EvaluationError(f"first-kind ladder needs more than {I_MAX_DEPTH} "
                                  f"steps at nu={la[0]}, x={lx[0]}")
        # lane i takes its last step, to its anchor, at step steps[i] - 1;
        # the lanes that end at step k are lanes[stop[k]:n], n those still live
        steps = ld.astype(int).tolist()
        stop = {steps[i] - 1: i for i in reversed(range(len(steps)))}
        r = np.stack([np.zeros(len(lanes)), lx / (2.0 * (la + ld))])
        rel, n = np.zeros_like(r), len(lanes)
        run_ends, run_rels = np.empty_like(r), np.empty_like(r)
        two_a, two_t = 2.0 * la, 2.0 * (ld - 1.0)      # 2a, and 2t for t = a lane's top step
        for k in range(steps[0]):
            # 2a + 2t is 2(a + t) exactly: scaling by 2 commutes with rounding
            d, r, rel = _ladder_step(two_a + (two_t - 2 * k), lx, r, rel)
            if k in stop:
                m = stop[k]
                run_ends[:, m:n], run_rels[:, m:n] = d[:, m:n], rel[:, m:n]
                r, rel, two_a, two_t, lx, n = r[:, :m], rel[:, :m], two_a[:m], two_t[:m], lx[:m], m
        ends[:, lanes], rels[:, lanes] = run_ends, run_rels
        todo = lanes[np.abs(run_ends[0] - run_ends[1]) > 2.0 * EPS * run_ends.min(axis=0)]
        depth[todo] *= 2.0
    shape = (2, len(anchors), len(xs))
    return ends.reshape(shape), rels.reshape(shape)


def i_ratio_rows(nus: Sequence[float], xs: Sequence[float]
                 ) -> Dict[float, Tuple[np.ndarray, np.ndarray, str]]:
    """Reference rows of Phi0 = I_{nu-1}/I_nu for orders nu >= -1: the
    order ladder run cold to each anchor order (``_anchor_ends``), then on
    down to every requested order (module docstring), vectorised over xs.
    Nothing is cached across calls.

    Each order's chain of orders (``_i_chains``) depends on the order
    alone, so a row's bits do not depend on which other orders were
    requested.  Orders whose chains coincide share one: on a lattice of
    quarter orders, all orders of one block of I_ANCHOR_SPAN.  The cold
    ladder runs once per chain, to its anchor, where the value is the
    lower end of its bracket and the estimate the bracket's width plus
    both ends' rounding bounds.  Below the anchors every chain steps down
    together in s = 1/Phi0 with ``_ladder_step``, one stacked step per
    order, and an order's value is the denominator 2*nu/x + s(nu + 1) of
    its step; the step from a base in [0, 1) to nu in [-1, 0) is one more
    step of the same kind.  Against 40-digit mpmath at 500 random points
    (nu in [-1, 40], x log-uniform in [10**-3.5, 10**3]) the median error
    is 4.9e-17 relative, the largest 4.7e-16, and the error is at most
    0.45 of this estimate (median 0.06).

    xs must be finite, positive and strictly increasing.  Returns
    {nu: (values, est_errors, method_used)}.
    """
    xs = _check_rows(nus, xs)
    rows = list(dict.fromkeys(nus))
    orders, lengths = _i_chains(rows)
    lengths = lengths.tolist()
    # rows with the same orders share one chain; taken longest first, each
    # chain's first row is its deepest, and the chains a step takes are a prefix
    ids, chain, tops = {}, [0] * len(rows), []
    for i in sorted(range(len(rows)), key=lambda i: -lengths[i]):
        chain[i] = ids.setdefault(orders[i].tobytes(), len(ids))
        if chain[i] == len(tops):
            tops.append(i)
    orders, depth = orders[tops], [lengths[i] for i in tops]
    finish = [[] for _ in range(depth[0])]     # step k ends the rows of length k + 1
    for i, n in enumerate(lengths):
        finish[n - 1].append(i)
    ends, rels = _anchor_ends(orders[:, 0], xs)
    # the lower end: off by at most the width plus both ends' rounding
    f = ends.min(axis=0)
    e = np.abs(ends[0] - ends[1]) + rels[0] * ends[0] + rels[1] * ends[1]
    vals, ests = np.empty((len(rows), len(xs))), np.empty((len(rows), len(xs)))
    d, r, rel = f, 1.0 / f, e / np.abs(f)
    for k, at in enumerate(finish):
        if k:       # step k takes the chains longer than k to their k-th order
            n = sum(m > k for m in depth)
            d, r, rel = _ladder_step(2.0 * orders[:n, k, None], xs, r[:n], rel[:n])
        if at:
            c = [chain[i] for i in at]
            vals[at], ests[at] = d[c], rel[c] * np.abs(d[c])
    return {nu: (vals[i], ests[i], "backward-recurrence") for i, nu in enumerate(rows)}


def i_ratio_row(nu: float, xs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, str]:
    """One order row of ``i_ratio_rows``: (values, est_errors, method_used)."""
    return i_ratio_rows([nu], xs)[nu]


def i_ratio(p: EvalPoint) -> OracleResult:
    """Reference value of Phi0(nu, x) = I_{nu-1}(x)/I_nu(x) for nu >= -1."""
    vals, ests, used = i_ratio_row(p.nu, [p.x])
    return OracleResult(float(vals[0]), float(ests[0]), used)


# ----------------------------------------------------------------------
# K-ratio: class seed (exact, large-x series or backward Riccati), ladder
# ----------------------------------------------------------------------

SERIES_X = 20.0           # the series serves x >= this at every seed order


def large_x_coefficients(nu, c0, n: int = 61) -> list:
    """The first n coefficients c_k of the large-x series Phi ~ sum c_k x**-k
    of the Riccati equation: c0 = 1 gives Phi0, c0 = -1 gives Phi1 (module
    docstring).  Generic over numbers: floats for the K seeds, Fractions
    for the exact series of ``expansions``.  Stops early before the first
    non-finite coefficient."""
    c = [c0]
    for k in range(n - 1):
        nxt = ((k + 2 * nu - 1) * c[k]
               - sum(map(operator.mul, c[1:k + 1], c[k:0:-1]))) / (2 * c0)
        if not math.isfinite(nxt):
            break
        c.append(nxt)
    return c


def large_x_series(c: List[float], xs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Phi1(nu, x) from its Riccati-generated large-x series, whose
    coefficients c = large_x_coefficients(nu, -1.0) are generated once per
    order by the caller; (values, est_errors).  Each x stops before its
    smallest omitted term; the error estimate is the larger of the next two
    omitted terms (one coefficient can vanish by accident, as c_4 does at
    nu = 5/2) plus roundoff.  Each x is summed on its own column, so its
    value does not depend on the other xs."""
    k = np.arange(len(c))[:, None]
    terms = np.array(c)[:, None] * np.asarray(xs, dtype=float) ** -k
    omitted = np.maximum(np.abs(terms[1:-1]), np.abs(terms[2:]))  # row m: stop after m
    last = np.argmin(omitted, axis=0)
    vals = np.where(k <= last, terms, 0.0)[::-1].cumsum(axis=0)[-1]  # smallest first
    return vals, omitted[last, np.arange(len(xs))] + 2.0 * EPS * np.abs(vals)


def _series_start(c: List[float]) -> Tuple[float, float, float]:
    """(x0, value, est_error): the first x0 of 20, 40, 80, ... where the
    large-x series with coefficients c is good to roundoff, and its value
    and estimate there."""
    x, (v, e) = SERIES_X, large_x_series(c, [SERIES_X])
    while e[0] > 4.0 * EPS * abs(v[0]):
        x *= 2.0
        v, e = large_x_series(c, [x])
    return x, v[0], e[0]


def default_x_start(nu: float) -> float:
    """Start of the backward Taylor steps at order nu: the first of 20, 40,
    80, ... where the large-x series is good to roundoff.  That is 20 at
    every order in [-1, 1], which holds all ladder seeds; a direct seed at
    a high order starts near nu**2 and costs in proportion."""
    return _series_start(large_x_coefficients(nu, -1.0))[0]


def taylor_coefficients(nu: float, x0: float, phi0: float, n: int):
    """The first n coefficients b_k of Phi(x0*(1 + s)) = sum b_k s**k for the
    solution of the Riccati equation through (x0, phi0) (module docstring).

    A scalar phi0 (the K seed: one lane per step) gives a list of floats.
    A 1-D array of lanes (nu and x0 floats or arrays like it) gives an
    (n, lanes) array, row k holding b_k: each S_k is then one multiply of
    the rows b_0..b_k by the rows b_k..b_0 and one sum down the rows, in
    order and from 0 like ``sum``, so every lane has the bits of its scalar
    run.  numpy sums pairwise, and so rounds differently, only along the
    fast axis of memory, which the rows of a one-column block would be: the
    products are summed in a block at least two columns wide."""
    c, prev = 2.0 * nu - 1.0, 0.0
    q = (1.0 - phi0) * (1.0 + phi0)       # 1 - S_0 without cancellation at phi0 ~ -1
    if np.ndim(phi0) == 0:
        b = [phi0]
        for k in range(n - 1):
            sk = sum(map(operator.mul, b, reversed(b)))     # b holds b_0..b_k
            t = q if k == 0 else (q - sk if k == 1 else -(sk + prev))
            b.append((x0 * t + (c - k) * b[k]) / (k + 1))
            prev = sk
        return b
    m = len(phi0)
    b = np.empty((n, m))
    b[0] = phi0
    terms = np.zeros((n + 1, max(m, 2)))   # row 0 stays 0, the start of each sum
    for k in range(n - 1):
        np.multiply(b[:k + 1], b[k::-1], out=terms[1:k + 2, :m])
        sk = np.add.reduce(terms[:k + 2])[:m]
        t = q if k == 0 else (q - sk if k == 1 else -(sk + prev))
        b[k + 1] = (x0 * t + (c - k) * b[k]) / (k + 1)
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
    return y, EPS * (2.0 * mu - abs(y))


def taylor_step(nu: float, xc, phi):
    """(b, h): the coefficients b_0..b_n, n = _TAYLOR_ORDER, of the solution
    through (xc, phi), and the longest relative step h whose last two terms
    stay below eps*|b_0| (coefficient decay, Jorba & Zou), at most
    _MAX_STEP; h is 0 where b_{n-1} + b_n is not finite.  nu, xc and phi
    are floats (b a list) or arrays of lanes (b an (n + 1, lanes) array;
    ``taylor_coefficients``).  Where eps*|b_0| is 0 (at a zero of Phi,
    or when it underflows) the bound is eps*|b_1|, the scale of Phi next to
    its zero."""
    n = _TAYLOR_ORDER
    b = taylor_coefficients(nu, xc, phi, n + 1)
    if np.ndim(phi) == 0:       # one lane (the K seed): the lanes' rule in plain floats
        tol = EPS * abs(phi) or EPS * abs(b[1])
        h = min([(tol / t) ** (1.0 / k) for k, t in ((n - 1, abs(b[n - 1])), (n, abs(b[n])))
                 if t > 0.0] + [_MAX_STEP])
        return b, h if math.isfinite(b[n - 1] + b[n]) else 0.0
    tol = EPS * np.abs(phi)
    tol = np.where(tol > 0.0, tol, EPS * np.abs(b[1]))
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
            + EPS * abs(x + c * y - x * y * y)
            + 2.0 * EPS * a * (xc * abs((1.0 - b[0]) * (1.0 + b[0])) + abs(c * b[0])))


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
    x >= default_x_start(nu), Taylor steps of the Riccati equation below it;
    the series coefficients are generated once."""
    c = large_x_coefficients(nu, -1.0)
    x0, v0, e0 = _series_start(c)
    lo = xs < x0
    vals, ests = np.empty(len(xs)), np.empty(len(xs))
    vals[~lo], ests[~lo] = large_x_series(c, xs[~lo])
    if not lo.any():
        return vals, ests, "large-x-series"
    vals[lo], ests[lo] = _taylor_row(nu, x0, v0, e0, xs[lo])
    return vals, ests, "taylor-riccati"


def k_ratio_rows(nus: Sequence[float], xs: Sequence[float]
                 ) -> Dict[float, Tuple[np.ndarray, np.ndarray, str]]:
    """Reference rows of Phi1 = -K_{nu-1}/K_nu: one seed per order class,
    then the ladder (module docstring), vectorised over xs; orders in
    [-1, 0) join the class of 1 - nu by reflection.  Nothing is cached
    across calls.

    xs must be finite, positive and strictly increasing.  Returns
    {nu: (values, est_errors, method_used)}.
    """
    xs = _check_rows(nus, xs)
    # order -> the order actually computed; seed order -> orders it climbs to
    bases, classes = {}, {}
    for nu in nus:
        base = bases[nu] = 1.0 - nu if nu < 0.0 else nu
        # seed: the fractional part, else 1 (0 for 0: the ladder only climbs)
        classes.setdefault(base % 1.0 or min(base, 1.0), set()).add(base)

    rows = {}
    for seed, orders in classes.items():
        if seed == 0.5:
            vals, ests, used = -np.ones(len(xs)), np.zeros(len(xs)), "half-integer-recurrence"
        else:
            vals, ests, used = _k_seed_row(seed, xs)
        r, rel, nu = -vals, ests / np.abs(vals), seed
        for target in sorted(orders):
            for _ in range(round(target - nu)):
                _, r, rel = _ladder_step(2.0 * nu, xs, r, rel)
                nu += 1.0
            climbed = target > seed and seed != 0.5
            rows[target] = (-r, rel * r, used + "+ladder" if climbed else used)

    out = {}
    for nu, base in bases.items():
        vals, ests, used = rows[base]
        if base != nu:  # K_{-mu} = K_mu gives Phi1(nu, x) * Phi1(1-nu, x) = 1
            inv = 1.0 / vals
            vals, ests, used = inv, ests * inv * inv + EPS * np.abs(inv), "reflection+" + used
        out[nu] = (vals, ests, used)
    return out


def k_ratio_row(nu: float, xs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, str]:
    """One order row of ``k_ratio_rows``: (values, est_errors, method_used)."""
    return k_ratio_rows([nu], xs)[nu]


def k_ratio(p: EvalPoint) -> OracleResult:
    """Reference value of Phi1(nu, x) = -K_{nu-1}(x)/K_nu(x) for nu >= -1."""
    vals, ests, used = k_ratio_row(p.nu, [p.x])
    return OracleResult(float(vals[0]), float(ests[0]), used)


# ----------------------------------------------------------------------
# Derived quantities
# ----------------------------------------------------------------------

def quantity_row(qid: str, nu: float, xs: np.ndarray,
                 ratio: Callable[[str], Tuple[np.ndarray, np.ndarray]]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """(values, est_errors) of one oracle quantity along an order row, or
    over a block of rows when ``nu`` is a column of orders.

    ``qid`` is one of "Phi0", "Phi1", "K-ratio-pos" (-Phi1), "xPhi0",
    "psi_I", "psi_K" (psi = x*Phi - nu = x*C_nu'/C_nu for C = I, K), "W_I",
    "W_K" (W = Phi(nu)/Phi(nu+1)), "P" (I_nu*K_nu) or "xP".  ``ratio(name)``
    serves the (values, est_errors) rows of "Phi0", "Phi0_up" (Phi0 at
    order nu + 1) or "Phi1"; it is asked only for the ratios ``qid`` needs.
    Every element is computed as in its own one-point call; a P gap that is
    not positive raises, naming the first order row that holds one.
    """
    if qid in ("Phi0", "Phi1"):
        return ratio(qid)
    if qid == "K-ratio-pos":
        phi1, est = ratio("Phi1")
        return -phi1, est
    if qid in ("xPhi0", "xP"):
        # x times Phi0 or P: one rounding more
        v, est = quantity_row(qid[1:], nu, xs, ratio)
        v = xs * v
        return v, xs * est + EPS * np.abs(v)
    if qid in ("psi_I", "psi_K"):
        phi, est = ratio("Phi0" if qid == "psi_I" else "Phi1")
        return xs * phi - nu, xs * est + EPS * (np.abs(xs * phi) + abs(nu))
    if qid == "W_I":
        # quotient of two first-kind ratios: no subtraction anywhere
        (phi0, est), (up, up_est) = ratio("Phi0"), ratio("Phi0_up")
        v = phi0 / up
        return v, est / np.abs(up) + np.abs(v) * up_est / np.abs(up) + EPS * np.abs(v)
    if qid == "W_K":
        # factored form phi1*(phi1 - 2 nu/x): both factors negative for
        # nu >= 0, so no cancellation
        phi1, est = ratio("Phi1")
        shift = phi1 - 2.0 * nu / xs
        v = phi1 * shift
        return v, ((np.abs(phi1) + np.abs(shift)) * est
                   + EPS * (np.abs(phi1) + np.abs(shift)) * np.abs(phi1))
    if qid == "P":
        # the Wronskian relation P = 1/(x*(Phi0 - Phi1))
        (phi0, est0), (phi1, est1) = ratio("Phi0"), ratio("Phi1")
        gap = phi0 - phi1      # both-signs gap, always > 0
        if np.any(gap <= 0):
            first = np.argmax(np.any(gap <= 0, axis=-1))    # order row
            raise EvaluationError(f"ratio gap not positive at nu={np.ravel(nu)[first]}")
        p = 1.0 / (xs * gap)
        return p, (est0 + est1) / (xs * gap * gap) + EPS * p
    raise DomainError(f"unknown oracle quantity {qid!r}")


def product(p: EvalPoint) -> OracleResult:
    """P = I_nu(x)*K_nu(x) through the Wronskian relation P = 1/(x*(Phi0 - Phi1)):
    ``quantity_row("P", ...)`` fed by ``i_ratio`` and ``k_ratio``, whose
    methods it names.

    Valid for nu >= -1 (orders in [-1, 0) ride on the documented oracle
    extensions for the two ratios).
    """
    used = {"Phi0": i_ratio(p), "Phi1": k_ratio(p)}
    vals, ests = quantity_row("P", p.nu, np.array([p.x]), lambda name: (
        np.array([used[name].value]), np.array([used[name].est_error])))
    method = "/".join(dict.fromkeys(r.method for r in used.values()))
    return OracleResult(float(vals[0]), float(ests[0]), method)
