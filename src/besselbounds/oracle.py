"""Reference evaluation of Bessel ratios built only from recurrence structure.

Nothing here calls a Bessel implementation.  The oracles rest on the
three-term recurrence C_{nu+1}(x) = C_{nu-1}(x) - (2*nu/x)*C_nu(x), on
K's integral representation and on the Riccati equation the ratios
satisfy,

      Phi'(x) = 1 + ((2*nu-1)/x)*Phi - Phi**2,

whose large-x series ``large_x_coefficients`` generates for ``expansions``.

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

* ``k_ratio_rows`` (and its one-row form ``k_ratio_row``): Phi1 =
  -K_{nu-1}/K_nu as seed, then ladder.  Orders are grouped by class nu mod
  1 and each class is computed once at its lowest order (the seed), then
  carried up by the forward recurrence r_{nu+1} = 1/(2*nu/x + r_nu) on
  r = K_{nu-1}/K_nu > 0.  K is the dominant solution of that recurrence
  (Gautschi 1967), so each step adds two positive terms: relative error
  shrinks by r/(2*nu/x + r) and gains 2 eps.  Seeds come from two sources:

  - half-integer classes: K_{1/2} = K_{-1/2} gives r_{1/2} = 1 exactly;
  - every other class: the ratio of two trapezoidal sums of
    K_mu(x) = int_0^oo e^(-x cosh t) cosh(mu t) dt (DLMF 10.32.9), one for
    mu = nu - 1 and one for mu = nu, all x of a row at once
    (``_k_seed_row``).  The integral solves the same recurrence and the
    same Riccati equation; its integrand is positive, even and entire, so
    the sums converge geometrically in the step (Trefethen & Weideman,
    SIAM Rev. 56, 2014).

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
it: ``riccati_lab`` integrates the Riccati equation by Taylor steps of
its own.  It stays because perfbench's tracer wraps
``oracle.solve_ivp`` and ``riccati_lab.solve_ivp`` by name (``riccati_lab``
imports this one).  It would import scipy only when called, and scipy is
not a dependency of the package.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import DomainError, EvaluationError
from .nullclines import EPS, EvalPoint

# first-kind anchors: an order's row comes down the ladder from the top of
# its block of I_ANCHOR_SPAN unit steps (``_i_chains``), where
# ``_anchor_ends`` starts at most I_MAX_DEPTH steps higher (6*sqrt(x) + 10
# steps reach it near x = 2.8e10)
I_ANCHOR_SPAN = 16
I_MAX_DEPTH = 1_000_000


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
# K-ratio: class seed (exact, or a trapezoidal sum of K's integral), ladder
# ----------------------------------------------------------------------

# the K seed's terms per pass: a pass takes as many x as fit, at least one,
# so its arrays stay near this size however long the row.  A seed order in
# [-1, 1] needs at most 4,096 nodes at any x; past _SEED_NODES the seed
# fails rather than allocate (an order near 10**5 at x = 1, say)
_SEED_TERMS = 1 << 14
_SEED_NODES = 1 << 20
_TINY = np.finfo(float).tiny        # the smallest normal float


def large_x_coefficients(nu, c0, n: int = 61) -> list:
    """The first n coefficients c_k of the large-x series Phi ~ sum c_k x**-k
    of the Riccati equation, c0 = 1 for Phi0 and c0 = -1 for Phi1:
    c_{k+1} = [(k + 2*nu - 1) c_k - sum_{i=1..k} c_i c_{k+1-i}]/(2 c0).
    Generic over numbers: Fractions for the exact series of ``expansions``,
    or floats.  Stops early before the first non-finite coefficient."""
    c = [c0]
    for k in range(n - 1):
        nxt = ((k + 2 * nu - 1) * c[k]
               - sum(map(operator.mul, c[1:k + 1], c[k:0:-1]))) / (2 * c0)
        if not math.isfinite(nxt):
            break
        c.append(nxt)
    return c


def _tree_sum(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis, of length 2**k, pairwise in k levels of one
    rounding each, so positive terms are summed to k*eps/2 relative.  Zeros
    at the end of a row leave its sum's bits as they are."""
    while terms.shape[-1] > 1:
        terms = terms[..., ::2] + terms[..., 1::2]
    return terms[..., 0]


def _k_seed_row(nu: float, xs: np.ndarray):
    """(values, est_errors, method) of Phi1 = -K_{nu-1}/K_nu at order nu:
    the ratio of two trapezoidal sums of K_mu(x) = int_0^oo e^(-x cosh t)
    cosh(mu t) dt (DLMF 10.32.9), for mu = nu - 1 and mu = nu.

    The integrand is even and entire, so h*(f(0)/2 + f(h) + f(2h) + ...)
    converges geometrically in h (Trefethen & Weideman 2014).  With
    m = max(|nu|, |nu - 1|), each integrand is g(t)*(e^(al t) + e^(be t))
    with al, be <= 0 and g = e^(m t - x cosh t) shared; g peaks at
    sinh t_p = m/x, where a = x cosh t_p.  Each x has its own spacing
    h = min(0.2, 0.4/sqrt(a)), cut to 8 significant bits so that every
    node j*h is exact.  g is scaled by its value at the node t_hat nearest
    the peak, so no term overflows: g_j = exp(m u - 2x sinh((t + t_hat)/2)
    sinh(u/2)) at u = t - t_hat.  Past t_p + 2 asinh(sqrt(22.5/a)) the log
    of g lies more than 45 below its peak, and the terms there are zero.
    An x's node count is its last node's index plus one, rounded up to a
    power of two; the x of one count are summed in passes of at most
    _SEED_TERMS terms.  So an x's bits depend on (nu, x) alone.

    The estimate adds, for each sum: every term's rounding bound (exp and
    sinh within one ulp, plus the rounding of their arguments), underflow,
    the pairwise sum's rounding (``_tree_sum``), the truncated tail (below
    2 e^-45/(1 - e^-3.7) < 1e-19 relative, the terms past the cut falling
    geometrically) and the discretization error 2B/(e^(2 pi y/h) - 1) for
    the strip |Im t| < y = min(1.45, 9/sqrt(a)).  There
    B = c^-m e^(x (1 - c)), c = cos y, bounds K_mu(x c)/K_mu(x), since
    x^m e^x K_mu(x) increases in x for m >= max(|mu|, 1 - |mu|) (DLMF
    10.32.8).  Where a ratio is not a finite normal float, or an estimate
    not finite, EvaluationError names (nu, x): below about x = 1e-307 and
    above 2**1023."""
    # m + d = max(|nu|, |nu - 1|) exactly: d = 0 for nu >= 1/2, else the
    # rounding error of 1 - nu (Fast2Sum).  Each exponent below is then exact
    # or one rounding off; ``top`` is that order's pair, ``low`` the other's
    m, d = (nu, 0.0) if nu >= 0.5 else (1.0 - nu, -nu - ((1.0 - nu) - 1.0))
    top, low = (d, -(2.0 * m + d)), (1.0 - 2.0 * m - d, d - 1.0)
    al, be = np.array([low, top] if nu >= 0.5 else [top, low]).T[:, :, None, None]
    vals, ests = np.empty(len(xs)), np.empty(len(xs))
    with np.errstate(all="ignore"):
        a = np.hypot(xs, m)
        mant, e = np.frexp(np.minimum(0.2, 0.4 / np.sqrt(a)))
        h = np.ldexp(np.floor(mant * 256.0) / 256.0, e)
        tp = np.arcsinh(m / xs)
        last = np.floor((tp + 2.0 * np.arcsinh(np.sqrt(22.5 / a))) / h)
        fits = last < _SEED_NODES       # False where not finite
        y = np.minimum(1.45, 9.0 / np.sqrt(a))
        disc = 2.0 * np.cos(y) ** -m * np.exp(xs * (1.0 - np.cos(y))) / np.expm1(2 * np.pi * y / h)
        count = 2 ** np.ceil(np.log2(np.where(fits, last, 0.0) + 1.0)).astype(int)
        for n in sorted(set(count.tolist())):
            j, at = np.arange(n, dtype=float), np.flatnonzero(count == n)
            for i in np.array_split(at, -(-len(at) // max(1, _SEED_TERMS // n))):
                hi, jp, keep = h[i, None], np.rint(tp[i, None] / h[i, None]), j <= last[i, None]
                t, mu = j * hi, m * ((j - jp) * hi)
                # x cosh t - x cosh t_hat, and 0 at the nodes past the cut
                p = np.where(keep, (2.0 * xs[i, None] * np.sinh((j + jp) * (0.5 * hi)))
                             * np.sinh((j - jp) * (0.5 * hi)), 0.0)
                g = np.where(keep, np.exp(mu - p), 0.0)
                g[:, 0] *= 0.5
                # a term's rounding, relative: g's, the sum's and product's, each
                # exponential's (``rho``) and its argument's (below), then underflow
                rho = EPS * (3.0 + 0.5 * (np.abs(mu - p) + np.abs(mu)) + 3.0 * np.abs(p))
                e1, e2 = np.exp(al * t), np.exp(be * t)
                q = _tree_sum(g * (e1 + e2))
                err = _tree_sum(g * ((e1 + e2) * rho + EPS * t * (e1 * abs(al) + e2 * abs(be))))
                rel = (err + 3.0 * n * _TINY * EPS) / q + 0.5 * EPS * (n.bit_length() - 1) + disc[i]
                vals[i] = -(q[0] / q[1])
                ests[i] = -vals[i] * (rel.sum(axis=0) + 2e-19 + 0.5 * EPS)
    bad = ~(fits & (-vals >= _TINY) & (ests < math.inf))
    if bad.any():
        raise EvaluationError(f"K seed quadrature failed at nu={nu}, x={xs[bad][0]}")
    return vals, ests, "trapezoidal-integral"


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
