"""Qualitative study of the generalized Riccati flow and its W-system.

The first-order equation

    gamma' = -x**a * gamma**2 + ((2*nu - 1 - a)/x) * gamma + x**(-a)

has exactly two regular strictly monotonic solutions on (0, inf) for the
parameter ranges of interest: the rescaled first- and second-kind ratios.
Everything else either blows up at a finite abscissa (solutions that start
below the second-kind branch) or carries an interior extremum (solutions
pinched between the two branches).  This module demonstrates that picture
numerically: trajectories are labeled by initial data (x0, y0), integrated
in both directions, and classified.

Alongside the gamma flow we track the companion quantity

    W(x) = (psi**2 - nu**2) / x**2,      psi = x*Phi - nu,

whose derivative is -(2/x**3) * (psi**3 + psi**2 - (nu**2 + x**2)*psi -
nu**2): W can only turn where psi crosses a root of the ratio cubic, so
every interior extremum of W along a mixed trajectory touches the middle
nullcline branch w_O.  `w_along` samples W for the two oracle-seeded
solutions or for mixed initial data and records those contacts.

Both flows are one Riccati equation: gamma = x**(-a) * Phi and
psi = x*Phi - nu, where Phi solves the oracle's ratio equation

    Phi' = 1 + ((2*nu - 1)/x) * Phi - Phi**2.

So every start is a Phi lane stepped by the oracle's Taylor engine
(``oracle.taylor_step``; Corliss & Chang 1982): each lane takes the longest
steps its own coefficients allow, and each of its log-spaced samples is
evaluated on the polynomial of its own step, which is exact dense output.
Where |Phi| > 1 a lane steps 1/Phi instead, the solution of the same
equation at order 1 - nu, so a pole of Phi is a simple zero of what is
stepped and the coefficients stay finite through the blow-up.  Starts that
share (a, nu, x0) and the window run in one vectorised run that holds
both directions, in blocks of at most _MAX_LANES = 128 starts: each start
is a lane stepping back to the window's left edge and a lane stepping
forward to its right edge.  No lane's arithmetic depends on another's,
and its direction enters only through exact sign flips, so a batched lane
is its one-lane run bit for bit.  The lanes' Taylor coefficients are the
rows of one array (``oracle.taylor_coefficients``), bit for bit the
scalar recursion that the oracle's K seed keeps.

Turning points are sign changes of a turning function between consecutive
checkpoints (the samples and the step ends, the seed included on both
sides): x + (2*nu - 1 - a)*Phi - x*Phi**2, which has the sign of gamma', or
the ratio cubic for W.  A roundoff floor keeps the constant solution (a=0,
nu=1/2, y0=-1) free of spurious turning points.  Each root is refined by
safeguarded Newton on its step's polynomial, and spliced into its start's
samples where a stable sort by x would put it.  A lane blows up when |gamma|
(|psi| for W) crosses BLOWUP_THRESHOLD, the crossing solved on the same
polynomial.  A lane stops with a step failure before the first point where
its coefficients or its value stop being finite, where x**(-a) is 0 or
infinite, or where its step stops moving it.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, EvaluationError
from .nullclines import cubic_levels
from .oracle import RatioKind, i_ratio_row, k_ratio_row, taylor_step
# not called here: a module attribute that perfbench's tracer wraps by name
from .oracle import solve_ivp  # noqa: F401

BLOWUP_THRESHOLD = 1.0e8
_RHS_NOISE_REL = 1.0e-8   # floor (relative to term magnitudes) for sign changes
_SLOPE_FLOOR = 1.0e-12    # below this relative slope a trajectory is "constant"
_SAMPLES_PER_SIDE = 400
_MAX_LANES = 128          # starts per batched run (two lanes each): bounds the per-step arrays
_DS = 1.0e-100            # complex step of Newton's derivative


class SolutionClass(Enum):
    MONOTONE_INCREASING = "monotone-increasing"
    MONOTONE_DECREASING = "monotone-decreasing"
    HAS_INTERIOR_EXTREMUM = "has-interior-extremum"
    BLOW_UP = "blow-up"


@dataclass
class Trajectory:
    """One integrated solution, sampled on a strictly increasing x grid.

    ``samples`` is an (n, 2) float64 array of (x, value) rows.
    ``termination`` is "reached-end", "blow-up" (with ``blow_up_x`` set) or
    "step-failure".  ``extrema`` holds (x, "min"|"max") pairs; each refined
    extremum abscissa is also inserted into ``samples`` so its ordinate is
    available without interpolation.
    """

    a: float
    nu: float
    samples: np.ndarray
    termination: str = "reached-end"
    blow_up_x: Optional[float] = None
    extrema: List[Tuple[float, str]] = field(default_factory=list)

    def xs(self) -> np.ndarray:
        return self.samples[:, 0]

    def ys(self) -> np.ndarray:
        return self.samples[:, 1]


# ----------------------------------------------------------------------
# Phi lanes
# ----------------------------------------------------------------------

# A flow seen on Phi lanes: its variable is weight(x)*Phi + shift, turn(x, Phi)
# is its turning function and scale(x, Phi) the roundoff level of turn; kinds
# label the (+ -> -) and (- -> +) sign changes of turn in increasing x.
_Flow = namedtuple("_Flow", "nu weight shift turn scale kinds")


def _polyval(terms, s):
    """sum b_k s**k by Horner's rule, the value alone (``oracle.horner``
    also carries a roundoff bound, which trajectories do not use).
    ``terms`` gives b_k from the highest k down: floats, or arrays shaped
    like s, which may be gathered as the loop reaches them."""
    terms = iter(terms)
    y = next(terms)
    for bk in terms:
        y = y * s + bk
    return y


def _solve_on_step(f, b: list, xc: float, lo: float, hi: float):
    """(x, y) at a root of f(x, y) along one step (centre xc, coefficients
    b of y from the highest order down) between s = lo and s = hi, where f
    changes sign: Newton on the step's polynomial, kept inside the bracket
    by bisection.  f' comes from the complex step f(t + i*d) = f(t) +
    i*d*f'(t) + O(d**2)."""
    f_lo = f(xc * (1.0 + lo), _polyval(b, lo))
    t, moved = 0.5 * (lo + hi), 1.0
    while moved > 4.0e-16:      # the bracket shrinks every pass, so this ends
        u = complex(t, _DS)
        z = f(xc * (1.0 + u), _polyval(b, u))
        if z.real == 0.0:
            break
        lo, hi = (t, hi) if (z.real > 0.0) == (f_lo > 0.0) else (lo, t)
        nxt = t - z.real * _DS / z.imag if z.imag else lo
        if not min(lo, hi) < nxt < max(lo, hi):
            nxt = 0.5 * (lo + hi)
        t, moved = nxt, abs(nxt - t)
    return xc * (1.0 + t), _polyval(b, t)


def _side_points(x0: float, edge: float) -> np.ndarray:
    """A side's _SAMPLES_PER_SIDE + 1 log-spaced points, x0 to the window
    edge, in order.  Over a window a few ulps wide ``np.geomspace`` can turn
    and step past either end, so the points are made monotone and clipped
    at the edge: they then only repeat there (``_merged`` folds repeats),
    and a wider window's points are left as they are."""
    points = np.geomspace(x0, edge, _SAMPLES_PER_SIDE + 1)
    if edge < x0:
        return np.maximum(np.minimum.accumulate(points), edge)
    return np.minimum(np.maximum.accumulate(points), edge)


def _integrate(flow: _Flow, x0: float, phi0: np.ndarray, y0s: np.ndarray,
               x_lo: float, x_hi: float) -> tuple:
    """Step every start (Phi = phi0, flow value y0s at x0) out to both window
    edges in one run, each start as two lanes: lane i runs start i back to
    x_lo, lane m + i runs it forward to x_hi (m starts).

    Returns (xs, ys, count, extrema, status, x_at).  ``xs`` holds each
    side's _SAMPLES_PER_SIDE log-spaced points and x0 between them, in
    increasing x, so x0 is column _SAMPLES_PER_SIDE; row i of ``ys`` holds
    start i's values at the points its two lanes reached (NaN elsewhere).
    Per lane, ``count`` is the number of its side's points reached, x0
    included, ``extrema`` lists (x, kind, value), ``status`` is 0 (reached
    the edge), 1 (blow-up at ``x_at``) or -1 (step failure).

    Each pass takes one Taylor step on every live lane and works on the
    checkpoints it reaches, lane by lane in one flat array: the samples
    inside the step, then the step's end.  A lane's direction d = +-1 and
    its side's points enter its arithmetic only through exact sign flips,
    so each lane computes what it would alone.  A lane stops at its first
    checkpoint whose value is not finite, whose x**(-a) is not in (0, inf)
    or whose step does not move (step failure), or whose |value| reaches
    BLOWUP_THRESHOLD (blow-up).
    """
    mid = _SAMPLES_PER_SIDE     # the column of x0
    back, fwd = _side_points(x0, x_lo), _side_points(x0, x_hi)
    xs = np.concatenate([back[:0:-1], fwd])
    m = len(y0s)
    ys = np.full((m, 2 * mid + 1), np.nan)
    ys[:, mid] = y0s
    d = np.repeat([np.sign(x_lo - x0), np.sign(x_hi - x0)], m)
    # a side's k-th point is column mid + step*k; d*x increases along a side
    step, x_end, keys = d.astype(int), np.repeat([x_lo, x_hi], m), (-back, fwd)
    lanes = 2 * m
    count, status = np.ones(lanes, dtype=int), np.zeros(lanes, dtype=int)
    x_at, extrema = np.full(lanes, np.nan), [[] for _ in range(lanes)]
    live = np.flatnonzero(d)        # an empty side (x0 at its edge) never steps
    xc, phi = np.full(live.size, float(x0)), np.concatenate([phi0, phi0])[live]
    with np.errstate(all="ignore"):
        while live.size:
            # where |Phi| > 1 the lane steps y = 1/Phi, the solution of order
            # 1 - nu, whose zeros are the poles of Phi.  A step that does not
            # move (h = 0: coefficients not finite) has the centre as its one
            # checkpoint, where the lane fails.
            dl = d[live]
            inv = np.abs(phi) > 1.0
            g = flow.turn(xc, phi)
            small = np.abs(g) <= _RHS_NOISE_REL * flow.scale(xc, phi)
            b, h = taylor_step(np.where(inv, 1.0 - flow.nu, flow.nu), xc,
                               np.where(inv, 1.0 / phi, phi))
            x_next = dl * np.minimum(dl * xc * (1.0 + dl * h), dl * x_end[live])
            ahead, nb = dl * x_next, np.searchsorted(live, m)   # backward lanes first
            j = np.concatenate([np.searchsorted(keys[0], ahead[:nb], "right"),
                                np.searchsorted(keys[1], ahead[nb:], "right")])  # points reached
            last = np.cumsum(j - count[live] + 1) - 1         # each lane's step end
            first = np.r_[0, last[:-1] + 1]
            lane = np.repeat(np.arange(live.size), last - first + 1)
            k = np.arange(len(lane)) - first[lane] + count[live][lane]   # point index, j at the end
            col = mid + step[live][lane] * np.minimum(k, mid)
            x = np.where(k < j[lane], xs[col], x_next[lane])
            s = x / xc[lane] - 1.0
            # one row of b at a time: all of b[:, lane] at once held 2.2 MiB
            # more at the peak of a 100-start run and took 40% longer (2-core
            # x86-64 host)
            y = _polyval((bk[lane] for bk in b[::-1]), s)
            p = np.where(inv[lane], 1.0 / y, y)
            w = flow.weight(x)
            v = w * p + flow.shift
            gk = flow.turn(x, p)
            sk = np.abs(gk) <= _RHS_NOISE_REL * flow.scale(x, p)
            # each checkpoint's predecessor: the one before it, or the step's centre
            gl, sl, tl, yl = np.roll(gk, 1), np.roll(sk, 1), np.roll(s, 1), np.roll(y, 1)
            gl[first], sl[first], tl[first], yl[first] = g, small, 0.0, b[0]
            pole = inv[lane] & (y * yl < 0.0)        # 1/Phi changed sign: a pole passed
            fail = ~((w > 0.0) & (w < np.inf) & (x_next != xc)[lane]) | np.isnan(v)
            stop = np.flatnonzero(fail | (np.abs(v) >= BLOWUP_THRESHOLD) | pole)
            cut = last + 1                                    # each lane's first stop
            np.minimum.at(cut, lane[stop], stop)
            keep = np.arange(len(lane)) < cut[lane]

            def solve(i, f):
                # a root of f(x, num, den), Phi = num/den, between checkpoint i
                # and its predecessor, on their step's polynomial
                c = lane[i]
                x, y = _solve_on_step(lambda x, y: f(x, 1.0, y) if inv[c] else f(x, y, 1.0),
                                      b[::-1, c].tolist(), float(xc[c]), float(tl[i]), float(s[i]))
                return x, 1.0 / y if inv[c] else y

            for i in np.flatnonzero(keep & (gl != 0.0) & ~(gl * gk > 0.0) & ~(sl & sk)):
                xm, pm = solve(i, lambda x, n, q: flow.turn(x, n / q))
                # orient by x so backward runs label the same way as forward ones
                kind = flow.kinds[0 if (gl[i] if dl[lane[i]] > 0 else gk[i]) > 0.0 else 1]
                extrema[live[lane[i]]].append((xm, kind, flow.weight(xm) * pm + flow.shift))
            got = keep & (k < j[lane])
            ys[live[lane[got]] % m, col[got]] = v[got]
            stopped = cut <= last
            count[live] = np.where(stopped, k[np.minimum(cut, last)], j)
            for i in cut[stopped]:
                status[live[lane[i]]] = -1 if fail[i] else 1
                if not fail[i]:
                    # value = sign * threshold, times den so that no pole of
                    # Phi lies in the bracket
                    level = np.sign(yl[i] if pole[i] else y[i]) * BLOWUP_THRESHOLD
                    x_at[live[lane[i]]] = solve(i, lambda x, n, q: flow.weight(x) * n
                                                + (flow.shift - level) * q)[0]
            on = ~stopped & (j <= mid)
            live, xc, phi = live[on], x_next[on], p[last][on]
    return xs, ys, count, extrema, status, x_at


def _merged(x: np.ndarray, y: np.ndarray, found: list) -> np.ndarray:
    """The (x, value) rows of one start's samples and extrema (x, kind,
    value), as a stable sort by x keeps them: samples before extrema, and
    the first row of each x.  The samples come in order (``x`` does not
    decrease), and each extremum is spliced in where it belongs along them
    instead of sorting them all."""
    rows = np.column_stack([x, y])
    if not (x[1:] > x[:-1]).all():
        # a window a few ulps wide repeats sample points (`_side_points`):
        # the first row of each x is kept
        rows = rows[np.r_[True, x[1:] > x[:-1]]]
        x = rows[:, 0]
    pieces, last, prev = [], 0, None
    found = sorted(((xm, v) for xm, _, v in found), key=itemgetter(0))
    for (xm, v), at in zip(found, np.searchsorted(x, [xm for xm, _ in found]).tolist()):
        if xm != prev and (at == len(x) or x[at] != xm):
            pieces += [rows[last:at], [(xm, v)]]
            last, prev = at, xm
    return np.concatenate(pieces + [rows[last:]]) if pieces else rows


def _run_both_ways(flow: _Flow, a: float, x0: float, phi0: np.ndarray, y0s: np.ndarray,
                   x_lo: float, x_hi: float) -> List[Trajectory]:
    """Integrate every start (Phi = phi0, flow value y0s at x0) out to both
    window edges, at most _MAX_LANES starts to a run (``_integrate``).  Each
    start's extrema, from both sides, are inserted into its samples."""
    out, mid = [], _SAMPLES_PER_SIDE
    for first in range(0, len(y0s), _MAX_LANES):
        block = slice(first, first + _MAX_LANES)
        xs, ys, count, extrema, status, x_at = _integrate(flow, x0, phi0[block], y0s[block],
                                                          x_lo, x_hi)
        m = len(ys)
        for i in range(m):
            back, fwd = i, m + i
            found = extrema[back] + extrema[fwd]
            span = slice(mid + 1 - count[back], mid + count[fwd])
            traj = Trajectory(a=a, nu=flow.nu, samples=_merged(xs[span], ys[i, span], found),
                              extrema=sorted((xm, kind) for xm, kind, _ in found))
            if 1 in (status[back], status[fwd]):
                traj.termination = "blow-up"
                traj.blow_up_x = float(x_at[fwd] if status[fwd] == 1 else x_at[back])
            elif -1 in (status[back], status[fwd]):
                traj.termination = "step-failure"
            out.append(traj)
    return out


def check_start(y0: float) -> float:
    """``y0`` as a float; DomainError unless finite and below the blow-up
    threshold in magnitude (such a start could never cross it)."""
    y0 = float(y0)
    if not abs(y0) < BLOWUP_THRESHOLD:
        raise DomainError(f"initial value must be finite and below the blow-up threshold "
                          f"{BLOWUP_THRESHOLD:g} in magnitude, got {y0!r}")
    return y0


def solve_riccati(a: float, nu: float, x0: float, y0,
                  x_lo: float, x_hi: float):
    """Integrate the gamma equation from (x0, y0) out to both window edges.

    ``y0`` is one initial value (returns a Trajectory) or a 1-D array of
    them (returns one Trajectory per start, in order; each start runs as
    two lanes, one per direction, of one Taylor-stepped run).  Stops a
    start early when |gamma| crosses BLOWUP_THRESHOLD (recorded as blow-up
    with its abscissa) or before a point where its step or value is not
    finite (step-failure).  Interior extrema are the sign changes of gamma',
    refined by Newton on the step's polynomial.
    """
    a, nu, x0 = float(a), float(nu), float(x0)
    if not np.isfinite([a, nu]).all():
        raise DomainError(f"parameters must be finite, got {(a, nu)}")
    if not (0.0 < x_lo <= x0 <= x_hi < np.inf):
        raise DomainError(f"need 0 < x_lo <= x0 <= x_hi < inf, got ({x_lo}, {x0}, {x_hi})")
    if np.ndim(y0) > 1:
        raise DomainError(f"y0 must be a number or a 1-D array, got shape {np.shape(y0)}")
    y0s = np.array([check_start(y) for y in np.ravel(y0)], dtype=float)
    with np.errstate(over="ignore"):
        phi0 = np.float64(x0) ** a * y0s
    c = 2.0 * nu - 1.0 - a
    # gamma' = x**(-a-1) * turn; scale is the sum of the terms' magnitudes
    flow = _Flow(nu, lambda x: x ** -a, 0.0, lambda x, p: x + c * p - x * p * p,
                 lambda x, p: x + abs(c * p) + x * p * p, ("max", "min"))
    trajs = _run_both_ways(flow, a, x0, phi0, y0s, x_lo, x_hi)
    return trajs[0] if np.ndim(y0) == 0 else trajs


def classify(traj: Trajectory) -> SolutionClass:
    """Blow-up beats extrema beats slope sign.

    A trajectory whose total excursion stays below the relative slope floor
    (the constant a=0, nu=1/2 solution) counts as monotone-decreasing.
    """
    if traj.termination == "blow-up":
        return SolutionClass.BLOW_UP
    if traj.extrema:
        return SolutionClass.HAS_INTERIOR_EXTREMUM
    ys = traj.ys()
    if len(ys) < 2:
        raise DomainError("trajectory too short to classify")
    excursion = ys - ys[0]
    peak = excursion[np.argmax(np.abs(excursion))]
    if peak > _SLOPE_FLOOR * max(1.0, abs(ys[0])):
        return SolutionClass.MONOTONE_INCREASING
    return SolutionClass.MONOTONE_DECREASING  # falling, or flat (zero-slope edge case)


# ----------------------------------------------------------------------
# W-system
# ----------------------------------------------------------------------

def w_along(source: Union[RatioKind, Tuple[float, float]], nu: float,
            x_lo: float, x_hi: float) -> Trajectory:
    """Sample W = (psi**2 - nu**2)/x**2 along one solution of the psi flow.

    ``source`` is either a RatioKind (the trajectory is seeded with the
    oracle value at the attracting end of the window: left edge for FIRST,
    right edge for SECOND) or mixed initial data (x0, phi0) given as the
    plain ratio value phi0 at x0, seeded as psi0 = x0*phi0 - nu.

    Extrema of W occur exactly where psi crosses a root of the ratio
    cubic; they are located from sign changes of that cubic along the run,
    refined, recorded in ``extrema`` and inserted into ``samples``.  Along
    mixed trajectories every such contact satisfies W(x_m) = w_O(x_m).
    """
    nu = float(nu)
    if not np.isfinite(nu):
        raise DomainError(f"parameters must be finite, got {(nu,)}")
    if not (0.0 < x_lo < x_hi < np.inf):
        raise DomainError(f"need 0 < x_lo < x_hi < inf, got ({x_lo}, {x_hi})")
    if isinstance(source, RatioKind):
        # seeded at the attracting end: the left edge for FIRST (forward
        # run), the right edge for SECOND (backward run)
        x0, ratio_row = (x_lo, i_ratio_row) if source is RatioKind.FIRST else (x_hi, k_ratio_row)
        phi0 = float(ratio_row(nu, [x0])[0][0])
    else:
        x0, phi0 = (float(source[0]), float(source[1]))
        if not (x_lo <= x0 <= x_hi):
            raise DomainError(f"x0={x0} outside window [{x_lo}, {x_hi}]")
    psi0 = check_start(x0 * phi0 - nu)
    n2 = nu * nu

    def cubic(x, q):
        # the ratio cubic in psi: W' = -(2/x**3) * cubic(x, psi)
        return ((q + 1.0) * q - (n2 + x * x)) * q - n2

    flow = _Flow(nu, lambda x: x, -nu, lambda x, p: cubic(x, x * p - nu),
                 lambda x, p: (n2 + x * x + (x * p - nu) ** 2) / x, ("min", "max"))
    traj, = _run_both_ways(flow, 0.0, x0, np.array([phi0]), np.array([psi0]), x_lo, x_hi)
    traj.samples[:, 1] = (traj.ys() ** 2 - nu * nu) / traj.xs() ** 2
    return traj


def nullcline_contact(traj: Trajectory) -> List[Tuple[float, float, float]]:
    """(x_m, W(x_m), w_O(x_m)) for each extremum of a W trajectory."""
    out, xs, ys = [], traj.xs(), traj.ys()
    for xm, _ in traj.extrema:
        i = int(np.searchsorted(xs, xm))
        if i >= len(xs) or xs[i] != xm:
            raise EvaluationError(f"extremum at x={xm} missing from samples")
        out.append((xm, float(ys[i]), float(cubic_levels(traj.nu, np.array([xm]))[7][0])))
    return out
