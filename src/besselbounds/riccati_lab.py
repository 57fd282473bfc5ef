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
share (a, nu, x0) and the window run as the lanes of one vectorised run
per direction.  No lane's arithmetic depends on another's, so a batched
lane is its one-lane run bit for bit.

Turning points are sign changes of a turning function between consecutive
checkpoints (the samples and the step ends, the seed included on both
sides): x + (2*nu - 1 - a)*Phi - x*Phi**2, which has the sign of gamma', or
the ratio cubic for W.  A roundoff floor keeps the constant solution (a=0,
nu=1/2, y0=-1) free of spurious turning points.  Each root is refined by
safeguarded Newton on its step's polynomial.  A lane blows up when |gamma|
(|psi| for W) crosses BLOWUP_THRESHOLD, the crossing solved on the same
polynomial.  A lane stops with a step failure before the first point where
its coefficients or its value stop being finite, where x**(-a) is 0 or
infinite, or where its step stops moving it.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
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
_MAX_LANES = 128          # starts per batched run: bounds the per-step working arrays
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


def _polyval(b: list, s, lane=None):
    """sum b_k s**k by Horner's rule, the value alone (``oracle.horner``
    also carries a roundoff bound, which trajectories do not use).  b holds
    floats or arrays shaped like s; with ``lane``, term k is b[k][lane],
    gathered as the loop reaches it."""
    terms = reversed(b) if lane is None else (bk[lane] for bk in reversed(b))
    y = next(terms)
    for bk in terms:
        y = y * s + bk
    return y


def _solve_on_step(f, b: list, xc: float, lo: float, hi: float):
    """(x, y) at a root of f(x, y) along one step (centre xc, coefficients
    b of y) between s = lo and s = hi, where f changes sign: Newton on the
    step's polynomial, kept inside the bracket by bisection.  f' comes from
    the complex step f(t + i*d) = f(t) + i*d*f'(t) + O(d**2)."""
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


def _integrate_side(flow: _Flow, x0: float, phi0: np.ndarray, y0s: np.ndarray,
                    x_end: float) -> List[tuple]:
    """Step every lane (Phi = phi0, flow value y0s at x0) out to x_end.

    Returns, per lane, (samples, extrema, status, x_at): ``samples`` holds
    (x, value) rows at the seed and the _SAMPLES_PER_SIDE log-spaced points
    past it that the lane reached, in integration order; ``extrema`` lists
    (x, kind, value); ``status`` is 0 (reached the edge), 1 (blow-up at
    ``x_at``) or -1 (step failure).

    Each pass takes one Taylor step on every live lane and works on the
    checkpoints it reaches, lane by lane in one flat array: the samples
    inside the step, then the step's end.  A lane stops at its first
    checkpoint whose value is not finite, whose x**(-a) is not in (0, inf)
    or whose step does not move (step failure), or whose |value| reaches
    BLOWUP_THRESHOLD (blow-up).
    """
    xs = np.geomspace(x0, x_end, _SAMPLES_PER_SIDE + 1)
    m = len(y0s)
    ys = np.column_stack([y0s, np.full((m, len(xs) - 1), np.nan)])
    count, status, x_at = np.ones(m, dtype=int), np.zeros(m, dtype=int), np.full(m, np.nan)
    extrema = [[] for _ in range(m)]
    d = np.sign(x_end - x0)
    live, xc, phi = np.arange(m), np.full(m, float(x0)), phi0
    with np.errstate(all="ignore"):
        while d and live.size:
            # where |Phi| > 1 the lane steps y = 1/Phi, the solution of order
            # 1 - nu, whose zeros are the poles of Phi.  A step that does not
            # move (h = 0: coefficients not finite) has the centre as its one
            # checkpoint, where the lane fails.
            inv = np.abs(phi) > 1.0
            g = flow.turn(xc, phi)
            small = np.abs(g) <= _RHS_NOISE_REL * flow.scale(xc, phi)
            b, h = taylor_step(np.where(inv, 1.0 - flow.nu, flow.nu), xc,
                               np.where(inv, 1.0 / phi, phi))
            x_next = d * np.minimum(d * xc * (1.0 + d * h), d * x_end)
            j = np.searchsorted(d * xs, d * x_next, "right")   # samples reached
            last = np.cumsum(j - count[live] + 1) - 1         # each lane's step end
            first = np.r_[0, last[:-1] + 1]
            lane = np.repeat(np.arange(live.size), last - first + 1)
            k = np.arange(len(lane)) - first[lane] + count[live][lane]   # sample index, j at the end
            x = np.where(k < j[lane], xs[np.minimum(k, len(xs) - 1)], x_next[lane])
            s = x / xc[lane] - 1.0
            y = _polyval(b, s, lane)
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
                                      [float(bk[c]) for bk in b], float(xc[c]),
                                      float(tl[i]), float(s[i]))
                return x, 1.0 / y if inv[c] else y

            for i in np.flatnonzero(keep & (gl != 0.0) & ~(gl * gk > 0.0) & ~(sl & sk)):
                xm, pm = solve(i, lambda x, n, q: flow.turn(x, n / q))
                # orient by x so backward runs label the same way as forward ones
                kind = flow.kinds[0 if (gl[i] if d > 0 else gk[i]) > 0.0 else 1]
                extrema[live[lane[i]]].append((xm, kind, flow.weight(xm) * pm + flow.shift))
            got = keep & (k < j[lane])
            ys[live[lane[got]], k[got]] = v[got]
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
            on = ~stopped & (j < len(xs))
            live, xc, phi = live[on], x_next[on], p[last][on]
    return [(np.column_stack([xs[:n], ys[k, :n]]), extrema[k], status[k], x_at[k])
            for k, n in enumerate(count)]


def _run_both_ways(flow: _Flow, a: float, x0: float, phi0: np.ndarray, y0s: np.ndarray,
                   x_lo: float, x_hi: float) -> List[Trajectory]:
    """Integrate every start (Phi = phi0, flow value y0s at x0) out to both
    window edges, as the lanes of one run per side, at most _MAX_LANES at a
    time.  Each start's extrema, from both sides, are inserted into its
    samples."""
    out = []
    for first in range(0, len(y0s), _MAX_LANES):
        block = slice(first, first + _MAX_LANES)
        sides = [_integrate_side(flow, x0, phi0[block], y0s[block], x_end)
                 for x_end in (x_lo, x_hi)]
        for (back, e_b, st_b, at_b), (fwd, e_f, st_f, at_f) in zip(*sides):
            found = e_b + e_f
            rows = np.concatenate([back[:0:-1], fwd,
                                   np.array([(xm, v) for xm, _, v in found]).reshape(-1, 2)])
            rows = rows[np.argsort(rows[:, 0], kind="stable")]
            traj = Trajectory(a=a, nu=flow.nu, samples=rows[np.r_[True, np.diff(rows[:, 0]) > 0.0]],
                              extrema=sorted((xm, kind) for xm, kind, _ in found))
            if 1 in (st_b, st_f):
                traj.termination, traj.blow_up_x = "blow-up", float(at_f if st_f == 1 else at_b)
            elif -1 in (st_b, st_f):
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
    them (returns one Trajectory per start, in order; the starts run as the
    lanes of one Taylor-stepped run per side).  Stops a start early when
    |gamma| crosses BLOWUP_THRESHOLD (recorded as blow-up with its
    abscissa) or before a point where its step or value is not finite
    (step-failure).  Interior extrema are the sign changes of gamma',
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
