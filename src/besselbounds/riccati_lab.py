"""Qualitative study of the generalized Riccati flow and its W-system.

The first-order equation

    gamma' = -x**a * gamma**2 + ((2*nu - 1 - a)/x) * gamma + x**(-a)

has exactly two regular strictly monotonic solutions on (0, inf) for the
parameter ranges of interest: the rescaled first- and second-kind ratios.
Everything else either blows up at a finite abscissa (solutions that start
below the second-kind branch) or carries an interior extremum (solutions
pinched between the two branches).  This module demonstrates that picture
numerically: trajectories are labeled by initial data (x0, y0), integrated
adaptively in both directions, and classified.  Starts that share
(a, nu, x0) and the window are integrated together, as the lanes of one
vector-valued run per direction.

Alongside the gamma flow we track the companion quantity

    W(x) = (psi**2 - nu**2) / x**2,      psi = x*Phi - nu,

whose derivative is -(2/x**3) * (psi**3 + psi**2 - (nu**2 + x**2)*psi -
nu**2): W can only turn where psi crosses a root of the ratio cubic, so
every interior extremum of W along a mixed trajectory touches the middle
nullcline branch w_O.  `w_along` samples W for the two oracle-seeded
solutions or for mixed initial data and records those contacts.

Extremum detection uses the sign of the ODE right-hand side rather than
sampled slopes, with a roundoff floor so that the constant solution (a=0,
nu=1/2, y0=-1) does not sprout spurious turning points.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DomainError, EvaluationError
from .nullclines import EvalPoint, w_values
from .oracle import RatioKind, psi as oracle_psi

__all__ = [
    "BLOWUP_THRESHOLD",
    "Trajectory",
    "SolutionClass",
    "check_start",
    "solve_riccati",
    "classify",
    "w_along",
    "nullcline_contact",
]

BLOWUP_THRESHOLD = 1.0e8
_RHS_NOISE_REL = 1.0e-8   # floor (relative to term magnitudes) for sign changes
_SLOPE_FLOOR = 1.0e-12    # below this relative slope a trajectory is "constant"
_RTOL = 1.0e-10
_ATOL = 1.0e-12
_SAMPLES_PER_SIDE = 400
_MAX_LANES = 128          # starts per batched run: bounds memory as batches grow


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
# gamma flow
# ----------------------------------------------------------------------

def _gamma_rhs(a: float, nu: float):
    cof = 2.0 * nu - 1.0 - a

    def rhs(x, y):
        xa = x ** a
        return -xa * y * y + (cof / x) * y + 1.0 / xa

    def scale(x, y):
        # sum of term magnitudes: the roundoff level of rhs(x, y)
        xa = x ** a
        return abs(xa * y * y) + abs(cof / x * y) + abs(1.0 / xa)

    return rhs, scale


def _blow_event(x, y):
    # the largest lane decides: a batch stops when its first lane crosses
    return np.max(np.abs(y)) - BLOWUP_THRESHOLD


_blow_event.terminal = True


@dataclass
class _Side:
    """One direction of a batched run, from x0 out to one window edge.

    Lane k holds ``count[k]`` samples ``ys[k, :count[k]]`` at
    ``xs[:count[k]]`` (``xs[0]`` is x0, the seed), NaN after them.
    ``status`` is 0 (reached the edge), 1 (blow-up at ``x_at``) or -1 (step
    failure).  ``pieces`` holds (step boundaries, dense-output steps, lanes)
    for each ``solve_ivp`` call, in integration order.
    """

    xs: np.ndarray
    ys: np.ndarray
    count: np.ndarray
    status: np.ndarray
    x_at: np.ndarray
    pieces: list


def _integrate_side(flow, x0: float, y0s: np.ndarray, x_end: float, n: int) -> _Side:
    """Run every start in ``y0s`` from x0 to x_end, sampled at n log-spaced points."""
    m = len(y0s)
    side = _Side(xs=np.geomspace(x0, x_end, n + 1), ys=np.full((m, n + 1), np.nan),
                 count=np.ones(m, dtype=int), status=np.zeros(m, dtype=int),
                 x_at=np.full(m, np.nan), pieces=[])
    side.ys[:, 0] = y0s
    if x_end != x0:
        _advance(flow, side, np.arange(m), x0, y0s, 1)
    return side


def _advance(flow, side: _Side, lanes: np.ndarray, x: float, y: np.ndarray, i: int):
    """Integrate ``lanes`` (state ``y`` at ``x``) to the side's edge.

    ``i`` is the index of the first sample abscissa past x.  All lanes share
    the steps of one RK45 run.  scipy accepts a step when the RMS over
    components of error/tolerance is below 1, so tolerances divided by
    sqrt(m) accept a step only if every lane would accept it alone; with one
    lane the call is the plain single-start call.  A blow-up stops the lane
    that crossed and the others restart from the event.  A step failure in
    a batch is pinned on its lane by running the lanes one at a time.
    """
    while lanes.size and i < len(side.xs):
        with np.errstate(all="ignore"):
            finite = np.isfinite(flow(np.float64(x), y))
        if not finite.all():
            # from a NaN slope scipy picks a NaN first step and never ends its step loop
            side.status[lanes[~finite]] = -1
            lanes, y = lanes[finite], y[finite]
            continue
        shrink = np.sqrt(lanes.size)
        sol = solve_ivp(flow, (x, side.xs[-1]), y, method="RK45", t_eval=side.xs[i:],
                        dense_output=True, events=[_blow_event],
                        rtol=_RTOL / shrink, atol=_ATOL / shrink)
        if sol.status == -1 and lanes.size > 1:
            for k in range(lanes.size):
                _advance(flow, side, lanes[k:k + 1], x, y[k:k + 1], i)
            return
        got = len(sol.t)
        if got:
            side.ys[lanes, i:i + got] = sol.y
            side.count[lanes] = i + got
        if sol.sol.interpolants:
            side.pieces.append((sol.sol.ts, sol.sol.interpolants, lanes))
        if sol.status != 1:
            side.status[lanes] = sol.status
            return
        x, y_at = sol.t_events[0][0], sol.y_events[0][0]
        hit = int(np.argmax(np.abs(y_at)))
        side.status[lanes[hit]], side.x_at[lanes[hit]] = 1, x
        rest = np.arange(lanes.size) != hit
        lanes, y, i = lanes[rest], y_at[rest], i + got


def _lane_dense(pieces: list, lane: int, lo: float, hi: float, forward: bool):
    """Lane ``lane``'s dense output on [lo, hi] as a scalar function.

    It holds copies of that lane's rows of the steps covering [lo, hi] and
    one more step on either side, and picks the step for t as OdeSolution
    does, so a one-lane run evaluates exactly as scipy's own solution would.
    """
    ts, steps = None, []
    for p_ts, p_steps, lanes in (pieces if forward else pieces[::-1]):
        k = int(np.searchsorted(lanes, lane))
        if k == lanes.size or lanes[k] != lane:
            continue
        if not forward:
            p_ts, p_steps = p_ts[::-1], p_steps[::-1]
        if p_ts[0] > hi or p_ts[-1] < lo:
            continue
        i0 = max(int(np.searchsorted(p_ts, lo)) - 2, 0)
        i1 = min(int(np.searchsorted(p_ts, hi, "right")) + 1, len(p_steps))
        ts = p_ts[i0:i1 + 1] if ts is None else np.concatenate([ts, p_ts[i0 + 1:i1 + 1]])
        steps += [type(s)(s.t_old, s.t, s.y_old[k:k + 1].copy(), s.Q[k:k + 1].copy())
                  for s in p_steps[i0:i1]]
    side = "left" if forward else "right"
    last = len(steps) - 1

    def at(t):
        j = min(max(int(np.searchsorted(ts, t, side)) - 1, 0), last)
        return steps[j](t)[0]

    return at


def _side_extrema(side: _Side, turn, scale, kinds) -> List[Tuple[int, float, str, float]]:
    """(lane, x, kind, value) for each refined root of ``turn`` on one side.

    Sign changes are found on the samples of all lanes at once, skipping
    pairs where both values sit below the roundoff floor ``scale`` (flutter,
    e.g. the constant solution); each is refined by brentq on that lane's
    own dense output.  ``kinds`` labels the (+ -> -) and (- -> +) crossings
    in increasing x.
    """
    xs = side.xs
    g = turn(xs, side.ys)
    small = np.abs(g) <= _RHS_NOISE_REL * scale(xs, side.ys)
    gl, gr = g[:, :-1], g[:, 1:]
    pair = np.arange(1, len(xs)) < side.count[:, None]
    found = pair & (gl != 0.0) & ~(gl * gr > 0.0) & ~(small[:, :-1] & small[:, 1:])
    forward = bool(xs[-1] > xs[0])
    out = []
    for lane, j in zip(*np.nonzero(found)):
        lo, hi = sorted((xs[j], xs[j + 1]))
        at = _lane_dense(side.pieces, lane, lo, hi, forward)
        try:
            xm = brentq(lambda t: turn(t, at(t)), lo, hi, xtol=1e-13, rtol=1e-13)
        except ValueError:
            continue  # dense interpolant disagrees at the endpoints; skip
        # orient by x so backward runs label the same way as forward ones
        g_left = gl[lane, j] if forward else gr[lane, j]
        out.append((int(lane), float(xm), kinds[0] if g_left > 0.0 else kinds[1],
                    float(at(xm))))
    return out


def _run_both_ways(a: float, nu: float, flow, turn, scale, kinds,
                   x0: float, y0s: np.ndarray, x_lo: float, x_hi: float) -> List[Trajectory]:
    """Integrate ``flow`` from (x0, y0) out to both window edges, per start.

    Starts run as the lanes of one batch per side, at most _MAX_LANES at a
    time.  Extrema are the refined sign changes of ``turn`` (labeled by
    ``kinds``, noise-floored by ``scale``) on each side, the seed included
    on both, so no interval next to the seed goes unscanned; each extremum
    is inserted into the samples of the flow variable.
    """
    out = []
    for first in range(0, len(y0s), _MAX_LANES):
        block = y0s[first:first + _MAX_LANES]
        found: List[list] = [[] for _ in block]
        sides = []
        for x_end in (x_lo, x_hi):
            side = _integrate_side(flow, x0, block, x_end, _SAMPLES_PER_SIDE)
            for lane, xm, kind, value in _side_extrema(side, turn, scale, kinds):
                found[lane].append((xm, kind, value))
            side.pieces.clear()  # free this side's dense output before the next runs
            sides.append(side)
        back, fwd = sides
        for k in range(len(block)):
            nb, nf = back.count[k], fwd.count[k]
            rows = np.concatenate([
                np.column_stack([back.xs[1:nb], back.ys[k, 1:nb]])[::-1],
                np.column_stack([fwd.xs[:nf], fwd.ys[k, :nf]]),
                np.array([(xm, v) for xm, _, v in found[k]]).reshape(-1, 2)])
            rows = rows[np.argsort(rows[:, 0], kind="stable")]
            rows = rows[np.r_[True, np.diff(rows[:, 0]) > 0.0]]
            traj = Trajectory(a=a, nu=nu, samples=rows,
                              extrema=sorted(((xm, kind) for xm, kind, _ in found[k]),
                                             key=lambda e: e[0]))
            st_b, st_f = back.status[k], fwd.status[k]
            if st_f == 1 or st_b == 1:
                traj.termination = "blow-up"
                traj.blow_up_x = float(fwd.x_at[k] if st_f == 1 else back.x_at[k])
            elif st_f == -1 or st_b == -1:
                traj.termination = "step-failure"
            out.append(traj)
    return out


def _check_params(*values: float) -> None:
    if not all(np.isfinite(values)):
        raise DomainError(f"parameters must be finite, got {values}")


def check_start(y0: float) -> float:
    """``y0`` as a float; DomainError unless finite and below the blow-up
    threshold in magnitude (such a start could never cross it)."""
    y0 = float(y0)
    if not np.isfinite(y0):
        raise DomainError(f"initial value must be finite, got {y0}")
    if abs(y0) >= BLOWUP_THRESHOLD:
        raise DomainError(f"initial value must be below the blow-up threshold "
                          f"{BLOWUP_THRESHOLD:g} in magnitude, got {y0!r}")
    return y0


def solve_riccati(a: float, nu: float, x0: float, y0,
                  x_lo: float, x_hi: float):
    """Integrate the gamma equation from (x0, y0) out to both window edges.

    ``y0`` is one initial value (returns a Trajectory) or a 1-D array of
    them (returns one Trajectory per start, in order; all starts share the
    steps of one integration per side).  Stops a start early when |gamma|
    crosses BLOWUP_THRESHOLD (recorded as blow-up with its abscissa) or the
    step controller gives up (step-failure).  Interior extrema are located
    from sign changes of the right-hand side and refined by bisection on
    the dense interpolant.
    """
    a = float(a)
    nu = float(nu)
    x0 = float(x0)
    _check_params(a, nu)
    if not (0.0 < x_lo <= x0 <= x_hi < np.inf):
        raise DomainError(f"need 0 < x_lo <= x0 <= x_hi < inf, got ({x_lo}, {x0}, {x_hi})")
    if np.ndim(y0) > 1:
        raise DomainError(f"y0 must be a number or a 1-D array, got shape {np.shape(y0)}")
    y0s = np.array([check_start(y) for y in np.ravel(y0)], dtype=float)
    rhs, scale = _gamma_rhs(a, nu)
    trajs = _run_both_ways(a, nu, rhs, rhs, scale, ("max", "min"), x0, y0s, x_lo, x_hi)
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
    span = np.max(np.abs(excursion))
    if span <= _SLOPE_FLOOR * max(1.0, abs(ys[0])):
        return SolutionClass.MONOTONE_DECREASING  # zero-slope edge case
    idx = int(np.argmax(np.abs(excursion)))
    return (SolutionClass.MONOTONE_INCREASING if excursion[idx] > 0.0
            else SolutionClass.MONOTONE_DECREASING)


# ----------------------------------------------------------------------
# W-system
# ----------------------------------------------------------------------

def _psi_rhs(nu: float):
    n2 = nu * nu

    def rhs(x, y):
        return (n2 + x * x - y * y) / x

    def scale(x, y):
        return (n2 + x * x + y * y) / x

    return rhs, scale


def _w_cubic(nu: float):
    # psi**3 + psi**2 - (nu**2 + x**2) psi - nu**2: W' = -(2/x**3) * this
    n2 = nu * nu

    def cubic(x, p):
        return ((p + 1.0) * p - (n2 + x * x)) * p - n2

    return cubic


def _w_of(nu: float):
    n2 = nu * nu

    def w(x, p):
        return (p * p - n2) / (x * x)

    return w


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
    _check_params(nu)
    if not (0.0 < x_lo < x_hi < np.inf):
        raise DomainError(f"need 0 < x_lo < x_hi < inf, got ({x_lo}, {x_hi})")
    rhs, scale = _psi_rhs(nu)

    if isinstance(source, RatioKind):
        if source is RatioKind.FIRST:
            x0 = x_lo  # forward run: first-kind branch attracts to the right
        else:
            x0 = x_hi  # backward run: second-kind branch attracts to the left
        psi0 = oracle_psi(source, EvalPoint(nu, x0)).value
    else:
        x0, phi0 = (float(source[0]), float(source[1]))
        if not (x_lo <= x0 <= x_hi):
            raise DomainError(f"x0={x0} outside window [{x_lo}, {x_hi}]")
        psi0 = x0 * phi0 - nu

    # cubic > 0 means W' < 0; a (+ -> -) crossing of the cubic is a minimum
    traj, = _run_both_ways(0.0, nu, rhs, _w_cubic(nu), scale, ("min", "max"),
                           x0, np.array([check_start(psi0)]), x_lo, x_hi)
    traj.samples[:, 1] = _w_of(nu)(traj.xs(), traj.ys())
    return traj


def nullcline_contact(traj: Trajectory) -> List[Tuple[float, float, float]]:
    """(x_m, W(x_m), w_O(x_m)) for each extremum of a W trajectory."""
    out = []
    xs = traj.xs()
    ys = traj.ys()
    for xm, _ in traj.extrema:
        i = int(np.searchsorted(xs, xm))
        if i >= len(xs) or xs[i] != xm:
            raise EvaluationError(f"extremum at x={xm} missing from samples")
        out.append((xm, float(ys[i]), w_values(EvalPoint(traj.nu, xm)).w_O))
    return out
