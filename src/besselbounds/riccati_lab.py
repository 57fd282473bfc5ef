"""Qualitative study of the generalized Riccati flow and its W-system.

The first-order equation

    gamma' = -x**a * gamma**2 + ((2*nu - 1 - a)/x) * gamma + x**(-a)

has exactly two regular strictly monotonic solutions on (0, inf) for the
parameter ranges of interest: the rescaled first- and second-kind ratios.
Everything else either blows up at a finite abscissa (solutions that start
below the second-kind branch) or carries an interior extremum (solutions
pinched between the two branches).  This module demonstrates that picture
numerically: trajectories are labeled by initial data (x0, y0), integrated
adaptively in both directions, and classified.

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
from typing import List, Optional, Sequence, Tuple, Union

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


class SolutionClass(Enum):
    MONOTONE_INCREASING = "monotone-increasing"
    MONOTONE_DECREASING = "monotone-decreasing"
    HAS_INTERIOR_EXTREMUM = "has-interior-extremum"
    BLOW_UP = "blow-up"


@dataclass
class Trajectory:
    """One integrated solution, sampled on a strictly increasing x grid.

    ``termination`` is "reached-end", "blow-up" (with ``blow_up_x`` set) or
    "step-failure".  ``extrema`` holds (x, "min"|"max") pairs; each refined
    extremum abscissa is also inserted into ``samples`` so its ordinate is
    available without interpolation.
    """

    a: float
    nu: float
    samples: List[Tuple[float, float]]
    termination: str = "reached-end"
    blow_up_x: Optional[float] = None
    extrema: List[Tuple[float, str]] = field(default_factory=list)

    def xs(self) -> np.ndarray:
        return np.array([s[0] for s in self.samples])

    def ys(self) -> np.ndarray:
        return np.array([s[1] for s in self.samples])


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


def _blow_event():
    def event(x, y):
        return abs(y[0]) - BLOWUP_THRESHOLD

    event.terminal = True
    return event


def _integrate_side(rhs, x0: float, y0: float, x_end: float, n: int):
    """One direction of an adaptive run; returns (xs, ys, dense, status, x_at).

    status: 0 reached end, 1 blow-up, -1 step failure.  xs is ordered in
    integration direction and excludes the seed point itself.
    """
    if x_end == x0:
        return np.empty(0), np.empty(0), None, 0, None
    t_eval = np.geomspace(x0, x_end, n + 1)[1:]
    sol = solve_ivp(
        lambda x, y: [rhs(x, y[0])],
        (x0, x_end),
        [y0],
        method="RK45",
        t_eval=t_eval,
        dense_output=True,
        events=[_blow_event()],
        rtol=_RTOL,
        atol=_ATOL,
    )
    if sol.status == -1:
        return sol.t, sol.y[0], sol.sol, -1, None
    if sol.status == 1:  # terminal event
        x_at = float(sol.t_events[0][0])
        return sol.t, sol.y[0], sol.sol, 1, x_at
    return sol.t, sol.y[0], sol.sol, 0, None


def _sign_change_extrema(rhs, scale, dense, xs: Sequence[float], ys: Sequence[float],
                         kinds=("max", "min")) -> List[Tuple[float, str]]:
    """Refined roots of rhs along the trajectory, noise-floored.

    ``kinds`` maps the (+ -> -) and (- -> +) crossings to extremum labels
    for the tracked quantity (for gamma itself: +->- is a maximum).
    """
    out: List[Tuple[float, str]] = []
    g = np.array([rhs(x, y) for x, y in zip(xs, ys)])
    floors = np.array([_RHS_NOISE_REL * scale(x, y) for x, y in zip(xs, ys)])
    for i in range(len(xs) - 1):
        gl, gr = g[i], g[i + 1]
        if gl == 0.0 or gl * gr > 0.0:
            continue
        if abs(gl) <= floors[i] and abs(gr) <= floors[i + 1]:
            continue  # roundoff flutter, e.g. the constant solution
        lo, hi = sorted((xs[i], xs[i + 1]))
        try:
            xm = brentq(lambda t: rhs(t, dense(t)[0]), lo, hi, xtol=1e-13, rtol=1e-13)
        except ValueError:
            continue  # dense interpolant disagrees at the endpoints; skip
        # orient by x so backward runs label the same way as forward ones
        g_left = gl if xs[i] < xs[i + 1] else gr
        out.append((float(xm), kinds[0] if g_left > 0.0 else kinds[1]))
    return out


def _run_both_ways(a: float, nu: float, flow, turn, scale, kinds,
                   x0: float, y0: float, x_lo: float, x_hi: float) -> Trajectory:
    """Integrate ``flow`` from (x0, y0) out to both window edges.

    Extrema are the refined sign changes of ``turn`` (labeled by ``kinds``,
    noise-floored by ``scale``) on each side, the seed included on both, so
    no interval next to the seed goes unscanned; each extremum is inserted
    into the samples of the flow variable.
    """
    sides = [_integrate_side(flow, x0, y0, x_end, _SAMPLES_PER_SIDE) for x_end in (x_lo, x_hi)]
    (xs_b, ys_b, _, st_b, at_b), (xs_f, ys_f, _, st_f, at_f) = sides
    samples = list(zip(xs_b[::-1], ys_b[::-1])) + [(x0, y0)] + list(zip(xs_f, ys_f))
    extrema: List[Tuple[float, str]] = []
    for xs, ys, dense, _, _ in sides:
        if dense is None:
            continue
        found = _sign_change_extrema(turn, scale, dense, [x0, *xs], [y0, *ys], kinds)
        extrema += found
        samples += [(xm, float(dense(xm)[0])) for xm, _ in found]
    extrema.sort(key=lambda e: e[0])
    samples.sort(key=lambda s: s[0])
    samples = [s for i, s in enumerate(samples) if i == 0 or s[0] > samples[i - 1][0]]

    traj = Trajectory(a=a, nu=nu, samples=samples, extrema=extrema)
    if st_f == 1 or st_b == 1:
        traj.termination = "blow-up"
        traj.blow_up_x = at_f if st_f == 1 else at_b
    elif st_f == -1 or st_b == -1:
        traj.termination = "step-failure"
    return traj


def solve_riccati(a: float, nu: float, x0: float, y0: float,
                  x_lo: float, x_hi: float) -> Trajectory:
    """Integrate the gamma equation from (x0, y0) out to both window edges.

    Stops a direction early when |gamma| crosses BLOWUP_THRESHOLD (recorded
    as blow-up with its abscissa) or the step controller gives up
    (step-failure).  Interior extrema are located from sign changes of the
    right-hand side and refined by bisection on the dense interpolant.
    """
    a = float(a)
    nu = float(nu)
    x0, y0 = float(x0), float(y0)
    if not (0.0 < x_lo <= x0 <= x_hi):
        raise DomainError(f"need 0 < x_lo <= x0 <= x_hi, got ({x_lo}, {x0}, {x_hi})")
    if not np.isfinite(y0):
        raise DomainError(f"initial value must be finite, got {y0}")
    rhs, scale = _gamma_rhs(a, nu)
    return _run_both_ways(a, nu, rhs, rhs, scale, ("max", "min"), x0, y0, x_lo, x_hi)


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
    if not (0.0 < x_lo < x_hi):
        raise DomainError(f"need 0 < x_lo < x_hi, got ({x_lo}, {x_hi})")
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
    traj = _run_both_ways(0.0, nu, rhs, _w_cubic(nu), scale, ("min", "max"),
                          x0, psi0, x_lo, x_hi)
    w = _w_of(nu)
    traj.samples = [(x, w(x, p)) for x, p in traj.samples]
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
