"""Closed-form nullcline geometry for modified Bessel ratio Riccati equations.

The two ratios

    Phi0(nu, x) = I_{nu-1}(x) / I_nu(x)        (> 0 for nu >= 0)
    Phi1(nu, x) = -K_{nu-1}(x) / K_nu(x)       (< 0)

are particular solutions of the same Riccati equation

    Phi'(x) = 1 + ((2*nu - 1)/x) * Phi - Phi**2,

and the rescaled unknown gamma = x**(-a) * Phi solves

    gamma'(x) = -x**a * gamma**2 + ((2*nu - 1 - a)/x) * gamma + x**(-a).

The right-hand side factors through two explicit nullcline branches
gamma_hat_plus > 0 > gamma_hat_minus built from the positive root

    lambda_plus(a, nu, x) = (c + sqrt(c**2 + x**2)) / x,   c = nu - (a+1)/2,

via gamma_hat_plus = x**(-a) * lambda_plus and
gamma_hat_minus = -x**(-a) / lambda_plus.  Comparison of solutions against
these branches yields the classical two-sided ratio bounds produced by
``amos_forms``.

The second-order structure (ratios of consecutive ratios) leads to the cubic

    t**3 + t**2 - (nu**2 + x**2) * t - nu**2 = 0,

whose three real roots lambda_K < lambda_O < lambda_I drive both the
trigonometric ratio bounds (``TRIG_I``/``TRIG_K``) and the nullcline levels
w = (lambda**2 - nu**2) / x**2 of the double-ratio flow; ``cubic_levels``
gives both from one solve, its values named in ``CUBIC_LEVELS``.
Bounds for the product I_nu * K_nu follow from 1/(x*(Phi0 - Phi1)) and are
collected in ``PRODUCT_FORMS``.  The cubic's roots and the w levels also
bracket psi = x*Phi - nu and the double ratios W = Phi(nu)/Phi(nu+1).
``BOUNDS`` is the one catalog of every checked bound, keyed by claim id.

Every formula is array-first: it broadcasts over numpy arrays of nu and x
(the scans pass a column of orders against the x row, each element
computed exactly as in a one-order row), and a one-point value is the
same call on a one-element x row.  A bound is a ``BoundForm``: its
formula, direction and proved order range.  Values are still computed
outside that range, but the scans skip the orders where ``proved.holds``
is False, so scanning code never treats an extrapolated value as a proved
one.  A form's ``target`` is the ``oracle.quantity_row`` id of the
quantity it bounds: "Phi0", "Phi1", "K-ratio-pos" (-Phi1 =
K_{nu-1}/K_nu), "P", "psi_I", "psi_K", "W_I" or "W_K".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError

# Largest tolerated overshoot of |acos argument| beyond 1 before the cubic
# solver refuses to clamp; overshoots below this are pure roundoff.
ACOS_CLAMP_LIMIT = 1.0e-8
EPS = 2.220446049250313e-16   # float64 machine epsilon

_TWO_PI_3 = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class EvalPoint:
    """A single (order, argument) evaluation point with x > 0."""

    nu: float
    x: float

    def __post_init__(self):
        try:
            nu, x = float(self.nu), float(self.x)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"evaluation point must be numeric, got ({self.nu!r}, {self.x!r})") from exc
        if not math.isfinite(nu):
            raise DomainError(f"order must be a finite real number, got {self.nu!r}")
        if not (math.isfinite(x) and x > 0):
            raise DomainError(f"argument must be finite and > 0, got {self.x!r}")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class Extremum:
    """Location of the interior extremum of a nullcline branch."""

    x: float
    branch: str             # "plus" or "minus"
    kind: str               # "min" or "max"


class OrderRange(NamedTuple):
    """Proved range of a claim in the order: nu >= lo, or nu > lo if strict,
    and nu <= hi."""

    lo: float
    strict: bool
    note: str
    hi: float = math.inf

    def holds(self, nu: float) -> bool:
        return (nu > self.lo if self.strict else nu >= self.lo) and nu <= self.hi


NU_GE_M1 = OrderRange(-1.0, False, "nu >= -1")
NU_GE_0 = OrderRange(0.0, False, "nu >= 0")
NU_GE_HALF = OrderRange(0.5, False, "nu >= 1/2")
ALL_NU = OrderRange(-math.inf, False, "all real nu")


@dataclass(frozen=True)
class BoundForm:
    """A closed-form bound: ``formula(nu, x)`` broadcasts over numpy arrays,
    ``direction`` and ``target`` (the oracle quantity id it bounds) describe
    the inequality and ``proved`` is the order range where it is a theorem
    (``proved.holds(nu)``).

    The scans call ``formula`` on a column of orders against the x row; one
    order row is the same call with a scalar order, and one point
    (``verify.BoundClaim.bound_fn``) a scalar order against a one-element
    x row.
    """

    formula: Callable
    direction: str          # "upper" or "lower"
    target: str             # oracle quantity id
    proved: OrderRange
    conjectural: bool = False


def _check_a(a: float) -> float:
    try:
        a = float(a)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"rescaling exponent must be numeric, got {a!r}") from exc
    if not math.isfinite(a):
        raise DomainError(f"rescaling exponent must be finite, got {a!r}")
    return a


def lambda_plus_row(a: float, nu, x) -> np.ndarray:
    """Positive nullcline root (c + sqrt(c**2 + x**2))/x with c = nu-(a+1)/2.

    Strictly positive for all real a, nu and x > 0.  The c < 0 case is
    rationalized to x/(sqrt(c**2+x**2) - c) to avoid cancellation.
    """
    a = _check_a(a)
    c = np.asarray(nu, dtype=float) - 0.5 * (a + 1.0)
    x = np.asarray(x, dtype=float)
    s = np.hypot(c, x) + np.abs(c)
    return np.where(c >= 0.0, s / x, x / s)


def gamma_hat_row(a: float, nu, x) -> Tuple[np.ndarray, np.ndarray]:
    """Both nullcline branches (plus, minus) of the rescaled Riccati flow.

    plus = x**(-a) * lambda_plus > 0 and minus = -x**(-a) / lambda_plus < 0.
    """
    lam = lambda_plus_row(a, nu, x)
    scale = np.power(x, -float(a))
    return scale * lam, -scale / lam


def nullcline_extremum(a: float, nu: float) -> Optional[Extremum]:
    """Interior extremum of a nullcline branch for 0 < |a| < 1.

    The candidate abscissa is x_e = -(sqrt(1-a**2)/a) * (nu - (a+1)/2).  A
    positive x_e is an extremum of the plus branch, a negative one belongs to
    the minus branch at |x_e|, and x_e == 0 means neither branch has an
    interior extremum (returns None).
    """
    a = _check_a(a)
    if not 0.0 < abs(a) < 1.0:
        raise DomainError(f"extremum formula requires 0 < |a| < 1, got a={a}")
    if not math.isfinite(nu):
        raise DomainError(f"order must be finite, got {nu!r}")
    c = nu - 0.5 * (a + 1.0)
    x_e = -(math.sqrt(1.0 - a * a) / a) * c
    if x_e == 0.0:
        return None
    if x_e > 0.0:
        return Extremum(x=x_e, branch="plus", kind="min" if a < 0 else "max")
    return Extremum(x=-x_e, branch="minus", kind="max" if a < 0 else "min")


def _newton_cubic(b, c, d, u) -> np.ndarray:
    """Root of u**3 + b*u**2 + c*u + d near the seed u, elementwise.

    Up to three Newton steps; an element freezes after its first step
    below 4 eps |u|, or at a zero slope, exactly as a scalar loop would
    stop.  Seeds within a few ulps of the root's scale converge in one or
    two steps.
    """
    u = np.array(u, dtype=float)
    live = np.ones(u.shape, dtype=bool)
    for _ in range(3):
        f = ((u + b) * u + c) * u + d
        df = (3.0 * u + 2.0 * b) * u + c
        live &= df != 0.0
        step = np.divide(f, df, out=np.zeros(u.shape), where=live)
        u -= step
        live &= np.abs(step) > 4.0 * EPS * np.abs(u)
        if not np.count_nonzero(live):
            break
    return u


def _cubic(nu, x):
    """(lambda_K, lambda_O, lambda_I, g, acos_arg, lambda_K + 1) of the
    ratio cubic, broadcast over nu and x.

    lambda_I comes from the trigonometric formula.  lambda_K + 1 is refined
    from the shifted cubic u**3 - 2*u**2 + (1 - nu**2 - x**2)*u + x**2 = 0:
    near x = 0 at |nu| < 1 it is O(x**2), and forming it by subtraction
    would lose its leading digits.  1 - nu**2 is formed as (1-nu)*(1+nu),
    which keeps full relative precision near |nu| = 1, where the slope of
    the shifted cubic at the root is small.

    lambda_O = nu**2/(lambda_I*lambda_K) by Vieta, accurate even where it
    is O(nu**2/x**2) and the trigonometric formula keeps no digits.
    """
    nu, x = np.asarray(nu, dtype=float), np.asarray(x, dtype=float)
    nu2 = nu * nu
    g = np.sqrt(3.0 * (nu2 + x * x) + 1.0)
    raw = (18.0 * nu2 - 9.0 * x * x - 2.0) / (2.0 * g ** 3)
    # Roundoff may push the argument marginally outside [-1, 1]; anything
    # beyond ACOS_CLAMP_LIMIT indicates a real defect, not roundoff.
    worst = np.abs(raw).max(initial=0.0)     # an empty row has nothing to clamp
    if worst > 1.0 + ACOS_CLAMP_LIMIT:
        raise DomainError(f"acos argument {float(worst)!r} exceeds [-1, 1] beyond roundoff")
    arg = np.clip(raw, -1.0, 1.0)
    theta = np.arccos(arg) / 3.0
    two_g_3 = 2.0 * g / 3.0
    lam_i = two_g_3 * np.cos(theta) - 1.0 / 3.0
    lam_k = two_g_3 * np.cos(theta + _TWO_PI_3) - 1.0 / 3.0
    # nu = 0: the cubic factors as t*(t**2 + t - x**2) and the trig formula
    # is ill-conditioned (acos argument at -1), so use the factors:
    # lambda_I = h, lambda_K = -1 - h, lambda_O = 0
    zero = nu == 0.0
    u_k = lam_k + 1.0
    if np.count_nonzero(zero):
        h = 2.0 * x * x / (1.0 + np.sqrt(1.0 + 4.0 * x * x))
        lam_i, u_k = np.where(zero, h, lam_i), np.where(zero, -h, u_k)
    u_k = _newton_cubic(-2.0, (1.0 - nu) * (1.0 + nu) - x * x, x * x, u_k)
    lam_k = u_k - 1.0
    lam_o = np.where(zero, 0.0, nu2 / (lam_i * lam_k))
    return lam_k, lam_o, lam_i, g, arg, u_k


def _lambda_K_shift(nu, x, lam_k) -> np.ndarray:
    """lambda_K + nu to full relative precision.

    For nu well above 1 and small x the shift is O(x**2/nu) while lambda_K
    itself is O(nu), so forming it by subtraction loses most of its digits.
    Substituting t = u - nu into the cubic gives

        u**3 + (1 - 3*nu)*u**2 + (2*nu*(nu-1) - x**2)*u + nu*x**2 = 0

    whose coefficients carry no cancellation, so a couple of Newton steps
    seeded from lambda_K + nu recover u at machine accuracy.
    """
    return _newton_cubic(1.0 - 3.0 * nu, 2.0 * nu * (nu - 1.0) - x * x,
                         nu * x * x, lam_k + nu)


# the names of ``cubic_levels``' values, in order
CUBIC_LEVELS = ("lambda_K", "lambda_O", "lambda_I", "g", "acos_arg", "w_I", "w_K", "w_O")


def cubic_levels(nu, x) -> Tuple[np.ndarray, ...]:
    """(lambda_K, lambda_O, lambda_I, g, acos_arg, w_I, w_K, w_O) from one
    solve of the ratio cubic, broadcast over nu and x (names in
    ``CUBIC_LEVELS``): the three real roots of
    t**3 + t**2 - (nu**2+x**2)*t - nu**2, ordered lambda_K < lambda_O <
    lambda_I with lambda_I > 0 always, lambda_K < -1 and lambda_O in
    (-|nu|, 0] (zero exactly when nu == 0); then
    g = sqrt(3*(nu**2 + x**2) + 1) and the clamped argument passed to acos;
    then the nullcline levels w_I, w_K, w_O of the W flow.

    The w levels w_A = (lambda_A**2 - nu**2)/x**2 are evaluated through the
    algebraically equivalent form lambda/(lambda + 1) (the cubic gives
    (lambda**2 - nu**2)*(lambda + 1) = x**2*lambda), which avoids the
    cancellation of lambda**2 against nu**2 at small x.  Each lambda + 1 is
    a root of the shifted cubic: lambda_K + 1 is refined there, and
    lambda_O + 1 = -x**2/((lambda_I + 1)*(lambda_K + 1)) from the product
    of its roots.
    """
    x = np.asarray(x, dtype=float)
    lam_k, lam_o, lam_i, g, arg, u_k = _cubic(nu, x)
    u_i = lam_i + 1.0
    return (lam_k, lam_o, lam_i, g, arg,
            lam_i / u_i, lam_k / u_k, lam_o / (-(x * x) / (u_i * u_k)))


# Trigonometric ratio bounds, sharp as x -> 0, x -> oo and nu -> oo:
# I_{nu-1}/I_nu <= (lambda_I + nu)/x and, in the positive ratio convention,
# K_{nu-1}/K_nu <= -(lambda_K + nu)/x; both proved for nu >= 0.
TRIG_I = BoundForm(lambda nu, x: (_cubic(nu, x)[2] + nu) / x,
                   "upper", "Phi0", NU_GE_0)
TRIG_K = BoundForm(lambda nu, x: -_lambda_K_shift(nu, x, _cubic(nu, x)[0]) / x,
                   "upper", "K-ratio-pos", NU_GE_0)


def amos_forms(a: float) -> Tuple[BoundForm, BoundForm]:
    """Nullcline comparison bounds (bound_I, bound_K) for exponent a.

    bound_I constrains Phi0 = I_{nu-1}/I_nu against lambda_plus(a), and
    bound_K constrains Phi1 = -K_{nu-1}/K_nu against -1/lambda_plus(a).
    Direction and proved range depend on a:

      a = 0   : Phi0 > lambda_plus for nu >= 1/2;
                Phi1 < -1/lambda_plus for nu > 1/2 (equality holds
                identically at nu = 1/2).
      a = -1  : Phi0 < lambda_plus for nu >= -1;
                Phi1 < -1/lambda_plus for nu >= 1/2.
      a = 1   : Phi0 > lambda_plus for nu > 0;
                Phi1 > -1/lambda_plus for every real nu.
      a > 1   : Phi0 > lambda_plus for nu >= 0;
                Phi1 > -1/lambda_plus for every real nu.
      a < -1  : Phi0 < lambda_plus for nu >= 0;
                Phi1 < -1/lambda_plus for every real nu.
      0<a<1   : Phi0 > lambda_plus for nu > 1/2; no K-side statement.
      -1<a<0  : Phi1 < -1/lambda_plus for nu >= 1/2; no I-side statement.
    """
    a = _check_a(a)

    def forms(i_dir: str, i_range: OrderRange, k_dir: str, k_range: OrderRange):
        return (BoundForm(lambda nu, x: lambda_plus_row(a, nu, x), i_dir, "Phi0", i_range),
                BoundForm(lambda nu, x: -1.0 / lambda_plus_row(a, nu, x), k_dir, "Phi1", k_range))

    if a == 0.0:
        return forms("lower", NU_GE_HALF,
                     "upper", OrderRange(0.5, True, "nu > 1/2 (identity at nu = 1/2)"))
    if a == -1.0:
        return forms("upper", NU_GE_M1, "upper", NU_GE_HALF)
    if a == 1.0:
        return forms("lower", OrderRange(0.0, True, "nu > 0"), "lower", ALL_NU)
    if a > 1.0:
        return forms("lower", NU_GE_0, "lower", ALL_NU)
    if a < -1.0:
        return forms("upper", NU_GE_0, "upper", ALL_NU)
    if a > 0.0:  # 0 < a < 1
        return forms("lower", OrderRange(0.5, True, "nu > 1/2"),
                     "upper", OrderRange(math.inf, False, "no proved statement for 0 < a < 1"))
    # -1 < a < 0
    return forms("upper", OrderRange(math.inf, False, "no proved statement for -1 < a < 0"),
                 "upper", NU_GE_HALF)


def _product_lower_trig(nu, x):
    lam_k, _, lam_i, _, _, _ = _cubic(nu, x)
    return 1.0 / (lam_i - lam_k)


# Closed-form bounds for the product P(nu, x) = I_nu(x)*K_nu(x)
PRODUCT_FORMS: Dict[str, BoundForm] = {
    "upper": BoundForm(lambda nu, x: 0.5 / np.hypot(nu - 0.5, x),
                       "upper", "P", NU_GE_HALF),
    "lower_amos": BoundForm(
        lambda nu, x: 1.0 / (1.0 + np.hypot(nu, x) + np.hypot(nu - 1.0, x)),
        "lower", "P", NU_GE_M1),
    "lower_trig": BoundForm(_product_lower_trig, "lower", "P", NU_GE_0),
    "lower_simple": BoundForm(lambda nu, x: 0.5 / np.sqrt(x * x + nu * nu + 1.0 / 3.0),
                              "lower", "P", NU_GE_0),
    "lower_conjecture": BoundForm(lambda nu, x: 0.5 / np.sqrt(x * x + nu * nu + 0.2),
                                  "lower", "P",
                                  OrderRange(-1.0, False, "conjectured for nu >= -1"),
                                  conjectural=True),
}


def _level(value, nu, x) -> np.ndarray:
    """``value`` (a number, or an array of orders' values) at every point of
    the (nu, x) broadcast; copied, not added to zeros, so -0.0 keeps its sign."""
    shape = np.broadcast_shapes(np.shape(nu), np.shape(x))
    return np.broadcast_to(np.asarray(value, dtype=float), shape).copy()


# psi_I in [nu, lambda_I], psi_K in [lambda_K, -nu], W_I in [0, w_I] and
# W_K in [0, w_K], all proved for nu >= 0: (claim id stem, target, lower,
# upper)
_BRACKETS = (
    ("psi-I", "psi_I", lambda nu, x: _level(nu, nu, x), lambda nu, x: cubic_levels(nu, x)[2]),
    ("psi-K", "psi_K", lambda nu, x: cubic_levels(nu, x)[0], lambda nu, x: _level(-nu, nu, x)),
    ("double-I", "W_I", lambda nu, x: _level(0.0, nu, x), lambda nu, x: cubic_levels(nu, x)[5]),
    ("double-K", "W_K", lambda nu, x: _level(0.0, nu, x), lambda nu, x: cubic_levels(nu, x)[6]),
)

_AMOS_EXPONENTS = (0.0, -1.0, 1.0, -2.0, 2.0)

# Every checked bound, keyed by claim id, in catalog order: grouped by the
# oracle quantity it bounds (Phi0, K-ratio-pos, Phi1, P, psi_I, psi_K, W_I,
# W_K).  `verify` registers each one as a claim and scans and prints them
# in this order; the grouping sets only the order of its output lines.
BOUNDS: Dict[str, BoundForm] = {
    "trig-upper-I": TRIG_I,
    **{f"amos-I-a{a:g}": amos_forms(a)[0] for a in _AMOS_EXPONENTS},
    "trig-upper-K": TRIG_K,
    **{f"amos-K-a{a:g}": amos_forms(a)[1] for a in _AMOS_EXPONENTS},
    **{"product-" + name.replace("_", "-"): form for name, form in PRODUCT_FORMS.items()},
    **{f"{stem}-{direction}": BoundForm(formula, direction, target, NU_GE_0)
       for stem, target, lower, upper in _BRACKETS
       for direction, formula in (("lower", lower), ("upper", upper))},
}
