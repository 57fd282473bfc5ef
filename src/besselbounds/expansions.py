"""Exact truncated series of the ratio quantities and of the trigonometric
bounds, over ``fractions.Fraction``.

A series is the list of its first n coefficients c_0 .. c_{n-1} in its
regime's variable t; it is known modulo t**n, and arithmetic on series of
different lengths is known to the shorter one.  Each regime has one source
for the ratios:

* large x (t = 1/x, order nu fixed): Phi ~ sum c_k t**k from
  ``oracle.large_x_coefficients``, generated from the Riccati equation
  and run on Fractions (c_0 = 1 for Phi0, -1 for Phi1);
* small x (t = x, nu fixed): y = x*Phi solves x y' = x**2 + 2 nu y - y**2
  (``small_x_coefficients``);
* large nu (t = 1/nu, x fixed): the order recurrences
  y(nu) = 2 nu + x**2/y(nu+1) of y = x*Phi0 and
  s(nu) = x**2/(2(nu-1) + s(nu-1)) of s = -x*Phi1
  (``large_nu_coefficients``).

The roots lambda_I > 0 and lambda_K < -1 of the ratio cubic
lambda**3 + lambda**2 - (nu**2 + x**2) lambda - nu**2 are solved order by
order (``cubic_root``).  In each regime the ratios and roots are carried as
sigma*x*Phi and sigma*lambda, where sigma = t at large x and large nu and
sigma = 1 at small x, so every one of them is a power series.
``bound_series`` builds the three trigonometric bounds of the sharpness
battery (``trig-upper-I``, ``trig-upper-K``, ``product-lower-trig``) and
their oracle targets from these, and ``relative_error_series`` the signed
relative error that the battery fits.  The command line imports none of
this.
"""

from fractions import Fraction
from functools import reduce
from math import comb

from .errors import DomainError
from .nullclines import BOUNDS
from .oracle import large_x_coefficients

REGIMES = ("large-x", "small-x", "large-nu")


def _mono(c, k: int, n: int) -> list:
    """c * t**k as a series of n terms."""
    return [Fraction(c) if i == k else Fraction(0) for i in range(n)]


def _add(*terms) -> list:
    return [sum(cs) for cs in zip(*terms)]


def _scale(c, a) -> list:
    return [c * v for v in a]


def mul(a: list, b: list) -> list:
    """The product a*b."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


def div(a: list, b: list) -> list:
    """The quotient a/b.  The z leading zero terms of b must lead a too;
    they cancel, and the quotient is z terms shorter."""
    z = next(i for i, c in enumerate(b) if c)
    if any(a[:z]):
        raise DomainError("the quotient is not a power series")
    a, b, q = a[z:], b[z:], []
    for k in range(min(len(a), len(b))):
        q.append((a[k] - sum(b[i] * q[k - i] for i in range(1, k + 1))) / Fraction(b[0]))
    return q


def value(a: list, t) -> Fraction:
    """sum a_k t**k, exact for a Fraction (or float) t."""
    return reduce(lambda v, c: v * Fraction(t) + c, reversed(a), Fraction(0))


def small_x_coefficients(nu, a0, n: int) -> list:
    """The first n coefficients a_k of y = x*Phi = sum a_k x**k, the power
    series solution of x y' = x**2 + 2 nu y - y**2 with y(0) = a0:

        (k + 2 a0 - 2 nu) a_k = [k == 2] - sum_{0<i<k} a_i a_{k-i}.

    a0 = 2 nu gives x*Phi0 (I_nu is x**nu times a power series in x**2;
    at nu = 0 the two starts coincide, and this is x*Phi0).  a0 = 0 gives
    x*Phi1 only below x**(2 nu), where K's second power series (with a
    logarithm at integer nu) enters, so asking for a term at or past it
    raises DomainError, as does a term the equation leaves free."""
    nu, a = Fraction(nu), [Fraction(a0)]
    if a0 != 2 * nu and n - 1 >= 2 * nu:
        raise DomainError(f"the small-x K series at nu={nu} holds only below x**{2 * nu}")
    for k in range(1, n):
        m = k + 2 * a[0] - 2 * nu
        if not m:
            raise DomainError(f"the x**{k} term of the small-x series is free at nu={nu}")
        a.append(((k == 2) - sum(a[i] * a[k - i] for i in range(1, k))) / m)
    return a


def _shift(a: list, d: int) -> list:
    """a(t/(1 + d t)): a series in t = 1/nu moved to order nu + d, by
    (t/(1 + d t))**k = sum_{m>=k} C(m-1, m-k) (-d)**(m-k) t**m."""
    return a[:1] + [sum(a[k] * comb(m - 1, m - k) * (-d) ** (m - k) for k in range(1, m + 1))
                    for m in range(1, len(a))]


def large_nu_coefficients(x, n: int) -> tuple:
    """(Y_I, Y_K): the first n coefficients in t = 1/nu of t*x*Phi0 and
    t*x*Phi1 at fixed x.  With Y = t*y and S = s, the order recurrences
    (module docstring) read

        Y(t) = 2 + x**2 t t'/Y(t'),       t' = t/(1 + t),
        S(t) = x**2 t/(2 - 2t + t S(t'')),  t'' = t/(1 - t),

    and each pass of their fixed-point iteration fixes at least one more
    term.  Y_K = -t S."""
    x2, t, two = Fraction(x) ** 2, _mono(1, 1, n), _mono(2, 0, n)
    tt, y, s = mul(t, _shift(t, 1)), two, _mono(0, 0, n)
    for _ in range(n):
        y = _add(two, _scale(x2, div(tt, _shift(y, 1))))
        s = _scale(x2, div(t, _add(two, _scale(-2, t), mul(t, _shift(s, -1)))))
    return y, _scale(-1, mul(t, s))


def cubic_root(b: list, c: list, d: list, seed) -> list:
    """The series root u of u**3 + b u**2 + c u + d with u(0) = seed, a
    simple root of the constant terms.  Each Newton step on series doubles
    the number of terms known."""
    n = len(c)
    u = _mono(seed, 0, n)
    for _ in range(n.bit_length()):
        f = _add(mul(_add(mul(_add(u, b), u), c), u), d)
        df = _add(mul(_add(_scale(3, u), _scale(2, b)), u), c)
        if not df[0]:
            raise DomainError(f"the cubic has a multiple root at {seed}")
        u = _add(u, _scale(-1, div(f, df)))
    return u


def _units(regime: str, fixed, n: int) -> tuple:
    """(sigma, sigma*x, sigma*nu) as series in the regime's variable; fixed
    is nu at large and small x and x at large nu."""
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    one, t = _mono(1, 0, n), _mono(1, 1, n)
    return {"large-x": (t, one, _scale(Fraction(fixed), t)),
            "small-x": (one, t, _scale(Fraction(fixed), one)),
            "large-nu": (t, _scale(Fraction(fixed), t), one)}[regime]


def _family(kind: int, regime: str, fixed, n: int) -> tuple:
    """(sigma*x*Phi, sigma*lambda) of one family: kind 1 for I (Phi0 and
    lambda_I), -1 for K (Phi1 and lambda_K)."""
    sigma, sx, snu = _units(regime, fixed, n)
    if regime == "large-x":
        y = large_x_coefficients(Fraction(fixed), kind, n)
    elif regime == "small-x":
        y = small_x_coefficients(fixed, 2 * Fraction(fixed) if kind > 0 else 0, n)
    else:
        y = large_nu_coefficients(fixed, n)[kind < 0]
    seed = kind if regime != "small-x" else (fixed if kind > 0 else -max(fixed, 1))
    # the cubic in sigma*lambda, multiplied through by sigma**3
    nu2 = mul(snu, snu)
    return y, cubic_root(sigma, _scale(-1, _add(nu2, mul(sx, sx))), _scale(-1, mul(sigma, nu2)),
                         seed)


def bound_series(claim: str, regime: str, fixed, n: int) -> tuple:
    """(bound, target, unit): series in the regime's variable t, with fixed
    as in ``_units``, such that bound(t)/unit(t) is the claim's bound and
    target(t)/unit(t) its oracle target (``BOUNDS[claim].target``)."""
    sigma, sx, snu = _units(regime, fixed, n)
    if claim == "trig-upper-I":
        y, lam = _family(1, regime, fixed, n)
        return _add(lam, snu), y, sx
    if claim == "trig-upper-K":
        y, lam = _family(-1, regime, fixed, n)
        return _scale(-1, _add(lam, snu)), _scale(-1, y), sx
    if claim == "product-lower-trig":
        (yi, li), (yk, lk) = _family(1, regime, fixed, n), _family(-1, regime, fixed, n)
        return (div(sigma, _add(li, _scale(-1, lk))), div(sigma, _add(yi, _scale(-1, yk))),
                _mono(1, 0, n))
    raise DomainError(f"no exact series for claim {claim!r}")


def relative_error_series(claim: str, regime: str, fixed, n: int) -> list:
    """The claim's signed relative error as a series: bound/target - 1 for
    an upper bound, 1 - bound/target for a lower one, as the sharpness
    battery measures it (``verify.relative_error``)."""
    bound, target, _ = bound_series(claim, regime, fixed, n)
    q = div(bound, target)
    sign = 1 if BOUNDS[claim].direction == "upper" else -1
    return _add(_scale(sign, q), _mono(-sign, 0, len(q)))
