"""Truncated asymptotic and Maclaurin series for the ratio quantities.

Three regimes are covered, each as the exact printed truncation with an
explicit order tag (no resummation, no extra terms):

* large x:   Phi0 = I_{nu-1}/I_nu and the positive second-kind ratio
             K_{nu-1}/K_nu behave like 1 +- (nu - 1/2)/x + (nu^2 - 1/4)/(2 x^2);
             the double ratios C_{nu-1} C_{nu+1} / C_nu^2 like 1 -+ 1/x
             +- (nu^2 - 1/4)/(2 x^3).
* small x:   x*Phi0 = 2 nu + x^2/(2(nu+1)) - x^4/(8(nu+1)^2(nu+2)) and the
             double ratio tends to nu/(nu+1); the second-kind series
             x*K_{nu-1}/K_nu = x^2/(2(nu-1)) - x^4/(8(nu-1)^2(nu-2)) needs
             nu > 1 and breaks down at integer orders, where a logarithmic
             term enters.
* large nu:  re-expansions of the small-x series in powers of 1/nu, valid
             for fixed x.

The product I_nu(x) K_nu(x) has one expansion per regime.  Values returned
for the second kind are the positive ratios K_{nu-1}/K_nu (negate to get
the signed ratio Phi1).  The large-x ratio truncations take their
coefficients from ``oracle.large_x_coefficients``, the generator behind
``oracle.large_x_series`` that seeds the K oracle; the truncations
themselves are reference forms that the tests compare with the oracle in
each regime, and ``relative_error`` is the error measure of the sharpness
battery.
"""

from dataclasses import dataclass

from .errors import DomainError
from .nullclines import EvalPoint
from .oracle import RatioKind, large_x_coefficients

__all__ = [
    "Expansion",
    "REGIMES",
    "large_x_ratio",
    "large_x_double",
    "small_x_I",
    "small_x_K",
    "large_nu_ratio",
    "product_expansion",
    "relative_error",
]

REGIMES = ("large-x", "small-x", "large-nu")

_KINDS = ("I-ratio", "K-ratio", "double-I", "double-K", "product")


@dataclass(frozen=True)
class Expansion:
    """One evaluated truncation: value, remainder order, regime and kind."""

    value: float
    order_tag: str
    regime: str
    kind: str

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}")
        if self.kind not in _KINDS:
            raise DomainError(f"unknown expansion kind {self.kind!r}")


def _ratio_kind_name(kind: RatioKind) -> str:
    return "I-ratio" if kind is RatioKind.FIRST else "K-ratio"


def large_x_ratio(kind: RatioKind, p: EvalPoint) -> Expansion:
    """Large-x series of the ratio C_{nu-1}(x)/C_nu(x), both kinds positive.

    FIRST:  1 + (nu - 1/2)/x + (nu^2 - 1/4)/(2 x^2)
    SECOND: 1 - (nu - 1/2)/x + (nu^2 - 1/4)/(2 x^2)

    The two kinds differ exactly by 2(nu - 1/2)/x at the printed order.
    The coefficients are the first three of the Riccati series generator
    ``oracle.large_x_coefficients`` (c_0 = +1 for Phi0, -1 for Phi1).
    """
    s = 1.0 if kind is RatioKind.FIRST else -1.0
    c0, c1, c2 = large_x_coefficients(p.nu, s, 3)
    inv = 1.0 / p.x
    val = s * (c0 + c1 * inv + c2 * inv * inv)
    return Expansion(val, "O(x^-3)", "large-x", _ratio_kind_name(kind))


def large_x_double(kind: RatioKind, p: EvalPoint) -> Expansion:
    """Large-x series of the double ratio C_{nu-1} C_{nu+1} / C_nu^2.

    FIRST:  1 - 1/x + (nu^2 - 1/4)/(2 x^3)
    SECOND: 1 + 1/x - (nu^2 - 1/4)/(2 x^3)

    The 1/x^2 term cancels identically for both kinds.
    """
    s = 1.0 if kind is RatioKind.FIRST else -1.0
    inv = 1.0 / p.x
    val = 1.0 - s * inv + s * 0.5 * (p.nu * p.nu - 0.25) * inv ** 3
    name = "double-I" if kind is RatioKind.FIRST else "double-K"
    return Expansion(val, "O(x^-4)", "large-x", name)


def small_x_I(p: EvalPoint):
    """Maclaurin behaviour of the first-kind quantities, nu >= 0.

    Returns (ratio_times_x, double) where

        x*Phi0 = 2 nu + x^2/(2(nu+1)) - x^4/(8(nu+1)^2(nu+2))
        W_I    = nu/(nu+1) + x^2/(2(nu+1)^2(nu+2))

    Both follow from the power series of I_nu; the x^2 coefficient of the
    double ratio is the exact quotient coefficient 1/(2(nu+1)^2(nu+2)).
    """
    if p.nu < 0.0:
        raise DomainError(f"small-x first-kind series needs nu >= 0, got {p.nu}")
    nu, x = p.nu, p.x
    x2 = x * x
    rx = 2.0 * nu + x2 / (2.0 * (nu + 1.0)) \
        - x2 * x2 / (8.0 * (nu + 1.0) ** 2 * (nu + 2.0))
    dbl = nu / (nu + 1.0) + x2 / (2.0 * (nu + 1.0) ** 2 * (nu + 2.0))
    return (
        Expansion(rx, "O(x^6)", "small-x", "I-ratio"),
        Expansion(dbl, "O(x^4)", "small-x", "double-I"),
    )


def _is_integer(nu: float) -> bool:
    return nu == int(nu)


def small_x_K(p: EvalPoint) -> Expansion:
    """Small-x behaviour of x*K_{nu-1}(x)/K_nu(x).

    For nu > 1 (non-integer):

        x^2/(2(nu-1)) - x^4/(8(nu-1)^2(nu-2)),  relative error O(x^{2(nu-1)})

    so the absolute remainder is O(x^{min(6, 2 nu)}).  For 0 < nu < 1 only
    the order statement O(x^{2 nu}) holds; the value returned is 0 with the
    order recorded in the tag.  Integer orders pick up logarithmic terms and
    are rejected, as is nu <= 0.
    """
    nu, x = p.nu, p.x
    if nu <= 0.0:
        raise DomainError(f"small-x second-kind series needs nu > 0, got {nu}")
    if _is_integer(nu):
        raise DomainError(
            f"small-x second-kind series undefined at integer order nu={nu} "
            "(logarithmic terms)")
    if nu < 1.0:
        return Expansion(0.0, f"O(x^{2.0 * nu:g})", "small-x", "K-ratio")
    x2 = x * x
    val = x2 / (2.0 * (nu - 1.0)) \
        - x2 * x2 / (8.0 * (nu - 1.0) ** 2 * (nu - 2.0))
    return Expansion(val, f"O(x^{min(6.0, 2.0 * nu):g})", "small-x", "K-ratio")


def large_nu_ratio(kind: RatioKind, p: EvalPoint) -> Expansion:
    """Large-order series at fixed x of x*C_{nu-1}(x)/C_nu(x), nu > 0.

    FIRST:  2 nu + x^2/(2 nu) - x^2/(2 nu^2) - (x^4 - 4 x^2)/(8 nu^3)
                 + (x^4 - x^2)/(2 nu^4)
    SECOND: x^2/(2 nu) + x^2/(2 nu^2) - (x^4 - 4 x^2)/(8 nu^3)
                 - (x^4 - x^2)/(2 nu^4)
    """
    nu, x = p.nu, p.x
    if nu <= 0.0:
        raise DomainError(f"large-order series needs nu > 0, got {nu}")
    x2 = x * x
    x4 = x2 * x2
    common = -(x4 - 4.0 * x2) / (8.0 * nu ** 3)
    tail = (x4 - x2) / (2.0 * nu ** 4)
    if kind is RatioKind.FIRST:
        val = 2.0 * nu + x2 / (2.0 * nu) - x2 / (2.0 * nu * nu) + common + tail
    else:
        val = x2 / (2.0 * nu) + x2 / (2.0 * nu * nu) + common - tail
    return Expansion(val, "O(nu^-5)", "large-nu", _ratio_kind_name(kind))


def product_expansion(regime: str, p: EvalPoint) -> Expansion:
    """Series for the product I_nu(x) K_nu(x) in the requested regime.

    large-x:  1/(2x) - (nu^2 - 1/4)/(4 x^3)
    small-x:  1/(2 nu) - x^2/(4 nu (nu^2 - 1)); holds up to a relative
              O(x^{2 nu}) factor, needs nu > 0 non-integer (the printed
              coefficient has a pole at nu = 1, and integer orders bring
              logarithmic terms)
    large-nu: 1/(2 nu) - x^2/(4 nu^3), nu > 0
    """
    nu, x = p.nu, p.x
    if regime == "large-x":
        val = 0.5 / x - (nu * nu - 0.25) / (4.0 * x ** 3)
        return Expansion(val, "O(x^-5)", "large-x", "product")
    if regime == "small-x":
        if nu <= 0.0 or _is_integer(nu):
            raise DomainError(
                f"small-x product series needs non-integer nu > 0, got {nu}")
        val = 0.5 / nu - x * x / (4.0 * nu * (nu * nu - 1.0))
        return Expansion(
            val, f"O(x^4) + rel O(x^{2.0 * nu:g})", "small-x", "product")
    if regime == "large-nu":
        if nu <= 0.0:
            raise DomainError(f"large-order product series needs nu > 0, got {nu}")
        val = 0.5 / nu - x * x / (4.0 * nu ** 3)
        return Expansion(val, "O(nu^-5)", "large-nu", "product")
    raise DomainError(f"unknown regime {regime!r}")


def relative_error(bound_value: float, oracle_value: float, direction: str) -> float:
    """Signed relative accuracy of a bound against a positive reference.

    upper: bound/oracle - 1; lower: 1 - bound/oracle.  Either is >= 0
    exactly when the bound actually bounds on the correct side.
    """
    if oracle_value <= 0.0:
        raise DomainError(f"reference value must be positive, got {oracle_value}")
    if direction == "upper":
        return bound_value / oracle_value - 1.0
    if direction == "lower":
        return 1.0 - bound_value / oracle_value
    raise DomainError(f"unknown direction {direction!r}")
