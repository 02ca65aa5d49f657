"""Exact circle valuations of rational functions.

Radii are powers of p with rational exponents and every norm is carried as
an exact rational valuation (-log_p of the norm): no floating point.  The
Gauss norm on a circle is multiplicative, so the valuation of a quotient is
the difference of the valuations of numerator and denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .padics import vp_rational
from .ratfun import Poly, RationalFunction, Rational


def circle_valuation(f: RationalFunction, p: int, center: Rational, radius_exp: Rational) -> Fraction:
    """-log_p of the multiplicative Gauss norm on the circle |x-center| = p^e.

    For a polynomial sum c_i (x-center)^i the norm is max |c_i| p^(ie); this
    extends multiplicatively to quotients, so no root-finding is needed.
    """
    if f.is_zero():
        raise ZeroDivisionError("circle valuation of zero")
    return _poly_circle_valuation(f.num, p, center, radius_exp) - _poly_circle_valuation(
        f.den, p, center, radius_exp
    )


def _poly_circle_valuation(poly: Poly, p: int, center: Rational, radius_exp: Rational) -> Fraction:
    shifted = poly.shift(Fraction(center))
    e = Fraction(radius_exp)
    # |sum c_i t^i| = max |c_i| p^(ie) on |t| = p^e, so the valuation is
    # min_i (v(c_i) - ie)
    vals = [Fraction(vp_rational(c, p)) - i * e for i, c in enumerate(shifted.coeffs) if c != 0]
    return min(vals)


def gauss_valuation(f: RationalFunction, p: int) -> Fraction:
    """Circle valuation at the boundary of the unit disc around 0."""
    return circle_valuation(f, p, 0, 0)

