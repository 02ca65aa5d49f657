"""Exact circle valuations of rational functions.

Radii are powers of p with rational exponents and every norm is carried as
an exact rational valuation (-log_p of the norm): no floating point.  The
Gauss norm on a circle is multiplicative, so the valuation of a quotient is
the difference of the valuations of numerator and denominator.  The
numerator's part is read off its integer numerators over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .padics import vp_int, vp_rational
from .ratfun import RationalFunction, Rational


def circle_valuation(f: RationalFunction, p: int, center: Rational, radius_exp: Rational) -> Fraction:
    """-log_p of the multiplicative Gauss norm on the circle |x-center| = p^e.

    For a polynomial sum c_i (x-center)^i the norm is max |c_i| p^(ie), so
    its valuation is min_i (v(n_i) - ie) - v(den) for c_i = n_i/den, which is
    v(gcd_i n_i) - v(den) at e = 0; a pole factor (x - r) has valuation
    min(-e, v_p(center - r)).  No root-finding is needed.
    """
    if f.is_zero():
        raise ZeroDivisionError("circle valuation of zero")
    e = Fraction(radius_exp)
    shifted = f.num.shift(Fraction(center))
    num = shifted.num
    top = min(vp_int(c, p) - i * e for i, c in enumerate(num) if c) if e else vp_int(gcd(*num), p)
    zeros = top - vp_int(shifted.den, p)
    poles = sum(m * min(-e, vp_rational(center - r, p)) for r, m in f.den_factors)
    return Fraction(zeros - poles)


def gauss_valuation(f: RationalFunction, p: int) -> Fraction:
    """Circle valuation at the boundary of the unit disc around 0."""
    return circle_valuation(f, p, 0, 0)
