"""Cheese descriptors (closed disc minus open subdiscs) and exact norms.

All radii are powers of p with rational exponents and every norm is carried
as an exact rational valuation (-log_p of the sup norm): no floating point.
The sup norm of a rational function on a cheese is the maximum of the
multiplicative circle norms attached to the boundary circles; a valuation is
therefore a minimum of exact circle valuations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padics import INF, vp_rational, varpi_valuation
from .ratfun import Poly, RationalFunction, Rational


@dataclass(frozen=True)
class Cheese:
    """Outer disc |x - center| <= p^outer_exp minus open holes |x - a_i| < p^e_i.

    Radius exponents are log_p of the radius, so more negative means smaller.
    Holes must be pairwise disjoint and inside the outer disc; centers rational.
    """

    p: int
    center: Fraction
    outer_exp: Fraction
    holes: tuple[tuple[Fraction, Fraction], ...]  # (center, radius exponent)

    @classmethod
    def of(
        cls,
        p: int,
        center: Rational = 0,
        outer_exp: Rational = 0,
        holes: tuple[tuple[Rational, Rational], ...] = (),
    ) -> Cheese:
        hs = tuple((Fraction(a), Fraction(e)) for a, e in holes)
        ch = cls(p, Fraction(center), Fraction(outer_exp), hs)
        ch._validate()
        return ch

    @classmethod
    def unit_disc(cls, p: int) -> Cheese:
        return cls.of(p)

    @classmethod
    def unit_circle(cls, p: int) -> Cheese:
        """The unit disc with the open unit disc around 0 removed."""
        return cls.of(p, holes=((0, 0),))

    def _validate(self) -> None:
        for a, e in self.holes:
            if e > self.outer_exp:
                raise ValueError("hole larger than the outer disc")
            if self._dist_exp(a, self.center) > self.outer_exp:
                raise ValueError(f"hole at {a} outside the outer disc")
        for i, (a, e) in enumerate(self.holes):
            for b, f in self.holes[i + 1 :]:
                if self._dist_exp(a, b) < max(e, f):
                    raise ValueError(f"holes at {a} and {b} overlap")

    def _dist_exp(self, a: Fraction, b: Fraction) -> Fraction | float:
        """log_p |a - b|, and -INF when a = b."""
        v = vp_rational(a - b, self.p)
        return -INF if v == INF else Fraction(-v)

    # -- radii -------------------------------------------------------------

    def rho_exp(self) -> Fraction:
        """log_p of the smallest hole radius (outer radius if no holes)."""
        if not self.holes:
            return self.outer_exp
        return min(e for _, e in self.holes)

    def spectral_exp(self) -> Fraction:
        """log_p of the spectral radius of d/dx: -log_p rho + 1/(p-1)."""
        return -self.rho_exp() + varpi_valuation(self.p)

    def admits(self, r_exp: Rational) -> bool:
        """Strict admissibility of the radius p^r_exp for d/dx."""
        return Fraction(r_exp) > self.spectral_exp()

    def admits_dagger(self, r_exp: Rational) -> bool:
        """Overconvergent admissibility: non-strict comparison."""
        return Fraction(r_exp) >= self.spectral_exp()

    # -- circle valuations ---------------------------------------------------

    def _circles(self) -> list[tuple[Fraction, Fraction]]:
        return [(self.center, self.outer_exp), *self.holes]

    def contains_point(self, a: Rational) -> bool:
        a = Fraction(a)
        if self._dist_exp(a, self.center) > self.outer_exp:
            return False
        return all(self._dist_exp(a, c) >= e for c, e in self.holes)


def transform_cheese(g, X: Cheese) -> Cheese:
    """The image of a cheese under an upper-triangular Mobius map.

    Points move by z -> (az + b)/d, so distances scale by |a/d| and every
    radius exponent shifts by -v(a/d); consequently the spectral radius obeys
    r(gX) = r(X) / |a/d|.
    """
    from .padics import vp_rational as _vp

    rho = g.varrho()
    shift = -Fraction(_vp(rho, X.p))
    return Cheese.of(
        X.p,
        g.act_point(X.center),
        X.outer_exp + shift,
        tuple((g.act_point(a), e + shift) for a, e in X.holes),
    )


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


def sup_valuation(u: RationalFunction, X: Cheese) -> Fraction:
    """-log_p |u|_X: the minimum of the boundary circle valuations.

    Poles of u must avoid the cheese itself (inside a hole, or outside the
    outer disc); a pole on X makes the sup norm infinite and is rejected.
    """
    for a, _ in u.pole_points():
        if X.contains_point(a):
            raise ValueError(f"pole at {a} lies on the cheese")
    return min(circle_valuation(u, X.p, c, e) for c, e in X._circles())


def gauss_valuation(f: RationalFunction, p: int) -> Fraction:
    """Circle valuation at the boundary of the unit disc around 0."""
    return circle_valuation(f, p, 0, 0)


# ---------------------------------------------------------------------------
# Divided-power operator norms
# ---------------------------------------------------------------------------


def divided_power_norm_exp(X: Cheese, n: int) -> Fraction:
    """Valuation of the operator norm of the n-th divided power of d/dx.

    The norm is rho(X)^(-n), i.e. valuation n * rho_exp.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(n) * X.rho_exp()


def divided_power_witness(X: Cheese, n: int) -> tuple[RationalFunction, Fraction]:
    """A basis function achieving the divided-power operator norm.

    Returns (w, v) where w is 1/(x - a_i) for a smallest hole (or (x-c)^n on
    a plain disc) and v is the valuation drop of w under the n-th divided
    power; the norm statement is v = n * rho_exp, an equality the caller
    should assert.
    """
    from math import factorial

    if not X.holes:
        w = RationalFunction(Poly.x_minus(X.center) ** max(n, 1), Poly.of(1))
    else:
        a, _ = min(X.holes, key=lambda h: h[1])
        w = RationalFunction(Poly.of(1), Poly.x_minus(a))
    f = w
    for _ in range(n):
        f = f.derivative()
    f = f.scale(Fraction(1, factorial(n)))
    return w, sup_valuation(f, X) - sup_valuation(w, X)
