"""Reference implementations the tests compare against.

Each oracle reaches its answer by another route than the library code it
checks and calls none of that code: a value at a point is a plain sum of
terms, a p-adic difference is formed in Q.  No private name of padicops (one
that starts with `_`) is read here; `tests/test_surface.py` holds that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from padicops.padics import PadicNumber, PrecisionExhausted, binom_rational, vp_rational
from padicops.ratfun import MobiusMap, Poly, RationalFunction

RF = RationalFunction


def poly_eval(p: Poly, x) -> Fraction:
    """p(x) as the sum of c x^i, term by term: the pointwise oracle for
    synth_div, is_root and shift."""
    x = Fraction(x)
    return sum((c * x**i for i, c in enumerate(p.coeffs)), Fraction(0))


def rf_eval(u: RF, x) -> Fraction:
    """u(x) = num(x) / prod (x - r)^m; ZeroDivisionError at a pole."""
    x, den = Fraction(x), Fraction(1)
    for r, m in u.den_factors:
        if x == r:
            raise ZeroDivisionError(f"pole at {x}")
        den *= (x - r) ** m
    return poly_eval(u.num, x) / den


def padic_value(x: PadicNumber) -> Fraction:
    """The rational p^val * unit that x stands for; 0 for a tracked zero."""
    return Fraction(x.p) ** x.val * x.unit


def same_mod(a: PadicNumber, b: PadicNumber, absprec: int) -> bool:
    """a == b mod p^absprec, as far as both are known: the difference of the
    two values is formed in Q and its valuation read by vp_rational."""
    if a.p != b.p:
        raise ValueError("mixed primes")
    known = min(a.absprec, b.absprec)
    if known < absprec:
        raise PrecisionExhausted(f"operands only known mod p^{known}")
    return vp_rational(padic_value(a) - padic_value(b), a.p) >= absprec


def act_point(g: MobiusMap, z) -> Fraction:
    """g.z = (az + b)/(cz + d): checks act_function pointwise."""
    z = Fraction(z)
    if g.c * z + g.d == 0:
        raise ZeroDivisionError("point maps to infinity")
    return (g.a * z + g.b) / (g.c * z + g.d)


def mobius_inverse(g: MobiusMap) -> MobiusMap:
    """The adjugate (d, -b; -c, a): the inverse of g as a map of P^1."""
    return MobiusMap(g.d, -g.b, -g.c, g.a)


def varrho(g: MobiusMap) -> Fraction:
    """The character a/d, defined for upper-triangular maps (c = 0) only."""
    if g.c != 0:
        raise ValueError("varrho is defined only for upper-triangular maps")
    return g.a / g.d


def act_partial_coefficient(g: MobiusMap) -> RF:
    """g.(d/dx) = ((-cx + a)^2/det) d/dx; returns the coefficient."""
    return RF(Poly.of(g.a, -g.c) ** 2).scale(1 / g.det)


@dataclass(frozen=True)
class FirstOrderOperator:
    """c1 * d/dx + c0 with rational-function coefficients."""

    c1: RF
    c0: RF

    def scale(self, a) -> FirstOrderOperator:
        return FirstOrderOperator(self.c1.scale(a), self.c0.scale(a))


def delta_poly(points) -> Poly:
    """Delta = prod (x - a) over the points."""
    out = Poly.of(1)
    for a in points:
        out = out * Poly.x_minus(a)
    return out


def relator(points, u: RF, d: int) -> FirstOrderOperator:
    """Delta * (d/dx - (1/d) dlog(u)) with Delta = prod (x - a), expanded as
    Delta * d/dx - (1/d) sum_a v_a(u) prod_{b != a} (x - b) from the divisor
    of u, which must lie in the point set: the oracle for theta_partial and
    theta_apply."""
    if d == 0:
        raise ValueError("d must be non-zero")
    pts = {Fraction(a) for a in points}
    div = u.divisor()
    if not set(div) <= pts:
        raise ValueError(f"divisor support {set(div)} not contained in {pts}")
    c0 = sum((delta_poly(pts - {a}).scale(v) for a, v in div.items()), Poly(()))
    return FirstOrderOperator(RF(delta_poly(pts)), RF(c0).scale(Fraction(-1, d)))


def h_closed_form_monomial(alpha, k: int, d: int, n: int) -> RF:
    """h[n] for u = (x - alpha)^k: binom(-k/d, n) (x - alpha)^(-n), the
    closed-form oracle for h_sequence."""
    return RF(Poly.of(1), {alpha: n}).scale(binom_rational(Fraction(-k, d), n))


def monomial(j: int) -> Poly:
    """x^j."""
    return Poly.of(*([0] * j + [1]))


def dwork_action(c, f: Poly) -> Poly:
    """sum_k (c_k/k!) x^k D^k f by the derivative loop, for the operator
    coefficients c of `dwork.DworkOperator`: the oracle for its eigenvalues."""
    out, d = Poly(()), f
    for k, ck in enumerate(c):
        if d.is_zero():
            break
        if ck:
            out = out + (monomial(k) * d).scale(Fraction(ck, math.factorial(k)))
        d = d.derivative()
    return out


def euler(f: Poly, shift) -> Poly:
    """(x d/dx - shift) f: the x^n coefficient of f is scaled by n - shift."""
    return Poly(c * (n - shift) for n, c in enumerate(f.coeffs))


def dwork_monomial_failures(q: int, trunc: int, c) -> list[str]:
    """The monomial checks of `dwork.dwork_identities` on polynomials: the
    projector, idempotent and partition laws on x^j, q - 1 <= j <= trunc - q."""
    H = partial(dwork_action, c)
    failures = []
    for j in range(q - 1, trunc - q + 1):
        xj = monomial(j)
        if H(xj) != (xj if j % q == 0 else Poly(())):
            failures.append(f"projector action fails on x^{j}")
        if H(H(xj)) != H(xj):
            failures.append(f"H(H(x^{j})) != H(x^{j})")
        # x^i H x^-i acting on x^j: shift down, project, shift up
        total = sum((monomial(i) * H(monomial(j - i)) for i in range(q)), Poly(()))
        if total != xj:
            failures.append(f"partition of unity fails on x^{j}")
    return failures


def dwork_descent_failures(q: int, lam, i: int, trunc: int, c) -> list[str]:
    """`dwork.frobenius_relation` on polynomials: both sides of the descent
    relation on x^j, i <= j <= trunc - q, then its aggregate form."""
    lam = Fraction(lam)
    H = partial(dwork_action, c)
    failures = []
    for j in range(i, trunc - q + 1):
        inner = H(monomial(j - i))
        core = euler(H(inner), 0).scale(Fraction(1, q)) - H(inner).scale(Fraction(lam - i, q))
        if monomial(i) * core != euler(monomial(i) * inner, lam).scale(Fraction(1, q)):
            failures.append(f"descent relation fails at i={i}, x^{j}")
    for j in range(q - 1, trunc - q + 1):
        total = sum(
            (euler(monomial(ii) * H(monomial(j - ii)), lam).scale(Fraction(1, q)) for ii in range(q)),
            Poly(()),
        )
        if total != euler(monomial(j), lam).scale(Fraction(1, q)):
            failures.append(f"aggregate descent fails on x^{j}")
    return failures
