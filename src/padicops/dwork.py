"""The Dwork projector onto functions of x^q, its idempotent and partition
identities, and the Frobenius-descent operator relation.

Root-of-unity sums are precollapsed to integers: since sum_zeta zeta^j is q
when q | j and 0 otherwise, the projector

    H = (1/q) sum_{zeta^q = 1} sum_k (zeta - 1)^k x^k D^[k]

has k-th coefficient c_k = sum_{j = 0 mod q, j <= k} binom(k, j) (-1)^(k-j),
an exact integer.  All checks here run over exact rationals with zero
tolerance: any nonzero residual is a failure.

The projector is characterised by its action H(x^j) = x^j if q | j else 0,
and the function action is faithful on operator windows, so the idempotent,
partition and descent identities are verified on the monomial basis over the
degree range the truncation reaches exactly; the idempotent law is checked on
raw product coefficients as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ratfun import Poly, RationalFunction
from .skew import SkewLaurentSeries, star

RF = RationalFunction
IMAGE_MEMO_SIZE = 256  # monomial images kept; dwork-check at default.toml builds 23


@dataclass(frozen=True)
class DworkOperator:
    """Truncation sum_{k <= K} c_k x^k D^[k] of the projector onto x^q-powers."""

    q: int
    trunc: int
    c: tuple[int, ...]

    def as_series(self) -> SkewLaurentSeries:
        return SkewLaurentSeries.of(
            {
                k: RF(Poly.of(*([0] * k + [Fraction(ck, math.factorial(k))])))
                for k, ck in enumerate(self.c)
                if ck
            }
        )

    def apply_poly(self, f: Poly) -> Poly:
        """Exact action on a polynomial of degree <= trunc, by linearity from
        the images of its monomials (`monomial_image`)."""
        if f.degree() > self.trunc:
            raise ValueError("polynomial degree exceeds the truncation")
        out = Poly(())
        for e, a in enumerate(f.num):
            if a:
                image = monomial_image(self.c, e)
                out = out + (image if a == 1 else image.scale(a))
        return out if f.den == 1 else out.scale(Fraction(1, f.den))


@lru_cache(maxsize=IMAGE_MEMO_SIZE)
def monomial_image(c: tuple[int, ...], e: int) -> Poly:
    """H(x^e) for H = sum_k c_k x^k D^[k], from the derivative loop
    sum_k (c_k/k!) x^k D^k(x^e); built once per (operator, degree)."""
    out = Poly(())
    d = Poly.of(*([0] * e + [1]))
    for k, ck in enumerate(c):
        if d.is_zero():
            break
        if ck:
            xk = Poly.of(*([0] * k + [1]))
            out = out + (xk * d).scale(Fraction(ck, math.factorial(k)))
        d = d.derivative()
    return out


def dwork_coefficients(q: int, count: int) -> tuple[int, ...]:
    """c_k = sum over j = 0 mod q of binom(k, j)(-1)^(k-j), k < count."""
    out = []
    for k in range(count):
        out.append(
            sum(math.comb(k, j) * (-1) ** (k - j) for j in range(0, k + 1, q))
        )
    return tuple(out)


def dwork_build(q: int, trunc: int) -> DworkOperator:
    if trunc < q:
        raise ValueError("truncation below q is useless")
    return DworkOperator(q, trunc, dwork_coefficients(q, trunc + 1))


@dataclass(frozen=True)
class DworkReport:
    q: int
    trunc: int
    checked_orders: tuple[int, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def dwork_identities(q: int, trunc: int) -> DworkReport:
    """H^2 = H (on star-product coefficients and on monomials) and
    sum_{i<q} x^i H x^{-i} = 1 (on monomials), all with exact zero residuals.

    The monomial checks cover x^j for q - 1 <= j <= trunc - q; the raw
    coefficient check covers every D-degree of the truncated star product,
    which is exact there because the coefficients are monomials of matching
    degree.
    """
    if trunc < 3 * q:
        raise ValueError("truncation must be at least 3q")
    H = dwork_build(q, trunc)
    failures: list[str] = []

    hs = H.as_series()
    prod = star(hs, hs)
    for k in range(0, trunc + 1):
        if prod[k] != hs[k]:
            failures.append(f"H*H - H has a nonzero coefficient at D-degree {k}")

    orders = tuple(range(q - 1, trunc - q + 1))
    for j in orders:
        xj = Poly.of(*([0] * j + [1]))
        want = xj if j % q == 0 else Poly(())
        if H.apply_poly(xj) != want:
            failures.append(f"projector action fails on x^{j}")
        hhx = H.apply_poly(H.apply_poly(xj))
        if hhx != H.apply_poly(xj):
            failures.append(f"H(H(x^{j})) != H(x^{j})")
        total = Poly(())
        for i in range(q):
            # x^i H x^-i acting on x^j: shift down, project, shift up
            xji = Poly.of(*([0] * (j - i) + [1]))
            total = total + Poly.of(*([0] * i + [1])) * H.apply_poly(xji)
        if total != xj:
            failures.append(f"partition of unity fails on x^{j}")
    return DworkReport(q, trunc, orders, tuple(failures))


def euler(f: Poly, shift: Fraction) -> Poly:
    """(x d/dx - shift) f: the x^n coefficient of f is scaled by n - shift."""
    return Poly(c * (n - shift) for n, c in enumerate(f.coeffs))


def frobenius_relation(q: int, lam: Fraction | int, i: int, trunc: int) -> DworkReport:
    """The descent relation behind pulling x D - lam through the projector:

        x^i ((1/q) x D H - ((lam - i)/q) H) H x^{-i}
            = (1/q)(x D - lam) x^i H x^{-i}

    checked exactly on monomials x^j for i <= j <= trunc - q, together with
    the aggregate form: summing the right side over i recovers
    (1/q)(x D - lam).
    """
    lam = Fraction(lam)
    if not 0 <= i < q:
        raise ValueError("need 0 <= i < q")
    H = dwork_build(q, trunc)
    failures: list[str] = []
    orders = tuple(range(i, trunc - q + 1))

    for j in orders:
        xj_i = Poly.of(*([0] * (j - i) + [1]))
        inner = H.apply_poly(xj_i)
        lhs_core = euler(H.apply_poly(inner), Fraction(0)).scale(Fraction(1, q)) - H.apply_poly(
            inner
        ).scale(Fraction(lam - i, q))
        lhs = Poly.of(*([0] * i + [1])) * lhs_core
        rhs = euler(Poly.of(*([0] * i + [1])) * inner, lam).scale(Fraction(1, q))
        if lhs != rhs:
            failures.append(f"descent relation fails at i={i}, x^{j}")
    # aggregate: sum_i (1/q)(xD - lam) x^i H x^-i = (1/q)(xD - lam)
    for j in range(q - 1, trunc - q + 1):
        total = Poly(())
        for ii in range(q):
            inner = H.apply_poly(Poly.of(*([0] * (j - ii) + [1])))
            total = total + euler(Poly.of(*([0] * ii + [1])) * inner, lam).scale(Fraction(1, q))
        if total != euler(Poly.of(*([0] * j + [1])), lam).scale(Fraction(1, q)):
            failures.append(f"aggregate descent fails on x^{j}")
    return DworkReport(q, trunc, orders, tuple(failures))

