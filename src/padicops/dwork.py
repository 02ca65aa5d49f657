"""The Dwork projector onto functions of x^q, its idempotent and partition
identities, and the Frobenius-descent operator relation.

Root-of-unity sums are precollapsed to integers: since sum_zeta zeta^j is q
when q | j and 0 otherwise, the projector

    H = (1/q) sum_{zeta^q = 1} sum_k (zeta - 1)^k x^k D^[k]

has k-th coefficient c_k = sum_{j = 0 mod q, j <= k} binom(k, j) (-1)^(k-j),
an exact integer.  All checks here run over exact rationals with zero
tolerance: any nonzero residual is a failure.

Each term c_k x^k D^[k] sends x^e to binom(e, k) x^e, so H is diagonal on
monomials: H(x^e) = h_e x^e with the integer eigenvalue
h_e = sum_k c_k binom(e, k), and the projector is characterised by
h_e = 1 if q | e else 0.  The function action is faithful on operator
windows, so the idempotent, partition and descent identities are verified
as scalar identities between eigenvalues over the degree range the
truncation reaches exactly; the idempotent law is checked on raw product
coefficients as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ratfun import Poly, RationalFunction
from .skew import SkewLaurentSeries, star

RF = RationalFunction


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

    def eigenvalue(self, e: int) -> int:
        """h_e with H(x^e) = h_e x^e, exact for e <= trunc."""
        if e > self.trunc:
            raise ValueError("monomial degree exceeds the truncation")
        return sum(ck * math.comb(e, k) for k, ck in enumerate(self.c[: e + 1]))


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

    The monomial checks cover x^j for q - 1 <= j <= trunc - q: H(x^j) = x^j
    or 0 as q divides j, H(H(x^j)) = h_j^2 x^j equals H(x^j) = h_j x^j, and
    x^i H x^{-i} sends x^j to h_{j-i} x^j, so the partition sums h_{j-i} over
    i < q.  The raw coefficient check covers every D-degree of the truncated
    star product, which is exact there because the coefficients are
    monomials of matching degree.
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
        h = H.eigenvalue(j)
        if h != (1 if j % q == 0 else 0):
            failures.append(f"projector action fails on x^{j}")
        if h * h != h:
            failures.append(f"H(H(x^{j})) != H(x^{j})")
        if sum(H.eigenvalue(j - i) for i in range(q)) != 1:
            failures.append(f"partition of unity fails on x^{j}")
    return DworkReport(q, trunc, orders, tuple(failures))


def frobenius_relation(q: int, lam: Fraction | int, i: int, trunc: int) -> DworkReport:
    """The descent relation behind pulling x D - lam through the projector:

        x^i ((1/q) x D H - ((lam - i)/q) H) H x^{-i}
            = (1/q)(x D - lam) x^i H x^{-i}

    checked exactly on monomials x^j for i <= j <= trunc - q, together with
    the aggregate form: summing the right side over i recovers
    (1/q)(x D - lam).  With h = h_{j-i}, the left side sends x^j to
    h^2 (j - lam)/q x^j and the right side to h (j - lam)/q x^j; the
    aggregate compares (sum_i h_{j-i})(j - lam) with j - lam.
    """
    lam = Fraction(lam)
    if not 0 <= i < q:
        raise ValueError("need 0 <= i < q")
    H = dwork_build(q, trunc)
    failures: list[str] = []
    orders = tuple(range(i, trunc - q + 1))

    for j in orders:
        h = H.eigenvalue(j - i)
        if h * h * (j - lam) != h * (j - lam):
            failures.append(f"descent relation fails at i={i}, x^{j}")
    for j in range(q - 1, trunc - q + 1):
        if sum(H.eigenvalue(j - ii) for ii in range(q)) * (j - lam) != j - lam:
            failures.append(f"aggregate descent fails on x^{j}")
    return DworkReport(q, trunc, orders, tuple(failures))
