"""Truncated one-variable power series with exact rational coefficients,
for identity checks: y-adically exact, no tail leakage into retained
coefficients.  `PSeries` is only the product that the benchmark's tracer
times; no certificate builds one.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Iterable

from .padics import PadicNumber, Rational
from .ratfun import IntegerNumerators, reduce_content


class QSeries(IntegerNumerators):
    """Exact power series mod y^order: the y^j coefficient is num[j] / den,
    with len(num) = order, in the normal form of `IntegerNumerators`.
    Arithmetic runs on integers only, and a product forms only the `order`
    retained slots, never the full product.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"QSeries({self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.num)

    @classmethod
    def zero(cls, order: int) -> QSeries:
        return _raw((0,) * order, 1)

    @classmethod
    def one(cls, order: int) -> QSeries:
        return _raw((1,) + (0,) * (order - 1), 1)

    @classmethod
    def over(cls, num: Iterable[int], den: int) -> QSeries:
        """The series with y^j coefficient num[j] / den, for den > 0."""
        return _make(list(num), den)

    @classmethod
    def of(cls, coeffs: list[Rational], order: int | None = None) -> QSeries:
        cs = list(coeffs)
        if order is not None:
            cs = (cs + [0] * order)[:order]
        return cls(cs)

    def truncate(self, order: int) -> QSeries:
        return _make(list(self.num[:order]) + [0] * (order - len(self.num)), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: QSeries) -> QSeries:
        a, b, da, db = self.num, other.num, self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make([a[j] * fa + b[j] * fb for j in range(min(len(a), len(b)))], da * fa)

    def __neg__(self) -> QSeries:
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def __mul__(self, other: QSeries) -> QSeries:
        """The truncated product: only the slots y^0 .. y^(order-1) are formed.
        The outer loop runs over the factor with more zero slots (a series in
        y^c has c - 1 of every c), and skips them."""
        a, b = self.num, other.num
        if a.count(0) < b.count(0):
            a, b = b, a
        n = min(len(a), len(b))
        out = [0] * n
        for i in range(n):
            x = a[i]
            if x:
                for j, y in enumerate(b[: n - i], i):
                    out[j] += x * y
        return _make(out, self.den * other.den)

    def square(self) -> QSeries:
        """The truncated self * self with each cross product formed once: the
        y^k slot is sum_(i<j, i+j=k) 2 a_i a_j, plus a_(k/2)^2 for even k."""
        a = self.num
        n = len(a)
        half = (n + 1) // 2  # the i with 2i < n
        out = [0] * n
        for i in range(half):
            x = a[i]
            if x:
                for j, y in enumerate(a[i + 1 : n - i], 2 * i + 1):
                    out[j] += x * y
        out = [2 * c for c in out]
        for i in range(half):
            out[2 * i] += a[i] * a[i]
        return _make(out, self.den * self.den)

    def scale(self, a: Rational) -> QSeries:
        a = Fraction(a)
        return _make([c * a.numerator for c in self.num], self.den * a.denominator)

    def shift(self, k: int) -> QSeries:
        """Multiply by y^k (k >= 0), keeping the order."""
        n = len(self.num)
        return _make([0] * min(k, n) + list(self.num[: max(n - k, 0)]), self.den)

    def over_one_minus(self, stride: int) -> QSeries:
        """f / (1 - y^stride) for stride >= 1, in O(order): the running sum
        g_j = f_j + g_(j - stride)."""
        g = list(self.num)
        for j in range(stride, len(g)):
            g[j] += g[j - stride]
        return _make(g, self.den)

    def euler_derivative(self) -> QSeries:
        """y d/dy: multiplies the y^j coefficient by j."""
        return _make([j * c for j, c in enumerate(self.num)], self.den)

    def inverse(self) -> QSeries:
        if not self.num[0]:
            raise ZeroDivisionError("inverse needs a unit constant term")
        c = 1 / self[0]
        return self.scale(c).pow_fractional(-1).scale(c)

    def pow_fractional(self, alpha: Rational) -> QSeries:
        """u^alpha for a series with constant term 1, via u g' = alpha u' g.

        With alpha = a/b, u = U/du and g = G/D, the y^(m-1) coefficient of
        that equation gives G_m = sum_(i=1..m) (a i - b (m-i)) U_i G_(m-i) over
        the new denominator D T, T = b du m, so the earlier numerators are
        rescaled by T; the result is normalised once at the end.
        """
        U, du, n = self.num, self.den, len(self.num)
        if not n or U[0] != du:
            raise ValueError("fractional powers need constant term 1")
        alpha = Fraction(alpha)
        a, b = alpha.numerator, alpha.denominator
        G, D = [1], 1
        for m in range(1, n):
            acc = sum((a * i - b * (m - i)) * U[i] * G[m - i] for i in range(1, m + 1) if U[i])
            T = b * du * m
            G = [g * T for g in G] + [acc]
            D *= T
        return _make(G, D)

    def __pow__(self, n: int) -> QSeries:
        if n < 0:
            return self.inverse() ** (-n)
        out, base = (None if n else QSeries.one(self.order)), self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:  # no square past the top bit
                base = base.square()
        return out


_raw = QSeries._raw


def _make(num: list[int], den: int) -> QSeries:
    return _raw(*reduce_content(num, den))


def binomial_series(alpha: Rational, order: int, stride: int = 1) -> QSeries:
    """(1 - y^stride)^alpha = sum binom(alpha, m)(-1)^m y^(stride m).

    With alpha = a/b and M the last m below the order, every slot is an
    integer over b^M M!: (-1)^m binom(alpha, m) = prod_(i<m) (i b - a) / (b^m m!).
    """
    if not order:
        return QSeries.zero(0)
    alpha = Fraction(alpha)
    a, b = alpha.numerator, alpha.denominator
    top = (order - 1) // stride
    prods = [1]  # prod_(i<m) (i b - a)
    for i in range(top):
        prods.append(prods[-1] * (i * b - a))
    num, w = [0] * order, 1  # w = b^(M-m) M!/m!
    for m in range(top, -1, -1):
        num[m * stride] = prods[m] * w
        w *= b * m
    return _make(num, b**top * factorial(top))


class PSeries:
    """Power series with PadicNumber coefficients, truncated at a fixed order."""

    __slots__ = ("p", "prec", "coeffs")

    def __init__(self, p: int, prec: int, coeffs: list[PadicNumber]):
        self.p = p
        self.prec = prec
        self.coeffs = coeffs

    def mul(self, other: PSeries) -> PSeries:
        n = min(len(self.coeffs), len(other.coeffs))
        out = [PadicNumber.zero(self.p, 10**9) for _ in range(n)]
        for i, a in enumerate(self.coeffs[:n]):
            if a.is_zero():
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PSeries(self.p, self.prec, out)
