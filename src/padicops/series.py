"""Truncated one-variable power series: exact rational coefficients for
identity checks (y-adically exact, no tail leakage into retained
coefficients), and a capped-precision p-adic variant for long-range
valuation work where exact numerators would explode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padics import PadicNumber, Rational, vp_rational


@dataclass(frozen=True)
class QSeries:
    """Exact power series mod y^order: coeffs[j] is the y^j coefficient."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, order: int) -> QSeries:
        return cls((Fraction(0),) * order)

    @classmethod
    def one(cls, order: int) -> QSeries:
        return cls((Fraction(1),) + (Fraction(0),) * (order - 1))

    @classmethod
    def of(cls, coeffs: list[Rational], order: int | None = None) -> QSeries:
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            cs = (cs + [Fraction(0)] * order)[:order]
        return cls(tuple(cs))

    def __getitem__(self, j: int) -> Fraction:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Fraction(0)

    def truncate(self, order: int) -> QSeries:
        return QSeries.of(list(self.coeffs), order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: QSeries) -> QSeries:
        n = min(self.order, other.order)
        return QSeries(tuple(self.coeffs[j] + other.coeffs[j] for j in range(n)))

    def __neg__(self) -> QSeries:
        return QSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def __mul__(self, other: QSeries) -> QSeries:
        n = min(self.order, other.order)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return QSeries(tuple(out))

    def scale(self, a: Rational) -> QSeries:
        a = Fraction(a)
        return QSeries(tuple(a * c for c in self.coeffs))

    def shift(self, k: int) -> QSeries:
        """Multiply by y^k (k >= 0), keeping the order."""
        return QSeries((Fraction(0),) * k + self.coeffs[: self.order - k])

    def inverse(self) -> QSeries:
        if self[0] == 0:
            raise ZeroDivisionError("inverse needs a unit constant term")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * (self.order - 1)
        for j in range(1, self.order):
            acc = Fraction(0)
            for i in range(1, j + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[j - i]
            out[j] = -inv0 * acc
        return QSeries(tuple(out))

    def __truediv__(self, other: QSeries) -> QSeries:
        return self * other.inverse()

    def y_derivative(self) -> QSeries:
        """d/dy, losing the top coefficient."""
        return QSeries(tuple((j + 1) * self[j + 1] for j in range(self.order)))

    def euler_derivative(self) -> QSeries:
        """y d/dy: multiplies the y^j coefficient by j."""
        return QSeries(tuple(j * c for j, c in enumerate(self.coeffs)))

    def pow_fractional(self, alpha: Rational) -> QSeries:
        """u^alpha for a series with constant term 1, via u g' = alpha u' g."""
        if self[0] != 1:
            raise ValueError("fractional powers need constant term 1")
        alpha = Fraction(alpha)
        u = self.coeffs
        g = [Fraction(1)] + [Fraction(0)] * (self.order - 1)
        for j in range(self.order - 1):
            # coefficient of y^j in u g' = alpha u' g
            acc = Fraction(0)
            for i in range(1, j + 2):
                ui = u[i] if i < len(u) else Fraction(0)
                if ui:
                    acc += (alpha * i - (j + 1 - i)) * ui * g[j + 1 - i]
            g[j + 1] = acc / (j + 1)
        return QSeries(tuple(g))

    def __pow__(self, n: int) -> QSeries:
        if n < 0:
            return self.inverse() ** (-n)
        out, base = QSeries.one(self.order), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out

    def compose(self, inner: QSeries) -> QSeries:
        """self(inner(y)) for inner with zero constant term, by Horner."""
        if inner[0] != 0:
            raise ValueError("composition needs inner constant term 0")
        out = QSeries.zero(self.order)
        for c in reversed(self.coeffs):
            out = out * inner + QSeries.of([c], self.order)
        return out

    def stride_part(self, stride: int) -> QSeries:
        """The K[[y^stride]]-component, reindexed in s = y^stride."""
        return QSeries(tuple(self.coeffs[j] for j in range(0, self.order, stride)))

    def valuations(self, p: int) -> list[Fraction | float]:
        return [vp_rational(c, p) for c in self.coeffs]


def binomial_series(alpha: Rational, order: int, stride: int = 1) -> QSeries:
    """(1 - y^stride)^alpha = sum binom(alpha, m)(-1)^m y^(stride m)."""
    alpha = Fraction(alpha)
    out = [Fraction(0)] * order
    b = Fraction(1)
    m = 0
    while m * stride < order:
        out[m * stride] = b * (-1) ** m
        b *= Fraction(alpha - m, m + 1)
        m += 1
    return QSeries(tuple(out))


# ---------------------------------------------------------------------------
# Capped-precision variant
# ---------------------------------------------------------------------------


class PSeries:
    """Power series with PadicNumber coefficients, truncated at a fixed order."""

    __slots__ = ("p", "prec", "coeffs")

    def __init__(self, p: int, prec: int, coeffs: list[PadicNumber]):
        self.p = p
        self.prec = prec
        self.coeffs = coeffs

    @classmethod
    def zero(cls, p: int, prec: int, order: int) -> PSeries:
        return cls(p, prec, [PadicNumber.zero(p, 10**9) for _ in range(order)])

    @classmethod
    def from_rationals(cls, p: int, prec: int, coeffs: list[Rational], order: int) -> PSeries:
        cs = [PadicNumber.from_rational(c, p, prec) for c in coeffs[:order]]
        cs += [PadicNumber.zero(p, 10**9) for _ in range(order - len(cs))]
        return cls(p, prec, cs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, j: int) -> PadicNumber:
        return self.coeffs[j]

    def mul(self, other: PSeries) -> PSeries:
        n = min(self.order, other.order)
        out = [PadicNumber.zero(self.p, 10**9) for _ in range(n)]
        for i, a in enumerate(self.coeffs[:n]):
            if a.is_zero():
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PSeries(self.p, self.prec, out)

    def add_shifted(self, other: PSeries, k: int, scalar: PadicNumber) -> PSeries:
        """self + scalar * y^k * other, in place semantics but pure."""
        out = list(self.coeffs)
        for j in range(min(other.order, self.order - k)):
            c = other.coeffs[j]
            if not c.is_zero():
                out[j + k] = out[j + k] + scalar * c
        return PSeries(self.p, self.prec, out)


def p_binomial_series(
    alpha: Rational, p: int, prec: int, order: int, stride: int = 1
) -> PSeries:
    """(1 - y^stride)^alpha with capped-precision coefficients.

    Coefficients are built by the incremental recurrence, so only exact
    multiplications and divisions occur and the relative precision is
    preserved (alpha must be p-integral for p-integral coefficients).
    """
    alpha = Fraction(alpha)
    an, ad = alpha.numerator, alpha.denominator
    out = [PadicNumber.zero(p, 10**9) for _ in range(order)]
    b = PadicNumber.from_rational(1, p, prec)
    m = 0
    while m * stride < order:
        out[m * stride] = b if m % 2 == 0 else -b
        num = an - m * ad  # (alpha - m) * ad
        if num == 0:
            break
        b = b.mul_rational(num, ad * (m + 1), prec)
        m += 1
    return PSeries(p, prec, out)
