"""Exact valuations and capped-precision p-adic arithmetic over the rationals.

Ground field is Q_p with p an unramified rational prime.  Two representations
coexist: exact `Fraction` values for valuation-only queries, and `PadicNumber`
(valuation + unit digits mod p^relprec) for long summations where exact
numerators would blow up.  All values are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

INF = math.inf

Rational = Fraction | int


class PrecisionExhausted(ArithmeticError):
    """Raised when a result is indistinguishable from zero at working precision."""


def vp_int(n: int, p: int) -> int | float:
    """Valuation v_p(n) of an integer; INF for 0.  Returns at once when p
    does not divide n, as for all but one in p of the integers scanned."""
    if n % p:
        return 0
    if n == 0:
        return INF
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_rational(a: Rational, p: int) -> int | float:
    """v_p(a) = v_p(numerator) - v_p(denominator); INF for 0."""
    a = Fraction(a)
    if a == 0:
        return INF
    return vp_int(a.numerator, p) - vp_int(a.denominator, p)


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n >= 0."""
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) = (n - s_p(n)) / (p - 1); always an integer."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return (n - digit_sum(n, p)) // (p - 1)


def varpi_valuation(p: int) -> Fraction:
    """Valuation 1/(p-1) of the convergence radius constant for p."""
    return Fraction(1, p - 1)


def varpi_m_valuation(m: int, p: int) -> Fraction:
    """Valuation (p^m - 1)/(p^m (p-1)) of the level-m radius constant |(p^m)!|^(1/p^m)."""
    pm = p**m
    return Fraction(vp_factorial(pm, p), pm)


def is_p_integral(a: Rational, p: int) -> bool:
    return Fraction(a).denominator % p != 0


@lru_cache(maxsize=1024)
def _ppow(p: int, k: int) -> int:
    """p**k, memoised: every operation needs p to a precision, and only a few
    (p, precision) pairs occur in a run."""
    return p**k


def _split(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(num', den', v) with num/den = p^v * num'/den' and p dividing neither;
    num and den must be nonzero and need not be coprime."""
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return num, den, v


class PadicNumber:
    """Element of Q_p known modulo p^absprec, stored as four integers.

    Nonzero: value = p^val * unit with unit a unit mod p^relprec, so
    absprec = val + relprec.  Tracked zero: unit == 0, relprec == 0 and
    `val` holds the absolute precision (the value is 0 mod p^val).
    Arithmetic never reports more absolute precision than its inputs justify.
    Instances are immutable and compare and hash by value.
    """

    __slots__ = ("p", "val", "unit", "relprec")

    def __init__(self, p: int, val: int, unit: int, relprec: int):
        if unit:
            if unit % p == 0 or not 0 < unit < _ppow(p, relprec):
                raise ValueError(f"unit {unit} must be prime to {p} and lie in (0, {p}^{relprec})")
        elif relprec != 0:
            raise ValueError(f"a tracked zero has relprec 0, not {relprec}")
        _set_p(self, p)
        _set_val(self, val)
        _set_unit(self, unit)
        _set_relprec(self, relprec)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"PadicNumber is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PadicNumber is immutable: cannot delete {name!r}")

    def _key(self) -> tuple[int, int, int, int]:
        return (self.p, self.val, self.unit, self.relprec)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PadicNumber:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return (PadicNumber, self._key())

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def absprec(self) -> int:
        return self.val + self.relprec

    def digits(self, count: int | None = None) -> tuple[int, ...]:
        """Base-p digits of the unit part, lowest first."""
        count = self.relprec if count is None else min(count, self.relprec)
        u = self.unit
        out = []
        for _ in range(count):
            out.append(u % self.p)
            u //= self.p
        return tuple(out)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"O({self.p}^{self.val})"
        shown = self.digits(8)
        tail = "..." if self.relprec > 8 else ""
        return f"{self.p}^{self.val}*({list(shown)}{tail})"

    # -- construction ----------------------------------------------------

    @classmethod
    def zero(cls, p: int, absprec: int) -> PadicNumber:
        return cls(p, absprec, 0, 0)

    @classmethod
    def from_rational(cls, a: Rational, p: int, prec: int) -> PadicNumber:
        """The int or Fraction `a`, known to `prec` unit digits."""
        num, den = a.numerator, a.denominator
        if num == 0:
            return cls.zero(p, prec)
        num, den, v = _split(num, den, p)
        mod = _ppow(p, prec)
        return cls(p, v, num * pow(den, -1, mod) % mod, prec)

    # -- arithmetic ------------------------------------------------------

    # the hot methods test `unit` directly rather than call is_zero()

    def __add__(self, other: PadicNumber) -> PadicNumber:
        p = self.p
        if other.p != p:
            raise ValueError("mixed primes")
        absprec = min(self.val + self.relprec, other.val + other.relprec)
        if not self.unit and not other.unit:
            return PadicNumber.zero(p, absprec)
        base = min(self.val, other.val, absprec)
        rep = 0
        if self.unit:
            rep = self.unit * _ppow(p, self.val - base)
        if other.unit:
            rep += other.unit * _ppow(p, other.val - base)
        rep %= _ppow(p, absprec - base)
        if rep == 0:
            return PadicNumber.zero(p, absprec)
        v = 0
        while rep % p == 0:
            rep //= p
            v += 1
        return PadicNumber(p, base + v, rep, absprec - base - v)

    def __mul__(self, other: PadicNumber) -> PadicNumber:
        p = self.p
        if other.p != p:
            raise ValueError("mixed primes")
        if not self.unit or not other.unit:
            # 0 mod p^A times p^v*unit is 0 mod p^(A+v); two zeros: 0 mod p^(A+B)
            a = self.val if self.unit else self.absprec
            b = other.val if other.unit else other.absprec
            return PadicNumber.zero(p, a + b)
        rel = min(self.relprec, other.relprec)
        return PadicNumber(p, self.val + other.val, self.unit * other.unit % _ppow(p, rel), rel)

    def mul_rational(self, num: int, den: int, prec: int) -> PadicNumber:
        """self * num/den for integers num, den (not necessarily coprime).

        The scalar counts as known to `prec` unit digits, so the result
        equals self * from_rational(num/den, p, prec) without building the
        scalar.
        """
        if den == 0:
            raise ZeroDivisionError(f"mul_rational by {num}/0")
        p = self.p
        if num == 0:
            # 0 mod p^prec times p^v*unit is 0 mod p^(prec+v); times a zero known mod p^A: p^(prec+A)
            return PadicNumber.zero(p, (self.val if self.unit else self.absprec) + prec)
        num, den, v = _split(num, den, p)
        if not self.unit:
            return PadicNumber.zero(p, self.absprec + v)
        rel = min(self.relprec, prec)
        mod = _ppow(p, rel)
        return PadicNumber(p, self.val + v, self.unit * num * pow(den, -1, mod) % mod, rel)


# slot setters for __init__, which has to get past the immutable __setattr__
_set_p, _set_val, _set_unit, _set_relprec = (
    PadicNumber.__dict__[name].__set__ for name in PadicNumber.__slots__
)


def padic_binom(lam: Rational, n: int, p: int, prec: int) -> PadicNumber:
    """binom(lam, n) for a rational p-adic integer lam, known to `prec` unit digits.

    binom(lam, n) = prod_{i=1..n} (lam - i + 1)/i: the steps' valuations are
    summed and their unit parts folded into one numerator and one denominator
    mod p^prec, so the product takes one modular inverse and keeps full
    relative precision.
    """
    lam = Fraction(lam)
    if not is_p_integral(lam, p):
        raise ValueError(f"{lam} is not p-integral")
    a, b = lam.numerator, lam.denominator
    mod = _ppow(p, prec)
    v, num, den = 0, 1, 1
    for i in range(1, n + 1):
        top = a - (i - 1) * b  # (lam - i + 1) * b
        if top == 0:
            return PadicNumber.zero(p, prec + v)
        t, u, w = _split(top, b * i, p)
        v, num, den = v + w, num * t % mod, den * u % mod
    return PadicNumber(p, v, num * pow(den, -1, mod) % mod, prec)


def binom_rational(lam: Rational, n: int) -> Fraction:
    """Exact rational binom(lam, n); the independent oracle for padic_binom.

    For lam = a/b it is prod_{i=0..n-1} (a - i b) / (b^n n!): one integer
    numerator, one integer denominator and one Fraction.
    """
    lam = Fraction(lam)
    a, b = lam.numerator, lam.denominator
    num = den = 1
    for i in range(n):
        num *= a - i * b
        den *= (i + 1) * b
    return Fraction(num, den)
