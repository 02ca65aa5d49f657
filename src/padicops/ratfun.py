"""Exact rational-function arithmetic with divisor tracking, the Mobius
group action and logarithmic derivatives.

Poles are restricted to rational points and the denominator is carried in
factored form prod (x - r)^m throughout; common factors are cancelled by
root evaluation and synthetic division, never by a polynomial gcd, which
keeps coefficient growth linear.  Zeros are found on demand by factoring the
numerator with `rational_roots`; anything with non-rational roots is rejected
loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

Rational = Fraction | int


# ---------------------------------------------------------------------------
# Dense polynomials over Q
# ---------------------------------------------------------------------------


def reduce_content(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Divide num and den (> 0) by gcd(content, den); den = 1 if num is all 0."""
    g = gcd(den, *num)
    if g != 1:
        return tuple(c // g for c in num), den // g
    return tuple(num), den


def _normal(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) in Poly's normal form; den must be positive, num is consumed."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    del num[n:]
    return reduce_content(num, den)


class _Immutable:
    """Slots are set once, through their descriptors; then nothing changes."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class IntegerNumerators(_Immutable):
    """Rational coefficients num[i] / den over one denominator, the base of
    `Poly` and `series.QSeries`.  Normal form: den > 0, gcd(content, den) = 1
    and den = 1 when all num[i] are 0, so equality and hashing compare
    (num, den).  `coeffs` is the Fraction view, built on demand; immutable.
    """

    __slots__ = ("num", "den")
    _normal_form = staticmethod(reduce_content)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = list(coeffs)
        if all(type(c) is int for c in cs):  # already over den 1 (a bool still takes Fraction)
            num, den = self._normal_form(cs, 1)
        else:
            cs = [Fraction(c) for c in cs]
            den = lcm(*(c.denominator for c in cs))
            num, den = self._normal_form([c.numerator * (den // c.denominator) for c in cs], den)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _raw(cls, num: tuple[int, ...], den: int):
        """An instance from parts already in normal form."""
        out = object.__new__(cls)
        _set_num(out, num)
        _set_den(out, den)
        return out

    def __reduce__(self):
        return (self._raw, (self.num, self.den))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.num[i], self.den) if 0 <= i < len(self.num) else Fraction(0)


_set_num, _set_den = (IntegerNumerators.__dict__[name].__set__ for name in ("num", "den"))


class Poly(IntegerNumerators):
    """Dense polynomial over Q, p(x) = (num[0] + ... + num[n] x^n) / den, with
    no trailing zero in num.  Arithmetic runs on integers only.
    """

    __slots__ = ()
    _normal_form = staticmethod(_normal)

    @classmethod
    def of(cls, *coeffs: Rational) -> Poly:
        return cls(coeffs)

    @classmethod
    def x_minus(cls, a: Rational) -> Poly:
        return cls.of(-Fraction(a), 1)

    @classmethod
    def const(cls, a: Rational) -> Poly:
        return cls.of(a)

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def __add__(self, other: Poly) -> Poly:
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da == db:
            den = da
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            den = da * fa
            a = [c * fa for c in a]
            b = [c * fb for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(out, den)

    def __neg__(self) -> Poly:
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        a, b = self.num, other.num
        if not a or not b:
            return _ZERO
        return _lead_nonzero(conv(a, b), self.den * other.den)

    def scale(self, a: Rational) -> Poly:
        n = a.numerator
        if not n or not self.num:
            return _ZERO
        return _lead_nonzero([c * n for c in self.num], self.den * a.denominator)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError(f"Poly ** {n}: a polynomial has no negative powers")
        out, base = (None if n else Poly.of(1)), self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:  # no square past the top bit
                base = base * base
        return out

    def synth_div(self, root: Rational) -> tuple[Poly, Fraction]:
        """Divide by (x - root): returns (quotient, remainder value).

        Integer Horner for root = rn/rd and numerators c_k: A_n = c_n and
        A_k = A_{k+1} rn + c_k rd^(n-k), so the quotient's x^(k-1)
        coefficient is A_k / (rd^(n-k) den) and the remainder A_0 / (rd^n den).
        """
        c = self.num
        n = len(c) - 1
        if n <= 0:
            return _ZERO, self[0]
        rn, rd = root.numerator, root.denominator
        acc, pw = c[n], rd
        hs = [acc]  # A_n, A_(n-1), ..., A_1
        for k in range(n - 1, 0, -1):
            acc = acc * rn + c[k] * pw
            hs.append(acc)
            pw *= rd
        rem = Fraction(acc * rn + c[0] * pw, pw * self.den)
        hs.reverse()
        # over the common denominator rd^(n-1) den, x^j has A_(j+1) rd^j
        if rd != 1:
            pw = 1
            for j in range(n):
                hs[j] *= pw
                pw *= rd
        return _make(hs, rd ** (n - 1) * self.den), rem

    def derivative(self) -> Poly:
        num = self.num
        if len(num) <= 1:
            return _ZERO
        return _lead_nonzero(derive(num), self.den)

    def is_root(self, x: Rational) -> bool:
        """p(x) == 0, without building the quotient that synth_div would: for
        x = xn/xd and n = deg p, Horner's rule gives the integer den xd^n p(x)."""
        xn, xd = x.numerator, x.denominator
        acc, pw = 0, 1
        for c in reversed(self.num):
            acc = acc * xn + c * pw
            pw *= xd
        return acc == 0

    def shift(self, a: Rational) -> Poly:
        """p(x + a), by an integer Taylor shift.

        With a = an/ad and n = deg p, R(z) = ad^n den p((z + an)/ad) has
        integer coefficients and p(x + a) = R(ad x) / (ad^n den).
        """
        num = self.num
        if not a or len(num) <= 1:
            return self
        an, ad = a.numerator, a.denominator
        n = len(num) - 1
        r = [c * ad ** (n - k) for k, c in enumerate(num)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                r[j] += an * r[j + 1]
        return _make([c * ad**j for j, c in enumerate(r)], ad**n * self.den)

    def compose_fractional(self, num: Poly, den: Poly) -> tuple[Poly, int]:
        """p(num/den) cleared of denominators: returns (P, e) with
        p(num/den) = P / den^e and e = max(deg p, 0)."""
        e = max(self.degree(), 0)
        out = _ZERO
        for i, c in enumerate(self.num):
            if c:
                out = out + (num**i * den ** (e - i)).scale(c)
        return out.scale(Fraction(1, self.den)), e

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


_raw = Poly._raw


def _make(num: list[int], den: int) -> Poly:
    return _raw(*_normal(num, den))


def _lead_nonzero(num: list[int], den: int) -> Poly:
    """A Poly from numerators whose last entry is nonzero: no strip, and no
    gcd over den 1."""
    return _raw(tuple(num), 1) if den == 1 else _raw(*reduce_content(num, den))


def conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two nonzero integer polynomials,
    given by their coefficient lists; the outer loop runs over the shorter."""
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def derive(a: Sequence[int]) -> list[int]:
    """The coefficients of the derivative of an integer polynomial."""
    return [i * c for i, c in enumerate(a) if i]


_ZERO = _raw((), 1)


class NonRationalRoots(ValueError):
    """A factorisation query hit a polynomial with no rational splitting."""


Factors = tuple[tuple[Fraction, int], ...]  # sorted ((root, multiplicity), ...)


@lru_cache(maxsize=4096)
def expand_factors(factors: Factors) -> Poly:
    out = Poly.of(1)
    for root, mult in factors:
        out = out * Poly.x_minus(root) ** mult
    return out


def _zip_factors(a: Factors, b: Factors) -> Iterator[tuple[Fraction, int, int]]:
    """Merge two sorted factor tuples: (root, multiplicity in a, in b), by root."""
    i = j = 0
    while i < len(a) and j < len(b):
        (r, m), (s, n) = a[i], b[j]
        if r == s:
            yield r, m, n
            i += 1
            j += 1
        elif r < s:
            yield r, m, 0
            i += 1
        else:
            yield s, 0, n
            j += 1
    yield from ((r, m, 0) for r, m in a[i:])
    yield from ((s, 0, n) for s, n in b[j:])


def rational_roots(poly: Poly) -> list[tuple[Fraction, int]]:
    """Full factorisation of poly into rational linear factors, or raise.

    The constant content is not returned; use poly[poly.degree()] for the scalar.
    """
    out: list[tuple[Fraction, int]] = []
    rem = poly
    if rem.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    for cand in _root_candidates(poly):
        mult = 0
        while rem.degree() > 0 and rem.is_root(cand):
            rem = rem.synth_div(cand)[0]
            mult += 1
        if mult:
            out.append((cand, mult))
    if rem.degree() > 0:
        raise NonRationalRoots(f"{poly} has a non-rational factor {rem}")
    return out


def _root_candidates(poly: Poly) -> Iterable[Fraction]:
    """Rational root candidates p/q with p | trailing, q | leading coefficient."""
    num = poly.num
    if not num:
        return
    k = 0
    while num[k] == 0:
        k += 1
    if k:
        yield Fraction(0)
    # the numerators are integers over one denominator: a0 and an scale alike
    a0, an = abs(num[k]), abs(num[-1])
    seen = set()
    for pp in _divisors(a0):
        for qq in _divisors(an):
            g = gcd(pp, qq)
            cand = Fraction(pp // g, qq // g)
            for c in (cand, -cand):
                if c not in seen:
                    seen.add(c)
                    yield c


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction(_Immutable):
    """num / prod (x - r)^m with num a polynomial and rational poles only.

    `den_factors` is the sorted tuple ((r, m), ...), all m > 0, of the monic
    denominator, and num does not vanish at any pole.  Poles come in as a
    root -> multiplicity map.  Only the constructor, `+` and `*` can meet a
    common factor, so only they cancel; `+` and `*` test only the poles where
    a reduced operand leaves room for it.  Immutable, as Poly is.
    Zeros are factored out of num when `divisor` or `inverse` needs them.
    """

    __slots__ = ("num", "den_factors")

    def __init__(self, num: Poly, poles: Mapping[Rational, int] | None = None):
        factors = sorted((Fraction(r), m, True) for r, m in (poles or {}).items() if m)
        if any(m < 0 for _, m, _ in factors):
            raise ValueError("negative pole multiplicity")
        reduced = _reduced(num, factors)
        _set_rf_num(self, reduced.num)
        _set_den_factors(self, reduced.den_factors)

    def __reduce__(self):
        return (_raw_rf, (self.num, self.den_factors))

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, a: Rational) -> RationalFunction:
        return cls(Poly.const(a))

    @classmethod
    def x(cls) -> RationalFunction:
        return cls(Poly.of(0, 1))

    @classmethod
    def from_factors(cls, scalar: Rational, factors: Mapping[Rational, int]) -> RationalFunction:
        """lambda * prod (x - a)^e from a factored description."""
        num, den = Poly.const(scalar), {}
        for a, e in factors.items():
            if e > 0:
                num = num * Poly.x_minus(a) ** e
            elif e < 0:
                den[a] = -e
        return cls(num, den)

    # -- views ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den_factors == other.den_factors

    def __hash__(self):
        return hash((self.num, self.den_factors))

    def __repr__(self) -> str:
        if not self.den_factors:
            return f"{self.num}"
        return f"({self.num})/({expand_factors(self.den_factors)})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: RationalFunction) -> RationalFunction:
        a, b = self.den_factors, other.den_factors
        if a == b:
            return _reduced(self.num + other.num, [(r, m, True) for r, m in a])
        merged = tuple(_zip_factors(a, b))
        ca = tuple((r, n - m) for r, m, n in merged if n > m)
        cb = tuple((r, m - n) for r, m, n in merged if m > n)
        # at a root of unequal multiplicities only the side with the lower one
        # has a cofactor that vanishes there, so the sum does not: no cancelling
        common = [(r, max(m, n), m == n) for r, m, n in merged]
        # a side whose poles already cover the sum's has the cofactor 1
        num_a = self.num * expand_factors(ca) if ca else self.num
        num_b = other.num * expand_factors(cb) if cb else other.num
        return _reduced(num_a + num_b, common)

    def __neg__(self) -> RationalFunction:
        return _raw_rf(-self.num, self.den_factors)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        # a pole of both factors stays: neither numerator vanishes there
        poles = [(r, m + n, not (m and n)) for r, m, n in _zip_factors(self.den_factors, other.den_factors)]
        return _reduced(self.num * other.num, poles)

    def inverse(self) -> RationalFunction:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        scalar = self.num[self.num.degree()]
        num = expand_factors(self.den_factors).scale(1 / scalar)
        return _raw_rf(num, tuple(sorted(rational_roots(self.num))))

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        return self * other.inverse()

    def scale(self, a: Rational) -> RationalFunction:
        if not a:
            return _ZERO_RF
        return _raw_rf(self.num.scale(a), self.den_factors)

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return RationalFunction.const(1)
        return _raw_rf(self.num**n, tuple((r, m * n) for r, m in self.den_factors))

    def derivative(self) -> RationalFunction:
        """(P/D)' = (P' D0 - P sum_i m_i D0/(x-r_i)) / D0 prod (x-r_i)^(m_i+1)
        computed with D0 = prod (x - r_i) squarefree.

        Reduced as built: at r_i the numerator is
        -m_i P(r_i) prod_{j != i} (r_i - r_j), which is not zero.
        """
        d0 = expand_factors(tuple((r, 1) for r, _ in self.den_factors))
        acc = self.num.derivative() * d0
        for r, m in self.den_factors:
            acc = acc - self.num.scale(m) * d0.synth_div(r)[0]
        return _raw_rf(acc, tuple((r, m + 1) for r, m in self.den_factors))

    # -- divisors ------------------------------------------------------------

    def divisor(self) -> dict[Fraction, int]:
        """Map a -> v_a over the finite rational zeros and poles.

        Raises NonRationalRoots when the numerator does not split over Q.
        """
        if self.is_zero():
            raise ValueError("the zero function has no divisor")
        out: dict[Fraction, int] = dict(rational_roots(self.num))
        for r, m in self.den_factors:
            out[r] = out.get(r, 0) - m
        return {a: e for a, e in out.items() if e}


_set_rf_num, _set_den_factors = (RationalFunction.__dict__[name].__set__ for name in ("num", "den_factors"))


def _raw_rf(num: Poly, den_factors: Factors) -> RationalFunction:
    """A function from a reduced num and sorted den_factors, kept as given."""
    out = object.__new__(RationalFunction)
    _set_rf_num(out, num)
    _set_den_factors(out, den_factors)
    return out


def _reduced(num: Poly, factors: Iterable[tuple[Fraction, int, bool]]) -> RationalFunction:
    """num over the sorted factors (r, m, may_cancel): where may_cancel is
    set, (x - r) is cancelled while num(r) = 0; elsewhere num(r) != 0 is known."""
    if num.is_zero():
        return _ZERO_RF
    kept = []
    for r, m, may_cancel in factors:
        if may_cancel:
            while m and num.is_root(r):
                num, m = num.synth_div(r)[0], m - 1
        if m:
            kept.append((r, m))
    return _raw_rf(num, tuple(kept))


_ZERO_RF = _raw_rf(_ZERO, ())


def dlog(u: RationalFunction) -> RationalFunction:
    """Logarithmic derivative u'/u = sum v_a/(x - a)."""
    if u.is_zero():
        raise ZeroDivisionError("dlog of zero")
    return sum((RationalFunction(Poly.const(e), {a: 1}) for a, e in u.divisor().items()), _ZERO_RF)


# ---------------------------------------------------------------------------
# Mobius maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobiusMap:
    """Invertible 2x2 rational matrix acting on P^1 and on functions.

    Points transform by z -> (az + b)/(cz + d); functions by substitution
    with the inverse, so the coordinate x maps to (dx - b)/(-cx + a).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for f in "abcd":
            object.__setattr__(self, f, Fraction(getattr(self, f)))
        if self.det == 0:
            raise ValueError("singular matrix")

    @classmethod
    def of(cls, a: Rational, b: Rational, c: Rational, d: Rational) -> MobiusMap:
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @classmethod
    def translation(cls, b: Rational) -> MobiusMap:
        """The map with g.x = x + b (matrix (1, -b; 0, 1))."""
        return cls.of(1, -Fraction(b), 0, 1)

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: MobiusMap) -> MobiusMap:
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    # -- actions -----------------------------------------------------------

    def act_x(self) -> RationalFunction:
        """The image of the coordinate function x."""
        return self.act_function(RationalFunction.x())

    def act_function(self, u: RationalFunction) -> RationalFunction:
        """Substitution action (g.u)(x) = u(g^{-1}.x).

        Linear factors map to linear factors: (x - r) becomes
        ((d + rc) x - (b + ra)) / (-cx + a), so the factored denominator is
        preserved without any refactorisation.
        """
        num_g = Poly.of(-self.b, self.d)  # dx - b
        den_g = Poly.of(self.a, -self.c)  # -cx + a
        pn, en = u.num.compose_fractional(num_g, den_g)
        m_total = sum(m for _, m in u.den_factors)
        scalar = Fraction(1)
        new_den: list[tuple[Fraction, int]] = []
        for r, m in u.den_factors:
            lead = self.d + r * self.c
            if lead != 0:
                new_den.append(((self.b + r * self.a) / lead, m))
                scalar /= lead**m
            else:
                scalar /= (-(self.b + r * self.a)) ** m
        # u(X) = pn/den_g^en * prod den_g^m / ell_r^m = pn den_g^(M-en) / prod ell_r^m
        shift = m_total - en
        if shift >= 0:
            pn = pn * den_g**shift
        else:
            if self.c != 0:
                new_den.append((self.a / self.c, -shift))
                pn = pn.scale(Fraction(1, (-self.c) ** (-shift)))
            else:
                pn = pn.scale(Fraction(1, self.a ** (-shift)))
        # nothing cancels: distinct poles have distinct images, and num is a
        # nonzero multiple of num(r) at the image of r and of (det/c)^deg at
        # a/c; the zero function has no poles and keeps its normal form
        return _raw_rf(pn.scale(scalar), tuple(sorted(new_den)))
