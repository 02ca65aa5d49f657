import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import same_mod
from padicops.padics import PadicNumber
from padicops.series import PSeries, QSeries, binomial_series

coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=8
)


@dataclass(frozen=True)
class FractionQSeries:
    """QSeries on Fraction coefficients: the kernel that the integer
    numerators replaced, kept as their oracle."""

    coeffs: tuple[F, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, order):
        return cls((F(0),) * order)

    @classmethod
    def one(cls, order):
        return cls((F(1),) + (F(0),) * (order - 1))

    @classmethod
    def of(cls, coeffs, order=None):
        cs = [F(c) for c in coeffs]
        if order is not None:
            cs = (cs + [F(0)] * order)[:order]
        return cls(tuple(cs))

    def __getitem__(self, j):
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else F(0)

    def truncate(self, order):
        return FractionQSeries.of(list(self.coeffs), order)

    def __add__(self, other):
        n = min(self.order, other.order)
        return FractionQSeries(tuple(self.coeffs[j] + other.coeffs[j] for j in range(n)))

    def __neg__(self):
        return FractionQSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [F(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return FractionQSeries(tuple(out))

    def scale(self, a):
        a = F(a)
        return FractionQSeries(tuple(a * c for c in self.coeffs))

    def shift(self, k):
        return FractionQSeries((F(0),) * k + self.coeffs[: self.order - k])

    def inverse(self):
        if self[0] == 0:
            raise ZeroDivisionError("inverse needs a unit constant term")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [F(0)] * (self.order - 1)
        for j in range(1, self.order):
            acc = F(0)
            for i in range(1, j + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[j - i]
            out[j] = -inv0 * acc
        return FractionQSeries(tuple(out))

    def euler_derivative(self):
        return FractionQSeries(tuple(j * c for j, c in enumerate(self.coeffs)))

    def pow_fractional(self, alpha):
        if self[0] != 1:
            raise ValueError("fractional powers need constant term 1")
        alpha = F(alpha)
        u = self.coeffs
        g = [F(1)] + [F(0)] * (self.order - 1)
        for j in range(self.order - 1):
            acc = F(0)
            for i in range(1, j + 2):
                ui = u[i] if i < len(u) else F(0)
                if ui:
                    acc += (alpha * i - (j + 1 - i)) * ui * g[j + 1 - i]
            g[j + 1] = acc / (j + 1)
        return FractionQSeries(tuple(g))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = FractionQSeries.one(self.order), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out


def normal(s: QSeries) -> QSeries:
    """Assert the normal form of s and return it."""
    assert type(s.num) is tuple and all(type(c) is int for c in s.num)
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1  # den = 1 for the zero series
    return s


def agree(got: QSeries, want: FractionQSeries) -> None:
    assert normal(got).coeffs == want.coeffs
    assert len(got.num) == got.order == want.order


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
units = rationals.filter(bool)
series_lists = st.lists(rationals, min_size=1, max_size=9)


def pair(cs):
    return QSeries(cs), FractionQSeries.of(cs)


class TestFractionOracle:
    @given(a=series_lists, b=series_lists)
    @settings(max_examples=80)
    def test_ring_operations(self, a, b):
        (u, ru), (v, rv) = pair(a), pair(b)
        agree(u, ru)
        agree(u * v, ru * rv)
        agree(u + v, ru + rv)
        agree(u - v, ru - rv)
        agree(-u, -ru)
        agree(u - u, ru - ru)

    @given(a=series_lists, c=rationals, data=st.data())
    @settings(max_examples=80)
    def test_linear_operations(self, a, c, data):
        u, ru = pair(a)
        k = data.draw(st.integers(0, u.order))
        m = data.draw(st.integers(0, u.order + 3))  # shorter and longer
        agree(u.scale(c), ru.scale(c))
        agree(u.shift(k), ru.shift(k))
        agree(u.truncate(m), ru.truncate(m))
        agree(u.euler_derivative(), ru.euler_derivative())

    @given(tail=series_lists, alpha=rationals)
    @settings(max_examples=60)
    def test_fractional_power(self, tail, alpha):
        u, ru = pair([1] + tail)
        agree(u.pow_fractional(alpha), ru.pow_fractional(alpha))

    def test_fractional_power_over_a_denominator(self):
        cs = [1, F(1, 2), F(-2, 3), 0, F(5, 7)]
        u, ru = QSeries.of(cs, 12), FractionQSeries.of(cs, 12)
        assert u.den > 1
        for alpha in (F(-3, 4), F(-2), F(5, 3)):
            agree(u.pow_fractional(alpha), ru.pow_fractional(alpha))
        with pytest.raises(ValueError):
            QSeries.of([F(1, 2), 1], 4).pow_fractional(F(1, 2))

    @given(head=units, tail=series_lists, n=st.integers(-2, 4))
    @settings(max_examples=60)
    def test_inverse_and_powers(self, head, tail, n):
        u, ru = pair([head] + tail)
        agree(u.inverse(), ru.inverse())
        agree(u**n, ru**n)

    @given(a=series_lists, b=series_lists)
    @settings(max_examples=60)
    def test_equal_coefficients_are_equal_and_hash_equal(self, a, b):
        u, v = QSeries(a), QSeries(b)
        w = QSeries((u * v).coeffs)
        assert w == u * v and hash(w) == hash(u * v)
        x = QSeries.over([3 * c for c in u.num], 3 * u.den)
        assert x == u and hash(x) == hash(u)
        assert (u == v) == (u.coeffs == v.coeffs)
        assert (u - u) == QSeries.zero(u.order) and hash(u - u) == hash(QSeries.zero(u.order))

    def test_immutable(self):
        u = QSeries.of([1, F(1, 2)], 4)
        with pytest.raises(AttributeError):
            u.num = (0, 0, 0, 0)
        with pytest.raises(AttributeError):
            del u.den
        assert pickle.loads(pickle.dumps(u)) == u


class TestQSeries:
    def test_mul(self):
        s = QSeries.of([1, 2, 3], 6)
        assert (s * s).coeffs[:5] == (F(1), F(4), F(10), F(12), F(9))

    def test_inverse(self):
        s = QSeries.of([1, 2, 3], 6)
        assert (s * s.inverse()).coeffs == QSeries.one(6).coeffs
        with pytest.raises(ZeroDivisionError):
            QSeries.of([0, 1], 4).inverse()

    @given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        n = 6
        u, v, w = (QSeries.of(t, n) for t in (a, b, c))
        assert ((u * v) * w).coeffs == (u * (v * w)).coeffs
        assert (u * (v + w)).coeffs == (u * v + u * w).coeffs

    def test_integer_coefficients_keep_the_length(self):
        s = QSeries.of([1, 2, 0, 0])
        assert s.order == 4 and s.num == (1, 2, 0, 0) and s.den == 1
        assert s == QSeries.of([F(1), F(2), F(0), F(0)])
        assert QSeries.of([0, 0, 0]) == QSeries.zero(3)
        assert QSeries.of([3, 0, 1], 6).num == (3, 0, 1, 0, 0, 0)

    def test_pow_makes_one_product_per_squaring_and_per_extra_bit(self, monkeypatch):
        base = QSeries.of([1, F(1, 2), -3, 1], 8)
        want = {0: QSeries.one(8)}
        for n in range(1, 21):
            want[n] = want[n - 1] * base
        # a squaring is one call of square, an extra bit one of __mul__
        products = []
        for name in ("__mul__", "square"):
            real = getattr(QSeries, name)
            monkeypatch.setattr(QSeries, name, lambda *a, real=real: products.append(1) or real(*a))
        for n in range(21):
            products.clear()
            assert base**n == want[n], n
            expected = 0 if n == 0 else (n.bit_length() - 1) + (bin(n).count("1") - 1)
            assert len(products) == expected, n
        products.clear()
        base**4
        assert len(products) == 2

    def test_square_matches_the_product(self):
        r = random.Random(5)
        for order in [1, 2] * 4 + [r.randint(3, 40) for _ in range(40)]:
            # zero slots, and series in y^c with c - 1 zeros of every c
            stride = r.choice([1, 1, 2, 3])
            cs = [F(r.randint(-9, 9), r.randint(1, 5)) if j % stride == 0 and r.random() < 0.7 else 0
                  for j in range(order)]
            s = QSeries.of(cs, order)
            assert s.square() == s * s, cs
        assert QSeries.zero(5).square() == QSeries.zero(5)

    def test_binomial_square_root(self):
        b = binomial_series(F(1, 2), 10)
        sq = b * b
        assert sq.coeffs[:2] == (F(1), F(-1)) and all(c == 0 for c in sq.coeffs[2:])

    def test_binomial_stride(self):
        b = binomial_series(F(-1), 9, 2)  # geometric series in y^2
        assert b.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1)

    @given(cs=coeff_lists, n=st.integers(min_value=1, max_value=12), c=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_division_by_one_minus_y_power_is_the_geometric_product(self, cs, n, c):
        f = QSeries.of(cs, n)
        assert f.over_one_minus(c) == f * binomial_series(-1, n, c)

    def test_binomial_series_matches_the_fraction_loop(self):
        def fraction_loop(alpha, order, stride):
            # the per-slot Fraction recurrence that the integer numerators replaced
            out, b, m = [F(0)] * order, F(1), 0
            while m * stride < order:
                out[m * stride] = b * (-1) ** m
                b *= F(alpha - m, m + 1)
                m += 1
            return QSeries(tuple(out))

        for alpha in (F(1, 2), F(-1), F(3), F(-5, 4), F(7, 3), F(0), F(-2, 9)):
            for order in (1, 2, 5, 13, 40):
                for stride in (1, 2, 3, 7):
                    assert binomial_series(alpha, order, stride) == fraction_loop(alpha, order, stride)

    def test_pow_fractional(self):
        u = QSeries.of([1, 3, 1], 12)
        assert ((u.pow_fractional(F(1, 3))) ** 3 - u).is_zero()
        assert ((u.pow_fractional(F(-2, 5))) ** 5 * u * u - QSeries.one(12)).is_zero()

    @given(
        cs=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
        a=st.fractions(min_value=-3, max_value=3, max_denominator=5),
        b=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    )
    @settings(max_examples=40)
    def test_fractional_power_laws(self, cs, a, b):
        u = QSeries.of([1] + cs, 10)
        ua, ub = u.pow_fractional(a), u.pow_fractional(b)
        assert (ua * ub - u.pow_fractional(a + b)).is_zero()

    def test_derivatives(self):
        f = QSeries.of([5, 1, 3], 5)
        assert f.euler_derivative().coeffs == (0, 1, 6, 0, 0)

    def test_shift(self):
        f = QSeries.of([1, 2, 3], 3)
        assert f.shift(1).coeffs == (0, 1, 2)


class TestPSeries:
    def test_mul_matches_exact(self):
        p, prec, order = 3, 40, 20
        a = binomial_series(F(1, 4), order)
        b = binomial_series(F(-5, 4), order, 2)
        pa = PSeries(p, prec, [PadicNumber.from_rational(c, p, prec) for c in a.coeffs])
        pb = PSeries(p, prec, [PadicNumber.from_rational(c, p, prec) for c in b.coeffs])
        prod = pa.mul(pb)
        exact = a * b
        for j in range(order):
            want = PadicNumber.from_rational(exact[j], p, prec + 10)
            got = prod.coeffs[j]
            if want.is_zero():
                assert got.is_zero() or got.val >= 30
            else:
                assert same_mod(got, want, got.val + 25)
