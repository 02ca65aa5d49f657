import copy
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicops
from padicops.carries import _digit_stream
from oracles import same_mod
from padicops.padics import (
    INF,
    PadicNumber,
    binom_rational,
    digit_sum,
    padic_binom,
    varpi_m_valuation,
    varpi_valuation,
    vp_factorial,
    vp_int,
    vp_rational,
)

PRIMES = [2, 3, 5, 7]

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
primes = st.sampled_from(PRIMES)


class TestValuations:
    def test_examples(self):
        assert vp_rational(24, 3) == 1
        assert vp_rational(0, 5) == INF
        assert vp_rational(F(3, 8), 2) == -3

    def test_factorial_examples(self):
        assert vp_factorial(4, 3) == 1
        assert vp_factorial(0, 2) == 0

    def test_factorial_against_legendre(self):
        for p in PRIMES:
            for n in [1, 7, 100, 1234]:
                legendre = sum(n // p**i for i in range(1, 30))
                assert vp_factorial(n, p) == legendre

    def test_prime_power_factorial(self):
        # consistency of the radius constant at each level
        for p in [2, 3, 5]:
            for m in [1, 2, 3]:
                assert vp_factorial(p**m, p) == (p**m - 1) // (p - 1)
                assert varpi_m_valuation(m, p) == F(p**m - 1, p**m * (p - 1))
        assert varpi_valuation(3) == F(1, 2)

    @given(a=rationals, b=rationals, p=primes)
    def test_valuation_is_additive_and_ultrametric(self, a, b, p):
        va, vb = vp_rational(a, p), vp_rational(b, p)
        if a and b:
            assert vp_rational(a * b, p) == va + vb
        s = vp_rational(a + b, p)
        assert s >= min(va, vb)
        if va != vb:
            assert s == min(va, vb)

    def test_valuation_laws_bulk(self):
        rng = random.Random(42)
        for _ in range(1000):
            p = rng.choice(PRIMES)
            a = F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
            b = F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
            va, vb = vp_rational(a, p), vp_rational(b, p)
            if a and b:
                assert vp_rational(a * b, p) == va + vb
            s = vp_rational(a + b, p)
            assert s >= min(va, vb)
            if va != vb:
                assert s == min(va, vb)

    def test_factorial_valuation_window(self):
        # 0 <= n/(p-1) - v_p(n!) <= 1 + log_p(n), i.e. the digit sum bound
        for p in [2, 3, 5]:
            for n in range(1, 10**5, 137):
                gap = F(n, p - 1) - vp_factorial(n, p)
                assert 0 <= gap <= 1 + math.log(n, p) + 1e-9

    def test_level_m_factorial_window(self):
        # v_p(k!) - v_p(floor(k/p^m)!) - k (p^m-1)/(p^m(p-1)) lies in [-m, 0]
        for p, m in [(2, 1), (3, 2), (2, 4), (5, 3)]:
            wv = varpi_m_valuation(m, p)
            for k in range(0, 10**4, 271):
                val = vp_factorial(k, p) - vp_factorial(k // p**m, p) - k * wv
                assert -m <= val <= 0, (p, m, k)


def loop_vp_int(n, p):
    """v_p(n) by trial division from the first step: the loop `vp_int` ran
    before it returned early on p not dividing n."""
    if n == 0:
        return INF
    n, v = abs(n), 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


class TestVpInt:
    @given(
        p=primes,
        k=st.integers(0, 40),
        u=st.integers(-10**12, 10**12),
        sign=st.sampled_from([1, -1]),
    )
    def test_matches_the_division_loop(self, p, k, u, sign):
        n = sign * p**k * u
        assert vp_int(n, p) == loop_vp_int(n, p)
        if u % p:
            assert vp_int(n, p) == k

    def test_zero_and_negative(self):
        for p in PRIMES:
            assert vp_int(0, p) == INF
            assert vp_int(-p**40, p) == 40
            assert vp_int(-(p + 1), p) == 0
            assert vp_int(-p * (p + 1), p) == 1


def padic_digits(lam, count, p):
    """The first `count` base-p digits of lam, off the stream the carries use."""
    return tuple(islice(_digit_stream(F(lam), p), count))


class TestDigits:
    def test_examples(self):
        assert padic_digits(F(1, 2), 4, 3) == (2, 1, 1, 1)
        assert padic_digits(5, 2, 3) == (2, 1)
        assert padic_digits(F(-3, 2), 4, 3) == (0, 1, 1, 1)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            padic_digits(F(1, 3), 4, 3)

    @given(a=st.fractions(min_value=-10**4, max_value=10**4, max_denominator=100), p=primes)
    def test_digits_reconstruct(self, a, p):
        if a.denominator % p == 0:
            return
        ds = padic_digits(a, 12, p)
        partial = sum(d * p**i for i, d in enumerate(ds))
        assert vp_rational(a - partial, p) >= 12 or a == partial

    def test_digit_sum(self):
        assert digit_sum(0, 3) == 0
        assert digit_sum(12, 3) == 1 + 1  # 110 base 3
        assert digit_sum(255, 2) == 8


class TestPadicNumber:
    def test_half_plus_half(self):
        a = PadicNumber.from_rational(F(1, 2), 3, 64)
        s = a + a
        assert s.val == 0 and s.digits(4) == (1, 0, 0, 0)

    def test_tracked_zero(self):
        one = PadicNumber.from_rational(1, 3, 40)
        z = one + one.mul_rational(-1, 1, max(one.relprec, 1))
        assert z.is_zero() and z.absprec == 40

    def test_digit_expansion_of_half(self):
        a = PadicNumber.from_rational(F(1, 2), 3, 64)
        assert a.digits(4) == (2, 1, 1, 1)

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            PadicNumber.from_rational(1, 3, 64) + PadicNumber.from_rational(1, 5, 64)

    def test_precision_propagation(self):
        a = PadicNumber.from_rational(F(1, 3), 5, 10)  # val 0
        b = PadicNumber.from_rational(25, 5, 10)  # val 2
        assert (a * b).absprec == 12 and (a * b).val == 2
        assert (a + b).absprec == 10

    def test_cancellation_detection(self):
        a = PadicNumber.from_rational(1, 3, 20)
        b = PadicNumber.from_rational(1 + 3**5, 3, 20)
        d = b + a.mul_rational(-1, 1, max(a.relprec, 1))
        assert d.val == 5 and d.absprec == 20

    @given(
        a=st.fractions(min_value=-10**4, max_value=10**4, max_denominator=500),
        b=st.fractions(min_value=-10**4, max_value=10**4, max_denominator=500),
        p=primes,
    )
    @settings(max_examples=60)
    def test_ring_against_exact(self, a, b, p):
        pa = PadicNumber.from_rational(a, p, 30)
        pb = PadicNumber.from_rational(b, p, 30)
        for op, res in [
            (lambda x, y: x + y, a + b),
            (lambda x, y: x + y.mul_rational(-1, 1, max(y.relprec, 1)), a - b),
            (lambda x, y: x * y, a * b),
        ]:
            got = op(pa, pb)
            want = PadicNumber.from_rational(res, p, 40)
            assert same_mod(got, want, min(got.absprec, 25))

    def test_value_equality_hash_and_immutability(self):
        a = PadicNumber.from_rational(F(1, 2), 3, 10)
        b = PadicNumber.from_rational(F(2, 4), 3, 10)
        assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PadicNumber.from_rational(F(1, 2), 3, 11)
        assert a != PadicNumber.from_rational(F(1, 2), 5, 10)
        assert a != (a.p, a.val, a.unit, a.relprec)
        assert PadicNumber.zero(3, 7) == PadicNumber.zero(3, 7) != PadicNumber.zero(3, 8)
        with pytest.raises(AttributeError):
            a.unit = 1
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(AttributeError):
            del a.val
        assert (a.p, a.val, a.unit, a.relprec) == (b.p, b.val, b.unit, b.relprec)
        assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a

    @pytest.mark.parametrize("args", [(3, 0, 9, 1), (3, 0, 3, 2), (3, 0, 9, 2), (3, 0, -1, 2), (3, 4, 0, 2)])
    def test_constructor_rejects_broken_invariants(self, args):
        with pytest.raises(ValueError):
            PadicNumber(*args)

    def test_invariant_checks_survive_optimize_flag(self):
        src = os.path.dirname(os.path.dirname(padicops.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "from padicops.padics import PadicNumber; print(PadicNumber(3, 0, 9, 1))"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode != 0 and "ValueError" in proc.stderr, proc.stdout + proc.stderr


def _check_mul_rational(x, exact_x, num, den, prec):
    """x.mul_rational(num, den, prec) against exact Fraction arithmetic, with
    exact_x the rational that x approximates (0 for a tracked zero)."""
    p = x.p
    scalar_prec = prec or max(x.relprec, 1)  # prec None stands for this number's relprec
    got = x.mul_rational(num, den, scalar_prec)
    # the product by a scalar known to scalar_prec digits, built the long way
    assert got == x * PadicNumber.from_rational(F(num, den), p, scalar_prec)
    if num == 0:
        assert got.is_zero()
        assert got.absprec == (x.absprec if x.is_zero() else x.val) + scalar_prec
        return
    v = vp_rational(F(num, den), p)
    if x.is_zero():
        assert got.is_zero() and got.absprec == x.absprec + v
        return
    exact = exact_x * F(num, den)
    assert not got.is_zero() and got.val == vp_rational(exact, p)
    assert got.relprec == min(x.relprec, scalar_prec)
    assert same_mod(got, PadicNumber.from_rational(exact, p, got.relprec + 5), got.absprec)


class TestMulRational:
    @given(
        a=st.one_of(st.just(F(0)), rationals),
        num=st.integers(min_value=-10**6, max_value=10**6),
        den=st.integers(min_value=-10**4, max_value=10**4).filter(bool),
        p=primes,
        relprec=st.integers(min_value=1, max_value=40),
        prec=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    )
    @settings(max_examples=300)
    def test_against_exact(self, a, num, den, p, relprec, prec):
        x = PadicNumber.from_rational(a, p, relprec) if a else PadicNumber.zero(p, relprec)
        _check_mul_rational(x, a, num, den, prec)

    def test_bulk_against_exact(self):
        # zero scalar, tracked zeros, non-coprime and negative num/den,
        # den divisible by p, and prec below, at and above relprec
        rng = random.Random(7)
        for _ in range(3000):
            p = rng.choice(PRIMES)
            relprec = rng.randrange(1, 50)
            if rng.random() < 0.15:
                a = F(0)
                x = PadicNumber.zero(p, rng.randrange(-5, 60))
            else:
                a = F(rng.randrange(1, 10**5), rng.randrange(1, 10**3)) * F(p) ** rng.randrange(-4, 5)
                a = -a if rng.random() < 0.5 else a
                x = PadicNumber.from_rational(a, p, relprec)
            g = rng.randrange(1, 30) * p ** rng.randrange(0, 3)  # common factor
            num = g * rng.randrange(-10**4, 10**4) * p ** rng.randrange(0, 4)
            den = g * rng.choice([-1, 1]) * rng.randrange(1, 10**3) * p ** rng.randrange(0, 4)
            prec = rng.choice([None, rng.randrange(1, relprec + 1), rng.randrange(relprec, 2 * relprec + 1)])
            _check_mul_rational(x, a, num, den, prec)

    def test_examples(self):
        x = PadicNumber.from_rational(F(1, 2), 3, 10)
        assert x.mul_rational(0, 7, max(x.relprec, 1)) == PadicNumber.zero(3, 10)
        assert x.mul_rational(6, 4, max(x.relprec, 1)) == PadicNumber.from_rational(F(3, 4), 3, 10)
        assert x.mul_rational(4, -9, 3) == PadicNumber.from_rational(F(-2, 9), 3, 3)
        z = PadicNumber.zero(3, 5)
        assert z.mul_rational(1, 3, max(z.relprec, 1)) == PadicNumber.zero(3, 4)
        with pytest.raises(ZeroDivisionError):
            x.mul_rational(1, 0, max(x.relprec, 1))

    def test_from_rational_strips_p(self):
        for a, p in [(F(-18, 35), 3), (F(5, 48), 2), (250, 5), (-1, 7)]:
            x = PadicNumber.from_rational(a, p, 12)
            assert x.val == vp_rational(a, p) and x.relprec == 12
            u = F(a) / F(p) ** x.val
            assert (x.unit * u.denominator - u.numerator) % p**12 == 0


def reference_binom(lam, n: int, p: int, prec: int) -> PadicNumber:
    """binom(lam, n) by one mul_rational per step: the loop that the
    one-inverse product of `padic_binom` replaced, kept as its oracle."""
    a, b = F(lam).numerator, F(lam).denominator
    out = PadicNumber.from_rational(1, p, prec)
    for i in range(1, n + 1):
        num = a - (i - 1) * b
        if num == 0:
            return PadicNumber.zero(p, prec + out.val)
        out = out.mul_rational(num, b * i, prec)
    return out


# (lam, n, p): negative lam, integer lam whose product reaches the factor 0
# (lam = 5 at n >= 6, lam = 0 at n >= 1), integer lam short of it, the empty
# product, and the release families' lam at a few hundred steps
BINOM_CASES = [
    (F(-7, 4), 40, 3), (F(-3, 2), 25, 5), (-3, 30, 2), (F(-1, 6), 200, 7),
    (5, 9, 3), (5, 6, 2), (0, 3, 5), (5, 5, 3),
    (F(2, 7), 0, 5), (F(1, 4), 456, 3), (F(1, 3), 86, 2), (F(3, 4), 300, 3),
]


def stepwise_binom(lam, n):
    """binom(lam, n) as n Fraction products, the form binom_rational had first."""
    lam = F(lam)
    out = F(1)
    for i in range(1, n + 1):
        out *= F(lam - i + 1, i)
    return out


class TestBinomRational:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(0, 120))
    def test_equals_the_stepwise_fraction_product(self, a, b, n):
        assert binom_rational(F(a, b), n) == stepwise_binom(F(a, b), n)

    def test_integer_lambda_is_math_comb(self):
        for lam in range(0, 60):
            for n in range(0, 70):
                got = binom_rational(lam, n)
                assert got == math.comb(lam, n) and got.denominator == 1

    def test_vanishing_factor_and_empty_product(self):
        for lam in range(0, 12):
            for n in range(lam + 1, 20):
                assert binom_rational(lam, n) == 0
        for lam in (0, 5, -3, F(-2, 7), F(11, 4)):
            assert binom_rational(lam, 0) == 1


class TestPadicBinom:
    @pytest.mark.parametrize("prec", [1, 2, 60])
    @pytest.mark.parametrize("lam, n, p", BINOM_CASES, ids=str)
    def test_same_key_as_the_step_loop(self, lam, n, p, prec):
        assert padic_binom(lam, n, p, prec)._key() == reference_binom(lam, n, p, prec)._key()

    @settings(max_examples=200, deadline=None)
    @given(primes, st.integers(-300, 300), st.integers(1, 12), st.integers(0, 80), st.integers(1, 70))
    def test_drawn_binomial_matches_the_step_loop(self, p, num, den, n, prec):
        if den % p == 0:
            den += 1
        lam = F(num, den)
        assert padic_binom(lam, n, p, prec)._key() == reference_binom(lam, n, p, prec)._key()

    def test_half_choose_two(self):
        v = padic_binom(F(1, 2), 2, 3, 64)
        assert binom_rational(F(1, 2), 2) == F(-1, 8)
        assert not v.is_zero() and v.val == 0
        w = PadicNumber.from_rational(F(-1, 8), 3, 64)
        assert same_mod(v, w, 30)

    def test_empty_binomial(self):
        assert same_mod(padic_binom(F(2, 7), 0, 5, 64), PadicNumber.from_rational(1, 5, 64), 30)

    def test_against_exact_oracle(self):
        rng = random.Random(1)
        for _ in range(120):
            p = rng.choice(PRIMES)
            den = rng.choice([t for t in range(1, 12) if t % p != 0])
            lam = F(rng.randrange(-200, 200), den)
            n = rng.randrange(0, 40)
            got = padic_binom(lam, n, p, 64)
            want = PadicNumber.from_rational(binom_rational(lam, n), p, 80)
            if want.is_zero():
                assert got.is_zero() or got.val >= 60
            else:
                assert same_mod(got, want, min(got.absprec, 50))

    def test_divided_power_coefficient_family(self):
        # binom(-k/d, m) matches the m-th twist coefficient scalar for samples
        for k, d, m in [(1, 4, 3), (2, 3, 5), (3, 4, 2)]:
            exact = binom_rational(F(-k, d), m)
            v = padic_binom(F(-k, d), m, 5, 64)
            assert same_mod(v, PadicNumber.from_rational(exact, 5, 80), 40)

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            padic_binom(F(1, 3), 2, 3, 64)
