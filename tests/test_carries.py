import dataclasses
import random
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import padic_value, same_mod
from padicops import carries, padics
from padicops.carries import (
    CheckFailed,
    Family,
    SpecialIndex,
    argmin_term_valuation,
    carry_profile,
    dominant_term_valuation,
    expected_M,
    qexp_check,
    required_parity,
    sum_estimate,
    term_valuations,
    vp_binom_kummer,
    vp_binom_lower,
)
from padicops.padics import (
    INF,
    PadicNumber,
    PrecisionExhausted,
    binom_rational,
    padic_binom,
    vp_factorial,
    vp_int,
    vp_rational,
)


# -- Kummer oracles for the summand valuations of `sum_estimate` ----------


def denom_valuation(n: int, r: int, q: int, p: int) -> int | float:
    """v_p((n-r)(q-1) + 1) of the summand denominator."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return vp_int((n - r) * (q - 1) + 1, p)


def term_valuation(idx: SpecialIndex, r: int) -> int | float:
    """Valuation of the r-th summand, via Kummer valuations of both binomials."""
    p, q = idx.fam.p, idx.fam.q
    v1 = vp_binom_lower(idx.fam.lam, r, p)
    v2 = vp_binom_kummer(idx.alpha, (q - 1) * (idx.n - r), p)
    return v1 + v2 - denom_valuation(idx.n, r, q, p)


def reference_sum(idx: SpecialIndex, prec: int) -> PadicNumber:
    """The coefficient sum by one PadicNumber step per factor: the loop that
    the integer kernel of `_sum_estimate` replaced, kept as its oracle."""
    p, q, n = idx.fam.p, idx.fam.q, idx.n
    ln, ld = idx.fam.lam.numerator, idx.fam.lam.denominator
    an, ad = idx.alpha.numerator, idx.alpha.denominator
    c = q - 1
    b1 = PadicNumber.from_rational(1, p, prec)
    b2 = PadicNumber.from_rational(1, p, prec)
    for i in range(1, c * n + 1):
        b2 = b2.mul_rational(an + i * ad, ad * i, prec)
    total = PadicNumber.zero(p, 10**9)
    for r in range(n + 1):
        den = (n - r) * c + 1
        sign = (-1) ** (r + c * (n - r))
        total = total + (b1 * b2).mul_rational(sign, den, prec)
        if r < n:
            b1 = b1.mul_rational(ln - r * ld, ld * (r + 1), prec)
            b = c * (n - r)
            for j in range(b - c + 1, b + 1):
                b2 = b2.mul_rational(j * ad, an + j * ad, prec)
    if total.is_zero():
        raise PrecisionExhausted(f"sum vanishes mod p^{total.absprec}")
    return total


def norm_index(p: int, f: int, k_norm: int, N: int) -> SpecialIndex:
    """The index at level N of the family (p, p^f, k_norm, p^f + 1)."""
    q = p**f
    return Family(p, q, k_norm, q + 1).index(N)


# (p, f, k_norm, N): the release families, then every k_norm at q = 4 and q = 5
# at the lowest level its parity allows
ORACLE_FAMILIES = [(3, 1, 1, 6), (2, 1, 1, 6), (2, 1, 1, 8), (3, 1, 3, 7)] + [
    (p, f, k, 7 if required_parity(k, p**f) else 6)
    for p, f in [(2, 2), (5, 1)]
    for k in range(1, p**f + 1)
]


@cache
def scanned(family: tuple[int, int, int, int]) -> tuple[int, ...]:
    return tuple(term_valuations(norm_index(*family)))


class TestCarryProfile:
    def test_grade_school_addition(self):
        # 5 + 7 = 12 in base 3: carries at positions 0 and 1
        prof = carry_profile(5, 7, 2, 3)
        assert prof.gammas[:2] == (1, 1)
        assert prof.L == 2
        assert 0 not in prof.gammas[:2]

    def test_adding_zero(self):
        prof = carry_profile(0, 987, 5, 7)
        assert all(g == 0 for g in prof.gammas) and prof.L == 0

    def test_rational_input(self):
        prof = carry_profile(F(-3, 2), 2, 1, 3)
        assert prof.gammas[0] == 0 and prof.L == 0

    def test_carry_propagation(self):
        # 2 + 7 in base 3: digits 2 + [1,2]: both positions carry
        prof = carry_profile(2, 7, 4, 3)
        assert prof.gammas[:3] == (1, 1, 0) and prof.L == 2

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            carry_profile(F(1, 3), 2, 1, 3)

    def test_an_L_that_does_not_end_the_carrying_is_a_failed_check(self):
        # 2 + 7 in base 3 carries at positions 0 and 1 only: L = 2
        prof = carry_profile(2, 7, 4, 3)
        assert dataclasses.replace(prof, L=2) == prof
        # L - 2 is what `L = j - 1` in place of `L = j + 1` in carry_profile gives
        for L in (prof.L - 2, -1, 1, 3, len(prof.gammas) + 1):
            with pytest.raises(CheckFailed, match=f"L = {L} "):
                dataclasses.replace(prof, L=L)
        # a carrying that never stops leaves L unchecked
        assert carry_profile(-3, 5, 4, 2).L == INF


class TestKummer:
    def test_example_twelve_choose_seven(self):
        assert vp_binom_kummer(5, 7, 3) == 2
        assert vp_factorial(12, 3) - vp_factorial(7, 3) - vp_factorial(5, 3) == 2

    def test_zero_lower_index(self):
        assert vp_binom_kummer(F(22, 7), 0, 3) == 0

    def test_half_choose_two(self):
        assert vp_binom_lower(F(1, 2), 2, 3) == vp_rational(F(-1, 8), 3) == 0

    def test_integer_cases_against_factorials(self):
        rng = random.Random(7)
        for _ in range(2000):
            p = rng.choice([2, 3, 5])
            lam = rng.randrange(0, 10**4)
            n = rng.randrange(0, 10**4)
            want = vp_factorial(lam + n, p) - vp_factorial(lam, p) - vp_factorial(n, p)
            assert vp_binom_kummer(lam, n, p) == want

    def test_rational_cases_against_exact_binomials(self):
        rng = random.Random(8)
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            den = rng.choice([t for t in range(1, 20) if t % p != 0])
            lam = F(rng.randrange(-500, 500), den)
            n = rng.randrange(0, 80)
            want = vp_rational(binom_rational(lam + n, n), p)
            assert vp_binom_kummer(lam, n, p) == want

    def test_padic_binom_cross_module(self):
        rng = random.Random(9)
        for _ in range(1000):
            p = rng.choice([2, 3, 5])
            den = rng.choice([t for t in range(1, 10) if t % p != 0])
            lam = F(rng.randrange(-300, 300), den)
            n = rng.randrange(0, 60)
            v1 = vp_binom_lower(lam, n, p)
            v2 = vp_rational(padic_value(padic_binom(lam, n, p, 80)), p)
            if v1 == INF:
                assert v2 == INF or v2 >= 60
            else:
                assert v1 == v2

    def test_carry_stop_iff_negative_integer(self):
        for lam in range(-50, 51):
            for n in range(0, 101):
                prof = carry_profile(lam, n, 1, 3)
                expect_inf = lam < 0 and n >= -lam
                assert (prof.L == INF) == expect_inf, (lam, n)
                assert (vp_binom_kummer(lam, n, 3) == INF) == expect_inf


class TestFamily:
    @pytest.mark.parametrize("p, f, k, d, k_norm", [(3, 1, 1, 4, 1), (2, 1, 1, 3, 1), (3, 1, 3, 4, 3)])
    def test_release_families(self, p, f, k, d, k_norm):
        fam = Family(p, p**f, k, d)
        assert (fam.f, fam.k_norm) == (f, k_norm)
        assert fam.lam == F(k, d) == F(k_norm, p**f + 1)

    def test_normalises_a_proper_divisor(self):
        fam = Family(5, 5, 1, 2)
        assert fam.k_norm == 3 and fam.lam == F(1, 2)
        assert Family(2, 4, 1, 5).f == 2

    def test_index_is_the_special_index_of_k_norm(self):
        def key(idx):
            return (idx.fam.p, idx.fam.q, idx.fam.k_norm, idx.N, idx.n, idx.M, idx.s)

        assert Family(3, 3, 3, 4).index(7) == norm_index(3, 1, 3, 7)
        assert key(Family(5, 5, 1, 2).index(6)) == key(norm_index(5, 1, 3, 6))

    @pytest.mark.parametrize("p, q, k, d, match", [
        (3, 3, 1, 5, "divide"),
        (3, 9, 1, 3, "coprime"),
        (3, 3, 0, 4, "out of range"),
        (3, 3, 5, 4, "out of range"),
        (3, 3, 4, 4, "trivial twist"),
        (4, 4, 1, 5, "not prime"),
    ])
    def test_rejected(self, p, q, k, d, match):
        with pytest.raises(ValueError, match=match):
            Family(p, q, k, d)

    def test_q_must_be_a_power_of_p(self):
        with pytest.raises(ValueError, match="power"):
            Family(3, 5, 1, 2)


class TestSpecialIndex:
    def test_known_instance(self):
        idx = norm_index(3, 1, 1, 6)
        assert (idx.n, idx.M, idx.s) == (456, 5, 92)

    def test_parity_rejection(self):
        with pytest.raises(ValueError):
            norm_index(3, 1, 1, 7)
        with pytest.raises(ValueError):
            norm_index(3, 1, 3, 8)
        with pytest.raises(ValueError):
            norm_index(2, 1, 2, 9)

    def test_k_range(self):
        with pytest.raises(ValueError):
            norm_index(3, 1, 4, 6)
        with pytest.raises(ValueError):
            norm_index(3, 1, 0, 6)

    def test_case_table_for_M(self):
        assert expected_M(1, 3, 6) == 5  # generic small k
        assert expected_M(2, 3, 6) == 4  # k = q - 1
        assert expected_M(3, 3, 7) == 6  # k = q odd level
        assert expected_M(2, 2, 6) == 4  # k = q = 2
        assert expected_M(1, 2, 6) == 3  # k = 1, q = 2

    def test_table_across_grid(self):
        # every (q, k) with q in {2, 3, 5}: both the M value and digit patterns
        for p, f in [(2, 1), (3, 1), (5, 1)]:
            q = p**f
            for k in range(1, q + 1):
                for N in (6, 8, 10):
                    if N % 2 != required_parity(k, q):
                        N += 1
                    idx = norm_index(p, f, k, N)
                    assert idx.M == expected_M(k, q, N)
                    rep = qexp_check(idx)
                    assert rep.ok, (p, k, N, rep)
                    assert rep.s_digits == rep.s_expected
                    assert rep.lam_minus_s_digits == rep.lam_minus_s_expected
                    assert rep.L_last < rep.carry_bound
                    assert rep.second_val == 0

    def test_prime_power_residue_sizes(self):
        # f = 2: the carry bound uses (M+1)f positions, not M+1
        for p, f, k in [(2, 2, 1), (2, 2, 3), (3, 2, 2), (3, 2, 7)]:
            q = p**f
            N = 6 if k <= q - 1 or (k == 2 == q) else 7
            idx = norm_index(p, f, k, N)
            assert idx.fam.q == q and idx.M == expected_M(k, q, N)
            rep = qexp_check(idx)
            assert rep.ok, (p, f, k, rep)
            assert rep.carry_bound == (idx.M + 1) * f

    def test_congruence_defining_n(self):
        for p, f, k, N in [(3, 1, 2, 6), (2, 1, 1, 8), (5, 1, 3, 6)]:
            idx = norm_index(p, f, k, N)
            q = idx.fam.q
            assert (idx.n * (q * q - 1) - q * k) % q**N == 0
            assert 1 <= idx.n <= q**N


class TestTermValuations:
    def test_denominator_examples(self):
        assert denom_valuation(456, 92, 3, 3) == 6
        assert denom_valuation(456, 456, 3, 3) == 0
        assert denom_valuation(456, 91, 3, 3) == 0

    def test_denominator_rule(self):
        idx = norm_index(3, 1, 1, 6)
        for r in range(0, idx.n + 1, 13):
            v = denom_valuation(idx.n, r, idx.fam.q, idx.fam.p)
            if r == idx.s:
                assert v == (idx.M + 1) * idx.fam.f
            else:
                assert v == vp_rational(r - idx.s, idx.fam.p)
                assert v < (idx.M + 1) * idx.fam.f

    def test_dominant_term(self):
        idx = norm_index(3, 1, 1, 6)
        v = dominant_term_valuation(idx)
        assert v == term_valuation(idx, idx.s)
        assert v <= F(3 - idx.N, 2)

    def test_unique_minimum(self):
        for p, f, k, N in [(2, 1, 2, 6), *ORACLE_FAMILIES]:
            idx = norm_index(p, f, k, N)
            r, v = argmin_term_valuation(idx)
            assert r == idx.s and v == dominant_term_valuation(idx)


class TestLegendreScan:
    @pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=str)
    def test_every_term_matches_the_kummer_oracle(self, family):
        idx = norm_index(*family)
        vals = scanned(family)
        assert len(vals) == idx.n + 1
        for r, v in enumerate(vals):
            assert v == term_valuation(idx, r), (family, r)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ORACLE_FAMILIES), st.data())
    def test_drawn_term_matches_the_kummer_oracle(self, family, data):
        idx = norm_index(*family)
        r = data.draw(st.integers(0, idx.n))
        assert scanned(family)[r] == term_valuation(idx, r)


# The sums of at most 3,004 terms at every precision, down to where the
# bookkeeping runs out; the ones of 5,860 to 12,370 terms at the default
# precision.  (5, 1, 5, 7), 61,850 terms, is left out: the step loop alone
# takes 4 s there on a 2-vCPU VM under Python 3.11.
SUM_CASES = [
    (family, prec)
    for family in ORACLE_FAMILIES
    if norm_index(*family).n < 50_000
    for prec in ((1, 2, 3, 5, 20, 60) if norm_index(*family).n <= 3004 else (60,))
]
# two of them, named for the kernel's two bookkeeping branches:
# (2, 1, 1, 6) at prec 60: later terms lower base, at r = 1, 3 and s = 7
LOWERS_BASE = ((2, 1, 1, 6), 60)
# (2, 1, 1, 6) at prec 3: the r = 12 term, of valuation 3, lies p^6 above
# base = -3 and is dropped
DROPS_A_TERM = ((2, 1, 1, 6), 3)


def base_events(vals: tuple[int, ...], prec: int) -> tuple[list[int], list[int]]:
    """The r where a term lowers the least valuation so far, and the r where a
    term lies p^prec or more above it."""
    lowers, drops, base = [], [], vals[0]
    for r, v in enumerate(vals):
        if v < base:
            lowers.append(r)
            base = v
        elif v - base >= prec:
            drops.append(r)
    return lowers, drops


class TestSumKernel:
    @pytest.mark.parametrize("family, prec", SUM_CASES, ids=str)
    def test_same_total_as_the_padic_step_loop(self, family, prec):
        idx = norm_index(*family)
        try:
            want = reference_sum(idx, prec)._key()
        except PrecisionExhausted:
            with pytest.raises(PrecisionExhausted):
                carries._sum_estimate(idx, prec, None)
            return
        assert carries._sum_estimate(idx, prec, None).total._key() == want

    def test_named_cases_take_both_branches(self):
        assert {LOWERS_BASE, DROPS_A_TERM} <= set(SUM_CASES)
        assert base_events(scanned(LOWERS_BASE[0]), LOWERS_BASE[1])[0] == [1, 3, 7]
        assert 12 in base_events(scanned(DROPS_A_TERM[0]), DROPS_A_TERM[1])[1]

    def test_one_modular_inverse_per_sum_and_per_binomial(self, monkeypatch):
        inverses = []

        def counting_pow(x, e, m=None):
            if e == -1:
                inverses.append(m)
            return pow(x, e, m)

        monkeypatch.setattr(carries, "pow", counting_pow, raising=False)
        monkeypatch.setattr(padics, "pow", counting_pow, raising=False)
        for family, prec in [((3, 1, 1, 6), 60), ((2, 2, 1, 6), 20), DROPS_A_TERM]:
            idx = norm_index(*family)
            inverses.clear()
            carries._sum_estimate(idx, prec, None)
            # the carry count behind v_dominant takes its own inverse, mod p
            p = idx.fam.p
            assert inverses.count(p**prec) == 1, family
            inverses.clear()
            padic_binom(idx.fam.lam, idx.n, p, prec + 1)
            assert inverses == [p ** (prec + 1)], family
        inverses.clear()
        assert padic_binom(5, 9, 3, 60).is_zero() and inverses == []

    def test_one_split_per_term_step(self, monkeypatch):
        # cn splits build S_{n,0}, one the r = 0 denominator, one each of the
        # n term quotients and one the final unit
        splits = []
        real = carries._split

        def counting_split(num, den, p):
            splits.append(1)
            return real(num, den, p)

        monkeypatch.setattr(carries, "_split", counting_split)
        for family, prec in [((3, 1, 1, 6), 60), ((2, 1, 1, 6), 60), ((2, 2, 1, 6), 20), DROPS_A_TERM]:
            idx = norm_index(*family)
            splits.clear()
            carries._sum_estimate(idx, prec, None)
            c, n = idx.fam.q - 1, idx.n
            assert len(splits) <= c * n + n + 2, family


class TestSumEstimate:
    def test_small_exact_cross_check(self):
        idx = norm_index(3, 1, 1, 6)
        rep = sum_estimate(idx, 60)
        # exact rational evaluation of the same signed sum
        lam, alpha, q = idx.fam.lam, idx.alpha, idx.fam.q
        total, b1 = F(0), F(1)
        b2 = F(1)
        for i in range(1, (q - 1) * idx.n + 1):
            b2 *= F(alpha + i, i)
        for r in range(idx.n + 1):
            sign = (-1) ** (r + (q - 1) * (idx.n - r))
            total += sign * b1 * b2 / ((idx.n - r) * (q - 1) + 1)
            if r < idx.n:
                b1 *= F(lam - r, r + 1)
                b = (q - 1) * (idx.n - r)
                for j in range(b - q + 2, b + 1):
                    b2 *= F(j, alpha + j)
        assert vp_rational(total, 3) == rep.v_sum == rep.v_dominant == -3
        assert rep.ok

    def test_double_precision_agrees(self):
        idx = norm_index(2, 1, 1, 8)
        r1 = sum_estimate(idx, 50)
        r2 = sum_estimate(idx, 100)
        assert r1.v_sum == r2.v_sum
        assert same_mod(r1.total, r2.total, r1.total.val + 40)

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            sum_estimate(norm_index(3, 1, 1, 12), 64)

    def test_monotone_decrease(self):
        vals = [sum_estimate(norm_index(2, 1, 1, N), 40).v_sum for N in (6, 8, 10)]
        assert vals[0] > vals[1] > vals[2]
        assert all(v <= F(3 - N, 2) for v, N in zip(vals, (6, 8, 10)))


class TestSumMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(carries, "_SUM_MEMO", {})

    @staticmethod
    def counting():
        seen = []
        return seen, lambda r, n: seen.append((r, n))

    def test_repeat_call_returns_the_same_report_without_progress(self):
        idx = norm_index(2, 1, 1, 8)
        seen, progress = self.counting()
        first = sum_estimate(idx, 40, progress=progress)
        assert seen == [(0, idx.n)]
        again = sum_estimate(idx, 40, progress=progress)
        assert again is first and seen == [(0, idx.n)]
        assert sum_estimate(idx, 40) is first  # progress is not part of the key

    def test_another_prec_recomputes(self):
        idx = norm_index(2, 1, 1, 8)
        seen, progress = self.counting()
        r40 = sum_estimate(idx, 40, progress=progress)
        r50 = sum_estimate(idx, 50, progress=progress)
        assert len(seen) == 2 and r50 is not r40
        assert (r40.prec, r50.prec) == (40, 50)
        assert r50.total.relprec == 50 and r40.total.relprec == 40

    def test_raising_sum_is_not_cached(self, monkeypatch):
        idx = norm_index(2, 1, 1, 6)
        real, calls = carries._sum_estimate, []

        def vanishing_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise PrecisionExhausted("sum vanishes")
            return real(*args)

        monkeypatch.setattr(carries, "_sum_estimate", vanishing_once)
        with pytest.raises(PrecisionExhausted):
            sum_estimate(idx, 30)
        assert carries._SUM_MEMO == {}
        rep = sum_estimate(idx, 30)
        assert len(calls) == 2 and rep.ok
        assert sum_estimate(idx, 30) is rep and len(calls) == 2

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(carries, "SUM_MEMO_SIZE", 2)
        idx = norm_index(2, 1, 1, 6)
        reps = [sum_estimate(idx, prec) for prec in (20, 21, 22)]
        assert list(carries._SUM_MEMO) == [(idx, 21), (idx, 22)]
        assert sum_estimate(idx, 22) is reps[2]
        assert sum_estimate(idx, 20) is not reps[0]  # the oldest was dropped
