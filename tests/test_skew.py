import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import padicops
from padicops import skew, twists
from padicops.cli import main
from padicops.padics import vp_rational
from padicops.ratfun import MobiusMap, Poly, RationalFunction, conv
from padicops.skew import (
    DividedPowerOperator,
    SkewLaurentSeries,
    apply_to_function,
    binoma,
    binomb,
    epsilon_valuation,
    from_level_m,
    qfloor,
    star,
    to_level_m,
    transpose,
    zbinom,
)
from padicops.twists import beta_build

from hypothesis import given, settings
from hypothesis import strategies as st

S = SkewLaurentSeries
RF = RationalFunction
rng = random.Random(0)


def rand_op(maxdeg=4, polydeg=2, lo=0):
    coeffs = {}
    hi = lo + rng.randint(1, maxdeg)
    for k in range(lo, hi):
        if rng.random() < 0.75:
            coeffs[k] = Poly(tuple(F(rng.randint(-4, 4)) for _ in range(rng.randint(1, polydeg + 1))))
    return S.of(coeffs or {lo: Poly.of(1)})


small_polys = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=1, max_size=3
).map(lambda cs: Poly(tuple(F(c) for c in cs)))

operators = st.dictionaries(
    st.integers(min_value=-6, max_value=6), small_polys, min_size=1, max_size=4
).map(S.of)


def rand_rf_op(r, lo):
    """A Laurent window from degree lo with pole-carrying coefficients and
    random exactness flags."""
    coeffs = {}
    for k in range(lo, lo + r.randint(1, 5)):
        if r.random() < 0.8:
            num = Poly(tuple(F(r.randint(-5, 5), r.randint(1, 4)) for _ in range(r.randint(1, 3))))
            poles = {F(r.randint(-3, 3), r.choice([1, 2, 3])): r.randint(1, 2) for _ in range(r.randint(0, 2))}
            coeffs[k] = RF(num, poles)
    return S(coeffs or {lo: RF.const(1)}, r.random() < 0.8, r.random() < 0.8)


def reference_star(u, v, lo=None):
    """The star product as first written: every (i, j) pair differentiates
    v_j afresh."""
    if u.is_zero() or v.is_zero():
        return S.zero()
    if lo is None:
        lo = v.lo() if u.lo() >= 0 else u.lo() + v.lo() - 40
    out = {}
    clipped = False
    for i, ui in u.coeffs.items():
        for j, vj in v.coeffs.items():
            m, d = 0, vj
            while True:
                if (i >= 0 and m > i) or d.is_zero():
                    break
                k = i + j - m
                if k < lo:
                    clipped = True
                    break
                b = zbinom(i, m)
                if b:
                    term = (ui * d).scale(b)
                    out[k] = out[k] + term if k in out else term
                m += 1
                d = d.derivative()
    return S(out, u.lo_exact and v.lo_exact and not clipped, u.hi_exact and v.hi_exact)


def blocked_star(u, v, lo=None, hi=None):
    """The star product as the binomial loop wrote it for every i: the terms
    of one i and k are summed first, one binom(i, m) per (i, j, m) term."""
    if u.is_zero() or v.is_zero():
        return S.zero()
    if lo is None:
        lo = v.lo() if u.lo() >= 0 else u.lo() + v.lo() - 40
    out = {}
    clipped = cut = False
    derivs = {j: [vj] for j, vj in v.coeffs.items()}
    for i, ui in u.coeffs.items():
        inner = {}
        for j, dj in derivs.items():
            m = 0 if hi is None or i + j <= hi else i + j - hi
            cut = cut or m > 0
            while not (i >= 0 and m > i):
                while m >= len(dj):
                    dj.append(dj[-1].derivative())
                if dj[m].is_zero():
                    break
                k = i + j - m
                if k < lo:
                    clipped = True
                    break
                term = dj[m].scale(zbinom(i, m))
                inner[k] = inner[k] + term if k in inner else term
                m += 1
        for k, sk in inner.items():
            term = ui * sk
            out[k] = out[k] + term if k in out else term
    return S(out, u.lo_exact and v.lo_exact and not clipped, u.hi_exact and v.hi_exact and not cut)


class TestStarProduct:
    def test_commutator_is_derivative(self):
        a, d = S.of({0: Poly.of(1, 2, 5)}), S.of({1: 1})
        assert star(d, a) - star(a, d) == S.of({0: Poly.of(2, 10)})

    def test_descending_expansion_of_power_times_function(self):
        # D^3 * x^2 expands with binomial-weighted derivatives
        lhs = star(S.of({3: 1}), S.of({0: Poly.of(0, 0, 1)}))
        assert lhs == S.of({3: Poly.of(0, 0, 1), 2: Poly.of(0, 6), 1: Poly.of(6)})

    def test_identity(self):
        v = S.of({-2: Poly.of(1, 1), 0: Poly.of(3), 2: Poly.of(0, 1)})
        assert star(S.one(), v) == v
        assert star(v, S.one()) == v

    def test_negative_binomials(self):
        assert zbinom(-1, 3) == -1
        assert zbinom(-2, 2) == 3
        assert zbinom(3, 5) == 0

    def test_associativity_on_laurent_windows(self):
        for _ in range(300):
            u = rand_op(lo=rng.randint(-20, 8))
            v = rand_op(lo=rng.randint(-20, 8))
            w = rand_op(lo=rng.randint(-20, 8))
            lhs = star(star(u, v), w)
            rhs = star(u, star(v, w))
            assert lhs.lo_exact and rhs.lo_exact  # no clipping: products are finite
            assert lhs == rhs

    @given(u=operators, v=operators, w=operators)
    @settings(max_examples=60, deadline=None)
    def test_associativity_property(self, u, v, w):
        lhs = star(star(u, v), w)
        rhs = star(u, star(v, w))
        assert lhs.lo_exact and rhs.lo_exact
        assert lhs == rhs

    @given(u=operators, v=operators)
    @settings(max_examples=60, deadline=None)
    def test_distributivity_property(self, u, v):
        w = S.of({0: Poly.of(1, 1), 2: Poly.of(3)})
        assert star(u + v, w) == star(u, w) + star(v, w)
        assert star(w, u + v) == star(w, u) + star(w, v)

    def test_classical_skew_multiplication_oracle(self):
        def naive(u, v):
            out: dict = {}
            for i, ui in u.coeffs.items():
                for j, vj in v.coeffs.items():
                    for m in range(i + 1):
                        d = vj
                        for _ in range(m):
                            d = d.derivative()
                        if d.is_zero():
                            continue
                        t = (ui * d).scale(math.comb(i, m))
                        out[i + j - m] = out.get(i + j - m, RF.const(0)) + t
            return S({k: c for k, c in out.items()})

        for _ in range(100):
            u, v = rand_op(4, 3), rand_op(4, 3)
            assert star(u, v) == naive(u, v)

    def test_matches_per_pair_reference_on_laurent_windows(self):
        r = random.Random(7)
        for _ in range(120):
            u = rand_rf_op(r, r.randint(-6, 2))
            v = rand_rf_op(r, r.randint(-6, 2))
            lo = r.randint(-16, 2)
            got, want = star(u, v, lo), reference_star(u, v, lo)
            assert got.coeffs == want.coeffs
            assert (got.lo_exact, got.hi_exact) == (want.lo_exact, want.hi_exact)

    @given(u=operators, v=operators, lo=st.none() | st.integers(min_value=-14, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pair_reference_property(self, u, v, lo):
        got, want = star(u, v, lo), reference_star(u, v, lo)
        assert got.coeffs == want.coeffs and got.lo_exact == want.lo_exact

    def test_upper_cut_matches_the_restricted_reference_on_laurent_windows(self):
        # mixed-sign u, Laurent v, lo above v's lower edge: both halves of
        # star, on RF windows with poles and on pole-free ones
        r = random.Random(11)
        for _ in range(240):
            if r.random() < 0.5:
                u, v = rand_rf_op(r, r.randint(-6, 2)), rand_rf_op(r, r.randint(-6, 2))
            else:
                u, v = rand_op(5, 3, lo=r.randint(-6, 2)), rand_op(5, 3, lo=r.randint(-6, 2))
            lo = r.choice([None, r.randint(-16, 2), v.lo() + r.randint(1, 4)])
            hi = r.randint(-10, 8)
            self._check_cut(u, v, lo, hi)

    @given(u=operators, v=operators, lo=st.none() | st.integers(min_value=-14, max_value=4),
           hi=st.integers(min_value=-14, max_value=14))
    @settings(max_examples=80, deadline=None)
    def test_upper_cut_matches_the_restricted_reference_property(self, u, v, lo, hi):
        self._check_cut(u, v, lo, hi)

    @staticmethod
    def _check_cut(u, v, lo, hi):
        if u.is_zero() or v.is_zero():
            assert star(u, v, lo, hi).is_zero()
            return
        window_lo = lo if lo is not None else v.lo() if u.lo() >= 0 else u.lo() + v.lo() - 40
        if hi < window_lo:
            with pytest.raises(ValueError, match="empty window"):
                star(u, v, lo, hi)
            return
        got, want = star(u, v, lo, hi), reference_star(u, v, lo)
        assert got.coeffs == {k: c for k, c in want.coeffs.items() if k <= hi}
        cut = any(i + j > hi for i in u.coeffs for j in v.coeffs)
        assert got.hi_exact == (want.hi_exact and not cut)
        assert got.lo_exact == want.lo_exact
        uncut = star(u, v, lo, hi=None)
        assert uncut.coeffs == want.coeffs
        assert (uncut.lo_exact, uncut.hi_exact) == (want.lo_exact, want.hi_exact)
        for new, old in ((got, blocked_star(u, v, lo, hi)), (uncut, blocked_star(u, v, lo))):
            assert new.coeffs == old.coeffs
            assert (new.lo_exact, new.hi_exact) == (old.lo_exact, old.hi_exact)

    def test_clipping_below_lo_follows_the_surviving_derivatives(self):
        # D^i * a D^j reaches D^(j+i-m) with delta^m(a) for m <= i: a lo above j
        # clips only if a nonzero derivative lands below it
        x2 = S.of({-2: Poly.of(0, 0, 1)})  # x^2 D^-2: delta^3(x^2) = 0
        for i, lo, clipped in [(1, -1, True), (1, -2, False), (0, -1, True), (2, -1, True),
                               (3, -1, False), (3, 0, True), (4, 0, False), (4, 1, True)]:
            got = star(S.of({i: 1}), x2, lo=lo)
            assert got.lo_exact is not clipped, (i, lo)
            assert got == blocked_star(S.of({i: 1}), x2, lo=lo)
        pole = S({-2: RF(Poly.of(1), {0: 1})})  # a pole never dies out
        assert not star(S.of({3: 1}), pole, lo=0).lo_exact
        assert star(S.of({3: 1}), pole, lo=-2).lo_exact

    def test_one_product_per_left_coefficient_and_output_degree(self, monkeypatch):
        u = beta_build(MobiusMap.of(6, 5, 25, 1), 8)
        v = beta_build(MobiusMap.of(1, 10, 5, 1), 8)
        calls = []
        mul = RF.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(RF, "__mul__", counting_mul)
        prod = star(u, v, hi=8)
        monkeypatch.undo()
        # the output degrees are 0..8; pair by pair this was one product per (i, j, m)
        assert len(calls) <= len(u.coeffs) * 9
        want = reference_star(u, v)
        assert prod.coeffs == {k: c for k, c in want.coeffs.items() if k <= 8}

    def test_an_inner_sum_that_cancels_is_dropped(self, monkeypatch):
        # D * (f - f' D^-1) = f D - f'' D^-1: for i = 1 the degree-0 inner sum
        # is f' - f' = 0, and u_1 multiplies only the nonzero inner sums
        for f in (RF(Poly.of(0, 1)), RF(Poly.of(1), {1: 1}), RF(Poly.of(2, 0, 3), {F(1, 2): 2, -1: 1})):
            v = S({0: f, -1: -f.derivative()})
            for u in (S.of({1: 1}), S({1: RF(Poly.of(1, 1), {2: 1}), 0: RF(Poly.of(3), {0: 1})})):
                got, want = star(u, v), reference_star(u, v)
                assert got.coeffs == want.coeffs
                assert (got.lo_exact, got.hi_exact) == (want.lo_exact, want.hi_exact)
            d, want = S.of({1: 1}), S({1: f, -1: -f.derivative().derivative()})
            # the products run at the loop's coefficient type: integer lists
            # (skew.conv) for f with one pole point at most, RF for the one
            # with poles at two points
            calls = []
            if len(f.den_factors) > 1:
                mul = RF.__mul__
                monkeypatch.setattr(RF, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
            else:
                monkeypatch.setattr(skew, "conv", lambda a, b: calls.append(1) or conv(a, b))
            got = star(d, v)
            monkeypatch.undo()
            assert got == want
            assert len(calls) == len(want.coeffs)

    def test_ring_action_on_functions(self):
        for _ in range(100):
            u, v = rand_op(3), rand_op(3)
            f = Poly.of(*[rng.randint(-3, 3) for _ in range(5)])
            assert apply_to_function(star(u, v), f) == apply_to_function(u, apply_to_function(v, f))


class TestTranspose:
    def test_first_order(self):
        t = transpose(S.of({1: Poly.of(0, 1)}))
        assert t == S.of({1: Poly.of(0, -1), 0: Poly.of(-1)})

    def test_fixes_functions(self):
        a = S.of({0: Poly.of(1, 2)})
        assert transpose(a) == a

    def test_involution(self):
        for _ in range(100):
            u = rand_op()
            assert transpose(transpose(u)) == u

    def test_antihomomorphism(self):
        for _ in range(60):
            u, v = rand_op(), rand_op()
            assert transpose(star(u, v)) == star(transpose(v), transpose(u))

    def test_needs_nonnegative_window(self):
        with pytest.raises(ValueError):
            transpose(S.of({-1: 1}))

    def test_derives_each_coefficient_only_to_degree_zero(self, monkeypatch):
        # a_j D^j needs delta^0..delta^j(a_j): j derivatives, none past k = 0
        u = S({j: RF(Poly.of(1, j, 2), {F(j, 3): 1}) for j in (0, 1, 3, 4)})
        calls = []
        derivative = RF.derivative
        monkeypatch.setattr(RF, "derivative", lambda a: calls.append(1) or derivative(a))
        transpose(u)
        assert len(calls) == 0 + 1 + 3 + 4


def count_rf_products_and_derivatives(monkeypatch) -> list:
    calls = []
    for name in ("__mul__", "derivative"):
        real = getattr(RF, name)
        monkeypatch.setattr(RF, name, lambda *a, real=real: calls.append(1) or real(*a))
    return calls


def force_rf_path(monkeypatch):
    """Make star and transpose see poles at two points: the loops then run on
    the windows' RationalFunctions."""
    monkeypatch.setattr(skew, "_poles", lambda *ws: {F(0), F(1)})


class TestPoleFreePath:
    """Windows whose coefficients have one pole point at most run star and
    transpose on integer lists."""

    def test_matches_the_reference_and_the_rf_path(self, monkeypatch):
        pairs = [(rand_op(), rand_op()) for _ in range(40)]
        pairs += [(rand_op(lo=-2), rand_op(lo=-1)) for _ in range(10)]
        calls = count_rf_products_and_derivatives(monkeypatch)
        got = [(star(u, v), star(u, v, hi=2), transpose(u) if u.lo() >= 0 else None) for u, v in pairs]
        monkeypatch.undo()
        assert not calls
        # the same loop on RF coefficients, as windows with two pole points take it
        force_rf_path(monkeypatch)
        for (u, v), (full, cut, t) in zip(pairs, got):
            want = reference_star(u, v)
            checks = [(full, star(u, v)), (cut, star(u, v, hi=2))]
            if t is not None:
                checks.append((t, transpose(u)))
            for got_w, rf_w in checks:
                assert got_w == rf_w
                assert (got_w.lo_exact, got_w.hi_exact) == (rf_w.lo_exact, rf_w.hi_exact)
                assert all(type(c) is RF and c.den_factors == () for c in got_w.coeffs.values())
            assert full == want and (full.lo_exact, full.hi_exact) == (want.lo_exact, want.hi_exact)
            assert cut.coeffs == {k: c for k, c in want.coeffs.items() if k <= 2}

    def test_integer_loops_match_the_references_and_the_rf_path(self, monkeypatch):
        # Fraction coefficients (the Dwork H has c_k/k!), Laurent windows,
        # explicit lo, hi cuts and both exactness flags
        r = random.Random(19)

        def pole_free(lo):
            coeffs = {k: RF(Poly(F(r.randint(-5, 5), r.randint(1, 6)) for _ in range(r.randint(1, 4))))
                      for k in range(lo, lo + r.randint(1, 5)) if r.random() < 0.8}
            return S(coeffs or {lo: RF.const(F(1, 3))}, r.random() < 0.8, r.random() < 0.8)

        cases = []
        for _ in range(150):
            u, v = pole_free(r.randint(-4, 3)), pole_free(r.randint(-6, 3))
            lo = r.choice([None, r.randint(-14, 2), v.lo() + r.randint(1, 3)])
            window_lo = lo if lo is not None else v.lo() if u.lo() >= 0 else u.lo() + v.lo() - 40
            hi = r.choice([None, r.randint(window_lo, window_lo + 10)])
            cases.append((u, v, lo, hi))
        calls = count_rf_products_and_derivatives(monkeypatch)
        got = [(star(u, v, lo, hi), transpose(u) if u.lo() >= 0 else None) for u, v, lo, hi in cases]
        monkeypatch.undo()
        assert not calls
        force_rf_path(monkeypatch)
        for (u, v, lo, hi), (prod, t) in zip(cases, got):
            want, old = reference_star(u, v, lo), blocked_star(u, v, lo, hi)
            cut = hi is not None and any(i + j > hi for i in u.coeffs for j in v.coeffs)
            assert prod.coeffs == {k: c for k, c in want.coeffs.items() if hi is None or k <= hi}
            assert (prod.lo_exact, prod.hi_exact) == (want.lo_exact, want.hi_exact and not cut)
            for new, ref in [(prod, old), (prod, star(u, v, lo, hi))] + ([(t, transpose(u))] if t else []):
                assert new.coeffs == ref.coeffs
                assert (new.lo_exact, new.hi_exact) == (ref.lo_exact, ref.hi_exact)
                assert all(type(c) is RF and c.den_factors == () for c in new.coeffs.values())

    def test_one_pole_point_makes_no_rf_product(self, monkeypatch):
        u = S({0: RF(Poly.of(1, 2)), 1: RF(Poly.of(3), {F(1, 2): 1}), 2: RF(Poly.of(0, 1), {F(1, 2): 2})})
        v = rand_op()
        calls = count_rf_products_and_derivatives(monkeypatch)
        uv, vu, t = star(u, v), star(v, u), transpose(u)
        monkeypatch.undo()
        assert not calls
        assert uv == reference_star(u, v) and vu == reference_star(v, u)
        assert transpose(t) == u and transpose(uv) == star(transpose(v), t)

    def test_two_pole_points_take_the_rf_path(self, monkeypatch):
        u = S({0: RF(Poly.of(1, 2)), 1: RF(Poly.of(3), {F(1, 2): 1}), 2: RF(Poly.of(0, 1), {-1: 1})})
        v = rand_op()
        calls = count_rf_products_and_derivatives(monkeypatch)
        uv, vu = star(u, v), star(v, u)
        assert len(calls) > 0
        calls.clear()
        t = transpose(u)
        assert len(calls) > 0
        monkeypatch.undo()
        assert uv == reference_star(u, v) and vu == reference_star(v, u)
        assert transpose(t) == u and transpose(uv) == star(transpose(v), t)

    def test_laurent_kernel_matches_the_references_and_the_rf_path(self, monkeypatch):
        # every coefficient has its pole, if any, at one point r; Laurent u,
        # explicit lo, hi cuts and both exactness flags
        r = random.Random(23)

        def one_pole(point, lo):
            coeffs = {}
            for k in range(lo, lo + r.randint(1, 4)):
                if r.random() < 0.8:
                    num = Poly(F(r.randint(-5, 5), r.randint(1, 4)) for _ in range(r.randint(1, 3)))
                    coeffs[k] = RF(num, {point: r.randint(0, 3)})
            return S(coeffs or {lo: RF(Poly.of(1), {point: 1})}, r.random() < 0.8, r.random() < 0.8)

        cases = []
        for _ in range(48):
            point = r.choice([F(0), F(3), F(1, 2), F(-2, 9)])
            u, v = one_pole(point, r.randint(-4, 2)), one_pole(point, r.randint(-5, 2))
            lo = r.choice([None, r.randint(-12, 1), v.lo() + r.randint(1, 3)])
            window_lo = lo if lo is not None else v.lo() if u.lo() >= 0 else u.lo() + v.lo() - 40
            hi = r.choice([None, r.randint(window_lo, window_lo + 8)])
            cases.append((u, v, lo, hi))
        assert any(c.den_factors for u, v, _, _ in cases for c in u.coeffs.values())
        calls = count_rf_products_and_derivatives(monkeypatch)
        got = [(star(u, v, lo, hi), transpose(u) if u.lo() >= 0 else None) for u, v, lo, hi in cases]
        monkeypatch.undo()
        assert not calls
        force_rf_path(monkeypatch)
        for (u, v, lo, hi), (prod, t) in zip(cases, got):
            want = reference_star(u, v, lo)
            cut = hi is not None and any(i + j > hi for i in u.coeffs for j in v.coeffs)
            assert prod.coeffs == {k: c for k, c in want.coeffs.items() if hi is None or k <= hi}
            assert (prod.lo_exact, prod.hi_exact) == (want.lo_exact, want.hi_exact and not cut)
            for new, ref in [(prod, star(u, v, lo, hi))] + ([(t, transpose(u))] if t else []):
                assert new.coeffs == ref.coeffs
                assert (new.lo_exact, new.hi_exact) == (ref.lo_exact, ref.hi_exact)

    def test_star_props_makes_no_rf_product_or_derivative(self, monkeypatch, capsys):
        default = os.path.join(os.path.dirname(__file__), os.pardir, "default.toml")
        calls = count_rf_products_and_derivatives(monkeypatch)
        assert main(["star-props", "--config", default]) == 0
        monkeypatch.undo()
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
        assert not calls


class TestMicroInverse:
    """micro-inverse is the stage that runs star on Laurent windows, all with
    their poles at x = 0, so it is the certificate that guards the kernel."""

    default = os.path.join(os.path.dirname(__file__), os.pardir, "default.toml")

    def test_star_calls_make_no_rf_product_or_derivative(self, monkeypatch, capsys):
        # the h-sequences are built on RFs outside star; count only inside it
        calls, inside = [], []
        for name in ("__mul__", "derivative"):
            real = getattr(RF, name)

            def counting(*a, real=real):
                if inside:
                    calls.append(1)
                return real(*a)

            monkeypatch.setattr(RF, name, counting)
        stars = []

        def counted_star(*a, **kw):
            stars.append(1)
            inside.append(1)
            try:
                return star(*a, **kw)
            finally:
                inside.pop()

        monkeypatch.setattr(twists, "star", counted_star)
        assert main(["micro-inverse", "--config", self.default]) == 0
        monkeypatch.undo()
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
        assert len(stars) == 12 and not calls

    def test_a_broken_kernel_fails_the_certificate(self, monkeypatch, capsys):
        real = skew._delta

        def flipped(a):
            e, c = real(a)
            return e, [-x for x in c]

        monkeypatch.setattr(skew, "_delta", flipped)
        assert main(["micro-inverse", "--config", self.default]) == 1
        monkeypatch.undo()
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        assert not any("error" in row for row in report["rows"])
        assert any(not row["ok"] for row in report["rows"])


class TestApply:
    def test_divided_powers_on_monomials(self):
        for n in range(4):
            dn = S.of({n: F(1, math.factorial(n))})
            got = apply_to_function(dn, Poly.of(*([0] * 5 + [1])))
            want = RF(Poly.of(*([0] * (5 - n) + [math.comb(5, n)])))
            assert got == want

    def test_euler_weight(self):
        assert apply_to_function(S.of({1: Poly.of(0, 1)}), Poly.of(0, 0, 0, 1)) == RF(
            Poly.of(0, 0, 0, 3)
        )

    def test_lowest_term_detection(self):
        # Q = sum a_n D^n with minimal a_m != 0 sends x^m to m! a_m
        q = S.of({2: Poly.of(5), 3: Poly.of(0, 1)})
        assert apply_to_function(q, Poly.of(0, 0, 1)) == RF.const(10)


class TestLevelM:
    def test_level_zero_is_classical(self):
        u = S.of({3: Poly.of(1), 1: Poly.of(0, 2)})
        op = to_level_m(u, 0, 3)
        assert from_level_m(op) == u
        for n in range(20):
            assert epsilon_valuation(n, 0, 3) == 0

    def test_epsilon_window(self):
        for p, m in [(2, 1), (3, 2), (3, 3), (5, 2)]:
            for n in range(0, 10**4, 89):
                assert -m <= epsilon_valuation(n, m, p) <= 0
                assert -m <= epsilon_valuation(-n, m, p) <= 0

    def test_product_rule(self):
        p, m = 3, 2
        for k in range(10):
            for kp in range(10):
                u = from_level_m(DividedPowerOperator(m, p, ((k, RF.const(1)),)))
                v = from_level_m(DividedPowerOperator(m, p, ((kp, RF.const(1)),)))
                got = dict(to_level_m(star(u, v), m, p).coeffs)[k + kp]
                want = binoma(k + kp, k, m, p)
                assert got == RF.const(want)
                assert vp_rational(want, p) >= 0  # the scaled binomial is p-integral
                assert isinstance(binomb(k + kp, k, m, p), int)

    def test_commutation_rule(self):
        p = 3
        fpoly = Poly.of(1, 2, 0, 1)
        for m in (0, 1, 2):
            self._check_commutation(p, m, fpoly)

    def _check_commutation(self, p, m, fpoly):
        for k in list(range(9)) + [15, 27, 30]:
            u = from_level_m(DividedPowerOperator(m, p, ((k, RF.const(1)),)))
            lhs = star(u, S.of({0: fpoly}))
            acc: dict = {}
            for kp in range(k + 1):
                d = RF(fpoly)
                for _ in range(kp):
                    d = d.derivative()
                c = F(math.factorial(qfloor(kp, m, p)), math.factorial(kp)) * binomb(k, kp, m, p)
                term = star(
                    S.of({0: d.scale(c)}),
                    from_level_m(DividedPowerOperator(m, p, ((k - kp, RF.const(1)),))),
                )
                for kk, vv in term.coeffs.items():
                    acc[kk] = acc.get(kk, RF.const(0)) + vv
            assert lhs == S(acc)

    def test_round_trip(self):
        for _ in range(50):
            u = rand_op()
            for m in (1, 2, 3):
                assert from_level_m(to_level_m(u, m, 3)) == u

    def test_binomb_check_survives_optimize_flag(self):
        # binomb's divisibility check must be a raise, not an assert that -O
        # strips: force a non-dividing triple through a patched qfloor
        src = os.path.dirname(os.path.dirname(padicops.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "from padicops import skew\n"
            "skew.qfloor = lambda k, m, p: 1 if k == 4 else 2\n"
            "print(skew.binomb(4, 2, 1, 3))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode != 0 and "ValueError" in proc.stderr, proc.stdout + proc.stderr
