import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from padicops.cheeses import gauss_valuation
from padicops.padics import binom_rational, vp_factorial
from oracles import h_closed_form_monomial, mobius_inverse, relator
from padicops.ratfun import MobiusMap, Poly, RationalFunction
from padicops import twists
from padicops.cli import main
from padicops.skew import SkewLaurentSeries, apply_to_function, star
from padicops.twists import (
    beta_build,
    beta_homomorphism_ok,
    beta_substitution_exact,
    beta_tail_valuation,
    cocycle,
    cocycle_identities,
    cocycle_partial_sums,
    displacement,
    h_sequence,
    in_group_of_radius,
    micro_inverse_residual,
    theta_apply,
    theta_partial,
    xi_build,
)

S = SkewLaurentSeries
RF = RationalFunction
x = RF.x()


class TestHSequence:
    def test_h1_is_scaled_dlog(self):
        tw = h_sequence(x, 2, 6, 5)
        assert tw.h[1] == RF.from_factors(F(-1, 2), {0: -1})
        assert tw.h[0] == RF.const(1)

    def test_trivial_unit(self):
        tw = h_sequence(RF.const(1), 3, 5, 5)
        assert all(h.is_zero() for h in tw.h[1:])

    def test_monomial_closed_form(self):
        for alpha, k, d in [(2, 1, 2), (0, 2, 3), (-1, 3, 4)]:
            tw = h_sequence(RF.from_factors(1, {alpha: k}), d, 8, 5)
            for n in range(9):
                assert tw.h[n] == h_closed_form_monomial(alpha, k, d, n)

    def test_p_dividing_d_rejected(self):
        with pytest.raises(ValueError):
            h_sequence(x, 6, 4, 3)

    def test_memo_returns_the_same_sequence_for_equal_units(self):
        tw = h_sequence(RF.from_factors(2, {0: 1, 5: -2}), 3, 9, 5)
        again = h_sequence(RF(Poly.of(0, 2), {5: 2}), 3, 9, 5)
        assert again is tw and all(type(h) is RF for h in tw.h)
        assert h_sequence(x, 3, 9, 5) is not h_sequence(x, 3, 8, 5)

    def test_cocycle_check_builds_one_sequence_per_distinct_unit(self, capsys):
        h_sequence.cache_clear()
        default = Path(__file__).resolve().parent.parent / "default.toml"
        assert main(["cocycle-check", "--config", str(default)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
        info = h_sequence.cache_info()
        # 25 samples of (u, uv, v) draw u from 9 units and v from 2
        assert (info.hits + info.misses, info.misses) == (75, 21)

    def test_convolution_recurrence(self):
        # the alternative recurrence (l+1) h[l+1] = sum h[n] D^[l-n](h[1])
        u = RF.from_factors(F(2), {0: 2, 1: -1})
        tw = h_sequence(u, 3, 31, 5)
        for ell in range(30):
            rhs = RF.const(0)
            for n in range(ell + 1):
                dh = tw.h[1]
                for _ in range(ell - n):
                    dh = dh.derivative()
                rhs = rhs + tw.h[n] * dh.scale(F(1, math.factorial(ell - n)))
            assert tw.h[ell + 1].scale(ell + 1) == rhs


class TestTheta:
    def test_on_partial(self):
        tw = h_sequence(x, 2, 3, 5)
        assert theta_partial(tw) == S.of({1: RF.const(1), 0: tw.h[1]})

    def test_identity_twist(self):
        tw = h_sequence(RF.const(5), 3, 6, 5)
        q = S.of({2: Poly.of(1, 1), 0: Poly.of(3)})
        assert theta_apply(tw, q) == q

    def test_multiplicativity(self):
        u1 = RF.from_factors(1, {0: 1})
        u2 = RF.from_factors(1, {1: 2})
        tw1, tw2 = h_sequence(u1, 5, 12, 3), h_sequence(u2, 5, 12, 3)
        tw12 = h_sequence(u1 * u2, 5, 12, 3)
        for n in range(11):
            dn = S.of({n: F(1, math.factorial(n))})
            assert theta_apply(tw12, dn) == theta_apply(tw1, theta_apply(tw2, dn))

    def test_sums_before_it_scales(self, monkeypatch):
        def per_term(tw, q):
            # one RF scale per (n, a) term, as first written
            out = {}
            for n, an in q.coeffs.items():
                for a in range(n + 1):
                    term = an * tw.h[n - a].scale(F(math.factorial(n), math.factorial(a)))
                    if not term.is_zero():
                        out[a] = out[a] + term if a in out else term
            return S(out, q.lo_exact, q.hi_exact)

        tw = h_sequence(RF.from_factors(F(2, 3), {0: 1, F(1, 2): -2}), 3, 10, 5)
        r = random.Random(29)
        for depth in (0, 3, 10):
            q = S({n: RF(Poly.of(r.randint(-3, 3), 1), {F(n, 2): 1}) for n in range(depth + 1)},
                  hi_exact=False)
            assert theta_apply(tw, q) == per_term(tw, q)
            assert theta_apply(tw, q).hi_exact is False
        bg = beta_build(MobiusMap.of(1, 3, 9, 1), 10)
        scales = []
        real = RF.scale
        monkeypatch.setattr(RF, "scale", lambda a, c: scales.append(1) or real(a, c))
        got = theta_apply(tw, bg)
        monkeypatch.undo()
        assert got == per_term(tw, bg)
        assert len(scales) == 2 * len(bg.coeffs)  # 22 at depth 10, not 66

    def test_depth_guard(self):
        tw = h_sequence(x, 2, 3, 5)
        with pytest.raises(ValueError):
            theta_apply(tw, S.of({5: 1}))

    def test_symbol_action_on_root_generator(self):
        # P acting on the d-th root generator of (x-a)^k multiplies it by
        # sum binom(k/d, n) n! P_n (x-a)^(-n)
        a, k, d = F(1), 2, 3
        u = RF.from_factors(1, {a: k})
        tw_inv = h_sequence(u.inverse(), d, 12, 5)
        rng = random.Random(17)
        for _ in range(20):
            P = {n: Poly.of(*[rng.randint(-3, 3) for _ in range(2)]) for n in range(rng.randint(1, 6))}
            Pop = S.of(P)
            got = theta_apply(tw_inv, Pop)[0]
            want = RF.const(0)
            for n, Pn in P.items():
                c = binom_rational(F(k, d), n) * math.factorial(n)
                want = want + RF(Pn) * RF(Poly.of(1), {a: n}).scale(c)
            assert got == want

    def test_operator_recursion_for_relator_products(self):
        # Q * ((x-a) D - k/d) has coefficients (n - k/d) Q_n + (x-a) Q_{n-1}
        a, k, d = F(2), 3, 4
        R = S.of({1: Poly.x_minus(a), 0: Poly.of(F(-k, d))})
        rng = random.Random(23)
        for _ in range(20):
            Q = {n: Poly.of(*[rng.randint(-3, 3) for _ in range(3)]) for n in range(rng.randint(1, 6))}
            Qop = S.of(Q)
            got = star(Qop, R)
            want: dict = {}
            for n in range(max(Q) + 2):
                qn = RF(Q.get(n, Poly(())))
                qn1 = RF(Q.get(n - 1, Poly(())))
                val = qn.scale(n - F(k, d)) + RF(Poly.x_minus(a)) * qn1
                if not val.is_zero():
                    want[n] = val
            assert got == S(want)

    def test_relator_factorisations(self):
        # R_S(u,d) = Delta_S theta_u(D) = theta_{u Delta^d}(D) Delta_S,
        # and R_S(uv,d) = theta_u(R_S(v,d))
        d = 5
        u = RF.from_factors(F(3), {0: 2, 1: -1})
        v = RF.from_factors(1, {0: -1, 1: 2})
        pts = {F(0), F(1)}
        delta = RF(Poly.of(0, 1) * Poly.x_minus(1))

        def as_series(op):
            return S.of({1: op.c1, 0: op.c0})

        R_u = as_series(relator(pts, u, d))
        tw_u = h_sequence(u, d, 4, 3)
        assert R_u == star(S.of({0: delta}), theta_partial(tw_u))
        tw_shift = h_sequence(u * delta**d, d, 4, 3)
        assert R_u == star(theta_partial(tw_shift), S.of({0: delta}))
        R_uv = as_series(relator(pts, u * v, d))
        R_v = as_series(relator(pts, v, d))
        assert R_uv == theta_apply(tw_u, R_v)


class TestMicroInverse:
    def test_xi_leading_coefficients(self):
        tw = h_sequence(RF.from_factors(1, {0: 3}), 2, 10, 5)
        xi = xi_build(tw, 8)
        assert xi[-1] == RF.const(1)
        assert xi[-2] == RF.from_factors(F(3, 2), {0: -1})

    def test_trivial_unit_is_exact_inverse(self):
        tw = h_sequence(RF.const(1), 3, 10, 5)
        xi = xi_build(tw, 8)
        prod = star(xi, theta_partial(tw), lo=-10)
        assert prod == S.one()

    def test_residuals_meet_threshold(self):
        for k, d in [(1, 2), (2, 3), (3, 2)]:
            r1, r2 = micro_inverse_residual(x**k, d, 20, 5)
            assert r1.ok and r2.ok
            assert r1.threshold == vp_factorial(20, 5)

    def test_residuals_grow_with_window(self):
        r1, _ = micro_inverse_residual(x, 2, 20, 5)
        r1b, _ = micro_inverse_residual(x, 2, 40, 5)
        assert min(v for _, v in r1b.residuals) > min(v for _, v in r1.residuals)

    def test_window_interior_exactly_zero(self):
        r1, r2 = micro_inverse_residual(x**2, 3, 12, 5)
        for rep in (r1, r2):
            lo, hi = rep.exact_zero_range
            for deg, _ in rep.residuals:
                assert not (lo <= deg < hi)

    def test_product_of_monomials(self):
        u = RF.from_factors(1, {0: 1, 2: 2})
        r1, r2 = micro_inverse_residual(u, 3, 14, 5)
        assert r1.ok and r2.ok


def drop_top_term(g, depth):
    """beta_build with its highest retained term missing."""
    b = beta_build(g, depth)
    return S({k: c for k, c in b.coeffs.items() if k != depth}, hi_exact=False)


HOM_PAIRS = [
    (MobiusMap.translation(5), MobiusMap.translation(10)),
    (MobiusMap.of(6, 5, 25, 1), MobiusMap.translation(5)),
    (MobiusMap.of(1, 5, 50, 6), MobiusMap.of(6, 0, 25, 1)),
]


class TestBeta:
    def test_translation_coefficients(self):
        b = beta_build(MobiusMap.translation(5), 6)
        assert b[3] == RF.const(F(125, 6))
        assert beta_build(MobiusMap.of(1, 0, 0, 1), 5) == S.one()

    def test_substitution_on_monomials_exact(self):
        g = MobiusMap.translation(5)
        b = beta_build(g, 30)
        for m in range(31):
            assert apply_to_function(b, x**m) == (x + RF.const(5)) ** m

    def test_substitution_check(self, monkeypatch):
        assert beta_substitution_exact(MobiusMap.translation(5), 30)
        assert beta_substitution_exact(MobiusMap.of(6, 5, 25, 1), 6)
        monkeypatch.setattr(twists, "beta_build", drop_top_term)
        assert not beta_substitution_exact(MobiusMap.translation(5), 6)

    def test_homomorphism_check(self, monkeypatch):
        assert all(beta_homomorphism_ok(g, h, 8, 5) for g, h in HOM_PAIRS)
        monkeypatch.setattr(twists, "beta_build", drop_top_term)
        assert not any(beta_homomorphism_ok(g, h, 8, 5) for g, h in HOM_PAIRS)

    def test_group_membership(self):
        assert in_group_of_radius(MobiusMap.translation(5), 5, F(-1, 4))
        assert not in_group_of_radius(MobiusMap.translation(1), 5, F(-1, 4))
        assert not in_group_of_radius(MobiusMap.of(1, 0, 1, 1), 5, F(-1, 4))
        assert in_group_of_radius(MobiusMap.of(6, 5, 25, 1), 5, F(-1, 4))

    def test_homomorphism_within_tail_bounds(self):
        p, depth = 5, 8
        for g, h in HOM_PAIRS:
            tau = min(beta_tail_valuation(g, depth, p), beta_tail_valuation(h, depth, p))
            prod = star(beta_build(g, depth), beta_build(h, depth))
            bgh = beta_build(g * h, depth)
            for k in range(depth + 1):
                diff = prod[k] - bgh[k]
                assert diff.is_zero() or gauss_valuation(diff, p) >= tau

    def test_tail_valuation_is_the_infimum_past_the_old_window(self):
        # v(w) = 1 = 1/(p-1) at p = 2: the n-th term is s_2(n), and past
        # depth 260 its least value 1 is reached only at n = 512
        assert beta_tail_valuation(MobiusMap.translation(2), 260, 2) == 1
        assert beta_tail_valuation(MobiusMap.translation(2), 0, 2) == 1

    @pytest.mark.parametrize("p,t", [(2, 4), (2, 12), (2, F(8, 3)), (3, 3), (3, 18), (5, 5), (5, 125)])
    def test_tail_valuation_matches_a_long_scan(self, p, t):
        g = MobiusMap.translation(t)
        vw = gauss_valuation(displacement(g), p)
        for depth in (0, 7, 8, 30, 242, 260):
            want = min(n * vw - vp_factorial(n, p) for n in range(depth + 1, depth + 3000))
            assert beta_tail_valuation(g, depth, p) == want

    def test_tail_valuation_rejects_a_divergent_substitution(self):
        # v(w) = 0 < 1/2 at p = 3: n v(w) - v_3(n!) is unbounded below
        with pytest.raises(ValueError, match="diverges"):
            beta_tail_valuation(MobiusMap.translation(1), 8, 3)
        with pytest.raises(ValueError, match="diverges"):
            beta_homomorphism_ok(MobiusMap.translation(1), MobiusMap.translation(3), 8, 3)

    def test_inverse_within_tail_bounds(self):
        p, depth = 5, 10
        g = MobiusMap.translation(5)
        tau = beta_tail_valuation(g, depth, p)
        prod = star(beta_build(g, depth), beta_build(mobius_inverse(g), depth))
        for k in range(depth + 1):
            diff = prod[k] - (S.one()[k] if k == 0 else RF.const(0))
            assert diff.is_zero() or gauss_valuation(diff, p) >= tau


class TestCocycle:
    def test_geometric_closed_form(self):
        # u = x, d = 1, translation by w: the cocycle is x/(x + w)
        g = MobiusMap.translation(25)
        c = cocycle(x, 1, g, 12, 5)
        target = x / (x + RF.const(25))
        assert gauss_valuation(c - target, 5) >= 13 * 2

    def test_constant_unit(self):
        assert cocycle(RF.const(7), 3, MobiusMap.translation(25), 8, 5) == RF.const(1)

    def test_one_plus_small(self):
        g = MobiusMap.translation(25)
        v = gauss_valuation(cocycle(x, 2, g, 10, 5) - RF.const(1), 5)
        assert v > 0

    def test_dth_power_recovers_unit_ratio(self):
        g = MobiusMap.translation(25)
        for u, d in [(x, 2), (RF.from_factors(1, {0: 2}), 3), (RF.from_factors(1, {5: 1}) * x**2, 2)]:
            c = cocycle(u, d, g, 10, 5)
            rhs = u / g.act_function(u)
            assert gauss_valuation(c**d - rhs, 5) >= 11 * 2

    def test_unit_ratio_through_the_inverse_matches_the_quotient(self):
        # substitution is a field automorphism, so u * g.(1/u) = u / (g.u)
        r = random.Random(3)
        units = [x, RF.from_factors(3, {0: 2, 5: -1}), RF.from_factors(F(-1, 2), {F(1, 5): 1, -2: -2, 10: 3}),
                 RF(Poly.of(-1, 0, 4), {25: 1})]
        checked = 0
        while checked < 40:
            a, b, c, d = (r.choice([0, 1, -1, 2, 5, 25, F(1, 5)]) for _ in range(4))
            if a * d == b * c:
                continue
            g = MobiusMap.of(a, b, c, d)
            u = units[checked % len(units)]
            assert u * g.act_function(u.inverse()) == u / g.act_function(u), (u, g)
            checked += 1

    def test_multiplicative_in_u(self):
        g = MobiusMap.of(6, 5, 25, 1)
        u, v = x, RF.from_factors(1, {5: 2})
        d, depth, p = 3, 9, 5
        vw = gauss_valuation(displacement(g), p)
        cu = cocycle(u, d, g, depth, p)
        cv = cocycle(v, d, g, depth, p)
        cuv = cocycle(u * v, d, g, depth, p)
        diff = cuv - cu * cv
        assert diff.is_zero() or gauss_valuation(diff, p) >= (depth + 1) * vw

    def test_twist_of_beta_is_cocycle_multiple(self):
        p, depth = 5, 10
        g = MobiusMap.translation(25)
        tw = h_sequence(x, 2, depth, p)
        bg = beta_build(g, depth)
        lhs = theta_apply(tw, bg)
        for alpha in range(depth + 1):
            assert lhs[alpha] == bg[alpha] * cocycle(x, 2, g, depth - alpha, p)

    def test_identities_check(self):
        g = MobiusMap.of(6, 5, 25, 1)
        assert cocycle_identities(x, RF.from_factors(1, {5: 2}), 3, g, 9, 5) == (True, True, True)
        assert cocycle_identities(x, x**2, 2, MobiusMap.translation(25), 10, 5) == (True, True, True)

    def test_partial_sums_are_the_cut_cocycles(self):
        g = MobiusMap.of(6, 5, 25, 1)
        u = RF.from_factors(1, {5: 2}) * x
        sums = cocycle_partial_sums(h_sequence(u, 3, 9, 5), displacement(g), 9)
        assert sums == [cocycle(u, 3, g, a, 5) for a in range(10)]

    def test_identities_check_fails_without_the_linear_term(self, monkeypatch):
        def drop_linear(tw, w, depth):
            return [s - w * tw.h[1] for s in cocycle_partial_sums(tw, w, depth)]

        monkeypatch.setattr(twists, "cocycle_partial_sums", drop_linear)
        g = MobiusMap.of(6, 5, 25, 1)
        assert cocycle_identities(x, RF.from_factors(1, {5: 2}), 3, g, 9, 5) == (False, False, False)

    def test_identities_check_fails_on_a_truncated_substitution(self, monkeypatch):
        # only the third identity involves beta(g)
        monkeypatch.setattr(twists, "beta_build", drop_top_term)
        g = MobiusMap.of(6, 5, 25, 1)
        assert cocycle_identities(x, RF.from_factors(1, {5: 2}), 3, g, 9, 5) == (True, True, False)

    def test_identities_build_each_partial_sum_list_once(self, monkeypatch):
        built, moved = [], []

        def counting_sums(tw, w, depth):
            built.append(tw.u)
            return cocycle_partial_sums(tw, w, depth)

        def counting_displacement(g):
            moved.append(g)
            return displacement(g)

        monkeypatch.setattr(twists, "cocycle_partial_sums", counting_sums, raising=False)
        monkeypatch.setattr(twists, "displacement", counting_displacement)
        u, v, depth = x, RF.from_factors(1, {5: 2}), 9
        assert cocycle_identities(u, v, 3, MobiusMap.of(6, 5, 25, 1), depth, 5) == (True, True, True)
        # one list per unit (u, uv, v), not one cocycle per degree of the
        # twist check; g.x - x once for the sums and once inside beta_build
        assert built.count(u) == 1 and len(built) == 3
        assert len(moved) == 2
