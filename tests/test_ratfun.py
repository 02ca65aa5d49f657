import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FirstOrderOperator,
    act_partial_coefficient,
    act_point,
    delta_poly,
    mobius_inverse,
    poly_eval,
    relator,
    rf_eval,
    varrho,
)
from padicops import ratfun
from padicops.ratfun import (
    MobiusMap,
    NonRationalRoots,
    Poly,
    RationalFunction,
    dlog,
    rational_roots,
)
from padicops.twists import h_sequence, theta_partial

RF = RationalFunction

small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def poly_strategy(max_deg=4):
    return st.lists(small_fracs, min_size=1, max_size=max_deg + 1).map(lambda cs: Poly(tuple(cs)))


class TestPoly:
    @given(a=poly_strategy(), b=poly_strategy(), c=poly_strategy())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a

    def test_synth_div(self):
        p = Poly.of(-6, 11, -6, 1)  # (x-1)(x-2)(x-3)
        q, r = p.synth_div(2)
        assert r == 0 and q == Poly.of(3, -4, 1)

    def test_shift(self):
        p = Poly.of(0, 0, 1)
        assert p.shift(1) == Poly.of(1, 2, 1)

    def test_rational_roots(self):
        p = Poly.x_minus(F(1, 2)) ** 2 * Poly.x_minus(-3)
        roots = dict(rational_roots(p))
        assert roots == {F(1, 2): 2, F(-3): 1}
        with pytest.raises(NonRationalRoots):
            rational_roots(Poly.of(1, 0, 1))

    def test_pow_makes_one_product_per_squaring_and_per_extra_bit(self, monkeypatch):
        base = Poly.of(F(1, 2), -3, 1)
        want = {0: Poly.of(1)}
        for n in range(1, 41):
            want[n] = want[n - 1] * base
        products = []
        real = Poly.__mul__

        def counting_mul(a, b):
            products.append(1)
            return real(a, b)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        for n in range(41):
            products.clear()
            assert base**n == want[n], n
            expected = 0 if n == 0 else (n.bit_length() - 1) + (bin(n).count("1") - 1)
            assert len(products) == expected, n
        # a negative power has no polynomial value: an error, not an endless loop
        for n in (-1, -2, -7):
            with pytest.raises(ValueError, match="negative"):
                Poly.of(1, 1) ** n


# -- a plain-Fraction oracle for the integer kernel ---------------------------

wide_fracs = st.fractions(min_value=-60, max_value=60, max_denominator=30)
coeff_lists = st.lists(wide_fracs | st.just(F(0)), max_size=7)
roots = st.fractions(min_value=-12, max_value=12, max_denominator=10)


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def o_add(a, b):
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def o_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def o_horner(cs, r):
    """Synthetic division by (x - r): (quotient, remainder) as Fractions."""
    acc, out = F(0), []
    for c in reversed(cs):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop() if out else F(0)
    return trim(reversed(out)), rem


def o_shift(cs, a):
    out = [F(0)] * len(cs)
    for k, c in enumerate(cs):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * a ** (k - j)
    return trim(out)


def assert_normal(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.num)
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1
    if not p.num:
        assert p.den == 1


class TestIntegerKernel:
    @given(a=coeff_lists, b=coeff_lists, s=wide_fracs)
    @settings(max_examples=200, deadline=None)
    def test_ring_operations_match_fraction_oracle(self, a, b, s):
        pa, pb = Poly(tuple(a)), Poly(tuple(b))
        cases = [
            (pa, trim(a)),
            (pa * pb, o_mul(a, b)),
            (pa + pb, o_add(a, b)),
            (pa - pb, o_add(a, [-c for c in b])),
            (-pa, trim(-c for c in a)),
            (pa.scale(s), trim(s * c for c in a)),
            (pa.derivative(), trim(i * c for i, c in enumerate(a) if i)),
        ]
        for got, want in cases:
            assert_normal(got)
            assert got.coeffs == want

    @given(cs=st.lists(st.integers(-10**30, 10**30) | st.just(0), max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_integer_coefficients_skip_fraction(self, cs):
        made = []
        real = ratfun.Fraction
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ratfun, "Fraction", lambda *a: made.append(a) or real(*a))
            p = Poly(cs)
        assert not made
        assert_normal(p)
        assert p == Poly([F(c) for c in cs]) and p.den == 1

    def test_integer_trailing_zeros_and_bools_normalise(self):
        p = Poly([3, 0, 1, 0, 0])
        assert p == Poly([F(3), F(0), F(1)]) and p.num == (3, 0, 1)
        assert Poly([0, 0]) == Poly([]) == Poly([F(0)])
        # a bool is no int here: it takes the Fraction route and comes out an int
        b = Poly([True, 2])
        assert_normal(b)
        assert b == Poly.of(1, 2) and b.num == (1, 2)

    @given(a=coeff_lists, r=roots)
    @settings(max_examples=200, deadline=None)
    def test_synth_div_eval_and_shift_match_fraction_oracle(self, a, r):
        pa = Poly(tuple(a))
        q, rem = pa.synth_div(r)
        assert_normal(q)
        assert (q.coeffs, rem) == o_horner(trim(a), r)
        assert q * Poly.x_minus(r) + Poly.const(rem) == pa
        assert poly_eval(pa, r) == rem and pa.is_root(r) == (rem == 0)
        shifted = pa.shift(r)
        assert_normal(shifted)
        assert shifted.coeffs == o_shift(trim(a), r)
        assert pa.shift(0) is pa

    def test_synth_div_with_fractional_root_of_high_degree(self):
        r = F(-7, 9)
        p = Poly.x_minus(r) ** 6 * Poly.of(F(1, 2), 3, F(-5, 4))
        q, rem = p.synth_div(r)
        assert rem == 0 and q == Poly.x_minus(r) ** 5 * Poly.of(F(1, 2), 3, F(-5, 4))
        assert p.synth_div(2)[1] == poly_eval(p, 2) != 0

    def test_edge_cases(self):
        zero = Poly(())
        assert_normal(zero)
        assert zero.synth_div(F(1, 3)) == (zero, 0)
        assert Poly.of(F(5, 6)).synth_div(2) == (zero, F(5, 6))
        assert Poly.of(3, 4).scale(0) == zero and Poly.of(3).derivative() == zero
        assert Poly.of(7).shift(F(1, 2)) == Poly.of(7) and poly_eval(zero, F(2, 3)) == 0

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_equal_coeffs_imply_equal_and_hash(self, a, b):
        pa, pb = Poly(tuple(a)), Poly(tuple(b))
        for x, y in [(pa, Poly(tuple(a) + (0, 0))), ((pa + pb) - pb, pa), (pa * pb, pb * pa)]:
            assert x.coeffs == y.coeffs
            assert x == y and hash(x) == hash(y)
        assert (pa == pb) == (pa.coeffs == pb.coeffs)

    def test_normal_form_examples(self):
        half = Poly.of(F(1, 2))
        assert Poly.of(F(2, 4)) == half and hash(Poly.of(F(2, 4))) == hash(half)
        assert (half.num, half.den) == ((1,), 2)
        p = Poly((F(1, 2), F(1, 3), 0, 0))
        assert (p.num, p.den) == ((3, 2), 6) and p.degree() == 1
        assert Poly.of(4, 6, 0) == Poly((F(4), F(6))) and Poly.of(4, 6).den == 1
        assert (Poly.of(0, 0).num, Poly.of(0, 0).den) == ((), 1)
        assert Poly.of(F(3, 4)) * Poly.of(F(2, 3)) == half
        assert Poly.of(F(1, 6), F(1, 6)) + Poly.of(F(1, 3), F(-1, 6)) == half

    def test_public_surface(self):
        p = Poly.of(F(-1, 2), 0, 3)
        assert p.coeffs == (F(-1, 2), F(0), F(3)) and all(type(c) is F for c in p.coeffs)
        assert p[0] == F(-1, 2) and p[2] == 3 and p[5] == 0 and p[-1] == 0
        assert repr(p) == "Poly(-1/2*x^0 + 3*x^2)" and repr(Poly(())) == "Poly(0)"
        assert Poly.x_minus(F(2, 3)) == Poly.of(F(-2, 3), 1) and Poly.const(5) == Poly.of(5)
        assert p != p.coeffs and Poly.of(1) != 1

    def test_immutability_pickle_and_deepcopy(self):
        p = Poly.of(F(1, 2), F(-3, 4), 5)
        with pytest.raises(AttributeError):
            p.num = (1,)
        with pytest.raises(AttributeError):
            p.den = 3
        with pytest.raises(AttributeError):
            p.coeffs = ()
        with pytest.raises(AttributeError):
            p.extra = 1
        with pytest.raises(AttributeError):
            del p.den
        for q in (p, Poly(())):
            for r in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
                assert r == q and hash(r) == hash(q) and (r.num, r.den) == (q.num, q.den)
        # RationalFunction likewise: h_sequence hands the same objects to every caller
        u = RF(Poly.of(F(1, 2), 3), {F(2, 3): 2, -1: 1})
        with pytest.raises(AttributeError):
            u.num = Poly.of(1)
        with pytest.raises(AttributeError):
            u.den_factors = ()
        with pytest.raises(AttributeError):
            u.extra = 1
        with pytest.raises(AttributeError):
            del u.num
        for q in (u, RF.const(0), RF.x(), -u, u * u):
            for r in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
                assert type(r) is RF and r == q and hash(r) == hash(q)
                assert (r.num, r.den_factors) == (q.num, q.den_factors)


small_roots = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def functions_with_poles(draw):
    """c prod (x - z)^e / prod (x - r)^m through the constructor, which
    cancels; the numerator splits over Q, so inverse() works."""
    num = Poly.const(draw(small_fracs.filter(bool)))
    for z, e in draw(st.dictionaries(small_roots, st.integers(1, 2), max_size=2)).items():
        num = num * Poly.x_minus(z) ** e
    poles = draw(st.dictionaries(small_roots, st.integers(1, 3), min_size=1, max_size=3))
    return RF(num, poles)


def merged_poles(u, v):
    poles = dict(u.den_factors)
    for r, m in v.den_factors:
        poles[r] = poles.get(r, 0) + m
    return poles


def cancelled_sum(u, v):
    """u + v over the product of the denominators, through the cancelling constructor."""
    num = u.num * ratfun.expand_factors(v.den_factors) + v.num * ratfun.expand_factors(u.den_factors)
    return RF(num, merged_poles(u, v))


def cancelled_product(u, v):
    return RF(u.num * v.num, merged_poles(u, v))


@st.composite
def pairs_sharing_poles(draw):
    """(u, v): v has poles at some of u's, at equal or unequal multiplicity,
    and zeros that may sit on u's poles."""
    u = draw(functions_with_poles().filter(lambda u: u.den_factors))
    roots = [r for r, _ in u.den_factors]
    num = Poly.const(draw(small_fracs.filter(bool)))
    for z in draw(st.lists(st.sampled_from(roots) | small_roots, max_size=2)):
        num = num * Poly.x_minus(z)
    poles = {r: draw(st.sampled_from([m, m, m + 1, max(m - 1, 0), 0])) for r, m in u.den_factors}
    poles.update(draw(st.dictionaries(small_roots.filter(lambda a: a not in poles), st.integers(1, 2), max_size=1)))
    return u, RF(num, poles)


class TestCancellation:
    """`+` and `*` test only the poles where a reduced operand can cancel."""

    @given(pair=pairs_sharing_poles())
    @settings(max_examples=150, deadline=None)
    def test_sums_and_products_equal_the_cancelling_constructor(self, pair):
        u, v = pair
        assert u + v == cancelled_sum(u, v) == v + u
        assert u - v == cancelled_sum(u, -v)
        assert u * v == cancelled_product(u, v) == v * u
        # a difference that cancels every pole of u and v
        w = cancelled_sum(u, v)
        assert w - v == u and w - u == v

    def test_planted_cancellations(self):
        x, one = RF.x(), RF.const(1)
        inv1 = RF(Poly.of(1), {1: 1})
        assert x * inv1 - inv1 == one
        assert RF(Poly.of(-1, 1), {2: 1}) * inv1 == RF(Poly.of(1), {2: 1})
        s = inv1 * inv1 + inv1
        assert s == RF(Poly.of(0, 1), {1: 2}) and s.den_factors == ((F(1), 2),)

    def test_poles_that_cannot_cancel_are_not_tested(self, monkeypatch):
        a, b, c = RF(Poly.of(1, 1), {1: 1, 3: 1}), RF(Poly.of(2), {1: 2, 3: 1}), RF(Poly.of(-1, 1))
        calls = []
        is_root = Poly.is_root
        monkeypatch.setattr(Poly, "is_root", lambda p, r: calls.append(r) or is_root(p, r))
        a + b  # unequal at 1, equal at 3
        assert calls == [F(3)]
        calls.clear()
        a * b  # poles of both factors
        assert calls == []
        prod = a * c  # poles of one factor only: (x - 1) cancels once
        assert calls == [F(1), F(3)]
        monkeypatch.undo()
        assert prod == RF(Poly.of(1, 1), {3: 1})


class TestRationalFunction:
    def test_divisor_examples(self):
        u = RF.from_factors(1, {0: 3, 1: -1})
        assert u.divisor() == {F(0): 3, F(1): -1}
        assert RF.const(7).divisor() == {}

    def test_reduction(self):
        u = RF(Poly.x_minus(2) * Poly.of(1, 1), {F(2): 2})
        assert u.den_factors == ((F(2), 1),)
        assert u.num == Poly.of(1, 1)

    def test_field_ops(self):
        x = RF.x()
        u = RF.from_factors(1, {1: 2, -1: -1})
        assert u * u.inverse() == RF.const(1)
        assert (x + RF.const(1)) * (x - RF.const(1)) == x * x - RF.const(1)

    @given(
        cs=st.lists(small_fracs, min_size=1, max_size=3),
        ds=st.lists(small_fracs, min_size=1, max_size=3),
        pole=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=50)
    def test_add_mul_consistent_with_eval(self, cs, ds, pole):
        u = RF(Poly(tuple(cs)), {F(pole): 1})
        v = RF(Poly(tuple(ds)), {F(pole): 2})
        for x0 in (F(7), F(-5), F(1, 3)):
            if x0 == pole:
                continue
            assert rf_eval(u + v, x0) == rf_eval(u, x0) + rf_eval(v, x0)
            assert rf_eval(u * v, x0) == rf_eval(u, x0) * rf_eval(v, x0)

    @given(u=functions_with_poles().filter(lambda u: u.den_factors), c=small_fracs)
    @settings(max_examples=100, deadline=None)
    def test_operations_that_cannot_cancel_return_reduced_results(self, u, c):
        # -u, scale, powers, the derivative and the inverse keep the factors
        # they build: each result must already be what the constructor,
        # which cancels, makes of its numerator and poles
        for r in (-u, u.scale(c), *(u**n for n in range(4)), u.derivative(), u.inverse()):
            roots = [a for a, _ in r.den_factors]
            assert roots == sorted(set(roots))
            assert all(m > 0 for _, m in r.den_factors)
            assert r == RF(r.num, dict(r.den_factors))

    def test_derivative_quotient_rule(self):
        u = RF.from_factors(1, {1: 2, -1: -1})  # (x-1)^2/(x+1)
        d = dlog(u)
        expected = RF(Poly.const(2), {F(1): 1}) + RF(Poly.const(-1), {F(-1): 1})
        assert d == expected
        # direct differentiation oracle
        assert u.derivative() == d * u

    def test_dlog_examples(self):
        x = RF.x()
        assert dlog(x**3) == RF.from_factors(3, {0: -1})
        u, v = RF.from_factors(2, {0: 1}), RF.from_factors(5, {1: -2})
        assert dlog(u * v) == dlog(u) + dlog(v)

    def test_divisor_additivity(self):
        rng = random.Random(3)
        for _ in range(60):
            fu = {rng.randrange(-4, 5): rng.choice([-2, -1, 1, 2]) for _ in range(2)}
            fv = {rng.randrange(-4, 5): rng.choice([-2, -1, 1, 2]) for _ in range(2)}
            u, v = RF.from_factors(3, fu), RF.from_factors(F(1, 2), fv)
            duv = (u * v).divisor()
            du, dv = u.divisor(), v.divisor()
            merged = {a: du.get(a, 0) + dv.get(a, 0) for a in {*du, *dv}}
            assert duv == {a: e for a, e in merged.items() if e}


class TestMobius:
    def test_translation(self):
        g = MobiusMap.translation(5)
        assert g.act_x() == RF.x() + RF.const(5)
        assert varrho(g) == 1

    def test_scaling_map(self):
        # matrix (1, -a; 0, pi^n) sends the point z to (z - a)/pi^n, and the
        # coordinate function transforms by the inverse substitution
        g = MobiusMap.of(1, -7, 0, 9)
        assert act_point(g, 7) == 0
        assert act_point(g, 16) == 1
        assert g.act_x() == RF(Poly.of(7, 9))
        assert mobius_inverse(g).act_x() == RF(Poly.of(-7, 1).scale(F(1, 9))).scale(9).scale(F(1, 9))

    def test_identity(self):
        e = MobiusMap.of(1, 0, 0, 1)
        u = RF.from_factors(2, {3: 2})
        assert e.act_function(u) == u and e.act_x() == RF.x()

    def test_varrho_needs_triangular(self):
        with pytest.raises(ValueError):
            varrho(MobiusMap.of(1, 0, 1, 1))
        # on a triangular map g.x = x / varrho(g) + const
        g = MobiusMap.of(2, 3, 0, 5)
        assert g.act_x().derivative() == RF.const(1 / varrho(g))

    def test_group_action_on_functions(self):
        rng = random.Random(11)
        for _ in range(500):
            g = MobiusMap.of(rng.choice([1, 2, 3]), rng.randrange(-3, 4), 0, rng.choice([1, 2]))
            h = MobiusMap.of(rng.choice([1, 2]), rng.randrange(-3, 4), 0, rng.choice([1, 3]))
            u = RF.from_factors(
                F(rng.randrange(1, 5)), {rng.randrange(-3, 4): rng.choice([-2, -1, 1, 2])}
            )
            assert g.act_function(h.act_function(u)) == (g * h).act_function(u)

    def test_action_pushes_the_divisor_forward(self):
        # g sends a finite zero or pole r of u to g.r, or to infinity when
        # cr + d = 0, and the order of u at infinity to g.infinity = a/c
        rng = random.Random(13)
        points = [F(n, m) for n in range(-4, 5) for m in (1, 2, 3)]
        cases = 0
        while cases < 400:
            a, b, c, d = (F(rng.randrange(-4, 5)) for _ in range(4))
            if c == 0 or a * d == b * c:
                continue
            cases += 1
            g = MobiusMap.of(a, b, c, d)
            u = RF.from_factors(
                F(rng.randrange(1, 7), rng.randrange(1, 4)),
                {rng.choice(points): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)},
            )
            ord_inf = sum(m for _, m in u.den_factors) - u.num.degree()
            want = {a / c: ord_inf}
            for r, e in u.divisor().items():
                if c * r + d != 0:
                    want[act_point(g, r)] = want.get(act_point(g, r), 0) + e
            v = g.act_function(u)
            assert v.divisor() == {z: e for z, e in want.items() if e}
            assert v * v.inverse() == RF.const(1)

    @given(
        u=functions_with_poles() | poly_strategy().map(RF),
        entries=st.tuples(*[st.integers(-4, 4)] * 4).filter(lambda e: e[0] * e[3] != e[1] * e[2]),
    )
    @settings(max_examples=100, deadline=None)
    def test_action_returns_reduced_results(self, u, entries):
        # act_function builds its result without cancelling: it must already
        # be what the constructor, which cancels, makes of its numerator and poles
        g = MobiusMap.of(*entries)
        r = g.act_function(u)
        assert r == RF(r.num, dict(r.den_factors))
        assert g.act_function(RF(Poly(()))) == RF(Poly(()))

    def test_general_action_with_lower_entry(self):
        g = MobiusMap.of(1, 2, 3, 7)
        u = RF.from_factors(F(5), {0: 2, 1: -3})
        h = MobiusMap.of(2, 1, 1, 1)
        assert g.act_function(h.act_function(u)) == (g * h).act_function(u)
        assert g.act_function(u * u) == g.act_function(u) ** 2

    def test_point_vs_linear_factor(self):
        # g.(x - z) = varrho(g)^{-1} (x - g.z) for triangular g
        g = MobiusMap.of(2, 3, 0, 5)
        z = F(4)
        lhs = g.act_function(RF(Poly.x_minus(z)))
        rhs = RF(Poly.x_minus(act_point(g, z))).scale(1 / varrho(g))
        assert lhs == rhs

    def test_partial_coefficient(self):
        g = MobiusMap.of(2, 5, 0, 3)
        assert act_partial_coefficient(g) == RF.const(F(2, 3))
        h = MobiusMap.of(1, 0, 1, 1)
        assert act_partial_coefficient(h) == RF(Poly.of(1, -1) ** 2)
        # g.(d/dx) = (1 / (d/dx)(g.x)) d/dx, by the chain rule for u(g^-1.x)
        for m in (g, h):
            assert act_partial_coefficient(m) * m.act_x().derivative() == RF.const(1)


def relator_by_twist(points, u, d, p):
    """Delta * theta(D), theta(D) = D + h[1] the library's twisted derivation."""
    delta = RF(delta_poly({F(a) for a in points}))
    theta = theta_partial(h_sequence(u, d, 1, p))
    return FirstOrderOperator(delta * theta[1], delta * theta[0])


class TestRelator:
    def test_single_point_monomial(self):
        a, k, d = F(2), 3, 4
        R = relator({a}, RF.from_factors(1, {a: k}), d)
        assert R.c1 == RF(Poly.x_minus(a))
        assert R.c0 == RF.const(F(-3, 4))
        assert R == relator_by_twist({a}, RF.from_factors(1, {a: k}), d, 3)

    def test_trivial_unit(self):
        R = relator({0, 1}, RF.const(1), 5)
        assert R.c0.is_zero()
        assert R.c1 == RF(Poly.of(0, -1) + Poly.of(0, 0, 1))
        assert R == relator_by_twist({0, 1}, RF.const(1), 5, 2)

    def test_support_containment(self):
        with pytest.raises(ValueError):
            relator({0}, RF.from_factors(1, {1: 2}), 3)
        u = RF.from_factors(1, {1: 2})
        assert relator({0, 1}, u, 3) == relator_by_twist({0, 1}, u, 3, 2)

    def test_kills_the_root_symbolically(self):
        # R applied to the formal d-th root: (x-a) (k/d)(x-a)^(-1) u^(1/d)-term
        # collapses; check via: c1 * (1/d) dlog(u) + c0 = 0
        u = RF.from_factors(F(3), {1: 2, -2: -1})
        R = relator({F(1), F(-2)}, u, 5)
        assert (R.c1 * dlog(u).scale(F(1, 5)) + R.c0).is_zero()

    def test_equivariance_under_triangular_maps(self):
        rng = random.Random(5)

        def act_op(g, op):
            return FirstOrderOperator(
                act_partial_coefficient(g) * g.act_function(op.c1), g.act_function(op.c0)
            )

        for _ in range(40):
            g = MobiusMap.of(rng.choice([1, 2, 3]), rng.randrange(-4, 5), 0, rng.choice([1, 2, 9]))
            u = RF.from_factors(
                F(5), {rng.randrange(-3, 4): rng.choice([1, 2]), rng.randrange(4, 7): -3}
            )
            S = set(u.divisor())
            lhs = act_op(g, relator(S, u, 7))
            gu = g.act_function(u)
            rhs = relator(set(gu.divisor()), gu, 7).scale(varrho(g) ** (1 - len(S)))
            assert lhs == rhs
