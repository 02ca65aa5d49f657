import random
from fractions import Fraction as F

from padicops.cheeses import circle_valuation, gauss_valuation
from padicops.padics import vp_rational
from padicops.ratfun import Poly, RationalFunction, expand_factors
from padicops.twists import h_sequence

from hypothesis import given, settings
from hypothesis import strategies as st

RF = RationalFunction


def fraction_circle_valuation(f, p, center, e):
    """The circle valuation as first written: one Fraction valuation per
    shifted coefficient."""
    e = F(e)
    shifted = f.num.shift(F(center))
    zeros = min(F(vp_rational(c, p)) - i * e for i, c in enumerate(shifted.coeffs) if c)
    poles = sum(m * min(-e, vp_rational(center - r, p)) for r, m in f.den_factors)
    return zeros - poles


@st.composite
def circle_cases(draw):
    """(f, p, center, e): coefficients and poles of every p-adic valuation in
    -2..2, so denominators divisible by p and poles at non-units both occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    padic = st.builds(lambda n, k, q: F(n, q) * F(p) ** k, st.integers(-40, 40),
                      st.integers(-2, 2), st.sampled_from([1, 2, 7]))
    num = Poly(draw(st.lists(padic, min_size=1, max_size=5)))
    poles = draw(st.dictionaries(padic, st.integers(1, 3), max_size=3))
    center = draw(st.just(F(0)) | padic)
    e = draw(st.just(F(0)) | st.builds(F, st.integers(-6, 6), st.integers(1, 3)))
    return RF(num, poles), p, center, e


class TestSupNorm:
    def test_circle_valuation_multiplicative(self):
        rng = random.Random(2)
        for _ in range(60):
            u = RF.from_factors(
                F(rng.randrange(1, 20)), {rng.randrange(-3, 4): rng.choice([-2, -1, 1])}
            )
            v = RF.from_factors(
                F(1, rng.randrange(1, 9)), {rng.randrange(-3, 4): rng.choice([-1, 1, 2])}
            )
            cv = lambda w: circle_valuation(w, 3, F(1, 2), F(-1))
            assert cv(u * v) == cv(u) + cv(v)

    def test_pole_part_matches_the_expanded_denominator(self):
        # circle_valuation reads each pole factor off den_factors; the
        # reference shifts the expanded denominator to the centre instead
        def poly_valuation(poly, p, center, e):
            shifted = poly.shift(F(center))
            return min(vp_rational(c, p) - i * e for i, c in enumerate(shifted.coeffs) if c)

        rng = random.Random(11)
        for _ in range(80):
            p = rng.choice([3, 5])
            poles = {F(rng.randrange(-30, 31), rng.choice([1, 2, p])): rng.randrange(1, 4)
                     for _ in range(rng.randrange(1, 4))}
            zeros = {F(rng.randrange(-30, 31), rng.choice([1, p])): rng.randrange(1, 3)
                     for _ in range(rng.randrange(0, 3))}
            f = RF.from_factors(F(rng.randrange(1, 50), rng.randrange(1, 50)),
                                {**zeros, **{r: -m for r, m in poles.items()}})
            den = expand_factors(f.den_factors)
            for center in (next(iter(poles)), F(rng.randrange(-30, 31), rng.choice([1, p])), 0):
                e = F(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
                want = poly_valuation(f.num, p, center, e) - poly_valuation(den, p, center, e)
                assert circle_valuation(f, p, center, e) == want, (f, p, center, e)

    @given(case=circle_cases())
    @settings(max_examples=200, deadline=None)
    def test_integer_content_matches_the_fraction_minimum(self, case):
        f, p, center, e = case
        if f.is_zero():
            return
        got = circle_valuation(f, p, center, e)
        assert got == fraction_circle_valuation(f, p, center, e)
        assert isinstance(got, F)

    def test_gauss_valuation(self):
        assert gauss_valuation(RF(Poly.of(3, 1, 9)), 3) == 0
        assert gauss_valuation(RF(Poly.of(3, 9)), 3) == 1
        assert gauss_valuation(RF.from_factors(1, {9: -1}), 3) == 0


class TestDividedPowerNorms:
    def test_twist_coefficient_norm_bound(self):
        # |h[n]| <= rho^(-n) on the unit disc minus holes of smallest radius
        # p^rho: the norm there is the largest of the boundary circle norms
        for holes, u in [
            (((0, 0),), RF.from_factors(1, {0: 2})),
            (((0, -1),), RF.from_factors(1, {0: 1})),
            (((0, 0), (1, 0)), RF.from_factors(1, {0: 1, 1: -2})),
        ]:
            rho = min(e for _, e in holes)
            tw = h_sequence(u, 3, 12, 5)
            for n, h in enumerate(tw.h):
                if not h.is_zero():
                    v = min(circle_valuation(h, 5, c, e) for c, e in ((0, 0), *holes))
                    assert v >= n * rho, (holes, n)
