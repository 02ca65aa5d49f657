import math
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from padicops import dwork
from padicops.dwork import (
    dwork_build,
    dwork_coefficients,
    dwork_identities,
    euler,
    frobenius_relation,
)
from padicops.ratfun import Poly


class TestCoefficients:
    def test_q2_values(self):
        assert dwork_coefficients(2, 3) == (1, -1, 2)

    def test_constant_term(self):
        for q in (2, 3, 5):
            assert dwork_coefficients(q, 1)[0] == 1

    def test_root_of_unity_oracle_q2(self):
        # (1/2) sum over zeta in {1, -1} of (zeta - 1)^k
        H = dwork_build(2, 12)
        for k in range(13):
            direct = ((1 - 1) ** k + (-1 - 1) ** k) // 2
            assert H.c[k] == direct

    def test_binomial_transform_row_sums(self):
        # sum_k c_k binom(j, k) = 1 if q | j else 0
        for q in (2, 3):
            c = dwork_coefficients(q, 15)
            import math

            for j in range(15):
                s = sum(c[k] * math.comb(j, k) for k in range(j + 1))
                assert s == (1 if j % q == 0 else 0)


class TestProjector:
    def test_action_on_monomials(self):
        for q in (2, 3):
            H = dwork_build(q, 12)
            for j in range(13):
                got = H.apply_poly(Poly.of(*([0] * j + [1])))
                want = Poly.of(*([0] * j + [1])) if j % q == 0 else Poly(())
                assert got == want

    def test_action_by_linearity_matches_the_derivative_loop(self):
        def derivative_loop(H, f):
            # sum_k (c_k/k!) x^k D^k f on the whole polynomial, as first written
            out, d = Poly(()), f
            for k, ck in enumerate(H.c):
                if d.is_zero():
                    break
                if ck:
                    out = out + (Poly.of(*([0] * k + [1])) * d).scale(F(ck, math.factorial(k)))
                d = d.derivative()
            return out

        r = random.Random(3)
        for q, trunc in ((2, 9), (3, 12), (5, 15)):
            H = dwork_build(q, trunc)
            for _ in range(30):
                f = Poly(F(r.randint(-9, 9), r.randint(1, 5)) for _ in range(r.randint(0, trunc + 1)))
                assert H.apply_poly(f) == derivative_loop(H, f)

    def test_each_monomial_image_is_built_once(self, monkeypatch):
        built = []
        real = dwork.monomial_image.__wrapped__
        monkeypatch.setattr(dwork, "monomial_image",
                            lru_cache(maxsize=dwork.IMAGE_MEMO_SIZE)(lambda c, e: built.append(e) or real(c, e)))
        H = dwork_build(3, 12)
        for _ in range(3):
            H.apply_poly(Poly.of(*range(1, 14)))
        assert sorted(built) == list(range(13))

    def test_truncation_guard(self):
        H = dwork_build(2, 6)
        with pytest.raises(ValueError):
            H.apply_poly(Poly.of(*([0] * 9 + [1])))
        with pytest.raises(ValueError):
            dwork_build(3, 2)


class TestIdentities:
    def test_idempotent_and_partition(self):
        for q in (2, 3):
            rep = dwork_identities(q, 12)
            assert rep.ok, rep.failures
            assert rep.checked_orders[0] == q - 1
            assert rep.checked_orders[-1] == 12 - q

    def test_descent_relation(self):
        assert frobenius_relation(2, F(1, 2), 1, 12).ok
        assert frobenius_relation(2, 0, 0, 12).ok
        assert frobenius_relation(3, F(2, 3), 2, 12).ok
        assert frobenius_relation(3, 5, 1, 12).ok

    def test_descent_index_range(self):
        with pytest.raises(ValueError):
            frobenius_relation(2, 0, 2, 12)


def monomial_euler(f, shift):
    """(x d/dx - shift) f as the monomial sum it was first written as."""
    out = Poly(())
    for n, c in enumerate(f.coeffs):
        out = out + Poly.of(*([0] * n + [c * (n - shift)]))
    return out


def test_euler_builds_one_polynomial_equal_to_the_monomial_sum():
    r = random.Random(5)
    for _ in range(200):
        f = Poly(F(r.randint(-9, 9), r.randint(1, 6)) for _ in range(r.randint(0, 12)))
        shift = r.choice([0, r.randint(-5, 12), F(r.randint(-20, 20), r.randint(1, 7))])
        assert euler(f, shift) == monomial_euler(f, shift)
    # the shift can kill a coefficient, the top one included
    assert euler(Poly.of(1, 2, 3), 2) == Poly.of(-2, -2)
