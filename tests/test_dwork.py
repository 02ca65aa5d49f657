import random
from fractions import Fraction as F

import pytest

from oracles import dwork_action, dwork_descent_failures, dwork_monomial_failures, monomial
from padicops import dwork
from padicops.dwork import (
    dwork_build,
    dwork_coefficients,
    dwork_identities,
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
                assert H.eigenvalue(j) == (1 if j % q == 0 else 0)

    def test_action_by_linearity_matches_the_derivative_loop(self):
        # H(x^e) = h_e x^e, and on any polynomial H(sum a_e x^e) = sum a_e h_e x^e
        r = random.Random(3)
        for q, trunc in ((2, 9), (3, 12), (5, 15)):
            H = dwork_build(q, trunc)
            for e in range(trunc + 1):
                assert dwork_action(H.c, monomial(e)) == Poly.of(*([0] * e + [H.eigenvalue(e)]))
            for _ in range(30):
                f = Poly(F(r.randint(-9, 9), r.randint(1, 5)) for _ in range(r.randint(0, trunc + 1)))
                want = Poly(a * H.eigenvalue(e) for e, a in enumerate(f.coeffs))
                assert dwork_action(H.c, f) == want

    def test_each_monomial_image_is_built_once(self, monkeypatch):
        # the checks compare eigenvalues: no polynomial arithmetic at all
        calls = []
        for name in ("__mul__", "__add__", "scale", "derivative"):
            real = getattr(Poly, name)
            monkeypatch.setattr(Poly, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        for q in (2, 3):
            assert dwork_identities(q, 13).ok
            for lam, i in ((0, 0), (F(1, 2), 1), (5, q - 1)):
                assert frobenius_relation(q, lam, i, 13).ok
        assert calls == []

    def test_truncation_guard(self):
        H = dwork_build(2, 6)
        with pytest.raises(ValueError):
            H.eigenvalue(9)
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


def planted(mutate):
    """dwork_coefficients with the k-th coefficient c replaced by mutate(k, c)."""
    def coefficients(q, count):
        return tuple(mutate(k, c) for k, c in enumerate(dwork_coefficients(q, count)))

    return coefficients


MUTANTS = {
    "honest": lambda k, c: c,
    "sign of c_2": lambda k, c: -c if k == 2 else c,
    "c_3 plus one": lambda k, c: c + 1 if k == 3 else c,
    "top coefficient doubled": lambda k, c: 2 * c if k == 13 else c,
    "odd coefficients zeroed": lambda k, c: 0 if k % 2 else c,
}


def test_euler_builds_one_polynomial_equal_to_the_monomial_sum(monkeypatch):
    # the eigenvalue checks report what the polynomial route reports, failure
    # for failure, under planted coefficient mutants
    total = 0
    for name, mutate in MUTANTS.items():
        monkeypatch.setattr(dwork, "dwork_coefficients", planted(mutate))
        for q in (2, 3):
            c = dwork_build(q, 13).c
            rep = dwork_identities(q, 13)
            star_part = [f for f in rep.failures if "D-degree" in f]
            assert list(rep.failures) == star_part + dwork_monomial_failures(q, 13, c), name
            total += len(rep.failures) - len(star_part)
            for lam, i in ((0, 0), (F(1, 2), 1), (F(2, 3), q - 1), (5, 1)):
                want = dwork_descent_failures(q, lam, i, 13, c)
                assert list(frobenius_relation(q, lam, i, 13).failures) == want, (name, q, lam, i)
                total += len(want)
        if name == "honest":
            assert total == 0
    assert total > 0
