import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import padicops
from oracles import same_mod
from padicops import cli, padics, zeta
from padicops.carries import Family
from padicops.padics import PadicNumber, padic_binom, vp_int
from padicops.series import QSeries, binomial_series
from padicops.zeta import (
    alpha_and_j,
    build_cocycle_c,
    convergence_margin,
    h_sequence_y,
    nabla_apply,
    ode_residual,
    phi_series_coefficient,
    phi_valuation_profile,
    unit_ratio,
    xvzero_series,
    zeta_series,
)

PARAMS = (3, 3, 1, 4)  # (p, q, k, d)


def off_in_fifth_digit(route):
    """The series route plus p^(v+5), v the valuation of its value."""
    def wrong(p, q, k, d, n_target, prec):
        x = route(p, q, k, d, n_target, prec)
        return x + PadicNumber.from_rational(F(p) ** (x.val + 5), p, prec)
    return wrong


class TestUnitRatio:
    def test_integer_remainder_polynomial(self):
        for p, q in [(3, 3), (2, 2), (5, 5), (3, 9)]:
            ratio, fpoly = unit_ratio(p, q, 30)
            assert ratio[0] == 1
            # ratio = 1 + p y f(y) / (1 - y^(q-1)) reconstructs exactly
            geom = binomial_series(-1, 30, q - 1)
            recon = QSeries.one(30) + (QSeries.of(fpoly, 30) * geom).shift(1).scale(p)
            assert (recon - ratio).is_zero()
            assert all(c.denominator == 1 for c in fpoly)

    def test_check_survives_optimize_flag(self):
        # the series route relies on f in Z[y]: the "1 mod y^2" check must be
        # a raise, not an assert that -O strips; break (1-y)^q to trip it
        src = os.path.dirname(os.path.dirname(padicops.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "from padicops import zeta\n"
            "from padicops.series import QSeries\n"
            "real = zeta.binomial_series\n"
            "zeta.binomial_series = lambda *a: real(*a) + QSeries.one(real(*a).order)\n"
            "print(zeta.unit_ratio(3, 3, 10))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode != 0 and "ratio is not 1 mod y^2" in proc.stderr, proc.stdout + proc.stderr


class TestCocycleC:
    def test_constant_term_and_power(self):
        c = build_cocycle_c(Family(*PARAMS), 40)
        assert c[0] == 1
        ratio, _ = unit_ratio(3, 3, 40)
        assert (c**4 - ratio).is_zero()

    def test_power_check_survives_optimize_flag(self):
        # c^d = ratio^k is the only check on the binomial-series power: it must
        # be a raise, not an assert that -O strips; perturb c to trip it
        src = os.path.dirname(os.path.dirname(padicops.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "from padicops import zeta\n"
            "from padicops.series import QSeries\n"
            "real = QSeries.pow_fractional\n"
            "QSeries.pow_fractional = lambda u, a: real(u, a) + QSeries.of([0, 0, 1], u.order)\n"
            "from padicops.carries import Family\n"
            "print(zeta.build_cocycle_c(Family(3, 3, 1, 4), 10))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode != 0 and "does not recover the unit ratio" in proc.stderr, proc.stdout + proc.stderr

    def test_higher_k(self):
        c = build_cocycle_c(Family(3, 3, 2, 4), 30)
        ratio, _ = unit_ratio(3, 3, 30)
        assert (c**4 - ratio**2).is_zero()

    def test_excluded_trivial_twist(self):
        with pytest.raises(ValueError):
            build_cocycle_c(Family(3, 3, 4, 4), 10)

    def test_divisibility_preconditions(self):
        with pytest.raises(ValueError):
            build_cocycle_c(Family(3, 3, 1, 3), 10)  # d | q+1 fails
        with pytest.raises(ValueError):
            build_cocycle_c(Family(2, 2, 1, 2), 10)  # p | d


class TestAlphaJ:
    def test_first_coefficient(self):
        rep = alpha_and_j(Family(3, 3, 1, 4), 40)
        assert rep.alphas[0] == -1 / (F(3, 4) + 1)
        assert rep.residual_zero

    def test_denominators_never_vanish(self):
        for q, k, d in [(3, 1, 4), (3, 2, 4), (2, 1, 3), (3, 3, 4), (5, 1, 6), (5, 2, 6)]:
            rep = alpha_and_j(Family(q, q, k, d), 60)
            assert rep.residual_zero

    def test_wrong_binomial_fails_the_identity(self, monkeypatch):
        real = zeta.binomial_series

        def off_by_one(alpha, order, stride=1):
            s = real(alpha, order, stride)
            return s + QSeries.of([0] * 2 * stride + [1], order)

        monkeypatch.setattr(zeta, "binomial_series", off_by_one)
        assert alpha_and_j(Family(3, 3, 1, 4), 40).residual_zero is False


class TestZetaSeries:
    def test_two_routes_agree(self):
        assert ode_residual(Family(*PARAMS), 150).recurrence_matches

    def test_constant_term_is_minus_p(self):
        # the r = 0 bracket tends to -1 at the origin, so the value is -p
        for p, q, k, d in [(3, 3, 1, 4), (2, 2, 1, 3), (3, 3, 3, 4)]:
            assert zeta_series(Family(p, q, k, d), 5)[0] == -p

    def test_low_coefficients_come_from_first_bracket(self):
        # below y^(q-1), only the r = 0 term contributes
        p, q, k, d = PARAMS
        z = zeta_series(Family(*PARAMS), q)
        lam = F(k, d)
        mu = 1 + q * lam
        b = F(1)
        for j in range(q - 1):
            want = p * b * F((-1) ** (j + 1), j + 1)
            assert z[j] == want
            b *= F(mu - 1 - j, j + 1)

    def test_agrees_with_integral_difference_route(self):
        # reconstruct the solution from the integral coefficients a_m and the
        # substitution y -> y/(1-y):
        #   z = -p (1-y^(q-1))^(-k/d) sum_m a_m [ (1-y)^(qk/d) (y/(1-y))^(e) - y^e ]
        # with e = (q-1)m - 1; the e = -1 singular parts cancel in the bracket
        p, q, k, d = PARAMS
        order = 51
        lam = F(k, d)
        alphas = alpha_and_j(Family(*PARAMS), order).alphas
        inner = QSeries(tuple(F(1) if j >= 1 else F(0) for j in range(order + 1)))  # y/(1-y)
        pref = binomial_series(q * lam, order + 1)  # (1-y)^(qk/d)
        total = QSeries.zero(order + 1)
        for m, am in enumerate(alphas):
            e = (q - 1) * m - 1
            if e >= 0:
                bracket = pref * inner**e - QSeries.of([0] * e + [1], order + 1)
            else:
                # e = -1: (1/y)[(1-y)^(-qk/d) (1-y) - 1], both poles cancelling
                num = pref * binomial_series(1, order + 1) - QSeries.one(order + 1)
                assert num[0] == 0
                bracket = QSeries(num.coeffs[1:])
            total = total + bracket.truncate(order + 1).scale(am)
            if (q - 1) * m > order:
                break
        z_alt = (total * binomial_series(-lam, order + 1, q - 1)).scale(-p).truncate(order)
        z = zeta_series(Family(*PARAMS), order)
        assert (z - z_alt).is_zero()

    def test_ode_residual_zero(self):
        rep = ode_residual(Family(*PARAMS), 120)
        assert rep.residual_is_zero and rep.recurrence_matches

    def test_ode_residual_other_parameters(self):
        assert ode_residual(Family(2, 2, 1, 3), 100).residual_is_zero
        assert ode_residual(Family(3, 3, 3, 4), 100).residual_is_zero
        assert ode_residual(Family(5, 5, 2, 6), 80).residual_is_zero
        # prime-power residue size q = p^2
        rep = ode_residual(Family(2, 4, 1, 5), 80)
        assert rep.residual_is_zero and rep.recurrence_matches

    def test_nabla_against_finite_differences(self):
        # sanity on a polynomial: nabla(f) = -(1/p)(y^2 f' - (qk/d) y f - ...)
        p, q, k, d = PARAMS
        f = QSeries.of([1, 2, 0, 5], 12)
        got = nabla_apply(f, Family(*PARAMS))
        geom = binomial_series(-1, 12, q - 1)
        want = (
            f.euler_derivative().shift(1)
            - f.shift(1).scale(F(q * k, d))
            - (f * geom).shift(q).scale(F(k * (q - 1), d))
        ).scale(F(-1, p))
        assert (got - want).is_zero()

    def test_convergence_at_radius_one_over_p(self):
        z = zeta_series(Family(*PARAMS), 150)
        assert convergence_margin(z, 3) >= 0


class TestXvZero:
    def test_leading_term_and_equation(self):
        rep = xvzero_series(Family(3, 3, 1, 4), build_cocycle_c(Family(3, 3, 1, 4), 80))
        assert rep.leading_term == 3
        assert rep.residual_is_zero

    def test_other_parameters(self):
        rep = xvzero_series(Family(2, 2, 1, 3), build_cocycle_c(Family(2, 2, 1, 3), 60))
        assert rep.leading_term == 2 and rep.residual_is_zero
        rep = xvzero_series(Family(2, 4, 1, 5), build_cocycle_c(Family(2, 4, 1, 5), 40))
        assert rep.leading_term == 2 and rep.residual_is_zero

    def test_h_orders_increase(self):
        hs = h_sequence_y(Family(3, 3, 1, 4), 10, 30)
        for n, h in enumerate(hs):
            lead = next((j for j, c in enumerate(h.coeffs) if c != 0), None)
            if lead is not None and n > 0:
                assert lead >= n


# (p, q, k, d) of the exact-rational oracle for the series route
ROUTE_CASES = [(3, 3, 1, 4), (2, 2, 1, 3), (3, 3, 3, 4), (5, 5, 1, 6), (5, 5, 2, 3)]
# (p, f, k, d, levels) of the release families
RELEASE_FAMILIES = [(3, 1, 1, 4, (6, 8, 10)), (2, 1, 1, 3, (6, 8, 10)), (3, 1, 3, 4, (7, 9))]


def reference_phi(p, q, k, d, n_target, prec):
    """The series route with one PadicNumber step and add per inner term: the
    loop that the one-fraction inner sum of `phi_series_coefficient`
    replaced, kept as its oracle."""
    lam = Family(p, q, k, d).lam
    ln, ld = lam.numerator, lam.denominator
    n, c = n_target, q - 1
    J = c * n + 1
    dnum = c * n * ld - q * ln
    P = prec + vp_int(dnum, p)
    R = P + 1
    mod = p**R
    fpoly = [int(a) for a in unit_ratio(p, q, 1)[1]]
    fm = [1]
    bm = PadicNumber.from_rational(1, p, R)
    top = padic_binom(lam, n, p, R)
    S = PadicNumber.zero(p, R)
    for m in range(1, min(P, J) + 1):
        prod = [0] * (len(fm) + c)
        for j, a in enumerate(fm):
            for t, g in enumerate(fpoly):
                prod[j + t] += a * g
        fm = [a % mod for a in prod]
        bm = bm.mul_rational(ln - (m - 1) * ld, ld * m, R)
        top = top.mul_rational(ln + (1 - m - n) * ld, ln + (1 - m) * ld, R)
        i_hi = (J - m) // c
        i_lo = max(0, -((m * q - J) // c))
        inner = PadicNumber.zero(p, R)
        b = top
        for i in range(n, i_lo - 1, -1):
            if i <= i_hi:
                a = fm[J - m - c * i]
                if a:
                    inner = inner + b.mul_rational(-a if i % 2 else a, 1, R)
            if i > i_lo:
                b = b.mul_rational(i * ld, ln - (m + i - 1) * ld, R)
        S = S + (bm * inner).mul_rational(p**m, 1, R)
    return S.mul_rational(-ld, dnum, R)


def route_targets():
    """(p, q, k, d, n): every release row, then small and mid-size n for the
    route cases."""
    for p, f, k, d, levels in RELEASE_FAMILIES:
        fam = Family(p, p**f, k, d)
        for N in levels:
            yield p, fam.q, fam.k_norm, fam.q + 1, fam.index(N).n
    for p, q, k, d in ROUTE_CASES:
        for n in (1, 2, 3, 7, 12, 40, 333):
            yield p, q, k, d, n


class TestSeriesKernel:
    @pytest.mark.parametrize("prec", [2, 5, 20, 60])
    def test_same_value_as_the_padic_step_loop(self, prec):
        for case in route_targets():
            want = reference_phi(*case, prec)._key()
            assert phi_series_coefficient(*case, prec)._key() == want, (case, prec)

    def test_a_fixed_number_of_inverses_per_m(self, monkeypatch):
        inverses = []

        def counting_pow(x, e, m=None):
            if e == -1:
                inverses.append(m)
            return pow(x, e, m)

        monkeypatch.setattr(zeta, "pow", counting_pow, raising=False)
        monkeypatch.setattr(padics, "pow", counting_pow, raising=False)
        for p, q, k, d, n in [(3, 3, 1, 4, 456), (3, 3, 1, 4, 36906), (2, 2, 1, 3, 342), (5, 5, 2, 3, 40)]:
            prec = 60
            lam = F(k, d)
            dnum = (q - 1) * n * lam.denominator - q * lam.numerator
            P = prec + vp_int(dnum, p)
            inverses.clear()
            phi_series_coefficient(p, q, k, d, n, prec)
            # padic_binom, then per m: binom(lam, m), the top binomial, the
            # inner sum and the p^m scale, then the division by D
            assert inverses.count(p ** (P + 1)) <= 4 * min(P, (q - 1) * n + 1) + 2, (p, q, k, d, n)


class TestProfile:
    def test_series_route_small_coefficients(self):
        # [s^n] (1/p)(1-s)^(k/d) Phi(zeta) in exact rationals, for n = 1..12
        n_max = 12
        for p, q, k, d in ROUTE_CASES:
            z = zeta_series(Family(p, q, k, d), (q - 1) * n_max + 1)
            phi = QSeries(z.coeffs[:: q - 1])  # the K[[s]]-component, s = y^(q-1)
            exact = phi * binomial_series(F(k, d), n_max + 1, 1)
            for n in range(1, n_max + 1):
                want = PadicNumber.from_rational(exact[n] / p, p, 200)
                for prec in (20, 60):
                    got = phi_series_coefficient(p, q, k, d, n, prec)
                    case = (p, q, k, d, n, prec)
                    assert got.absprec >= prec, (case, got)
                    assert same_mod(got, want, got.absprec), (case, got, want)

    @pytest.mark.parametrize("p, f, k, d, levels", [
        (2, 1, 1, 3, [6, 8, 10, 12]),
        (3, 1, 3, 4, [7, 9]),
    ])
    def test_every_row_cross_checked(self, p, f, k, d, levels):
        prec = 60
        rows = phi_valuation_profile(Family(p, p**f, k, d), levels, prec)
        assert [row.idx.N for row in rows] == levels
        for row in rows:
            assert row.cross_checked and row.agreement_digits >= prec, row

    def test_cross_validation_small_level(self):
        rows = phi_valuation_profile(Family(2, 2, 1, 3), [6], prec=50)
        assert rows[0].cross_checked and rows[0].agreement_digits >= 25
        assert rows[0].report.ok

    def test_disagreeing_routes_are_not_cross_checked(self, monkeypatch):
        monkeypatch.setattr(zeta, "phi_series_coefficient", off_in_fifth_digit(zeta.phi_series_coefficient))
        row = phi_valuation_profile(Family(3, 3, 1, 4), [6], prec=60)[0]
        assert row.agreement_digits == 5 and not row.cross_checked

    def test_disagreeing_routes_fail_the_command(self, monkeypatch, capsys):
        # at prec 1, where prec // 2 is 0, the planted route returns the unit 1
        # for coefficients of valuation -3 and -4: no digit agrees
        def unit_one(p, q, k, d, n_target, prec):
            return PadicNumber.from_rational(1, p, prec)

        plants = [([], off_in_fifth_digit(zeta.phi_series_coefficient), [5, 5]),
                  (["--prec", "1"], unit_one, [0, 0])]
        for flags, route, digits in plants:
            monkeypatch.setattr(zeta, "phi_series_coefficient", route)
            code = cli.main(["zeta-valuations", "--p", "3", "--k", "1", "--d", "4", "--N", "6,8", *flags])
            report = json.loads(capsys.readouterr().out)
            assert code == cli.EXIT_MATH == 1, flags
            assert report["verdict"] == "fail"
            assert [row["agreement_digits"] for row in report["rows"]] == digits
            assert not any(row["ok"] for row in report["rows"])

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            phi_valuation_profile(Family(3, 3, 1, 3), [6], 60)
