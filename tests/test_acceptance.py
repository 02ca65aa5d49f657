"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible regardless of pytest capture)
and asserts the criterion exactly; no tolerance is deferred to runtime
calibration.
"""

import math
import random
import sys
import time
from fractions import Fraction as F

from padicops import carries, cheeses, dwork, skew, twists, zeta
from padicops.padics import (
    binom_rational,
    varpi_m_valuation,
    vp_factorial,
    vp_rational,
)
from padicops.ratfun import MobiusMap, Poly, RationalFunction

RF = RationalFunction


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_sum_estimate_reproduction():
    """Dominant-term valuations: equality, bound, strict decrease, runtime."""
    families = [
        (3, 1, 1, 4, (6, 8, 10)),
        (2, 1, 1, 3, (6, 8, 10)),
        (3, 1, 3, 4, (7, 9)),  # the k = q odd-level family, desk-scale capped
    ]
    ok = True
    details = []
    for p, f, k, d, levels in families:
        fam = carries.Family(p, p**f, k, d)
        prev = None
        for N in levels:
            t0 = time.monotonic()
            idx = fam.index(N)
            rep = carries.sum_estimate(idx, 60)
            dt = time.monotonic() - t0
            ok &= rep.v_sum == rep.v_dominant
            ok &= rep.v_sum <= F(3 - N, 2)
            ok &= prev is None or rep.v_sum < prev
            ok &= dt <= 60
            prev = rep.v_sum
            details.append(f"({p},{f},{k},{d})N={N}:v={rep.v_sum}")
    report("criterion 1: sum-estimate reproduction", ok, " ".join(details))


def test_criterion_2_zeta_cross_validation():
    """Series-route and carry-route coefficients agree to >= 30 digits on every
    row, and the valuation profile matches the criterion-1 table exactly."""
    rows = zeta.phi_valuation_profile(carries.Family(3, 3, 1, 4), [6, 8, 10], prec=60)
    ok = len(rows) == 3 and all(row.cross_checked and row.agreement_digits >= 30 for row in rows)
    table = []
    for row, want in zip(rows, (-3, -4, -5)):
        ok &= row.report.v_sum == want == row.report.v_dominant
        table.append(f"N={row.idx.N}:v={row.report.v_sum}:digits={row.agreement_digits}")
    report("criterion 2: zeta cross-validation", ok, " ".join(table))


def test_criterion_3_ode_residual():
    """The equation residual vanishes identically through y^200."""
    rep = zeta.ode_residual(carries.Family(3, 3, 1, 4), 201)
    ok = rep.residual_is_zero and rep.recurrence_matches
    report("criterion 3: ode residual through y^200", ok, f"order={rep.order}")


def test_criterion_4_micro_inverse():
    """Two-sided inverse residuals at window 20 meet the tail threshold and
    strictly increase when the window doubles to 40 (p = 5)."""
    x = RF.x()
    ok = True
    details = []
    for k in (1, 2, 3):
        for d in (2, 3):
            r20 = twists.micro_inverse_residual(x**k, d, 20, 5)
            r40 = twists.micro_inverse_residual(x**k, d, 40, 5)
            for side20, side40 in zip(r20, r40):
                ok &= side20.ok and side40.ok
                m20 = min(v for _, v in side20.residuals)
                m40 = min(v for _, v in side40.residuals)
                ok &= m40 > m20
            details.append(f"x^{k},d={d}:v20={min(v for _, v in r20[0].residuals)}")
    report("criterion 4: micro-inverse residuals", ok, " ".join(details))


def test_criterion_5_dwork_identities():
    """Projector identities and the descent relation with exact zeros, K=12."""
    ok = True
    for q in (2, 3):
        rep = dwork.dwork_identities(q, 12)
        ok &= rep.ok and rep.checked_orders[-1] == 12 - q
        for lam, i in [(F(1, 2), 1), (F(0), 0), (F(2, 3), q - 1), (F(5), 1)]:
            ok &= dwork.frobenius_relation(q, lam, i, 12).ok
    report("criterion 5: dwork identities", ok, "q in {2,3}, K=12, exact zeros")


def test_criterion_6_beta_cocycle_suite():
    """Substitution operators: exact action for translations up to x^30;
    50 sampled (g, u): group homomorphism and d-th power identity within
    tail bounds."""
    p = 5
    rng = random.Random(12)
    x = RF.x()
    ok = True

    g = MobiusMap.translation(p)
    b = twists.beta_build(g, 31)
    for m in range(31):
        ok &= skew.apply_to_function(b, x**m) == (x + RF.const(p)) ** m

    depth = 8
    hom_fail = pow_fail = 0
    for _ in range(50):
        if rng.random() < 0.5:
            g1 = MobiusMap.translation(p * rng.randrange(1, 20))
        else:
            g1 = _sample_group_element(rng, p)
        g2 = _sample_group_element(rng, p)
        u = RF.from_factors(1, {F(p * rng.randrange(0, 3)): rng.randrange(1, 4)})
        d = rng.choice([2, 3])

        tau = min(
            twists.beta_tail_valuation(g1, depth, p), twists.beta_tail_valuation(g2, depth, p)
        )
        prod = skew.star(twists.beta_build(g1, depth), twists.beta_build(g2, depth))
        bgh = twists.beta_build(g1 * g2, depth)
        for kk in range(depth + 1):
            diff = prod[kk] - bgh[kk]
            if not diff.is_zero() and cheeses.gauss_valuation(diff, p) < tau:
                hom_fail += 1
                break

        w = twists.displacement(g1)
        if not w.is_zero():
            tau_c = (depth + 1) * cheeses.gauss_valuation(w, p)
            c = twists.cocycle(u, d, g1, depth, p)
            diff = c**d - u / g1.act_function(u)
            if not diff.is_zero() and cheeses.gauss_valuation(diff, p) < tau_c:
                pow_fail += 1
    ok &= hom_fail == 0 and pow_fail == 0
    report(
        "criterion 6: beta/cocycle suite",
        ok,
        f"translations exact to x^30; 50 samples, hom_fail={hom_fail}, pow_fail={pow_fail}",
    )


def _sample_group_element(rng: random.Random, p: int) -> MobiusMap:
    while True:
        g = MobiusMap.of(
            1 + p * rng.randrange(-2, 3),
            p * rng.randrange(-2, 3),
            p * p * rng.randrange(-1, 2),
            1 + p * rng.randrange(-2, 3),
        )
        if g.det != 0 and vp_rational(g.det, p) == 0 and twists.in_group_of_radius(
            g, p, F(-1, 2 * (p - 1))
        ):
            return g


def test_criterion_7_carry_suite():
    """Kummer valuations against oracles (10^4 integer + 10^3 rational cases),
    and the digit-pattern and M-value tables across the full grid."""
    rng = random.Random(99)
    ok = True
    for _ in range(10**4):
        p = rng.choice([2, 3, 5])
        lam, n = rng.randrange(0, 10**4), rng.randrange(0, 10**4)
        want = vp_factorial(lam + n, p) - vp_factorial(lam, p) - vp_factorial(n, p)
        if carries.vp_binom_kummer(lam, n, p) != want:
            ok = False
            break
    rational_ok = True
    for _ in range(10**3):
        p = rng.choice([2, 3, 5])
        den = rng.choice([t for t in range(1, 30) if t % p != 0])
        lam = F(rng.randrange(-1000, 1000), den)
        n = rng.randrange(0, 500)
        want = vp_rational(binom_rational(lam + n, n), p)
        if carries.vp_binom_kummer(lam, n, p) != want:
            rational_ok = False
            break
    ok &= rational_ok
    grid_ok = True
    cells = 0
    for p in (2, 3, 5):
        q = p
        for k in range(1, q + 1):
            for N in (6, 8, 10):
                if N % 2 != carries.required_parity(k, q):
                    N += 1
                idx = carries.Family(p, q, k, q + 1).index(N)
                rep = carries.qexp_check(idx)
                grid_ok &= idx.M == carries.expected_M(k, q, N) and rep.ok
                cells += 1
    ok &= grid_ok
    report(
        "criterion 7: carry suite",
        ok,
        f"1e4 integer + 1e3 rational cases; {cells} grid cells of patterns",
    )


def test_criterion_8_algebra_property_suite():
    """Star associativity, transpose involution, level round trips and
    scaling-valuation windows, factorial inequalities: zero failures."""
    rng = random.Random(2024)

    def rand_op(lo):
        coeffs = {}
        for k in range(lo, lo + rng.randint(1, 4)):
            coeffs[k] = Poly(tuple(F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))))
        return skew.SkewLaurentSeries.of(coeffs or {0: Poly.of(1)})

    assoc_fail = 0
    for _ in range(300):
        u, v, w = (rand_op(rng.randint(-20, 16)) for _ in range(3))
        # polynomial coefficients make every product finite, so the default
        # window never clips and the identity must hold exactly
        lhs = skew.star(skew.star(u, v), w)
        rhs = skew.star(u, skew.star(v, w))
        if not (lhs.lo_exact and rhs.lo_exact) or lhs != rhs:
            assoc_fail += 1

    transp_fail = 0
    for _ in range(300):
        u, v = rand_op(0), rand_op(0)
        if skew.transpose(skew.transpose(u)) != u:
            transp_fail += 1
        if skew.transpose(skew.star(u, v)) != skew.star(skew.transpose(v), skew.transpose(u)):
            transp_fail += 1

    level_fail = 0
    for _ in range(300):
        u = rand_op(0)
        m = rng.choice([1, 2, 3])
        if skew.from_level_m(skew.to_level_m(u, m, 3)) != u:
            level_fail += 1
    eps_fail = 0
    for p in (2, 3):
        for m in (1, 2, 3):
            for n in range(0, 10**4 + 1, 7):
                if not -m <= skew.epsilon_valuation(n, m, p) <= 0:
                    eps_fail += 1
                if not -m <= skew.epsilon_valuation(-n, m, p) <= 0:
                    eps_fail += 1

    fact_fail = 0
    for p in (2, 3, 5):
        for n in range(1, 10**5 + 1):
            gap = F(n, p - 1) - vp_factorial(n, p)
            if not (0 <= gap <= 1 + math.log(n, p) + 1e-9):
                fact_fail += 1
    binomest_fail = 0
    for p, m in [(2, 1), (2, 4), (3, 2), (3, 4), (5, 3)]:
        wv = varpi_m_valuation(m, p)
        for k in range(0, 10**4 + 1, 3):
            val = vp_factorial(k, p) - vp_factorial(k // p**m, p) - k * wv
            if not -m <= val <= 0:
                binomest_fail += 1

    fails = dict(
        associativity=assoc_fail,
        transpose=transp_fail,
        level_round_trip=level_fail,
        epsilon_window=eps_fail,
        factorial_window=fact_fail,
        level_factorial_window=binomest_fail,
    )
    ok = all(v == 0 for v in fails.values())
    report("criterion 8: algebra property suite", ok, str(fails))
