"""Construction and verification of the formal solution to nabla(z) = c - 1
at infinity, and the valuation blow-up of its coefficients.

Everything lives in the coordinate y = p/x, where the twisted derivation
transported from the unit w = (x^q - p^(q-1) x)^(-k) reads

    nabla(f) = -(1/p) [ y^2 f' - (qk/d) y f - (k(q-1)/d) y^q f/(1-y^(q-1)) ].

Series coefficients are exact rationals for all identity checks; the long
valuation profile reduces them to capped-precision p-adic numbers and
cross-checks the carry-combinatorics route coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .carries import CheckFailed, Family, SpecialIndex, sum_estimate, SumReport
from .padics import PadicNumber, _ppow, _split, padic_binom, vp_int, vp_rational
from .ratfun import conv
from .series import QSeries, binomial_series

F = Fraction


def unit_ratio(p: int, q: int, order: int) -> tuple[QSeries, list[Fraction]]:
    """w/(h^{-1}.w) for k = 1 as an exact series, plus the polynomial f with
    ratio = 1 + p y f(y)/(1 - y^(q-1)); f must have integer coefficients.
    """
    # N = y(1-y)^q - y^q(1-y) and D = y - y^q, as series in y
    width = order + q + 2
    onemy = binomial_series(q, width)  # (1-y)^q
    N = onemy.shift(1) - (QSeries.one(width) - QSeries.of([0, 1], width)).shift(q)
    D = QSeries.of([0, 1], width) - QSeries.of([0] * q + [1], width)
    ratio = QSeries(N.coeffs[1:]) * QSeries(D.coeffs[1:]).inverse()
    ratio = ratio.truncate(order)
    # f = (N - D)/(p y^2), which must land in Z[y]
    diff = N - D
    if diff[0] != 0 or diff[1] != 0:
        raise CheckFailed("ratio is not 1 mod y^2")
    fpoly = []
    for j in range(2, q + 2):
        c = diff[j] / p
        if c.denominator != 1:
            raise CheckFailed(f"f coefficient {c} at y^{j - 2} is not an integer")
        fpoly.append(c)
    return ratio, fpoly


def build_cocycle_c(fam: Family, order: int) -> QSeries:
    """The unit c with c^d = (w/(h^{-1}.w))^k, normalised by constant term 1.

    Built as ratio^lam by the binomial series; with lam = a/b in lowest terms
    the power c^b is re-checked against ratio^a, the exact ratio's power.
    """
    lam = fam.lam
    ratio, _ = unit_ratio(fam.p, fam.q, order)
    c = ratio.pow_fractional(lam)
    if not (c**lam.denominator - ratio**lam.numerator).is_zero():
        raise CheckFailed("c^d does not recover the unit ratio")
    if c[0] != 1:
        raise CheckFailed(f"c has constant term {c[0]}, not 1")
    return c


@dataclass(frozen=True)
class JReport:
    alphas: tuple[Fraction, ...]
    residual_zero: bool


def alpha_and_j(fam: Family, count: int) -> JReport:
    """The integral coefficients a_m = (-1)^m binom(lam, m) / ((q-1)m - q lam - 1),
    m < count, and the check that (y d/dy - q lam - 1) applied to
    A = sum a_m y^((q-1)m) recovers (1 - y^(q-1))^lam, whose binomials
    `binomial_series` derives on its own.
    """
    if count < 1:
        raise ValueError(f"count = {count} must be at least 1")
    q, lam = fam.q, fam.lam
    alphas = []
    b = F(1)
    for m in range(count):
        den = (q - 1) * m - q * lam - 1
        if den == 0:
            raise ZeroDivisionError("vanishing denominator: qk/d is an integer")
        alphas.append(b * (-1) ** m / den)
        b *= F(lam - m, m + 1)
    order = (q - 1) * (count - 1) + 1
    coeffs = [F(0)] * order
    for m, am in enumerate(alphas):
        coeffs[(q - 1) * m] = am
    A = QSeries(tuple(coeffs))
    resid = A.euler_derivative() - A.scale(q * lam + 1) - binomial_series(lam, order, q - 1)
    return JReport(tuple(alphas), resid.is_zero())


def zeta_series(fam: Family, order: int) -> QSeries:
    """The formal solution, assembled from its closed form:

        z = p (1-y^(q-1))^(-k/d) sum_r binom(k/d, r)(-1)^r y^((q-1)r) B_r,
        B_r = ((1-y)^(mu_r) - 1)/(mu_r y),   mu_r = 1 + qk/d - (q-1) r.

    With k/d = ln/ld, every summand is an integer over ld^(order-1) order!.
    """
    p, q, lam = fam.p, fam.q, fam.lam
    ln, ld = lam.numerator, lam.denominator
    c = q - 1
    fact = factorial(order)
    S = [0] * order
    bk = 1  # (-1)^r binom(k/d, r) ld^r r!
    r = 0
    while c * r < order:
        blen = order - c * r
        m1 = q * ln - c * r * ld  # (mu_r - 1) ld
        b = 1  # binom(mu_r - 1, n) ld^n n!
        # w = bk ld^(order-1-r-n) order! / (r! (n+1)!), an integer while n < blen
        w = bk * ld ** (order - 1 - r) * (fact // factorial(r))
        for n in range(blen):
            S[c * r + n] += (w if n % 2 else -w) * b
            b *= m1 - n * ld
            w //= ld * (n + 2)
        bk *= r * ld - ln
        r += 1
    return (QSeries.over(S, ld ** (order - 1) * fact) * binomial_series(-lam, order, q - 1)).scale(p)


def nabla_apply(f: QSeries, fam: Family) -> QSeries:
    """-(1/p)[y^2 f' - q lam y f - (q-1) lam y^q f/(1-y^(q-1))]."""
    q, lam = fam.q, fam.lam
    t1 = f.euler_derivative().shift(1)
    t2 = f.shift(1).scale(q * lam)
    t3 = f.over_one_minus(q - 1).shift(q).scale((q - 1) * lam)
    return (t1 - t2 - t3).scale(F(-1, fam.p))


def _solve_recurrence(fam: Family, c: QSeries, order: int) -> QSeries:
    """Solve nabla(z) = c - 1 term by term; c must be known to order + 1.

    With g = (1-y^(q-1))^(k/d) z the equation reads
    y (y d/dy - qk/d)(g) = -p (1-y^(q-1))^(k/d) (c - 1), so
    g_n = -p [eps (c-1)]_(n+1) / (n - qk/d), never dividing by zero.
    """
    p, q, lam = fam.p, fam.q, fam.lam
    eps = binomial_series(lam, order + 1, q - 1)
    rhs = (eps * (c - QSeries.one(order + 1))).scale(-p)
    g = []
    for n in range(order):
        den = n - q * lam
        if den == 0:
            raise CheckFailed(f"vanishing denominator at n = {n}: qk/d is an integer")
        g.append(rhs[n + 1] / den)
    return QSeries(tuple(g)) * binomial_series(-lam, order, q - 1)


@dataclass(frozen=True)
class OdeReport:
    order: int
    residual_is_zero: bool
    recurrence_matches: bool
    max_nonzero_index: int | None
    solution: QSeries  # the closed form z through y^(order-1)
    c: QSeries  # the unit c through y^order


def ode_residual(fam: Family, order: int) -> OdeReport:
    """nabla(z) - (c - 1) must vanish identically on all retained coefficients,
    and the closed form must agree with the term-by-term solution.  Raises
    CheckFailed when c fails its own checks."""
    z = zeta_series(fam, order)
    c = build_cocycle_c(fam, order + 1)
    resid = nabla_apply(z, fam) - (c.truncate(order) - QSeries.one(order))
    bad = [j for j in range(order) if resid[j] != 0]
    z2 = _solve_recurrence(fam, c, order)
    return OdeReport(order, not bad, (z - z2).is_zero(), max(bad) if bad else None, z, c)


def convergence_margin(z: QSeries, p: int) -> Fraction:
    """min_j (v_p(z_j) + j): nonnegative means the partial sums converge on
    the disc of radius |p| with bounded sup norms."""
    best = None
    for j, c in enumerate(z.coeffs):
        if c != 0:
            v = Fraction(vp_rational(c, p)) + j
            best = v if best is None else min(best, v)
    if best is None:
        raise CheckFailed("z has no nonzero coefficient")
    return best


# ---------------------------------------------------------------------------
# The function (xi beta(h))_0 and its differential equation
# ---------------------------------------------------------------------------


def h_sequence_y(fam: Family, depth: int, order: int) -> list[QSeries]:
    """Twist coefficients h[0..depth] of (w, d) in the y-coordinate.

    The transported derivation is D = -(1/p) y^2 d/dy and, with lam = k/d,
    h[1] = -(1/d) D(w)/w = (lam/p) [q y + (q-1) y^q/(1-y^(q-1))]
         = (lam/p) (q y - y^q)/(1 - y^(q-1));
    each h[n] is a power series of order >= n.  A product with h[1] is two
    shifts and one division by 1 - y^(q-1), all O(order).
    """
    p, q, lam = fam.p, fam.q, fam.lam

    def times_h1(f: QSeries) -> QSeries:
        return (f.shift(1).scale(q) - f.shift(q)).over_one_minus(q - 1).scale(lam / p)

    hs = [QSeries.one(order), times_h1(QSeries.one(order))]
    for ell in range(1, depth):
        dh = hs[ell].euler_derivative().shift(1).scale(F(-1, p))
        hs.append((dh + times_h1(hs[ell])).scale(F(1, ell + 1)))
    return hs[: depth + 1]


@dataclass(frozen=True)
class XvZeroReport:
    order: int
    leading_term: Fraction  # the n = 1 contribution, which must be p
    residual_is_zero: bool
    max_nonzero_index: int | None


def xvzero_series(fam: Family, c: QSeries) -> XvZeroReport:
    """Build (xi beta(h))_0 = -sum_{n>=1} (1/n)(-p)^n h[n-1] and check that
    nabla of it equals 1 - c exactly, coefficient by coefficient.

    The working order is that of c (from `build_cocycle_c`).  h[n] has
    y-order >= n, so the sum truncated at n = order is y-adically exact to
    the working order.
    """
    order, p = c.order, fam.p
    hs = h_sequence_y(fam, order, order)
    f = QSeries.zero(order)
    pw = 1
    for n in range(1, order + 1):
        pw *= -p
        f = f + hs[n - 1].scale(F(-pw, n))
    resid = nabla_apply(f, fam) - (QSeries.one(order) - c)
    bad = [j for j in range(order) if resid[j] != 0]
    return XvZeroReport(order, f[0], not bad, max(bad) if bad else None)


# ---------------------------------------------------------------------------
# Valuation profile: series route vs carry-combinatorics route
# ---------------------------------------------------------------------------


def phi_series_coefficient(p: int, q: int, k: int, d: int, n_target: int, prec: int) -> PadicNumber:
    """Coefficient of s^n_target in (1/p)(1-s)^(k/d) Phi(zeta), s = y^(q-1),
    known mod p^prec, from the solution's own equation in O(n + prec^2) steps.

    With lam = k/d, J = (q-1)n + 1 and D = (q-1)n - q lam, the recurrence
    for g = (1-s)^lam zeta gives the coefficient as -[y^J] (1-s)^lam (c-1) / D,
    and c - 1 = sum_m binom(lam, m) p^m y^m f^m (1-s)^(-m) with f in Z[y]
    from `unit_ratio`.  The m-th term has valuation >= m, so stopping at
    m <= P = prec + v_p(D) is exact mod p^(P+1).  One O(n) padic_binom gives
    binom(lam, n); every binom(lam - m, i) after it is one exact step away.
    Each inner sum over i, of p-integral binomials, is one numerator over its
    steps' running denominator mod p^(P+1): one modular inverse per m.

    It alone in this module takes the family as (p, q, k, d), not as a
    `Family`: the benchmark's tracer reads n_target as its fifth positional
    argument, so it builds the `Family` itself.
    """
    lam = Family(p, q, k, d).lam
    ln, ld = lam.numerator, lam.denominator
    n, c = n_target, q - 1
    J = c * n + 1
    dnum = c * n * ld - q * ln  # D = dnum/ld, never 0 since lam is not an integer
    P = prec + vp_int(dnum, p)
    R = P + 1  # every binomial is p-integral, so relprec R means absprec >= R
    mod = p**R
    fpoly = [int(a) for a in unit_ratio(p, q, 1)[1]]
    fm = [1]  # f^m mod p^R
    bm = PadicNumber.from_rational(1, p, R)  # binom(lam, m)
    top = padic_binom(lam, n, p, R)  # binom(lam - m, n)
    S = PadicNumber.zero(p, R)
    for m in range(1, min(P, J) + 1):
        fm = [a % mod for a in conv(fm, fpoly)]
        bm = bm.mul_rational(ln - (m - 1) * ld, ld * m, R)
        top = top.mul_rational(ln + (1 - m - n) * ld, ln + (1 - m) * ld, R)  # across in m
        # [y^(J-m)] f^m (1-s)^(lam-m): l = J - m - c i must lie in 0..deg f^m
        i_hi = (J - m) // c
        i_lo = max(0, -((m * q - J) // c))
        # b = binom(lam - m, i) as p^vb * bn/bd, p-integral, and the inner sum
        # as sn/bd mod p^R: one inverse per m
        vb, bn, bd, sn = top.val, top.unit, 1, 0
        for i in range(n, i_lo - 1, -1):
            if i <= i_hi:
                a = fm[J - m - c * i]
                if a:
                    sn = (sn + _ppow(p, vb) * bn * (-a if i % 2 else a)) % mod
            if i > i_lo:
                x, y, w = _split(i * ld, ln - (m + i - 1) * ld, p)  # down in i
                vb, bn, bd, sn = vb + w, bn * x % mod, bd * y % mod, sn * y % mod
        # the inner sum mod p^R with absprec R, as PadicNumber adds leave it
        u, inner = sn * pow(bd, -1, mod) % mod, PadicNumber.zero(p, R)
        if u:
            u, _, v = _split(u, 1, p)
            inner = PadicNumber(p, v, u, R - v)
        S = S + (bm * inner).mul_rational(p**m, 1, R)
    return S.mul_rational(-ld, dnum, R)


@dataclass(frozen=True)
class ProfileRow:
    idx: SpecialIndex
    report: SumReport
    series_value: PadicNumber
    agreement_digits: int
    cross_checked: bool


def phi_valuation_profile(fam: Family, n_list: list[int], prec: int) -> list[ProfileRow]:
    """For each N: the valuation of the coefficient sum via the carry route,
    and the independent series route for the same coefficient; the row is
    cross-checked when both values agree to at least prec/2 digits, and on
    one digit at the least.

    The series route computes the coefficient of s^n in (1/p)(1-s)^(k/d)
    Phi(zeta), which equals minus the carry-route sum.
    """
    rows = []
    for N in n_list:
        idx = fam.index(N)
        rep = sum_estimate(idx, prec)
        coeff = phi_series_coefficient(fam.p, fam.q, fam.k, fam.d, idx.n, prec)
        diff = coeff + rep.total
        vd = diff.absprec if diff.is_zero() else diff.val
        digits = int(vd - rep.total.val)
        rows.append(ProfileRow(idx, rep, coeff, digits, digits >= max(1, prec // 2)))
    return rows
