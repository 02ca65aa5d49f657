"""Twisting automorphisms of the operator algebra by formal d-th roots.

The twist by the pair (u, d) is conjugation by a d-th root of the unit u; it
never materialises the root.  Its full action is encoded by the coefficient
functions h[0], h[1], ... obtained from the first-order recurrence

    (l+1) h[l+1] = h[l]' + h[1] h[l],     h[0] = 1,  h[1] = -(1/d) u'/u,

which stay inside Q(x).  The module builds the twisted derivation, its
two-sided Laurent inverse, the substitution operators beta(g), and the unit
cocycles coupling the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cheeses import gauss_valuation
from .padics import INF, varpi_valuation, vp_factorial, vp_rational
from .ratfun import MobiusMap, RationalFunction, dlog
from .skew import SkewLaurentSeries, apply_to_function, star

RF = RationalFunction
DEPTH_SLACK = 6  # degrees the micro-inverse products keep below the window
H_MEMO_SIZE = 64  # h-sequences kept by h_sequence; cocycle-check meets about 21


@dataclass(frozen=True)
class TwistData:
    """The unit u, the root order d, and the action coefficients h[0..N]."""

    u: RF
    d: int
    h: tuple[RF, ...]

    @property
    def depth(self) -> int:
        return len(self.h) - 1


@lru_cache(maxsize=H_MEMO_SIZE)
def h_sequence(u: RF, d: int, depth: int, p: int) -> TwistData:
    """Coefficients h[0..depth] of the twist by (u, d); requires p coprime to d.

    Memoised per (u, d, depth, p): cocycle-check meets each unit many times,
    and TwistData and its RationalFunctions are immutable.
    """
    if u.is_zero():
        raise ValueError("u must be a unit")
    if d % p == 0:
        raise ValueError(f"d = {d} is divisible by p = {p}")
    h1 = dlog(u).scale(Fraction(-1, d))
    h: list[RF] = [RF.const(1), h1]
    for ell in range(1, depth):
        nxt = (h[ell].derivative() + h1 * h[ell]).scale(Fraction(1, ell + 1))
        h.append(nxt)
    return TwistData(u, d, tuple(h[: depth + 1]))


def theta_apply(tw: TwistData, q: SkewLaurentSeries) -> SkewLaurentSeries:
    """Apply the twist to a nonnegative-window operator, coefficient-linearly.

    theta(D^n) = n! sum_a h[n-a] D^a / a!, so the D^a coefficient of the image
    is (1/a!) sum_n (a_n n!) h[n-a]: each a_n is scaled by n! once, and each
    sum by 1/a! once.
    """
    if q.lo() < 0:
        raise ValueError("the twist acts on nonnegative windows here")
    if q.hi() > tw.depth:
        raise ValueError(f"h-sequence depth {tw.depth} < operator order {q.hi()}")
    scaled = {n: an.scale(math.factorial(n)) for n, an in q.coeffs.items()}
    out: dict[int, RF] = {}
    for a in range(q.hi() + 1):
        s = None
        for n, bn in scaled.items():
            if n >= a:
                term = bn * tw.h[n - a]
                s = term if s is None else s + term
        if s is not None and not s.is_zero():
            out[a] = s.scale(Fraction(1, math.factorial(a)))
    return SkewLaurentSeries(out, q.lo_exact, q.hi_exact)


def theta_partial(tw: TwistData) -> SkewLaurentSeries:
    """The twisted derivation theta(D) = D + h[1]."""
    return SkewLaurentSeries.of({1: RF.const(1), 0: tw.h[1]})


def xi_build(tw: TwistData, k_neg: int) -> SkewLaurentSeries:
    """Truncation of the two-sided inverse of theta(D):

        xi = sum_{n>=1} (-1)^(n-1) (n-1)! h[n-1] D^(-n),

    cut at D^(-k_neg).  Omitted degree -n carries valuation at least
    v_p((n-1)!) on the reference unit circle (h[n] has norm <= 1 there).
    """
    if k_neg < 1:
        raise ValueError("k_neg must be >= 1")
    if tw.depth < k_neg - 1:
        raise ValueError("h-sequence too shallow for the requested window")
    coeffs = {
        -n: tw.h[n - 1].scale((-1) ** (n - 1) * math.factorial(n - 1))
        for n in range(1, k_neg + 1)
    }
    return SkewLaurentSeries(coeffs, lo_exact=False)


@dataclass(frozen=True)
class ResidualReport:
    """Residual coefficients of a truncated identity, with their valuations."""

    residuals: tuple[tuple[int, Fraction], ...]  # degree -> reference valuation
    exact_zero_range: tuple[int, int]  # degrees checked to vanish identically
    threshold: Fraction
    ok: bool


def micro_inverse_residual(u: RF, d: int, k_neg: int, p: int) -> tuple[ResidualReport, ResidualReport]:
    """Residuals of xi * theta(D) - 1 and theta(D) * xi - 1 at window k_neg.

    Inside the window the truncated products must vanish identically (that is
    the content of the h-recurrence); at and below -k_neg the residuals are
    tail effects whose reference valuations must clear v_p(k_neg!).
    """
    tw = h_sequence(u, d, k_neg + DEPTH_SLACK, p)
    xi = xi_build(tw, k_neg)
    th = theta_partial(tw)
    lo = -k_neg - DEPTH_SLACK
    threshold = Fraction(vp_factorial(k_neg, p))
    reports = []
    for prod in (star(xi, th, lo=lo), star(th, xi, lo=lo)):
        resid = prod - SkewLaurentSeries.one()
        bad: list[tuple[int, Fraction]] = []
        ok = True
        for k in range(-k_neg + 1, 2):
            if not resid[k].is_zero():
                ok = False
                bad.append((k, gauss_valuation(resid[k], p)))
        vals = []
        for k in range(lo, -k_neg + 1):
            c = resid[k]
            if not c.is_zero():
                v = gauss_valuation(c, p)
                vals.append((k, v))
                if v < threshold:
                    ok = False
        reports.append(
            ResidualReport(tuple(bad + vals), (-k_neg + 1, 1), threshold, ok)
        )
    return reports[0], reports[1]


# ---------------------------------------------------------------------------
# Substitution operators beta(g) and cocycles
# ---------------------------------------------------------------------------


def displacement(g: MobiusMap) -> RF:
    """g.x - x as a rational function."""
    return g.act_x() - RF.x()


def in_group_of_radius(g: MobiusMap, p: int, r_exp: Fraction | int) -> bool:
    """Membership test for the radius-r substitution group.

    Entries must be p-integral with unit determinant and lower-left entry of
    positive valuation, and |b|, |c|, |a - d| < varpi/r translates to
    v > 1/(p-1) + r_exp for each of the three quantities.
    """
    ents = (g.a, g.b, g.c, g.d)
    if any(vp_rational(e, p) < 0 for e in ents if e != 0):
        return False
    if vp_rational(g.det, p) != 0:
        return False
    if g.c != 0 and vp_rational(g.c, p) <= 0:
        return False
    cut = varpi_valuation(p) + Fraction(r_exp)
    for e in (g.b, g.c, g.a - g.d):
        if e != 0 and vp_rational(e, p) <= cut:
            return False
    return True


def beta_build(g: MobiusMap, depth: int) -> SkewLaurentSeries:
    """Truncation of beta(g) = sum_n (g.x - x)^n D^[n] at order `depth`.

    Omitted order n carries reference valuation at least
    n * v(g.x - x) - v_p(n!) (`beta_tail_valuation`).  The truncation does
    not depend on p.
    """
    w = displacement(g)
    if w.is_zero():
        return SkewLaurentSeries.one()
    coeffs: dict[int, RF] = {0: RF.const(1)}
    wn = RF.const(1)
    for n in range(1, depth + 1):
        wn = wn * w
        coeffs[n] = wn.scale(Fraction(1, math.factorial(n)))
    return SkewLaurentSeries(coeffs, hi_exact=False)


def beta_tail_valuation(g: MobiusMap, depth: int, p: int) -> Fraction | float:
    """Infimum of n v(g.x - x) - v_p(n!) over the omitted orders n > depth: a
    lower bound for the reference valuation of every omitted beta term.

    With c = 1/(p-1) and v_p(n!) = (n - s_p(n)) c, the n-th term is
    n (v - c) + s_p(n) c >= n (v - c) + c, so for v > c the search stops once
    that bound reaches the least term found; for v = c the infimum is c,
    reached at the powers of p.  For v < c the tail is unbounded below, and
    a ValueError is raised.
    """
    w = displacement(g)
    if w.is_zero():
        return INF
    vw = gauss_valuation(w, p)
    c = Fraction(1, p - 1)
    if vw < c:
        raise ValueError(f"beta(g) diverges at p = {p}: v(g.x - x) = {vw} < 1/(p-1)")
    if vw == c:
        return c
    n = depth + 1
    best = n * vw - vp_factorial(n, p)
    while (n + 1) * (vw - c) + c < best:
        n += 1
        best = min(best, n * vw - vp_factorial(n, p))
    return best


def beta_substitution_exact(g: MobiusMap, m_max: int) -> bool:
    """beta(g) truncated at order m_max sends x^m to (g.x)^m exactly, m <= m_max."""
    b = beta_build(g, m_max)
    x, gx = RF.x(), g.act_x()
    return all(apply_to_function(b, x**m) == gx**m for m in range(m_max + 1))


def beta_homomorphism_ok(g: MobiusMap, h: MobiusMap, depth: int, p: int) -> bool:
    """beta(g) * beta(h) matches beta(gh) through order depth, within the tail
    budget of the two truncated factors."""
    tau = min(beta_tail_valuation(g, depth, p), beta_tail_valuation(h, depth, p))
    prod = star(beta_build(g, depth), beta_build(h, depth), hi=depth)
    bgh = beta_build(g * h, depth)
    for k in range(depth + 1):
        diff = prod[k] - bgh[k]
        if not diff.is_zero() and gauss_valuation(diff, p) < tau:
            return False
    return True


def cocycle(u: RF, d: int, g: MobiusMap, depth: int, p: int) -> RF:
    """Partial sum of c_{u,d}(g) = sum_m (g.x - x)^m h[m]; a rational function.

    The omitted tail has reference valuation > depth * v(g.x - x), so the
    partial sum determines the unit to that precision.
    """
    return cocycle_partial_sums(h_sequence(u, d, depth, p), displacement(g), depth)[-1]


def cocycle_partial_sums(tw: TwistData, w: RF, depth: int) -> list[RF]:
    """[sum_{m <= a} w^m h[m] for a = 0..depth], built in one pass."""
    out = [tw.h[0]]
    wm = w
    for m in range(1, depth + 1):
        out.append(out[-1] + wm * tw.h[m])
        if m < depth:
            wm = wm * w
    return out


def cocycle_identities(u: RF, v: RF, d: int, g: MobiusMap, depth: int, p: int) -> tuple[bool, bool, bool]:
    """The three cocycle identities at one sample, each to its precision:

    - c_u(g)^d = u/(g.u), within the tail budget (depth + 1) v(g.x - x);
    - c_(uv)(g) = c_u(g) c_v(g), within the same budget;
    - theta_u(beta(g)) has D^alpha coefficient beta(g)[alpha] c_u(g), with
      c_u(g) cut at order depth - alpha, exactly.

    Every cocycle value is read off one `cocycle_partial_sums` list per unit.
    """
    w = displacement(g)
    vw = gauss_valuation(w, p) if not w.is_zero() else INF
    tau = (depth + 1) * vw
    tw = h_sequence(u, d, depth, p)
    cu_sums = cocycle_partial_sums(tw, w, depth)
    cu = cu_sums[depth]
    # g.(1/u) = 1/(g.u): this factors u's numerator, not that of g.u
    diff = cu**d - u * g.act_function(u.inverse())
    power_ok = diff.is_zero() or gauss_valuation(diff, p) >= tau
    cuv = cocycle_partial_sums(h_sequence(u * v, d, depth, p), w, depth)[depth]
    cv = cocycle_partial_sums(h_sequence(v, d, depth, p), w, depth)[depth]
    diff = cuv - cu * cv
    mult_ok = diff.is_zero() or gauss_valuation(diff, p) >= tau
    bg = beta_build(g, depth)
    lhs = theta_apply(tw, bg)
    twist_ok = all(lhs[a] == bg[a] * cu_sums[depth - a] for a in range(depth + 1))
    return power_ok, mult_ok, twist_ok
