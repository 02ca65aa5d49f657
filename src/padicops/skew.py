"""Truncated skew-Laurent operator arithmetic over rational-function
coefficients: the star product, the action on functions, transpose, and
level-m divided-power bases.

An operator is a finite sum a_j * D^j (D = d/dx, j in Z).  Products follow
the bidirectional convolution

    (u * v)_k = sum_i u_i sum_m binom(i, m) delta^m(v_{k-i+m}).

For i >= 0 the inner sum is the D^k coefficient of D^i * v, which `star`
steps one D at a time (the Ore relation D a = a D + delta(a)); for i < 0 it
sums the binomial terms.  Either way u_i multiplies one inner sum per degree.
When the coefficients of the windows have their poles at one point r at
most, both halves and `transpose` run on integer lists, each window lifted
once over one denominator: N(x)/(x - r)^m becomes y^(-m) times the
numerators of N(y + r), y = x - r, so delta lowers the exponent, a product
adds exponents, and a cancelled pole is a leading zero, stripped when one
RationalFunction is built per output degree.  Windows with poles at two or
more points run the same loops on RationalFunctions.
Negative powers of D make true products infinite in the negative direction,
so every series records whether its stored support is complete on each side
(`lo_exact` / `hi_exact`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .padics import varpi_m_valuation, vp_factorial
from .ratfun import Poly, Rational, RationalFunction, _make, _raw_rf, conv, derive

RF = RationalFunction
DEFAULT_WINDOW = 40  # default K_neg = K_pos


def zbinom(i: int, m: int) -> int:
    """binom(i, m) for any integer upper index, integer m >= 0."""
    if m < 0:
        return 0
    if i >= 0:
        return math.comb(i, m) if m <= i else 0
    return (-1) ** m * math.comb(-i + m - 1, m)


def _rf(a) -> RF:
    if isinstance(a, RF):
        return a
    if isinstance(a, Poly):
        return _raw_rf(a, ())  # a polynomial has no pole to reduce
    return RF.const(a)


class SkewLaurentSeries:
    """Finite window of a (possibly infinite) operator series.

    coeffs maps D-degree to a RationalFunction; zero coefficients are not
    stored.  lo_exact / hi_exact state that the underlying object has no
    omitted terms below/above the stored window.
    """

    __slots__ = ("coeffs", "lo_exact", "hi_exact")

    def __init__(self, coeffs: Mapping[int, RF], lo_exact: bool = True, hi_exact: bool = True):
        self.coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
        self.lo_exact = lo_exact
        self.hi_exact = hi_exact

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> SkewLaurentSeries:
        return cls({})

    @classmethod
    def one(cls) -> SkewLaurentSeries:
        return cls({0: RF.const(1)})

    @classmethod
    def of(cls, coeffs: Mapping[int, object]) -> SkewLaurentSeries:
        return cls({k: _rf(v) for k, v in coeffs.items()})

    # -- basic structure ----------------------------------------------------

    def lo(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def hi(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def __getitem__(self, k: int) -> RF:
        return self.coeffs.get(k, RF.const(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewLaurentSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"({self.coeffs[k]})*D^{k}" for k in sorted(self.coeffs)]
        flags = "" if self.lo_exact and self.hi_exact else " (truncated)"
        return " + ".join(parts) + flags

    def __add__(self, other: SkewLaurentSeries) -> SkewLaurentSeries:
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return SkewLaurentSeries(
            out, self.lo_exact and other.lo_exact, self.hi_exact and other.hi_exact
        )

    def __neg__(self) -> SkewLaurentSeries:
        return SkewLaurentSeries(
            {k: -v for k, v in self.coeffs.items()}, self.lo_exact, self.hi_exact
        )

    def __sub__(self, other: SkewLaurentSeries) -> SkewLaurentSeries:
        return self + (-other)


def _poles(*windows: SkewLaurentSeries) -> set[Fraction]:
    """The points where coefficients of the windows have poles."""
    return {r for w in windows for c in w.coeffs.values() for r, _ in c.den_factors}


# With one pole point r at most, the loops run on integer lists over one
# denominator per window.  With no pole a coefficient is the list of its
# numerators.  With one pole point it is a Laurent pair (e, c), the function
# y^e sum_t c[t] y^t in y = x - r with e <= 0; c has no trailing zero (it is
# empty for 0) and keeps the leading zeros of a cancelled pole until
# `_unlift` strips them.  A pair with e = 0 stays a polynomial.  Pairs made
# star-props (all pole-free) about 8% slower than bare lists do, so a
# pole-free window carries bare lists.


_Laurent = tuple[int, Sequence[int]]


def _lift(w: SkewLaurentSeries, poles: set[Fraction]) -> tuple[dict[int, Sequence[int] | _Laurent], int]:
    """w's coefficients as integer lists over the lcm of their denominators,
    and that lcm; with a pole point r, N(x)/(x - r)^m becomes the pair
    (-m, the numerators of N(y + r))."""
    (r,) = poles or (0,)
    ns = {k: c.num.shift(r) if r else c.num for k, c in w.coeffs.items()}
    den = math.lcm(*(n.den for n in ns.values()))
    cs = {k: n.num if n.den == den else [x * (den // n.den) for x in n.num] for k, n in ns.items()}
    if not poles:
        return cs, den
    return {k: (-c.den_factors[0][1] if c.den_factors else 0, cs[k]) for k, c in w.coeffs.items()}, den


def _unlift(cs: Mapping[int, list[int] | _Laurent], den: int, poles: set[Fraction]) -> dict[int, RF]:
    """The loops' integer lists over den as RationalFunctions, one per degree:
    leading zeros strip cancelled pole orders, and y is shifted back to x - r."""
    if not poles:
        return {k: _raw_rf(_make(c, den), ()) for k, c in cs.items()}
    (r,) = poles
    out = {}
    for k, (e, c) in cs.items():
        if c:
            z = 0
            while e + z < 0 and not c[z]:
                z += 1
            num = _make(c[z:] if z else c, den)
            out[k] = _raw_rf(num.shift(-r) if r else num, ((r, -e - z),) if e + z < 0 else ())
    return out


def _plus(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The sum of two integer coefficient lists, with no trailing zero."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _times(c: Sequence[int], n: int) -> list[int]:
    return [x * n for x in c]


def _delta(a: _Laurent) -> _Laurent:
    """d/dy of y^e sum c_t y^t, which is y^(e-1) sum (e + t) c_t y^t; for
    e = 0 the polynomial derivative."""
    e, c = a
    if not e:
        return 0, derive(c)
    d = [(e + t) * x for t, x in enumerate(c)]
    while d and not d[-1]:
        d.pop()
    return e - 1, d


def _add(a: _Laurent, b: _Laurent) -> _Laurent:
    """The sum of two Laurent pairs, aligned at the lower exponent."""
    (e, c), (f, d) = a, b
    if e > f:
        e, c, f, d = f, d, e, c
    return e, _plus(c, [0] * (f - e) + list(d) if f > e else d)


def _mul(a: _Laurent, b: _Laurent) -> _Laurent:
    return a[0] + b[0], conv(a[1], b[1])


def _scale(a: _Laurent, n: int) -> _Laurent:
    return a[0], _times(a[1], n)


def _is_zero(a: _Laurent) -> bool:
    return not a[1]


def _ops(poles: set[Fraction]) -> tuple:
    """(delta, +, *, scale by an int, is_zero) on the coefficients the loops
    carry for windows with these poles: integer lists for none, Laurent
    pairs for one point, RationalFunctions for two or more."""
    if len(poles) > 1:
        return RF.derivative, RF.__add__, RF.__mul__, RF.scale, RF.is_zero
    if poles:
        return _delta, _add, _mul, _scale, _is_zero
    return derive, _plus, conv, _times, operator.not_


def star(
    u: SkewLaurentSeries, v: SkewLaurentSeries, lo: int | None = None, hi: int | None = None
) -> SkewLaurentSeries:
    """Star product of two stored windows, computed exactly.

    The (i, j) coefficient pair contributes binom(i, i+j-k) u_i delta^(i+j-k)(v_j)
    to degree k.  u is split by the sign of i and the two outputs are added
    (`_star_nonnegative`, `_star_negative`).  `lo` cuts the computation
    (defaulting to v's lower edge for nonnegative u, else to the windows'
    lower edge minus the default window size).  `hi`, when given, is an
    upper cut: no coefficient above it is formed; one below `lo` raises
    ValueError.  The result is lo_exact only if no nonzero term fell below
    `lo`, and hi_exact only if no pair was cut at `hi` (max i + max j > hi);
    it inherits the inputs' exactness.  When the coefficients of u and v have
    their poles at one point r at most, both halves run on integer lists in
    y = x - r (`_lift`, `_ops`), and one RF is built per output degree.
    """
    if u.is_zero() or v.is_zero():
        return SkewLaurentSeries.zero()
    if lo is None:
        # nonnegative u never reaches below v's window; Laurent u does
        lo = v.lo() if u.lo() >= 0 else u.lo() + v.lo() - DEFAULT_WINDOW
    if hi is not None and hi < lo:
        raise ValueError(f"empty window: hi = {hi} < lo = {lo}")
    poles = _poles(u, v)
    if len(poles) > 1:
        uc, vc = u.coeffs, v.coeffs
    else:
        (uc, du), (vc, dv) = _lift(u, poles), _lift(v, poles)
    ops = _ops(poles)
    pos = {i: ui for i, ui in uc.items() if i >= 0}
    neg = {i: ui for i, ui in uc.items() if i < 0}
    out = {}
    clipped = False
    if pos:
        out = _star_nonnegative(pos, vc, lo, hi, ops)
        # the term delta^m(v_j) D^(i+j-m), m <= i, falls below lo only for j < lo,
        # and first at m = max(0, i + j - lo + 1), which the least i makes smallest
        i0 = min(pos)
        clipped = any(j < lo and _survives(c, max(0, i0 + j - lo + 1)) for j, c in v.coeffs.items())
    if neg:
        out_neg, clipped_neg = _star_negative(neg, vc, lo, hi, ops)
        add = ops[1]
        for k, c in out_neg.items():
            out[k] = add(out[k], c) if k in out else c
        clipped = clipped or clipped_neg
    cut = hi is not None and u.hi() + v.hi() > hi
    lo_exact = u.lo_exact and v.lo_exact and not clipped
    hi_exact = u.hi_exact and v.hi_exact and not cut
    return SkewLaurentSeries(out if len(poles) > 1 else _unlift(out, du * dv, poles), lo_exact, hi_exact)


def _star_nonnegative(
    uc: Mapping[int, object], vc: Mapping[int, object], lo: int, hi: int | None, ops: tuple
) -> dict:
    """sum_i u_i P_i in degrees lo..hi for i >= 0.  P_0 = v and
    P_i = D * P_(i-1), stepped by D a D^k = a D^(k+1) + delta(a) D^k.
    D only raises degrees, so P_i is kept at degrees <= hi, and in full
    below lo, which P_i[lo] reads."""
    delta, add, mul, _, is_zero = ops
    out = {}
    P = {k: c for k, c in vc.items() if hi is None or k <= hi}
    for i in range(max(uc) + 1):
        if i:
            nxt = {}
            for k, c in P.items():
                d = delta(c)
                if not is_zero(d):
                    nxt[k] = add(nxt[k], d) if k in nxt else d
                if hi is None or k < hi:
                    nxt[k + 1] = add(nxt[k + 1], c) if k + 1 in nxt else c
            P = {k: c for k, c in nxt.items() if not is_zero(c)}
            if not P:
                break
        ui = uc.get(i)
        if ui is not None:
            for k, c in P.items():
                if k >= lo:
                    term = mul(ui, c)
                    out[k] = add(out[k], term) if k in out else term
    return out


def _survives(c: RF, m: int) -> bool:
    """delta^m(c) != 0 for c != 0: a pole survives every derivative."""
    return bool(c.den_factors) or c.num.degree() >= m


def _star_negative(uc: Mapping[int, object], vc: Mapping[int, object], lo: int, hi: int | None, ops: tuple):
    """sum_i u_i D^i * v for i < 0 in degrees lo..hi, and whether a term was
    clipped at lo.  Each delta^m(v_j) is computed once and shared by every i,
    each binom(i, m) once per (i, m)."""
    delta, add, mul, scale, is_zero = ops
    out = {}
    clipped = False
    # derivs[j][m] = delta^m(v_j), grown only as far as some pair needs it
    derivs = {j: [vj] for j, vj in vc.items()}
    for i, ui in uc.items():
        binoms: list[int] = []  # binom(i, m) != 0 for i < 0
        # inner[k] = sum_m binom(i, m) delta^m(v_(k-i+m)): v's poles only
        inner = {}
        for j, dj in derivs.items():
            m = 0 if hi is None or i + j <= hi else i + j - hi
            while True:
                while m >= len(dj):
                    dj.append(delta(dj[-1]))
                d = dj[m]
                if is_zero(d):
                    break
                k = i + j - m
                if k < lo:
                    clipped = True
                    break
                while m >= len(binoms):
                    binoms.append(zbinom(i, len(binoms)))
                b = binoms[m]
                term = d if b == 1 else scale(d, b)
                inner[k] = add(inner[k], term) if k in inner else term
                m += 1
        for k, s in inner.items():
            if not is_zero(s):
                term = mul(ui, s)
                out[k] = add(out[k], term) if k in out else term
    return out, clipped


def apply_to_function(u: SkewLaurentSeries, f: RF | Poly | Rational) -> RF:
    """sum_{j >= 0} a_j f^(j): the action on functions (skew-Tate part only)."""
    f = _rf(f)
    derivs: list[RF] = [f]
    top = max((j for j in u.coeffs if j >= 0), default=-1)
    for _ in range(top):
        derivs.append(derivs[-1].derivative())
    out = RF.const(0)
    for j, aj in u.coeffs.items():
        if j >= 0:
            out = out + aj * derivs[j]
    return out


def transpose(u: SkewLaurentSeries) -> SkewLaurentSeries:
    """The anti-automorphism with a^T = a, D^T = -D; requires a nonnegative window.

    A window whose coefficients have one pole point at most runs the loop on
    integer lists, as `star` does.
    """
    if u.lo() < 0:
        raise ValueError("transpose needs a nonnegative window")
    poles = _poles(u)
    if len(poles) > 1:
        uc = u.coeffs
    else:
        uc, den = _lift(u, poles)
    delta, add, _, scale, is_zero = _ops(poles)
    out = {}
    for j, d in uc.items():
        # (a_j D^j)^T = (-1)^j D^j * a_j = (-1)^j sum_k binom(j, j-k) delta^(j-k)(a_j) D^k
        for k in range(j, -1, -1):
            if is_zero(d):
                break
            term = scale(d, zbinom(j, j - k) * (-1) ** j)
            out[k] = add(out[k], term) if k in out else term
            if k:
                d = delta(d)
    return SkewLaurentSeries(out if len(poles) > 1 else _unlift(out, den, poles), u.lo_exact, u.hi_exact)


# ---------------------------------------------------------------------------
# Level-m divided powers
# ---------------------------------------------------------------------------


def qfloor(k: int, m: int, p: int) -> int:
    return k // p**m


def binomb(k: int, kp: int, m: int, p: int) -> int:
    """q_k! / (q_k'! q_k''!) for k' + k'' = k; always a natural number."""
    if not 0 <= kp <= k:
        raise ValueError("need 0 <= k' <= k")
    qk, qa, qb = qfloor(k, m, p), qfloor(kp, m, p), qfloor(k - kp, m, p)
    num = math.factorial(qk)
    den = math.factorial(qa) * math.factorial(qb)
    if num % den:
        raise ValueError(f"q_{k}! is not divisible by q_{kp}! q_{k - kp}! at level {m}, p = {p}")
    return num // den


def binoma(k: int, kp: int, m: int, p: int) -> Fraction:
    """binom(k, k') / binomb(k, k'); a p-adic integer."""
    return Fraction(math.comb(k, kp), binomb(k, kp, m, p))


@dataclass(frozen=True)
class DividedPowerOperator:
    """Finite sum b_k D^<k> in the level-m basis D^<k> = q_k! D^k / k!."""

    level: int
    p: int
    coeffs: tuple[tuple[int, RationalFunction], ...]


def to_level_m(u: SkewLaurentSeries, m: int, p: int) -> DividedPowerOperator:
    """Rewrite sum a_k D^k as sum b_k D^<k>: b_k = a_k k!/q_k!."""
    if u.lo() < 0:
        raise ValueError("negative degrees have no level-m divided power")
    out = []
    for k in sorted(u.coeffs):
        c = Fraction(math.factorial(k), math.factorial(qfloor(k, m, p)))
        out.append((k, u.coeffs[k].scale(c)))
    return DividedPowerOperator(m, p, tuple(out))


def from_level_m(op: DividedPowerOperator) -> SkewLaurentSeries:
    out: dict[int, RF] = {}
    for k, bk in op.coeffs:
        c = Fraction(math.factorial(qfloor(k, op.level, op.p)), math.factorial(k))
        out[k] = bk.scale(c)
    return SkewLaurentSeries(out)


def epsilon_valuation(n: int, m: int, p: int) -> Fraction:
    """v_p of the scalar linking (D/w_m)^n to D^<n> at level m.

    For n >= 0 the scalar is n!/(w_m^n q_n!); for n < 0 it is
    w_m^{|n|} l! i! / (i p^m)! with i = ceil(|n|/p^m), l = i p^m - |n|.
    The value always lies in [-m, 0].
    """
    pm = p**m
    wv = varpi_m_valuation(m, p)
    if n >= 0:
        return vp_factorial(n, p) - n * wv - vp_factorial(qfloor(n, m, p), p)
    nn = -n
    i = -(-nn // pm)
    ell = i * pm - nn
    return nn * wv + vp_factorial(ell, p) + vp_factorial(i, p) - vp_factorial(i * pm, p)

