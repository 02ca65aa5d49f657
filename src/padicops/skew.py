"""Truncated skew-Laurent operator arithmetic over rational-function
coefficients: the star product, the action on functions, transpose, and
level-m divided-power bases.

An operator is a finite sum a_j * D^j (D = d/dx, j in Z).  Products follow
the bidirectional convolution

    (u * v)_k = sum_i u_i sum_m binom(i, m) delta^m(v_{k-i+m}).

For i >= 0 the inner sum is the D^k coefficient of D^i * v, which `star`
steps one D at a time (the Ore relation D a = a D + delta(a)); for i < 0 it
sums the binomial terms.  Either way u_i multiplies one inner sum per degree.
When no coefficient has a pole, the i >= 0 steps and `transpose` run on
plain integer lists, each window lifted once over one denominator.
Negative powers of D make true products infinite in the negative direction,
so every series records whether its stored support is complete on each side
(`lo_exact` / `hi_exact`).
"""

from __future__ import annotations

import math
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

    def support(self) -> list[int]:
        return sorted(self.coeffs)

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
        parts = [f"({self.coeffs[k]})*D^{k}" for k in self.support()]
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


def _numerators(*windows: SkewLaurentSeries) -> tuple[list[Mapping[int, RF | Poly]], bool]:
    """Each window's coefficient map, and whether the maps hold the Poly
    numerators: they do when no coefficient of any window has a pole."""
    if any(c.den_factors for w in windows for c in w.coeffs.values()):
        return [w.coeffs for w in windows], False
    return [{k: c.num for k, c in w.coeffs.items()} for w in windows], True


def _as_rf(out: dict[int, RF | Poly], pole_free: bool) -> dict[int, RF]:
    """The loop's output coefficients as RationalFunctions."""
    return {k: _raw_rf(c, ()) for k, c in out.items()} if pole_free else out


def _lift(cs: Mapping[int, Poly]) -> tuple[dict[int, Sequence[int]], int]:
    """The Polys' numerators over the lcm of their denominators, and the lcm."""
    den = math.lcm(*(c.den for c in cs.values()))
    return {k: c.num if c.den == den else [x * (den // c.den) for x in c.num] for k, c in cs.items()}, den


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
    it inherits the inputs' exactness.  When no coefficient of u or v has a
    pole, the i >= 0 half steps integer lists (`_star_nonnegative_ints`), the
    i < 0 half runs on the Poly numerators, and each output coefficient is
    wrapped back as a pole-free RF.
    """
    if u.is_zero() or v.is_zero():
        return SkewLaurentSeries.zero()
    if lo is None:
        # nonnegative u never reaches below v's window; Laurent u does
        lo = v.lo() if u.lo() >= 0 else u.lo() + v.lo() - DEFAULT_WINDOW
    if hi is not None and hi < lo:
        raise ValueError(f"empty window: hi = {hi} < lo = {lo}")
    (uc, vc), pole_free = _numerators(u, v)
    pos = {i: ui for i, ui in uc.items() if i >= 0}
    neg = {i: ui for i, ui in uc.items() if i < 0}
    out: dict[int, RF | Poly] = {}
    clipped = False
    if pos:
        out = (_star_nonnegative_ints if pole_free else _star_nonnegative)(pos, vc, lo, hi)
        # the term delta^m(v_j) D^(i+j-m), m <= i, falls below lo only for j < lo,
        # and first at m = max(0, i + j - lo + 1), which the least i makes smallest
        i0 = min(pos)
        clipped = any(j < lo and _survives(c, max(0, i0 + j - lo + 1)) for j, c in v.coeffs.items())
    if neg:
        out_neg, clipped_neg = _star_negative(neg, vc, lo, hi)
        for k, c in out_neg.items():
            out[k] = out[k] + c if k in out else c
        clipped = clipped or clipped_neg
    cut = hi is not None and u.hi() + v.hi() > hi
    lo_exact = u.lo_exact and v.lo_exact and not clipped
    hi_exact = u.hi_exact and v.hi_exact and not cut
    return SkewLaurentSeries(_as_rf(out, pole_free), lo_exact, hi_exact)


def _star_nonnegative(uc: Mapping[int, RF], vc: Mapping[int, RF], lo: int, hi: int | None) -> dict[int, RF]:
    """sum_i u_i P_i in degrees lo..hi for i >= 0.  P_0 = v and
    P_i = D * P_(i-1), stepped by D a D^k = a D^(k+1) + delta(a) D^k.
    D only raises degrees, so P_i is kept at degrees <= hi, and in full
    below lo, which P_i[lo] reads."""
    out: dict[int, RF] = {}
    P = {k: c for k, c in vc.items() if hi is None or k <= hi}
    for i in range(max(uc) + 1):
        if i:
            nxt: dict[int, RF] = {}
            for k, c in P.items():
                d = c.derivative()
                if not d.is_zero():
                    nxt[k] = nxt[k] + d if k in nxt else d
                if hi is None or k < hi:
                    nxt[k + 1] = nxt[k + 1] + c if k + 1 in nxt else c
            P = {k: c for k, c in nxt.items() if not c.is_zero()}
            if not P:
                break
        ui = uc.get(i)
        if ui is not None:
            for k, c in P.items():
                if k >= lo:
                    term = ui * c
                    out[k] = out[k] + term if k in out else term
    return out


def _star_nonnegative_ints(uc: Mapping[int, Poly], vc: Mapping[int, Poly], lo: int, hi: int | None) -> dict[int, Poly]:
    """`_star_nonnegative` for pole-free windows, on integer lists: u and v
    are each lifted once over one denominator, and one Poly is built per
    output degree."""
    (ua, du), (P, dv) = _lift(uc), _lift({k: c for k, c in vc.items() if hi is None or k <= hi})
    out: dict[int, list[int]] = {}
    for i in range(max(ua) + 1):
        if i:
            nxt: dict[int, list[int]] = {}
            for k, c in P.items():
                d = derive(c)
                if d:
                    nxt[k] = _plus(nxt[k], d) if k in nxt else d
                if hi is None or k < hi:
                    nxt[k + 1] = _plus(nxt[k + 1], c) if k + 1 in nxt else c
            P = {k: c for k, c in nxt.items() if c}
            if not P:
                break
        ui = ua.get(i)
        if ui is not None:
            for k, c in P.items():
                if k >= lo:
                    term = conv(ui, c)
                    out[k] = _plus(out[k], term) if k in out else term
    den = du * dv
    return {k: _make(c, den) for k, c in out.items()}


def _survives(c: RF, m: int) -> bool:
    """delta^m(c) != 0 for c != 0: a pole survives every derivative."""
    return bool(c.den_factors) or c.num.degree() >= m


def _star_negative(uc: Mapping[int, RF | Poly], vc: Mapping[int, RF | Poly], lo: int, hi: int | None):
    """sum_i u_i D^i * v for i < 0 in degrees lo..hi, and whether a term was
    clipped at lo.  Each delta^m(v_j) is computed once and shared by every i,
    each binom(i, m) once per (i, m)."""
    out: dict[int, RF | Poly] = {}
    clipped = False
    # derivs[j][m] = delta^m(v_j), grown only as far as some pair needs it
    derivs = {j: [vj] for j, vj in vc.items()}
    for i, ui in uc.items():
        binoms: list[int] = []  # binom(i, m) != 0 for i < 0
        # inner[k] = sum_m binom(i, m) delta^m(v_(k-i+m)): v's poles only
        inner: dict[int, RF | Poly] = {}
        for j, dj in derivs.items():
            m = 0 if hi is None or i + j <= hi else i + j - hi
            while True:
                while m >= len(dj):
                    dj.append(dj[-1].derivative())
                d = dj[m]
                if d.is_zero():
                    break
                k = i + j - m
                if k < lo:
                    clipped = True
                    break
                while m >= len(binoms):
                    binoms.append(zbinom(i, len(binoms)))
                b = binoms[m]
                term = d if b == 1 else d.scale(b)
                inner[k] = inner[k] + term if k in inner else term
                m += 1
        for k, s in inner.items():
            if not s.is_zero():
                term = ui * s
                out[k] = out[k] + term if k in out else term
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

    A pole-free window runs the loop on integer lists, as `star` does.
    """
    if u.lo() < 0:
        raise ValueError("transpose needs a nonnegative window")
    (uc,), pole_free = _numerators(u)
    if pole_free:
        return SkewLaurentSeries(_as_rf(_transpose_ints(uc), True), u.lo_exact, u.hi_exact)
    out: dict[int, RF] = {}
    for j, aj in uc.items():
        # (a_j D^j)^T = (-1)^j D^j * a_j = (-1)^j sum_k binom(j, j-k) delta^(j-k)(a_j) D^k
        d = aj
        for k in range(j, -1, -1):
            b = zbinom(j, j - k) * (-1) ** j
            if b and not d.is_zero():
                term = d.scale(b)
                out[k] = out[k] + term if k in out else term
            if k:
                d = d.derivative()
    return SkewLaurentSeries(out, u.lo_exact, u.hi_exact)


def _transpose_ints(uc: Mapping[int, Poly]) -> dict[int, Poly]:
    """transpose's loop for a pole-free window, on integer lists over one
    denominator; one Poly is built per output degree."""
    ints, den = _lift(uc)
    out: dict[int, list[int]] = {}
    for j, d in ints.items():
        for k in range(j, -1, -1):
            if not d:
                break
            b = zbinom(j, j - k) * (-1) ** j
            term = [c * b for c in d]
            out[k] = _plus(out[k], term) if k in out else term
            if k:
                d = derive(d)
    return {k: _make(c, den) for k, c in out.items()}


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

