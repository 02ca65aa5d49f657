"""Carry functions, Kummer valuations of binomial coefficients, and the
special index sequence that makes the zeta coefficient sum blow up.

Everything here is integer/valuation combinatorics except `sum_estimate`,
which evaluates the full coefficient sum with capped-precision p-adics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .padics import (
    INF,
    DEFAULT_PREC,
    PadicNumber,
    PrecisionExhausted,
    Rational,
    _ppow,
    _split,
    is_p_integral,
    vp_factorial,
    vp_int,
)


class CheckFailed(Exception):
    """A certificate check came out false: a `fail` verdict, not a usage error."""


def _digit_stream(lam: Fraction, p: int):
    """Infinite base-p digit generator of a rational p-adic integer."""
    num, den = lam.numerator, lam.denominator
    inv_den = pow(den, -1, p)
    while True:
        d = num * inv_den % p
        yield d
        num = (num - d * den) // p


@dataclass(frozen=True)
class CarryProfile:
    """Carries occurring in the base-p addition lam + n.

    gammas[i] is the i-th carry bit; L is the position after which no carry
    occurs (INF exactly when lam is a negative integer with n >= -lam);
    noncarries[j] counts zero bits among the first j.
    """

    lam: Fraction
    n: int
    p: int
    gammas: tuple[int, ...]  # every resolved carry bit (at least the first m)
    L: int | float
    noncarries: tuple[int, ...]  # N_j for j = 0..m

    def __post_init__(self):
        # a finite L ends the carrying: gamma_(L-1) = 1, and no carry at or past L
        L, g = self.L, self.gammas
        if L != INF and not (0 <= L <= len(g) and (L == 0 or g[L - 1] == 1) and 1 not in g[L:]):
            raise CheckFailed(f"L = {L} is not where the carrying in {self.lam} + {self.n} stops")

    def carries_total(self) -> int | float:
        """Total number of carries; INF when carrying never stops."""
        return INF if self.L == INF else sum(self.gammas)


def carry_profile(lam: Rational, n: int, m: int, p: int) -> CarryProfile:
    """Carry bits gamma_0..gamma_{m-1} of lam + n, plus L and non-carry counts.

    The profile is extended beyond m if needed so that L is always resolved:
    past the digits of n a carry persists only while the current digit of lam
    is p-1, and lam is rational, so this terminates unless lam is a negative
    integer with n >= -lam.
    """
    lam = Fraction(lam)
    if not is_p_integral(lam, p):
        raise ValueError(f"{lam} is not a p-adic integer")
    if n < 0:
        raise ValueError("n must be a natural number")
    infinite = lam.denominator == 1 and lam < 0 and n >= -lam
    n_digits = []
    t = n
    while t:
        n_digits.append(t % p)
        t //= p
    gammas: list[int] = []
    carry = 0
    stream = _digit_stream(lam, p)
    i = 0
    # Resolve at least m bits, then continue until the carrying provably
    # stops: past the digits of n, a zero carry bit can never restart.
    while i < m or (not infinite and (carry == 1 or i < len(n_digits))):
        li = next(stream)
        ni = n_digits[i] if i < len(n_digits) else 0
        carry = 1 if li + ni + carry > p - 1 else 0
        gammas.append(carry)
        i += 1
    if infinite:
        L: int | float = INF
    else:
        L = 0
        for j, g in enumerate(gammas):
            if g == 1:
                L = j + 1
    nc = [0]
    for g in gammas[:m]:
        nc.append(nc[-1] + (1 - g))
    # keep every resolved bit (>= m of them) so total carries can be counted
    return CarryProfile(lam, n, p, tuple(gammas), L, tuple(nc))


def vp_binom_kummer(lam: Rational, n: int, p: int) -> int | float:
    """v_p(binom(lam + n, n)) as the total number of carries in lam + n.

    Returns INF exactly when the carrying never stops, which happens iff
    binom(lam + n, n) = 0.
    """
    prof = carry_profile(lam, n, 1, p)
    return prof.carries_total()


def vp_binom_lower(lam: Rational, n: int, p: int) -> int | float:
    """v_p(binom(lam, n)) for p-integral rational lam, via carries of (lam-n) + n."""
    return vp_binom_kummer(Fraction(lam) - n, n, p)


# ---------------------------------------------------------------------------
# The special index sequence n_N, M_n, s_n
# ---------------------------------------------------------------------------


# The case table: (the parity N must have, N - M) for each case of `_pattern_case`
CASES = {"a": (0, 1), "b": (0, 2), "c": (0, 3), "d": (0, 2), "e": (1, 1)}


def _pattern_case(k: int, q: int) -> str:
    """The case of (k, q), 1 <= k <= q, that fixes the level's parity, M and
    the digit patterns of s."""
    if not 1 <= k <= q:
        raise ValueError(f"k={k} out of range 1..{q}")
    if q == 2:
        return "c" if k == 1 else "d"
    if k <= q - 2:
        return "a"
    if k == q - 1:
        return "b"
    return "e"


def required_parity(k: int, q: int) -> int:
    """0 if N must be even, 1 if N must be odd, for 1 <= k <= q."""
    return CASES[_pattern_case(k, q)][0]


def expected_M(k: int, q: int, N: int) -> int:
    """Case table for M in terms of N."""
    return N - CASES[_pattern_case(k, q)][1]


@dataclass(frozen=True)
class SpecialIndex:
    """Index data (n, M, s) of the family `fam` at level N, from `Family.index`.

    n is the smallest positive integer congruent to q k_norm/(q^2-1) mod q^N;
    M is maximal with 1 + q + ... + q^M <= n; s = n - (1 + ... + q^M).
    """

    fam: Family
    N: int
    n: int
    M: int
    s: int

    @property
    def alpha(self) -> Fraction:
        """Top-minus-bottom entry of the second binomial; 0 mod q^N."""
        q = self.fam.q
        return q * self.fam.lam - self.n * (q - 1)


@dataclass(frozen=True)
class Family:
    """The twist parameters (p, q, k, d), checked and normalised in one place.

    q = p^f with f >= 1, d divides q + 1 and is coprime to p, and 1 <= k < d
    (k = d is the excluded trivial twist).  Every rule is checked when the
    family is built, and f is found then.  Normalised to d = q + 1 the family
    has k_norm = k(q+1)/d in 1..q, and lam = k/d = k_norm/(q+1).
    """

    p: int
    q: int
    k: int
    d: int
    f: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q, k, d = self.p, self.q, self.k, self.d
        f, pf = 0, 1
        while p > 1 and pf < q:
            f, pf = f + 1, pf * p
        if f < 1 or pf != q:
            raise ValueError(f"q = {q} is not a power of p = {p}")
        if d % p == 0:
            raise ValueError(f"d = {d} must be coprime to p = {p}")
        if (q + 1) % d != 0:
            raise ValueError(f"d = {d} must divide q + 1 = {q + 1}")
        if not 1 <= k < d:
            raise ValueError(f"k = {k} out of range 1..{d - 1} (k = d is the excluded trivial twist)")
        object.__setattr__(self, "f", f)

    @property
    def k_norm(self) -> int:
        return self.k * (self.q + 1) // self.d

    @property
    def lam(self) -> Fraction:
        return Fraction(self.k, self.d)

    def index(self, N: int) -> SpecialIndex:
        """The special index at level N >= 6 of the parity the case table
        gives; raises CheckFailed when M or s breaks the table."""
        q, k = self.q, self.k_norm
        if N < 6:
            raise ValueError("N must be at least 6")
        parity = required_parity(k, q)
        if N % 2 != parity:
            want = "odd" if parity else "even"
            raise ValueError(f"N={N} has wrong parity for k={k}, q={q}: N must be {want}")
        mod = q**N
        n = q * k * pow(q * q - 1, -1, mod) % mod or mod
        M, tower = 0, 1 + q
        while tower <= n:
            M += 1
            tower += q ** (M + 1)
        s = n - (tower - q ** (M + 1))
        if not 0 <= s < q ** (M + 1):
            raise CheckFailed(f"s = {s} outside 0..q^(M+1) - 1 for M = {M}")
        got = expected_M(k, q, N)
        if M != got:
            raise CheckFailed(f"M={M} disagrees with the case table value {got}")
        return SpecialIndex(self, N, n, M, s)


# ---------------------------------------------------------------------------
# q-adic digit patterns and the no-carry-in-last-spot check
# ---------------------------------------------------------------------------


def q_digits_of_int(n: int, q: int, count: int) -> tuple[int, ...]:
    out = []
    for _ in range(count):
        out.append(n % q)
        n //= q
    return tuple(out)


def q_digits_mod(lam: Fraction, q: int, count: int) -> tuple[int, ...]:
    """Base-q digits of (lam mod q^count) for a q-integral rational."""
    mod = q**count
    r = lam.numerator * pow(lam.denominator, -1, mod) % mod
    return q_digits_of_int(r, q, count)


def expected_digit_patterns(k: int, q: int, M: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Expected base-q digits of s and of (k/(q+1) - s) mod q^(M+1).

    The expansions are recurrent with period 2 after a short preamble; the
    cases are those of `_pattern_case`, the keys of CASES.
    """
    case = _pattern_case(k, q)
    m1 = M + 1
    if case == "a":  # 1 <= k <= q-2, M odd
        s = [q - 1] + [(q - k - 2) if i % 2 == 1 else (q - 2) for i in range(1, m1)]
        ls = [(k + 1) if i % 2 == 0 else 1 for i in range(m1)]
    elif case == "b":  # k = q-1, q > 2, M even
        s = [q - 1] + [(q - 1) if i % 2 == 1 else (q - 3) for i in range(1, m1)]
        ls = [0 if i % 2 == 0 else 2 for i in range(m1)]
    elif case == "c":  # k = 1, q = 2, M odd
        s = [1, 1] + [1 if i % 2 == 0 else 0 for i in range(2, m1)]
        ls = [0, 0] + [1 if i % 2 == 0 else 0 for i in range(2, m1)]
    elif case == "d":  # k = q = 2, M even
        s = [1, 0, 1] + [1 if i % 2 == 1 else 0 for i in range(3, m1)]
        ls = [1, 0, 0] + [1 if i % 2 == 1 else 0 for i in range(3, m1)]
    else:  # case "e": k = q > 2, M even
        s = [q - 1] + [(q - 2) if i % 2 == 1 else (q - 3) for i in range(1, m1)]
        ls = [1 if i % 2 == 0 else 2 for i in range(m1)]
    return tuple(s), tuple(ls)


@dataclass(frozen=True)
class QExpReport:
    idx: SpecialIndex
    case: str
    s_digits: tuple[int, ...]
    lam_minus_s_digits: tuple[int, ...]
    s_expected: tuple[int, ...]
    lam_minus_s_expected: tuple[int, ...]
    L_last: int | float
    carry_bound: int
    second_val: int | float
    ok: bool


def qexp_check(idx: SpecialIndex) -> QExpReport:
    """Match the computed base-q digits of s and lam - s against the case
    patterns, and confirm the carrying in s + (lam - s) stops before position
    (M+1)f; also checks that the companion binomial has valuation zero at r=s.
    """
    fam, M = idx.fam, idx.M
    p, q, k = fam.p, fam.q, fam.k_norm
    s_digits = q_digits_of_int(idx.s, q, M + 1)
    lam_minus_s = fam.lam - idx.s
    ls_digits = q_digits_mod(lam_minus_s, q, M + 1)
    s_exp, ls_exp = expected_digit_patterns(k, q, M)
    bound = (M + 1) * fam.f
    prof = carry_profile(lam_minus_s, idx.s, bound, p)
    sv = vp_binom_kummer(idx.alpha, (q - 1) * (idx.n - idx.s), p)
    ok = (
        s_digits == s_exp
        and ls_digits == ls_exp
        and prof.L < bound
        and prof.gammas[bound - 1] == 0
        and sv == 0
    )
    return QExpReport(
        idx, _pattern_case(k, q), s_digits, ls_digits, s_exp, ls_exp,
        prof.L, bound, sv, ok,
    )


# ---------------------------------------------------------------------------
# Term valuations and the dominant-term sum
# ---------------------------------------------------------------------------


def dominant_term_valuation(idx: SpecialIndex) -> int:
    """Valuation of the r = s summand: v_p(binom(lam, s)) - (M+1)f."""
    fam = idx.fam
    v = vp_binom_lower(fam.lam, idx.s, fam.p)
    if v == INF:
        raise CheckFailed(f"binom(lam, {idx.s}) vanishes: the dominant term is zero")
    return int(v) - (idx.M + 1) * fam.f


def term_valuations(idx: SpecialIndex):
    """Yield the valuation of every summand of `sum_estimate`, r = 0..n, by
    Legendre increments of binom(lam, r) and S_{n,r} apart (`_sum_estimate`
    steps one quotient of terms), S_{n,0} from v((cn)!) by Legendre's formula.
    Neither lam nor alpha is an integer, so no factor vanishes."""
    fam, n = idx.fam, idx.n
    p, c = fam.p, fam.q - 1
    ln, ld = fam.lam.numerator, fam.lam.denominator
    an, ad = idx.alpha.numerator, idx.alpha.denominator
    v1 = 0  # v(binom(lam, r))
    v2 = sum(vp_int(an + i * ad, p) for i in range(1, c * n + 1)) - vp_factorial(c * n, p)  # v(S_{n,r})
    for r in range(n + 1):
        yield v1 + v2 - vp_int((n - r) * c + 1, p)
        if r < n:
            v1 += vp_int(ln - r * ld, p) - vp_int(r + 1, p)
            for j in range(c * (n - r) - c + 1, c * (n - r) + 1):
                v2 += vp_int(j, p) - vp_int(an + j * ad, p)


def argmin_term_valuation(idx: SpecialIndex) -> tuple[int, int]:
    """Scan all 0 <= r <= n; return (argmin, min valuation).

    Raises CheckFailed on a tie for the minimum (the dominant term is strictly
    unique by construction of the special index) and when the scan's value at
    r = s differs from the carry count of `dominant_term_valuation`.
    """
    best_r, best_v, tie_r, v_s = -1, INF, None, None
    for r, v in enumerate(term_valuations(idx)):
        if v < best_v:
            best_r, best_v, tie_r = r, v, None
        elif v == best_v:
            tie_r = r
        if r == idx.s:
            v_s = v
    v_dom = dominant_term_valuation(idx)
    if v_s != v_dom:
        raise CheckFailed(f"the scan gives {v_s} at r = s = {idx.s}, the carry count {v_dom}")
    if tie_r is not None:
        raise CheckFailed(f"valuation tie at r={tie_r} and r={best_r}")
    return best_r, best_v


@dataclass(frozen=True)
class SumReport:
    idx: SpecialIndex
    prec: int
    v_sum: Fraction
    v_dominant: Fraction
    bound: Fraction  # (3 - N)/2
    total: PadicNumber

    @property
    def ok(self) -> bool:
        return self.v_sum == self.v_dominant and self.v_sum <= self.bound


MAX_N_FOR_Q = {2: 12, 3: 10}  # desk-scale caps; larger N rejected


def check_scale(q: int, N: int) -> None:
    """Reject a level past the desk-scale cap; cheap, so it can run before
    `Family.index`, whose work grows with N."""
    cap = MAX_N_FOR_Q.get(q, 8)
    if N > cap:
        raise ValueError(f"N={N} exceeds the desk-scale cap {cap} for q={q}")


_SUM_MEMO: dict[tuple[SpecialIndex, int], SumReport] = {}
SUM_MEMO_SIZE = 64  # reports kept per process; the oldest is dropped first


def sum_estimate(
    idx: SpecialIndex,
    prec: int = DEFAULT_PREC,
    progress: "callable | None" = None,
) -> SumReport:
    """Evaluate the coefficient sum

        sum_r (-1)^(r + (q-1)(n-r)) binom(lam, r) S_{n,r} / ((n-r)(q-1)+1)

    in capped p-adics.  The sign factor makes the total exactly the s^n
    coefficient of the projected solution series (up to one global sign); it
    is invisible to every valuation statement since the dominant term is
    unique.  The term itself is stepped, one exact quotient
    term_(r+1)/term_r of small integers per r (O(n*q) multiplications), and
    the terms are summed as one fraction of p-adic units over the running
    term denominator, so the whole sum takes one modular inverse.  The sum's
    valuation must equal the r = s term's valuation, which is computed
    independently from carry counts.

    Reports are memoised per (idx, prec) for the life of the process, so a
    repeat call returns the same object and does not call `progress`.
    """
    key = (idx, prec)
    if key in _SUM_MEMO:
        return _SUM_MEMO[key]
    rep = _sum_estimate(idx, prec, progress)
    if len(_SUM_MEMO) >= SUM_MEMO_SIZE:
        del _SUM_MEMO[next(iter(_SUM_MEMO))]
    _SUM_MEMO[key] = rep
    return rep


def _sum_estimate(idx: SpecialIndex, prec: int, progress) -> SumReport:
    fam, n = idx.fam, idx.n
    check_scale(fam.q, idx.N)
    p, c, mod = fam.p, fam.q - 1, fam.p**prec
    ln, ld = fam.lam.numerator, fam.lam.denominator
    an, ad = idx.alpha.numerator, idx.alpha.denominator
    # the r-th term as p^vt * tn/td with tn, td units mod p^prec; the r = 0 term
    # is (-1)^(cn) S_{n,0}/(cn + 1), S_{n,0} = prod_{i=1..cn} (alpha + i)/i
    tn, td, vt = _split((-1) ** (c * n), c * n + 1, p)
    for i in range(1, c * n + 1):
        a, b, v = _split(an + i * ad, ad * i, p)
        vt, tn, td = vt + v, tn * a % mod, td * b % mod
    # T = sum_r p^(v_r - base) tn_r/td_r mod p^prec, base the least term valuation
    # so far, is sn/td since td_r divides td_(r+1): one modular inverse per sum
    base, sn = INF, 0
    for r in range(n + 1):
        if progress is not None and r % 8192 == 0:
            progress(r, n)
        if vt < base:  # every earlier term gains p^(base - vt)
            sn, base = sn * _ppow(p, min(base - vt, prec)) % mod, vt
        if vt - base < prec:  # a term at p^prec relative to base is 0 mod p^prec
            sn = (sn + _ppow(p, vt - base) * tn) % mod
        if r < n:
            # term_(r+1)/term_r = (-1)^(1-c) (lam - r)/(r + 1) (B + 1)/(B - c + 1)
            # * prod_{j=B-c+1..B} j/(alpha + j), B = c(n - r), as one quotient
            B = c * (n - r)
            top, bot = (ln - r * ld) * (B + 1), ld * (r + 1) * (B - c + 1)
            for j in range(B - c + 1, B + 1):
                top, bot = top * j * ad, bot * (an + j * ad)
            a, b, v = _split(top if c % 2 else -top, bot, p)
            vt, tn, td, sn = vt + v, tn * a % mod, td * b % mod, sn * b % mod
    # the value mod p^(base + prec), normalised as PadicNumber addition leaves it
    unit = sn * pow(td, -1, mod) % mod
    if unit == 0:
        raise PrecisionExhausted(
            f"sum vanishes mod p^{base + prec}; retry with prec about {2 * prec}"
        )
    unit, _, v = _split(unit, 1, p)
    total = PadicNumber(p, base + v, unit, prec - v)
    v_dom = dominant_term_valuation(idx)
    return SumReport(
        idx, prec, Fraction(total.val), Fraction(v_dom), Fraction(3 - idx.N, 2), total
    )
