"""Configuration-driven verification runner.

Every subcommand evaluates one family of identities and emits a
machine-readable table (JSON or CSV) of rows with one verdict line, derived
from the rows: `pass` exactly when there are rows and every row is ok.
Valuations are printed as exact rationals, never floats.  Identical inputs
produce byte-identical output for a fixed seed; timing is only included on
request so that the default output stays deterministic.

Usage is decided by `RunConfig.validate` before any math runs.  Exit codes:
0 every check passes; 1 a check failed, or a command raised ValueError,
ZeroDivisionError or CheckFailed, which becomes its one-row `fail` report;
2 an input rejected before any math runs; 3 precision exhausted, after the
reports finished so far are written.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import carries, dwork, ratfun, skew, twists, zeta
from .padics import (
    INF,
    PadicNumber,
    PrecisionExhausted,
    binom_rational,
    vp_factorial,
    vp_rational,
)

EXIT_OK, EXIT_MATH, EXIT_USAGE, EXIT_PRECISION = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


# Miller-Rabin with the prime bases 2..41 is exact below PRIME_BOUND, the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin test of odd n > 2 to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is past the bound {PRIME_BOUND} of the deterministic test")
    if n < 2:
        return False
    if any(n % a == 0 for a in PRIME_BASES):
        return n in PRIME_BASES
    return all(strong_probable_prime(n, a) for a in PRIME_BASES)


@dataclass
class RunConfig:
    p: int = 3
    f: int = 1
    k: int = 1
    d: int = 4
    n_list: list[int] = field(default_factory=lambda: [6, 8, 10])
    order: int = 200
    k_neg: int = 20
    prec: int = 60
    fmt: str = "json"
    seed: int = 0
    cases: int = 300
    timing: bool = False
    dwork_q: int | None = None  # projector parameter for dwork-check only
    dwork_trunc: int = 13  # operator truncation for dwork-check only

    @property
    def dwork_qs(self) -> tuple[int, ...]:
        """The projector parameters that dwork-check runs."""
        return (self.dwork_q,) if self.dwork_q is not None else (2, 3)

    def validate(self, level_data: bool = True, family_data: bool = True, twist_data: bool = True) -> None:
        """Basic checks always; d at least 1 and coprime to p if `twist_data`;
        the family (p, q, k, d) unless `family_data` is false, and with it each
        level of n_list if `level_data`.  With no argument this checks
        everything `all` reads."""
        if self.p >= PRIME_BOUND:
            raise ConfigError(f"p = {self.p} is too large: primality is certified only below {PRIME_BOUND}")
        if not is_prime(self.p):
            raise ConfigError(f"p = {self.p} is not prime")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if twist_data and self.d < 1:
            raise ConfigError(f"d = {self.d} must be at least 1")
        if twist_data and self.d % self.p == 0:
            raise ConfigError(f"d = {self.d} must be coprime to p = {self.p}")
        for name in ("f", "prec", "cases", "k_neg"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} = {getattr(self, name)} must be at least 1")
        if self.order < 2:
            raise ConfigError(f"order = {self.order} must be at least 2")
        if not self.n_list:
            raise ConfigError("the level list n_list is empty")
        if self.dwork_q is not None and self.dwork_q < 2:
            raise ConfigError(f"dwork_q = {self.dwork_q} must be at least 2")
        for q in self.dwork_qs:
            if self.dwork_trunc < 3 * q:
                raise ConfigError(f"dwork_trunc = {self.dwork_trunc} must be at least 3q = {3 * q} for q = {q}")
        if not family_data:
            return
        try:
            fam = self.family
        except ValueError as e:
            raise ConfigError(str(e)) from None
        for N in self.n_list if level_data else ():
            try:
                carries.check_scale(fam.q, N)
                fam.index(N)
            except carries.CheckFailed:
                continue  # a failed certificate, not a usage error: the command reports it
            except ValueError as e:
                raise ConfigError(str(e)) from None

    @property
    def family(self) -> carries.Family:
        return carries.Family(self.p, self.p**self.f, self.k, self.d)


def parse_config_file(path: str) -> dict:
    """Simple key = value format with #-comments; values are ints, quoted
    strings, or bracketed integer lists."""
    out: dict = {}
    try:
        text = open(path).read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_").lower()
        if val.startswith("[") and val.endswith("]"):
            items = [v.strip() for v in val[1:-1].split(",") if v.strip()]
            try:
                out[key] = [int(v) for v in items]
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: cannot parse list {val!r}") from None
        elif val.startswith('"') and val.endswith('"'):
            out[key] = val[1:-1]
        elif val in ("true", "false"):
            out[key] = val == "true"
        else:
            try:
                out[key] = int(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: cannot parse value {val!r}") from None
    return out


LEVEL_DATA_COMMANDS = {"sum-estimate", "qexp-check", "zeta-valuations", "all"}
FAMILY_DATA_COMMANDS = LEVEL_DATA_COMMANDS | {"ode-check"}
TWIST_DATA_COMMANDS = FAMILY_DATA_COMMANDS | {"cocycle-check"}  # the commands that read d
# the type of each RunConfig key that is not an int
KEY_TYPES = {"n_list": list, "fmt": str, "timing": bool}


def build_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        data.update(parse_config_file(args.config))
    overrides = {
        "p": args.p, "f": args.f, "k": args.k, "d": args.d,
        "order": args.order, "k_neg": args.k_neg,
        "prec": args.prec, "seed": args.seed, "cases": args.cases,
        "fmt": args.format, "timing": args.timing or None,
        "dwork_q": args.q, "dwork_trunc": args.K,
    }
    if args.N:
        try:
            overrides["n_list"] = [int(s) for s in args.N.split(",")]
        except ValueError:
            raise ConfigError(f"--N {args.N!r} is not a comma-separated list of integers") from None
    data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, val in data.items():
        want = KEY_TYPES.get(key, int)
        if type(val) is not want:  # exact: a bool is not an int here
            raise ConfigError(f"{key} = {val!r} must be of type {want.__name__}")
    cfg = RunConfig(**data)
    cmd = args.command
    cfg.validate(cmd in LEVEL_DATA_COMMANDS, cmd in FAMILY_DATA_COMMANDS, cmd in TWIST_DATA_COMMANDS)
    return cfg


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def fmt_val(v) -> str:
    """Exact rational rendering of a valuation; never a float."""
    if v == INF:
        return "inf"
    fr = Fraction(v)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def fmt_padic(x: PadicNumber, digits: int = 12) -> str:
    if x.is_zero():
        return f"O(p^{x.absprec})"
    return f"p^{x.val}*[{','.join(str(t) for t in x.digits(digits))}]"


@dataclass
class Report:
    command: str
    claim: str
    params: dict
    rows: list[dict]
    runtime_ms: int | None = None

    @property
    def ok(self) -> bool:
        return bool(self.rows) and all(row.get("ok") for row in self.rows)

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"


def emit(report: Report, fmt: str) -> str:
    if fmt == "json":
        obj = {
            "command": report.command,
            "claim": report.claim,
            "params": report.params,
            "rows": report.rows,
            "verdict": report.verdict,
        }
        if report.runtime_ms is not None:
            obj["runtime_ms"] = report.runtime_ms
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # csv: preamble comments, then a header row and data rows
    buf = io.StringIO()
    buf.write(f"# command: {report.command}\n")
    buf.write(f"# claim: {report.claim}\n")
    params = ", ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    buf.write(f"# params: {params}\n")
    cols: list[str] = []
    for row in report.rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    buf.write(",".join(cols) + "\n")
    for row in report.rows:
        buf.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    buf.write(f"# verdict: {report.verdict}\n")
    if report.runtime_ms is not None:
        buf.write(f"# runtime_ms: {report.runtime_ms}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_kummer_table(cfg: RunConfig) -> Report:
    """Carry-count valuations against factorial and exact-rational oracles."""
    p = cfg.p
    rng = random.Random(cfg.seed)
    rows = []
    for _ in range(cfg.cases):
        lam = rng.randrange(0, 10**4)
        n = rng.randrange(0, 10**4)
        v = carries.vp_binom_kummer(lam, n, p)
        wv = vp_factorial(lam + n, p) - vp_factorial(lam, p) - vp_factorial(n, p)
        rows.append({"lam": str(lam), "n": n, "v_carry": fmt_val(v), "v_oracle": fmt_val(wv), "ok": v == wv})
    for _ in range(max(cfg.cases // 3, 10)):
        den = rng.choice([t for t in range(2, 30) if t % p != 0])
        lam = Fraction(rng.randrange(-400, 400), den)
        n = rng.randrange(0, 120)
        v = carries.vp_binom_kummer(lam, n, p)
        wv = vp_rational(binom_rational(lam + n, n), p)
        rows.append({"lam": str(lam), "n": n, "v_carry": fmt_val(v), "v_oracle": fmt_val(wv), "ok": v == wv})
    # only the first 50 rows are printed, so the summary row carries the verdict
    fails = sum(not row["ok"] for row in rows)
    summary = {"lam": "...", "n": "", "v_carry": "", "v_oracle": "", "ok": f"{len(rows)} cases"}
    if fails:
        summary.update(ok=False, failures=fails)
    return Report(
        "kummer-table",
        "the valuation of a binomial coefficient equals the carry count of the base-p addition",
        {"p": p, "cases": cfg.cases, "seed": cfg.seed},
        rows[:50] + [summary],
    )


def cmd_sum_estimate(cfg: RunConfig) -> Report:
    rows = []
    prev = None
    fam = cfg.family
    for N in cfg.n_list:
        idx = fam.index(N)
        # progress for long sums goes to the diagnostic stream only
        progress = None
        if idx.n > 10**4:
            progress = lambda r, n: print(f"  sum-estimate N={N}: {r}/{n}", file=sys.stderr)
        rep = carries.sum_estimate(idx, cfg.prec, progress=progress)
        try:
            unique = carries.argmin_term_valuation(idx)[0] == idx.s
        except carries.CheckFailed as e:
            print(f"  sum-estimate N={N}: {e}", file=sys.stderr)
            unique = False
        decreasing = prev is None or rep.v_sum < prev
        prev = rep.v_sum
        rows.append({
            "N": N, "n": idx.n, "M": idx.M, "s": idx.s,
            "v_sum": fmt_val(rep.v_sum), "v_dominant": fmt_val(rep.v_dominant),
            "bound": fmt_val(rep.bound), "argmin_unique": unique,
            "strictly_decreasing": decreasing, "ok": rep.ok and unique and decreasing,
        })
    return Report(
        "sum-estimate",
        "the coefficient sum's valuation equals its dominant term's and decreases without bound",
        {"p": cfg.p, "f": cfg.f, "k": cfg.k, "d": cfg.d, "prec": cfg.prec},
        rows,
    )


def cmd_qexp_check(cfg: RunConfig) -> Report:
    rows = []
    fam = cfg.family
    joiner = "" if fam.q < 10 else "."
    for N in cfg.n_list:
        rep = carries.qexp_check(fam.index(N))
        rows.append({
            "N": N, "case": rep.case,
            "s_digits": joiner.join(map(str, rep.s_digits)),
            "expected": joiner.join(map(str, rep.s_expected)),
            "L": fmt_val(rep.L_last), "carry_bound": rep.carry_bound,
            "second_binomial_valuation": fmt_val(rep.second_val), "ok": rep.ok,
        })
    return Report(
        "qexp-check",
        "base-q digit patterns of the dominant index, carry cutoff, and unit companion binomial",
        {"p": cfg.p, "f": cfg.f, "k": cfg.k, "d": cfg.d},
        rows,
    )


def cmd_zeta_valuations(cfg: RunConfig) -> Report:
    rows = []
    profile = zeta.phi_valuation_profile(cfg.family, cfg.n_list, cfg.prec)
    prev = None
    for row in profile:
        decreasing = prev is None or row.report.v_sum < prev
        prev = row.report.v_sum
        rows.append({
            "N": row.idx.N, "n": row.idx.n,
            "v_sum": fmt_val(row.report.v_sum), "bound": fmt_val(row.report.bound),
            "series_value": fmt_padic(row.series_value),
            "agreement_digits": row.agreement_digits,
            "ok": row.report.ok and decreasing and row.cross_checked,
        })
    return Report(
        "zeta-valuations",
        "series assembly and carry combinatorics agree on the solution coefficients, whose valuations blow up",
        {"p": cfg.p, "f": cfg.f, "k": cfg.k, "d": cfg.d, "prec": cfg.prec},
        rows,
    )


def cmd_ode_check(cfg: RunConfig) -> Report:
    fam, p, order = cfg.family, cfg.p, cfg.order
    xorder = min(order, 80)
    try:
        rep = zeta.ode_residual(fam, order)
        xv = zeta.xvzero_series(fam, rep.c.truncate(xorder))
        z = rep.solution
        on_c = [rep.residual_is_zero, rep.recurrence_matches, xv.residual_is_zero, xv.leading_term == p]
    except carries.CheckFailed as e:
        # a failed check on the unit c (c^d = ratio^k) fails the four rows built on c
        print(f"  ode-check: {e}", file=sys.stderr)
        z, on_c = zeta.zeta_series(fam, order), [False] * 4
    jrep = zeta.alpha_and_j(fam, order // 2)
    margin = zeta.convergence_margin(z, p)
    rows = [
        {"check": "ode_residual_zero_through_order", "order": order, "ok": on_c[0]},
        {"check": "matches_term_by_term_solution", "order": order, "ok": on_c[1]},
        {"check": "integral_coefficient_identity", "order": order // 2, "ok": jrep.residual_zero},
        {"check": "window_function_equation", "order": xorder, "ok": on_c[2]},
        {"check": "window_function_leading_term_is_p", "order": xorder, "ok": on_c[3]},
        {"check": "partial_sums_bounded_at_radius_1_over_p", "order": order,
         "ok": margin >= 0, "margin": fmt_val(margin)},
    ]
    return Report(
        "ode-check",
        "the closed-form series is the unique formal solution of the twisted equation",
        {"p": p, "q": fam.q, "k": fam.k, "d": fam.d, "order": order},
        rows,
    )


def cmd_micro_inverse(cfg: RunConfig) -> Report:
    rows = []
    x = ratfun.RationalFunction.x()
    for k in (1, 2, 3):
        for d in (2, 3):
            if d % cfg.p == 0:
                continue
            u = x**k
            r1, r2 = twists.micro_inverse_residual(u, d, cfg.k_neg, cfg.p)
            r1b, r2b = twists.micro_inverse_residual(u, d, 2 * cfg.k_neg, cfg.p)
            min1 = min((v for _, v in r1.residuals), default=None)
            min1b = min((v for _, v in r1b.residuals), default=None)
            grow = min1 is None or (min1b is not None and min1b > min1)
            rows.append({
                "u": f"x^{k}", "d": d, "window": cfg.k_neg,
                "min_residual": fmt_val(min1) if min1 is not None else "",
                "threshold": fmt_val(r1.threshold),
                "min_residual_doubled": fmt_val(min1b) if min1b is not None else "",
                "threshold_doubled": fmt_val(r1b.threshold),
                "both_sides": r1.ok and r2.ok, "ok": r1.ok and r2.ok and r1b.ok and r2b.ok and grow,
            })
    return Report(
        "micro-inverse",
        "the truncated Laurent series inverts the twisted derivation within the tail budget on both sides",
        {"p": cfg.p, "k_neg": cfg.k_neg},
        rows,
    )


def cmd_dwork_check(cfg: RunConfig) -> Report:
    rows = []
    trunc = cfg.dwork_trunc
    for q in cfg.dwork_qs:
        rep = dwork.dwork_identities(q, trunc)
        rows.append({"q": q, "trunc": trunc, "check": "idempotent_and_partition",
                     "orders": f"{rep.checked_orders[0]}..{rep.checked_orders[-1]}",
                     "failures": len(rep.failures), "ok": rep.ok})
        for lam, i in [(Fraction(1, 2), 1), (Fraction(0), 0), (Fraction(2, 3), q - 1)]:
            frep = dwork.frobenius_relation(q, lam, i, trunc)
            rows.append({"q": q, "trunc": trunc, "check": f"descent_relation(lam={lam},i={i})",
                         "orders": f"{frep.checked_orders[0]}..{frep.checked_orders[-1]}",
                         "failures": len(frep.failures), "ok": frep.ok})
    return Report(
        "dwork-check",
        "projector idempotence, partition of unity, and the descent operator relation, all with exact zeros",
        {"trunc": trunc},
        rows,
    )


def cmd_beta_check(cfg: RunConfig) -> Report:
    p = cfg.p
    rng = random.Random(cfg.seed)
    rows = [{"check": "translation_substitution_exact", "range": "m<=30",
             "ok": twists.beta_substitution_exact(ratfun.MobiusMap.translation(p), 30)}]
    # sampled homomorphism beta(gh) = beta(g) beta(h) within tail bounds
    depth = 8
    samples = 25
    fails = 0
    for _ in range(samples):
        g1 = _random_group_element(rng, p)
        g2 = _random_group_element(rng, p)
        fails += not twists.beta_homomorphism_ok(g1, g2, depth, p)
    rows.append({"check": "substitution_homomorphism", "samples": samples, "depth": depth,
                 "failures": fails, "ok": fails == 0})
    return Report(
        "beta-check",
        "substitution operators realise the Mobius action on functions and multiply like the group",
        {"p": p, "seed": cfg.seed},
        rows,
    )


def _random_group_element(rng: random.Random, p: int) -> ratfun.MobiusMap:
    while True:
        a = 1 + p * rng.randrange(-3, 4)
        dd = 1 + p * rng.randrange(-3, 4)
        b = p * rng.randrange(-3, 4)
        c = p * p * rng.randrange(-2, 3)
        try:
            g = ratfun.MobiusMap.of(a, b, c, dd)
        except ValueError:
            continue
        if vp_rational(g.det, p) == 0 and twists.in_group_of_radius(g, p, Fraction(-1, 2 * (p - 1))):
            return g


def cmd_cocycle_check(cfg: RunConfig) -> Report:
    p = cfg.p
    rng = random.Random(cfg.seed)
    x = ratfun.RationalFunction.x()
    depth = 10
    fails_power = fails_mult = fails_theta = 0
    samples = 25
    for _ in range(samples):
        g = _random_group_element(rng, p)
        k = rng.randrange(1, 4)
        a = p * rng.randrange(0, 3)
        u = ratfun.RationalFunction.from_factors(1, {Fraction(a): k})
        v = x ** rng.randrange(1, 3)
        power_ok, mult_ok, theta_ok = twists.cocycle_identities(u, v, cfg.d, g, depth, p)
        fails_power += not power_ok
        fails_mult += not mult_ok
        fails_theta += not theta_ok
    rows = [
        {"check": "dth_power_is_u_over_gu", "samples": samples, "failures": fails_power, "ok": fails_power == 0},
        {"check": "multiplicative_in_u", "samples": samples, "failures": fails_mult, "ok": fails_mult == 0},
        {"check": "twist_of_substitution_is_cocycle_times_it", "samples": samples, "failures": fails_theta,
         "ok": fails_theta == 0},
    ]
    return Report(
        "cocycle-check",
        "the unit pairing of a twist with a substitution operator is a multiplicative cocycle",
        {"p": p, "d": cfg.d, "seed": cfg.seed},
        rows,
    )


def cmd_star_props(cfg: RunConfig) -> Report:
    rng = random.Random(cfg.seed)
    rows = []

    def rand_op(maxdeg=4, polydeg=2, lo=0):
        return skew.SkewLaurentSeries.of({
            kk: ratfun.Poly(rng.randint(-4, 4) for _ in range(rng.randint(1, polydeg + 1)))
            for kk in range(lo, rng.randint(lo + 1, lo + maxdeg))
        } or {0: ratfun.Poly.of(1)})

    fails = 0
    for _ in range(cfg.cases):
        u, v, w = rand_op(), rand_op(), rand_op()
        fails += skew.star(skew.star(u, v), w) != skew.star(u, skew.star(v, w))
    rows.append({"check": "associativity", "cases": cfg.cases, "failures": fails, "ok": fails == 0})

    fails = 0
    for _ in range(cfg.cases):
        u = rand_op()
        fails += skew.transpose(skew.transpose(u)) != u
        v = rand_op()
        fails += skew.transpose(skew.star(u, v)) != skew.star(skew.transpose(v), skew.transpose(u))
    rows.append({"check": "transpose_involution_and_antihom", "cases": cfg.cases, "failures": fails,
                 "ok": fails == 0})

    m = 3
    fails = sum(not -m <= skew.epsilon_valuation(nn, m, cfg.p) <= 0
                for n in range(1, 10**4, 97) for nn in (n, -n))
    rows.append({"check": "level_scaling_valuations_in_minus_m_zero", "m": m, "failures": fails,
                 "ok": fails == 0})

    fails = 0
    p = cfg.p
    for n in range(1, 10**5, 101):
        # s = n/(p-1) - v_p(n!) = D/(p-1), with D the base-p digit sum of n
        # (Legendre); 0 <= s <= 1 + log_p(n) in integers
        D = n - (p - 1) * vp_factorial(n, p)
        fails += not (0 <= D and (D <= p - 1 or p ** (D - (p - 1)) <= n ** (p - 1)))
    rows.append({"check": "factorial_valuation_window", "range": "n<=1e5", "failures": fails,
                 "ok": fails == 0})
    return Report(
        "star-props",
        "star product associativity, transpose involution, level-basis scaling bounds",
        {"p": cfg.p, "seed": cfg.seed, "cases": cfg.cases},
        rows,
    )


COMMANDS = {
    "kummer-table": cmd_kummer_table,
    "sum-estimate": cmd_sum_estimate,
    "qexp-check": cmd_qexp_check,
    "zeta-valuations": cmd_zeta_valuations,
    "ode-check": cmd_ode_check,
    "micro-inverse": cmd_micro_inverse,
    "dwork-check": cmd_dwork_check,
    "beta-check": cmd_beta_check,
    "cocycle-check": cmd_cocycle_check,
    "star-props": cmd_star_props,
}


def run_command(name: str, cfg: RunConfig) -> Report:
    t0 = time.monotonic()
    report = COMMANDS[name](cfg)
    if cfg.timing:
        report.runtime_ms = int((time.monotonic() - t0) * 1000)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="padicops",
        description="verification runner for the p-adic operator calculus package",
    )
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--p", type=int)
    parser.add_argument("--f", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--d", type=int)
    parser.add_argument("--N", help="comma-separated level list, e.g. 6,8,10")
    parser.add_argument("--order", type=int)
    parser.add_argument("--k-neg", dest="k_neg", type=int)
    parser.add_argument("--prec", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cases", type=int)
    parser.add_argument("--q", type=int, help="projector parameter for dwork-check")
    parser.add_argument("--K", type=int, help="operator truncation for dwork-check")
    parser.add_argument("--format", choices=["json", "csv"])
    parser.add_argument("--timing", action="store_true", help="include runtime_ms in the output")
    parser.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE

    reports, code = [], EXIT_OK
    for name in list(COMMANDS) if args.command == "all" else [args.command]:
        if args.command == "all":
            print(f"running {name} ...", file=sys.stderr)
        try:
            reports.append(run_command(name, cfg))
        except PrecisionExhausted as e:
            print(f"precision exhausted: {e}", file=sys.stderr)
            code = EXIT_PRECISION
            break  # the reports finished so far are still written
        except (ValueError, ZeroDivisionError, carries.CheckFailed) as e:
            reason = f"{type(e).__name__}: {e}"
            print(f"  {name}: {reason}", file=sys.stderr)
            reports.append(Report(name, "the command runs to a verdict", {}, [{"error": reason, "ok": False}]))

    text = "".join(emit(report, cfg.fmt) for report in reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_MATH if code == EXIT_OK and not all(report.ok for report in reports) else code


if __name__ == "__main__":
    sys.exit(main())
