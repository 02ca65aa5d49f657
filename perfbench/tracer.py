"""Layer tracing from outside the library.

`Tracer.install` replaces public functions of padicops with timing wrappers,
in every module namespace (and class) that binds them, so a call is counted
whichever name it goes through.  Every wrapper keeps, per function, a call
count, its inclusive time (outermost activation only, so recursion is not
double counted) and its self time: its duration minus the time covered by
wrapped calls made inside it.  Hot leaf functions are aggregated only; the
coarse boundaries listed with `span=True` also keep one span per call, with
the span that caused it, for the trace file.

Self times of all wrappers add up exactly to the time spent under the
outermost wrapped calls, so per-layer self time plus an explicit
unattributed remainder equals the traced wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    layer: str  # padicops module the function belongs to
    owner: str  # class name inside that module, or "" for a module function
    attr: str  # attribute name as bound in the module or class
    key: str  # stat name reported in the trace
    span: bool = False  # keep one span per call (coarse boundaries only)


TARGETS = (
    # p-adic scalar
    Target("padics", "PadicNumber", "__add__", "padics.add"),
    Target("padics", "PadicNumber", "__mul__", "padics.mul"),
    Target("padics", "PadicNumber", "mul_rational", "padics.mul_rational"),
    Target("padics", "PadicNumber", "from_rational", "padics.from_rational"),
    # carry combinatorics and the per-level sum
    Target("carries", "", "sum_estimate", "carries.sum_estimate", span=True),
    Target("carries", "", "argmin_term_valuation", "carries.argmin_term_valuation"),
    Target("carries", "", "carry_profile", "carries.carry_profile"),
    # the equation at infinity and its two routes
    Target("zeta", "", "phi_valuation_profile", "zeta.phi_valuation_profile"),
    Target("zeta", "", "phi_series_coefficient", "zeta.phi_series_coefficient", span=True),
    Target("zeta", "", "build_cocycle_c", "zeta.build_cocycle_c"),
    Target("zeta", "", "zeta_series", "zeta.zeta_series"),
    Target("zeta", "", "ode_residual", "zeta.ode_residual"),
    # truncated power series
    Target("series", "PSeries", "mul", "series.PSeries.mul"),
    Target("series", "QSeries", "__mul__", "series.QSeries.mul"),
    # exact Q[x] and rational functions
    Target("ratfun", "Poly", "__mul__", "ratfun.Poly.mul"),
    Target("ratfun", "Poly", "synth_div", "ratfun.Poly.synth_div"),
    Target("ratfun", "RationalFunction", "__init__", "ratfun.RF.init"),
    Target("ratfun", "RationalFunction", "__add__", "ratfun.RF.add"),
    Target("ratfun", "RationalFunction", "__mul__", "ratfun.RF.mul"),
    Target("ratfun", "RationalFunction", "derivative", "ratfun.RF.derivative"),
    # operator layer
    Target("skew", "", "star", "skew.star", span=True),
    Target("twists", "", "beta_build", "twists.beta_build", span=True),
    Target("twists", "", "cocycle", "twists.cocycle"),
    Target("twists", "", "theta_apply", "twists.theta_apply"),
    Target("twists", "", "h_sequence", "twists.h_sequence"),
    Target("twists", "", "micro_inverse_residual", "twists.micro_inverse_residual"),
    Target("cheeses", "", "gauss_valuation", "cheeses.gauss_valuation"),
    Target("dwork", "", "dwork_identities", "dwork.dwork_identities"),
    Target("dwork", "", "frobenius_relation", "dwork.frobenius_relation"),
    # verification runner: one span per subcommand, named by the subcommand
    Target("cli", "", "run_command", "cli", span=True),
    Target("cli", "", "emit", "cli.emit"),
)

LAYERS = ("padics", "carries", "zeta", "series", "ratfun", "skew", "twists", "cheeses", "dwork", "cli")


class Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.spans: list[dict] = []
        # stack[-1] accumulates the wrapped time spent inside the innermost
        # open call; stack[0] collects the time of outermost calls
        self._stack: list[float] = [0.0]
        self._open_spans: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.bindings: dict[str, list[str]] = {}

    def stat(self, key: str, layer: str) -> Stat:
        if key not in self.stats:
            self.stats[key] = Stat()
            self.layer_of[key] = layer
        return self.stats[key]

    def wrap(self, fn, key: str, layer: str, span: bool = False, name_arg: bool = False):
        """Timing wrapper for `fn`.  With `name_arg`, the first argument names
        the call (cli.run_command), giving one stat per subcommand."""
        stack, clock = self._stack, self.clock
        fixed = None if name_arg else self.stat(key, layer)

        def wrapper(*args, **kwargs):
            st = fixed or self.stat(f"{key}.{args[0]}", layer)
            sid = None
            if span:
                sid = len(self.spans)
                self.spans.append({
                    "id": sid,
                    "parent": self._open_spans[-1] if self._open_spans else None,
                    "name": key if fixed else f"{key}.{args[0]}",
                    "attrs": _span_attrs(key, args),
                })
                self._open_spans.append(sid)
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self_time += dt - child
                st.depth -= 1
                if not st.depth:
                    st.total += dt
                if sid is not None:
                    self._open_spans.pop()
                    self.spans[sid].update(start=t0, end=t1, self_s=dt - child)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self, package: str = "padicops") -> None:
        """Wrap every target wherever the package binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for t in TARGETS:
            home = importlib.import_module(f"{package}.{t.layer}")
            if t.owner:
                cls = getattr(home, t.owner)
                raw = cls.__dict__[t.attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, t.key, t.layer, t.span))
                else:
                    new = self.wrap(raw, t.key, t.layer, t.span)
                self._patch(cls, t.attr, new)
                self.bindings[t.key] = [f"{t.layer}.{t.owner}.{t.attr}"]
                continue
            orig = getattr(home, t.attr)
            new = self.wrap(orig, t.key, t.layer, t.span, name_arg=t.key == "cli")
            where = []
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, name, new)
                        where.append(f"{m.__name__.removeprefix(package + '.')}.{name}")
            self.bindings[t.key] = where

    def _patch(self, obj, name: str, new) -> None:
        self._undo.append((obj, name, obj.__dict__[name] if isinstance(obj, type) else getattr(obj, name)))
        setattr(obj, name, new)

    def uninstall(self) -> None:
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, st in self.stats.items():
            out[self.layer_of[key]] += st.self_time
        return out

    @property
    def covered(self) -> float:
        """Time spent under outermost wrapped calls (= sum of all self times)."""
        return self._stack[0]


def _span_attrs(key: str, args: tuple) -> dict:
    if key == "carries.sum_estimate":
        idx = args[0]
        return {"N": idx.N, "n": idx.n}
    if key == "zeta.phi_series_coefficient":
        return {"n_target": args[4]}
    return {}


def selftest() -> list[str]:
    """Check the self-time arithmetic on a synthetic nested call with a
    scripted clock; returns a list of problems (empty when correct).

    outer runs 0..10, calls inner at 3..5 and then itself at 6..9, whose
    inner call runs 7..8: recursion must not double count outer's total.
    """
    ticks = iter([0.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))

    def inner():
        return None

    def outer(depth):
        w_inner()
        if depth:
            w_outer(depth - 1)

    w_inner = tr.wrap(inner, "t.inner", "padics")
    w_outer = tr.wrap(outer, "t.outer", "skew", span=True)
    w_outer(1)
    o, i = tr.stats["t.outer"], tr.stats["t.inner"]
    want = {
        "outer.calls": (o.calls, 2), "outer.total": (o.total, 10.0),
        "outer.self": (o.self_time, 10.0 - 2.0 - 1.0), "inner.calls": (i.calls, 2),
        "inner.total": (i.total, 3.0), "inner.self": (i.self_time, 3.0),
        "covered": (tr.covered, 10.0), "layers": (sum(tr.layer_self().values()), 10.0),
        "spans": (len(tr.spans), 2), "span.parent": (tr.spans[1]["parent"], 0),
        "span.self": (tr.spans[0]["self_s"], 10.0 - 2.0 - 3.0),
    }
    return [f"{k}: got {got}, want {exp}" for k, (got, exp) in want.items() if got != exp]
