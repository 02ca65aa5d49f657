"""The benchmark's tracer must still find every function it wraps.

`perfbench/run.py --trace 1` patches padicops functions by name; a refactor
that renames, moves or re-signs one of them would break the traced run.
This installs the tracer in-process, checks every target and the bindings
the benchmark requires, and checks that uninstalling restores the library.
"""

import inspect
import sys
from pathlib import Path

import pytest

import padicops.cli  # noqa: F401  (loads every module the tracer patches)
from padicops import zeta

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracer

    yield run, tracer
    for name in ("run", "tracer"):
        sys.modules.pop(name, None)


def namespaces(tracer_mod):
    """Every padicops module dict and every class dict the tracer may patch."""
    out = {name: dict(vars(m)) for name, m in sys.modules.items()
           if m is not None and name.startswith("padicops.")}
    for t in tracer_mod.TARGETS:
        if t.owner:
            cls = getattr(sys.modules[f"padicops.{t.layer}"], t.owner)
            out[f"{t.layer}.{t.owner}"] = dict(cls.__dict__)
    return out


def test_tracer_targets_resolve_and_uninstall(perfbench):
    run, tracer_mod = perfbench
    before = namespaces(tracer_mod)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        for t in tracer_mod.TARGETS:
            assert tr.bindings.get(t.key), f"{t.key} is bound nowhere"
            home = sys.modules[f"padicops.{t.layer}"]
            if t.owner:
                new = getattr(home, t.owner).__dict__[t.attr]
                old = before[f"{t.layer}.{t.owner}"][t.attr]
            else:
                new, old = vars(home)[t.attr], before[home.__name__][t.attr]
            # a classmethod is wrapped inside: compare the functions it holds
            assert getattr(new, "__func__", new).__wrapped__ is getattr(old, "__func__", old)
        for key, need in run.REQUIRED_BINDINGS.items():
            assert need <= set(tr.bindings[key]), (key, need, tr.bindings[key])
    finally:
        tr.uninstall()
    assert namespaces(tracer_mod) == before


def test_span_attributes_read_n_target_positionally():
    params = list(inspect.signature(zeta.phi_series_coefficient).parameters)
    assert params[4] == "n_target"
