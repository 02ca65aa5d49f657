"""The library surface: every definition in src/padicops is reached from
outside the tests, no module of src/padicops or tests/ imports a name it
never uses, and no check in src/padicops is an `assert` or a
`raise AssertionError` (`python -O` strips the one, and neither is the
`CheckFailed` that the runner turns into a `fail` verdict).

Module-level code in src/padicops, and all of scripts/ and perfbench/, is
the root.  A definition is reached when reached code names it; the body of a
reached definition then counts as reached code, so a cluster of definitions
that only call each other is found too.  A name counts as named when it
appears as a variable, as an attribute or as a string constant (the
benchmark's tracer binds its targets by string).  Methods of a reached class
that Python calls implicitly (dunder methods) are reached with the class.
Dunder methods are not reported.  The match is by name only: it can miss
dead code that shares a name with live code, but it never reports live code.

A definition that only tests call stays only if KEPT says why.
"""

import ast
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    # release-gate callees: acceptance criterion 8 and its TestLevelM oracles
    "skew.to_level_m": "acceptance criterion 8 round-trips the level-m basis",
    "skew.from_level_m": "acceptance criterion 8 round-trips the level-m basis",
    "skew.DividedPowerOperator": "the level-m basis that acceptance criterion 8 builds",
    "skew.binoma": "oracle for the level-m binomials in TestLevelM",
    "skew.binomb": "oracle for the level-m binomials in TestLevelM",
    # reference implementations for live code
    "padics.PadicNumber.same_mod": "compares padic_binom, sum_estimate and the series route",
    "padics.PadicNumber.valuation": "compares padic_binom and mul_rational with vp_rational",
    "ratfun.Poly.eval": "pointwise oracle for synth_div, is_root and shift",
    "ratfun.RationalFunction.eval": "pointwise oracle for rational-function sums and products",
    "twists.h_closed_form_monomial": "closed-form oracle for h_sequence",
    "ratfun.MobiusMap.act_point": "checks act_function pointwise",
    "ratfun.MobiusMap.varrho": "checks act_function on triangular maps",
    "ratfun.MobiusMap.is_triangular": "checks act_function on triangular maps",
    "ratfun.relator": "test_relator_factorisations checks theta_partial and theta_apply against it",
    "ratfun.FirstOrderOperator": "the relator's value type",
    "ratfun.FirstOrderOperator.scale": "the relator's value type",
    "ratfun.delta_poly": "builds the relator",
    "ratfun.MobiusMap.act_partial_coefficient": "test_relator_factorisations checks the twisted action with it",
    # PSeries is bound by the benchmark's tracer (series.PSeries.mul) and
    # goes together with that tracer target
    "series.PSeries.from_rationals": "part of the PSeries type the tracer wraps",
    "series.PSeries.add_shifted": "part of the PSeries type the tracer wraps",
    "series.p_binomial_series": "builds PSeries inputs for the type the tracer wraps",
}


@dataclass(frozen=True)
class Definition:
    qualname: str  # module.name or module.Class.name
    name: str
    owner: str | None  # qualname of the enclosing class, for methods
    code: tuple[ast.AST, ...]  # what the definition names when it is reached


def named_in(nodes) -> set[str]:
    out = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def is_def(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def survey(root: Path) -> tuple[list[Definition], list[ast.AST]]:
    """The definitions in src/padicops and the root code that may reach them."""
    defs: list[Definition] = []
    roots: list[ast.AST] = []
    for path in sorted((root / "src" / "padicops").glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if not is_def(stmt):
                roots.append(stmt)
                continue
            qual = f"{module}.{stmt.name}"
            if not isinstance(stmt, ast.ClassDef):
                defs.append(Definition(qual, stmt.name, None, (stmt,)))
                continue
            own = [*stmt.decorator_list, *stmt.bases]
            for item in stmt.body:
                if is_def(item):
                    defs.append(Definition(f"{qual}.{item.name}", item.name, qual, (item,)))
                else:
                    own.append(item)
            defs.append(Definition(qual, stmt.name, None, tuple(own)))
    for sub in ("scripts", "perfbench"):
        roots += [ast.parse(p.read_text()) for p in sorted((root / sub).glob("*.py"))]
    return defs, roots


def unreached(root: Path = ROOT) -> list[str]:
    defs, roots = survey(root)
    named = named_in(roots)
    live: set[str] = set()
    grew = True
    while grew:
        grew = False
        for d in defs:
            if d.qualname in live:
                continue
            if d.owner is None:
                reached = d.name in named
            else:
                reached = d.owner in live and (is_dunder(d.name) or d.name in named)
            if reached:
                live.add(d.qualname)
                named |= named_in(d.code)
                grew = True
    return sorted(d.qualname for d in defs if d.qualname not in live and not is_dunder(d.name))


def unused_imports(root: Path = ROOT) -> list[str]:
    """Imported names never used, except on a line marked `noqa: F401` (an
    import made for its side effect)."""
    out = []
    paths = [*(root / "src" / "padicops").glob("*.py"), *(root / "tests").glob("*.py")]
    for path in sorted(paths):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        out.append(f"{path.relative_to(root)}: {bound} (line {node.lineno})")
    return out


def assertions(root: Path = ROOT) -> list[str]:
    """`assert` statements and `raise AssertionError` in src/padicops."""
    out = []
    for path in sorted((root / "src" / "padicops").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (isinstance(raised, ast.Name) and raised.id == "AssertionError"):
                out.append(f"{path.relative_to(root)}: line {node.lineno}")
    return out


def test_every_definition_is_reached_or_kept():
    dead = [q for q in unreached() if q not in KEPT]
    assert not dead, f"reached only from tests (delete, or say in KEPT why they stay): {dead}"


def test_kept_entries_are_current():
    """An entry leaves KEPT once its definition is gone or a caller reaches it."""
    stale = sorted(set(KEPT) - set(unreached()))
    assert not stale, f"KEPT names definitions that are gone or reached: {stale}"


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, f"imported and never used: {unused}"


def test_no_assertions_in_the_library():
    found = assertions()
    assert not found, f"a failed check raises CheckFailed, not AssertionError: {found}"
