"""The library surface: every definition in src/padicops is reached from
outside the tests, no module of src/padicops or tests/ imports a name it
never uses, no check in src/padicops is an `assert` or a
`raise AssertionError` (`python -O` strips the one, and neither is the
`CheckFailed` that the runner turns into a `fail` verdict), and the oracles
in tests/oracles.py use no private name of the code they check.

Module-level code in src/padicops, and all of scripts/ and perfbench/, is
the root.  A definition is reached when reached code names it; the body of a
reached definition then counts as reached code, so a cluster of definitions
that only call each other is found too.  A name counts as named when it
appears as a variable, as an attribute or as a string constant (the
benchmark's tracer binds its targets by string).  Methods of a reached class
that Python calls implicitly (dunder methods) are reached with the class.
Dunder methods are not reported.  The match is by name only: it can miss
dead code that shares a name with live code, but it never reports live code.

A definition that only tests call stays only if KEPT says why, and KEPT
holds one kind only: library code that a release gate tests as library code
(the level-m basis of acceptance criterion 8).  What the benchmark's tracer
binds is reached through its string targets, so `PSeries` keeps only the
`mul` that perfbench/tracer.py names; a member added beside it and reached
only from tests fails the check above.  A reference implementation that the
tests compare against is no such code: it lives in tests/oracles.py.
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


def private_names(root: Path = ROOT) -> set[str]:
    """The names src/padicops binds (defines or assigns) that start with `_`,
    dunders aside."""
    nodes = [n for p in (root / "src" / "padicops").glob("*.py") for n in ast.walk(ast.parse(p.read_text()))]
    names = {n.name for n in nodes if is_def(n)}
    names |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return {n for n in names if n.startswith("_") and not is_dunder(n)}


def private_reads(source: str, private: set[str]) -> list[str]:
    """Where `source` imports one of the `private` names from padicops, or
    reads one as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "padicops":
            out += [f"import {a.name} (line {node.lineno})" for a in node.names if a.name in private]
        elif isinstance(node, ast.Attribute) and node.attr in private:
            out.append(f".{node.attr} (line {node.lineno})")
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


# the one place each that builds a `Family`: the CLI from its config, and the
# series route, which keeps (p, q, k, d) positional for the benchmark's tracer
FAMILY_BUILDERS = {"cli.RunConfig.family", "zeta.phi_series_coefficient"}


def scoped(tree: ast.AST, prefix: str):
    """Yield (qualname of the innermost enclosing definition, node) for every
    node under `tree`."""
    for node in ast.iter_child_nodes(tree):
        name = f"{prefix}.{node.name}" if is_def(node) else prefix
        yield name, node
        yield from scoped(node, name)


def family_builders(root: Path = ROOT) -> list[str]:
    """Where src/padicops calls `Family(...)`, by enclosing definition."""
    out = []
    for path in sorted((root / "src" / "padicops").glob("*.py")):
        for where, node in scoped(ast.parse(path.read_text()), path.stem):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Family":
                    out.append(where)
    return out


def test_family_is_built_only_where_the_twist_enters():
    builders = family_builders()
    assert sorted(set(builders)) == sorted(FAMILY_BUILDERS), builders
    assert len(builders) == len(FAMILY_BUILDERS), builders


def test_zeta_takes_the_family_whole():
    """No function of zeta but the series route reads k and d apart."""
    split = []
    tree = ast.parse((ROOT / "src" / "padicops" / "zeta.py").read_text())
    for where, node in scoped(tree, "zeta"):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
            if {"k", "d"} <= names and where != "zeta.phi_series_coefficient":
                split.append(where)
    assert not split, f"take a carries.Family instead of k and d: {split}"


def test_oracles_use_no_private_name_of_the_library():
    """An oracle that needs a private helper of the code it checks (such as
    `_split` or `_key`) is not independent of that code."""
    private = private_names()
    assert {"_split", "_key", "_ppow", "_raw"} <= private
    planted = "from padicops.padics import _split\nfrom padicops.ratfun import Poly\nPoly.of(1)._key()\n"
    assert len(private_reads(planted, private)) == 2
    found = private_reads((ROOT / "tests" / "oracles.py").read_text(), private)
    assert not found, f"tests/oracles.py reads private names of padicops: {found}"
