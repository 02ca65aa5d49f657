#!/usr/bin/env python3
"""List the functions of src/padicops that one CLI run never calls.

Runs `padicops.cli.main(argv)` in this process under `sys.setprofile`,
noting the code of every Python call, and prints `module.qualname` for each
function and method defined in src/padicops whose code never ran, dunder
methods aside, one a line and sorted.  The CLI's report is discarded; its
progress lines still go to stderr.  Exits with the CLI's exit code.

    python scripts/reachability.py all --config default.toml
    python scripts/reachability.py kummer-table --cases 5

The profile sees call events only, so it costs a few seconds on `all`: it is
a tool for finding dead code, not a test gate.  A function reached only
through a cache hit or only from the tests is listed as never run.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import padicops  # noqa: E402
from padicops import cli  # noqa: E402


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def functions_of(cls_or_module):
    """The plain functions a class or module binds: methods, static and
    class methods, property getters, and cached functions unwrapped."""
    for member in vars(cls_or_module).values():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif isinstance(member, property):
            member = member.fget
        member = inspect.unwrap(member)
        if inspect.isfunction(member):
            yield member


def package_functions():
    """(module.qualname, code) for every function and method defined in the
    package's modules, dunders (and the `__main__` module) aside."""
    for info in pkgutil.iter_modules(padicops.__path__):
        if is_dunder(info.name):
            continue
        module = importlib.import_module(f"{padicops.__name__}.{info.name}")
        owners = [module] + [
            c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__
        ]
        for owner in owners:
            for fn in functions_of(owner):
                if fn.__module__ != module.__name__ or is_dunder(fn.__name__):
                    continue
                yield f"{info.name}.{fn.__qualname__}", fn.__code__


def never_run(argv: list[str]) -> tuple[list[str], int]:
    """The package functions that `padicops <argv>` never calls, and the
    CLI's exit code."""
    ran = set()

    def note(frame, event, _arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(note)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
    finally:
        sys.setprofile(None)
    return sorted({q for q, code in package_functions() if code not in ran}), status


if __name__ == "__main__":
    unrun, status = never_run(sys.argv[1:])
    print("\n".join(unrun))
    sys.exit(status)
