"""Export lists: each module's `__all__` names only what the module defines,
and the package root exports exactly the names its modules list, so neither
`import *` nor a root import can reach a name a deletion left behind."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import ictmseg

# __main__ runs the command line when imported
MODULES = [m.name for m in pkgutil.iter_modules(ictmseg.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"ictmseg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"ictmseg.{name}.__all__ names missing attributes {missing}"


def test_package_reexports_only_listed_names():
    # the root star-imports its modules, so its public names, submodules
    # aside, are exactly the union of those modules' `__all__`
    tree = ast.parse(Path(ictmseg.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert imports
    listed = set()
    for node in imports:
        listed.update(importlib.import_module(f"ictmseg.{node.module}").__all__)
    public = {n for n, v in vars(ictmseg).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == listed, (sorted(public - listed), sorted(listed - public))
    exec("from ictmseg import *", {})


def test_solver_functions_have_one_call_path():
    # no solver function takes an argument that it computes itself when the
    # caller leaves it out: no parameter defaults to None, apart from
    # `segment`'s progress callback
    optional = []
    for name in ("solve", "energy", "field"):
        module = importlib.import_module(f"ictmseg.{name}")
        for fname in module.__all__:
            fn = getattr(module, fname)
            if not inspect.isfunction(fn):
                continue
            optional += [f"{name}.{fname}({p.name}=None)"
                         for p in inspect.signature(fn).parameters.values()
                         if p.default is None and (fname, p.name) != ("segment", "progress")]
    assert not optional, optional
