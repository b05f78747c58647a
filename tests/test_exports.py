"""Export lists: each module's `__all__` names only what the module defines,
and the package root re-exports only names its modules list, so neither
`import *` nor a root import can reach a name a deletion left behind."""

import ast
import importlib
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
    tree = ast.parse(Path(ictmseg.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ictmseg.{node.module}")
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert not unlisted, f"ictmseg re-exports {unlisted}, not in {node.module}.__all__"
    exec("from ictmseg import *", {})
