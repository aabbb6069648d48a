"""Every exported name resolves: the ``__all__`` of each ``lingrad``
module, and each name the package imports from its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lingrad

MODULES = sorted(m.name for m in pkgutil.iter_modules(lingrad.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined(name):
    module = importlib.import_module(f"lingrad.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(lingrad.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"lingrad.{node.module}")
        for alias in node.names:
            assert hasattr(lingrad, alias.name), alias.name
            assert alias.name in module.__all__, (node.module, alias.name)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_no_module_imports_a_name_it_never_reads(name):
    # a deletion that leaves an import behind fails here; a name in
    # ``__all__`` counts as read
    tree = ast.parse(Path(lingrad.__file__).with_name(f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    module = importlib.import_module(f"lingrad.{name}")
    assert sorted(imported - read - set(getattr(module, "__all__", ()))) == []
