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
