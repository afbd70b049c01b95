"""Package-wide contracts that no single module's tests own."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import embgeom

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(embgeom.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"embgeom.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)



def test_every_linalg_export_has_a_caller_in_the_package():
    # but dot, softmax and linear_apply, which tests/test_benchmark_contract.py pins
    used = set()
    for path in Path(embgeom.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg":
                used.add(node.attr)
    exported = importlib.import_module("embgeom.linalg").__all__
    assert set(exported) - used - {"dot", "softmax", "linear_apply"} == set()
