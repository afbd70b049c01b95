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



# The pure-Python algebra: the traced benchmark counts calls of these three
# (tests/test_benchmark_contract.py pins the names) and tests replay the
# numpy kernels against them, but no shipped path runs them.
PURE_PYTHON = {"dot", "softmax", "linear_apply"}


def _linalg_names_used():
    """Per module of the package, the linalg names it imports or reads as attributes."""
    used = {}
    for path in Path(embgeom.__file__).parent.glob("*.py"):
        names = used[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg":
                names.add(node.attr)
    return used


def test_every_linalg_export_has_a_caller_in_the_package():
    used = set().union(*_linalg_names_used().values())
    exported = importlib.import_module("embgeom.linalg").__all__
    assert set(exported) - used - PURE_PYTHON == set()


def test_no_shipped_path_runs_the_pure_python_algebra():
    assert {m: n & PURE_PYTHON for m, n in _linalg_names_used().items() if n & PURE_PYTHON} == {}
