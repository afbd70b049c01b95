"""Package-wide contracts that no single module's tests own."""

import importlib
import pkgutil

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
