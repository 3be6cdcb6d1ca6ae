"""Every name a casimir2d module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import casimir2d

MODULES = ["casimir2d"] + [
    f"casimir2d.{m.name}" for m in pkgutil.iter_modules(casimir2d.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
