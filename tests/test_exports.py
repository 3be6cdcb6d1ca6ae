"""Every name a casimir2d module exports in ``__all__`` resolves."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import casimir2d

MODULES = ["casimir2d"] + [
    f"casimir2d.{m.name}" for m in pkgutil.iter_modules(casimir2d.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_one_engine_entry():
    # the chain engine is reached through evaluate alone; the per-query
    # wrappers and the private pass functions are gone
    from casimir2d import assembly, scenarios
    for mod in (casimir2d, assembly):
        assert {"evaluate", "I12"} <= set(mod.__all__)
    gone = {"diagram_energies", "diagram_forces", "diagram_I12"}
    assert not gone & (set(casimir2d.__all__) | set(assembly.__all__))
    for name in gone | {"_energies_and_forces", "_values", "_I12"}:
        assert not hasattr(casimir2d, name) and not hasattr(assembly, name)
    assert not hasattr(scenarios, "default_sweep")
    assert "default_sweep" not in scenarios.__all__


def test_block_oracle_left_the_package():
    # the random-matrix oracle of the diagram combinatorics lives in
    # tests/block_system.py; verify checks the scenes' own operator
    from casimir2d import cli, diagrams
    gone = {"BlockSystem", "lndet_oracle", "random_block_system",
            "truncated_lndet"}
    for mod in (casimir2d, diagrams, cli):
        assert not gone & set(getattr(mod, "__all__", ()))
        assert not any(hasattr(mod, name) for name in gone)


def test_import_leaves_scipy_special_out():
    # scipy is a test-only dependency; importing it costs start-up time
    # and memory
    src = str(Path(casimir2d.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import casimir2d; "
            "print('scipy.special' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
