import importlib
import pkgutil
from types import ModuleType

import pytest

import nblab

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(nblab.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"nblab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_match_imports():
    imported = {
        n for n, v in vars(nblab).items()
        if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert len(set(nblab.__all__)) == len(nblab.__all__)
    assert set(nblab.__all__) == imported


def test_test_only_oracles_are_not_exported():
    # step profiles serve only as the norms' oracle, in tests/conftest.py
    assert not {"step_profile", "StepProfile"} & set(dir(nblab))
    assert not {"step_profile", "StepProfile"} & set(dir(importlib.import_module("nblab.fracsum")))
