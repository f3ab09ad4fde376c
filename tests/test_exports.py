"""Every name a module exports through ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import splineqi

MODULES = ["splineqi"] + [
    f"splineqi.{info.name}" for info in pkgutil.iter_modules(splineqi.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
