"""Every name a drbench module exports in ``__all__`` resolves, so a
deletion that leaves an export behind fails here rather than at a user's
``from drbench import *``."""

import importlib
import pkgutil

import pytest

import drbench

MODULES = ["drbench", *(f"drbench.{info.name}" for info in pkgutil.iter_modules(drbench.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    assert len(set(names)) == len(names), module
    assert [name for name in names if not hasattr(mod, name)] == []
