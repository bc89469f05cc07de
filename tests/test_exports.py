"""Every name in the `__all__` of each ipcrypt module exists.

`from ipcrypt.x import *` raises on a stale entry, but nothing else
imports that way, so a deleted name left in `__all__` would pass silently.
"""

import importlib
import pkgutil

import pytest

import ipcrypt

MODULES = [f"ipcrypt.{m.name}" for m in pkgutil.iter_modules(ipcrypt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
