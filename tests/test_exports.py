"""Every exported name resolves, so `from shiftq... import *` cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import shiftq

MODULES = ["shiftq"] + [f"shiftq.{m.name}" for m in pkgutil.iter_modules(shiftq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
