"""The package root resolves each public name on first access, to its defining module's object."""

import importlib
import os
import subprocess
import sys

import pytest

import shiftq
from shiftq import cli, compact_circle, config, distributions, quality

SRC = os.path.dirname(os.path.dirname(shiftq.__file__))


def test_bare_import_loads_only_util_and_dir_lists_every_export():
    code = (
        "import sys\n"
        "import shiftq\n"
        "names = set(dir(shiftq))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'shiftq')\n"
        "assert loaded == ['shiftq', 'shiftq.util'], loaded\n"
        "assert set(shiftq.__all__) <= names, set(shiftq.__all__) - names\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=SRC))


@pytest.mark.parametrize("name", shiftq.__all__)
def test_exported_name_is_the_object_of_its_defining_module(name):
    value = getattr(shiftq, name)
    assert value.__module__ != "shiftq"
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_old_paths_reexport_the_same_objects():
    assert quality.MCConfig is config.MCConfig
    assert compact_circle.CircleDensity is distributions.CircleDensity
    assert compact_circle.uniform_circle_density is distributions.uniform_circle_density
    assert compact_circle.wrap is distributions.wrap
    assert cli.quality_inf is quality.quality_inf


def test_star_import_binds_every_export_and_unknown_names_fail():
    namespace = {}
    exec("from shiftq import *", namespace)
    assert {name: namespace[name] for name in shiftq.__all__} == {
        name: getattr(shiftq, name) for name in shiftq.__all__
    }
    assert not hasattr(shiftq, "no_such_name")
    assert not hasattr(cli, "no_such_name")
