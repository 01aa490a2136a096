"""The package's public names are exactly its modules' public names."""

import importlib
import os
import subprocess
import sys

import pytest

import altproj

MODULES = ("errors", "fracpow", "geometry", "iteration", "models", "spectral", "subspace")


def test_package_exports_the_union_of_its_modules_exports():
    names = {"__version__"}
    for module in MODULES:
        names |= set(importlib.import_module(f"altproj.{module}").__all__)
    assert len(altproj.__all__) == len(set(altproj.__all__))
    assert set(altproj.__all__) == names


def test_every_exported_name_resolves_to_its_modules_object():
    assert isinstance(altproj.__version__, str)
    for module in MODULES:
        mod = importlib.import_module(f"altproj.{module}")
        for name in mod.__all__:
            assert getattr(altproj, name) is getattr(mod, name), name


_IMPORTS = """\
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = "numpy.random" in sys.modules
import altproj, altproj.acceptance, altproj.cli
print(before, "numpy.random" in sys.modules)
"""


def test_import_does_not_load_numpy_random():
    # numpy.random pulls in secrets, hashlib and _hashlib: a fresh import of
    # the package and its command line should not pay for them
    src = os.path.dirname(os.path.dirname(altproj.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORTS, src],
                          capture_output=True, text=True, timeout=60, check=True)
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert after == "False"
