"""The package's public names are exactly its modules' public names."""

import importlib

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
