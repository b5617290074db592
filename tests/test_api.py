import importlib
import inspect

import pytest

import heatmetric as hm

MODULES = ["cli", "flow", "geometry", "heat", "spaces", "tangent", "transport"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"heatmetric.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"heatmetric.{name}.__all__ names undefined {missing}"


def test_top_level_exports_are_listed():
    unlisted = []
    for attr in dir(hm):
        obj = getattr(hm, attr)
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        if attr not in getattr(home, "__all__", ()):
            unlisted.append(f"{obj.__module__}.{attr}")
    assert not unlisted, f"exported from heatmetric but missing from __all__: {unlisted}"


@pytest.mark.parametrize("name", MODULES)
def test_no_function_takes_a_space_and_its_decomposition(name):
    module = importlib.import_module(f"heatmetric.{name}")
    both = [attr for attr in module.__all__
            if inspect.isfunction(getattr(module, attr))
            and {"space", "hs"} <= set(inspect.signature(getattr(module, attr)).parameters)]
    assert not both, f"heatmetric.{name} functions take both space and hs: {both}"
