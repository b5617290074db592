import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

import heatmetric as hm
from heatmetric import cli

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


def test_source_lines_fit_in_100_columns():
    package = Path(hm.__file__).parent
    long = [f"{path.relative_to(package)}:{number} ({len(line)})"
            for path in sorted(package.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert not long, f"source lines over 100 columns: {long}"


def test_readme_library_map_calls_exist():
    # every `name(` in the README's heatmetric.* rows is a builtin or is
    # defined (def or class) somewhere in the package
    package = Path(hm.__file__).parent
    text = (package.parents[1] / "README.md").read_text().split("## Library map", 1)[1]
    rows = [line for line in text.splitlines() if line.startswith("| `heatmetric.")]
    called = {name.rsplit(".", 1)[-1] for row in rows
              for name in re.findall(r"`([A-Za-z_][\w.]*)\(", row)}
    defined = {node.name for path in package.rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert rows and called
    unknown = sorted(called - defined - set(dir(builtins)))
    assert not unknown, f"README library map calls undefined names: {unknown}"


@pytest.mark.parametrize("name", MODULES)
def test_no_function_takes_a_space_and_its_decomposition(name):
    module = importlib.import_module(f"heatmetric.{name}")
    both = [attr for attr in module.__all__
            if inspect.isfunction(getattr(module, attr))
            and {"space", "hs"} <= set(inspect.signature(getattr(module, attr)).parameters)]
    assert not both, f"heatmetric.{name} functions take both space and hs: {both}"


def test_exit_1_failures_are_exported(tmp_path, monkeypatch):
    # the exceptions named by the handler in cli.run that returns 1
    handlers = [node for node in ast.walk(ast.parse(inspect.getsource(cli.run)))
                if isinstance(node, ast.ExceptHandler)
                and any(isinstance(stmt, ast.Return) and getattr(stmt.value, "value", None) == 1
                        for stmt in node.body)]
    names = [elt.attr for handler in handlers for elt in handler.type.elts]
    assert names
    for name in names:
        exc = getattr(hm, name)

        def fail(args):
            raise exc("uncertified")

        monkeypatch.setitem(cli.COMMANDS, "selftest", fail)
        assert cli.run(["selftest", "--out", str(tmp_path)]) == 1
