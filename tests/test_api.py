import ast
import importlib
import inspect
import pkgutil
import runpy
import typing
from functools import cached_property
from pathlib import Path

import cartierv


def test_all_names_resolve():
    missing = [name for name in cartierv.__all__ if not hasattr(cartierv, name)]
    assert not missing


def test_all_is_sorted_without_duplicates():
    assert list(cartierv.__all__) == sorted(set(cartierv.__all__))


def test_star_import():
    namespace: dict = {}
    exec("from cartierv import *", namespace)
    assert set(cartierv.__all__) <= set(namespace)


def test_tracer_targets_resolve():
    """Every function the benchmark tracer patches exists, so a rename in
    src fails here rather than in the benchmark."""
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    targets = runpy.run_path(str(tracer))["TARGETS"]
    missing = []
    for module, attr, _, _ in targets:
        mod = importlib.import_module(f"cartierv.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing


def _annotated(obj):
    """The functions and classes whose annotations get_type_hints reads:
    obj itself and, for a class, every method, property and cached
    property it defines."""
    yield obj
    if inspect.isclass(obj):
        for member in vars(obj).values():
            if isinstance(member, (staticmethod, classmethod)):
                yield member.__func__
            elif isinstance(member, property):
                yield from (fn for fn in (member.fget, member.fset, member.fdel) if fn)
            elif isinstance(member, cached_property):
                yield member.func
            elif inspect.isfunction(member):
                yield member


def test_annotations_resolve():
    """Every annotation in the package names something that exists."""
    broken = []
    for info in pkgutil.iter_modules(cartierv.__path__):
        mod = importlib.import_module(f"cartierv.{info.name}")
        for name, obj in vars(mod).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    or obj.__module__ != mod.__name__:
                continue
            for target in _annotated(obj):
                try:
                    typing.get_type_hints(target)
                except Exception as exc:  # any failure to evaluate is the finding
                    broken.append(f"{mod.__name__}.{target.__qualname__}: {exc!r}")
    assert not broken


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, skipping __future__ and the
    names it re-exports through __all__."""
    tree = ast.parse(path.read_text())
    imported: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}: {name}" for name in imported - read - exported)


def test_no_unread_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "cartierv").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    # conftest re-exports random_poly to the test modules
    unread = [hit for path in files for hit in _unread_imports(path)
              if hit != "conftest.py: random_poly"]
    assert not unread
