import ast
import importlib
import inspect
import os
import pkgutil
import runpy
import subprocess
import sys
import typing
from functools import cached_property
from pathlib import Path

import pytest

import cartierv
from cartierv import cartier_mod, suites, testmod, vfilt


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


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up stays light.  A fresh interpreter, because pytest itself
    loads both modules."""
    code = ("import sys, cartierv, cartierv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(cartierv.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


RECORDS = {
    cartier_mod.NilIsoReport: ("is_morphism", "kernel_nilpotent", "cokernel_nilpotent",
                               "detail"),
    suites.SuiteResult: ("name", "cases", "failures"),
    suites.ReproCheck: ("name", "ok", "detail"),
    suites.ReproResult: ("scenario", "checks"),
    testmod.TauResult: ("value", "stabilized_at_e", "path"),
    testmod.FiltrationTable: ("f", "t_min", "t_max", "v0", "jumps", "values", "left_limits"),
    testmod.FptResult: ("value", "nu_lower", "nu_upper", "nu_level"),
    vfilt.AxiomFailure: ("axiom", "t", "detail"),
    vfilt.AxiomReport: ("failures",),
    vfilt.GrPiece: ("t", "convention", "twist_exponent", "module"),
    vfilt.ComparisonReport: ("status", "detail"),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_keep_their_fields_repr_equality_and_hash(cls):
    """The result records are named tuples: fields in their declared
    order, Name(field=...) reprs, equality and hash by fields, no
    assignment; as tuples they also index, iterate and equal plain tuples."""
    fields = RECORDS[cls]
    assert cls._fields == fields
    values = tuple(f"{name}-value" for name in fields)
    rec = cls(*values)
    args = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(rec) == f"{cls.__name__}({args})"
    assert rec == cls(*values) and hash(rec) == hash(cls(*values))
    assert rec != cls(*values[:-1], "other")
    assert rec == values and tuple(rec) == values and rec[0] == values[0]
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
