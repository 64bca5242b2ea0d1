import importlib
import runpy
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
