"""Every layer the benchmark tracer wraps still exists under its name.

``perfbench/tracer.py`` wraps legspec functions and methods by module and
name; a rename or deletion would make ``--trace 1`` fail with an
``AttributeError``.  The tracer is loaded by path and not installed, so
no binding is replaced here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module_name,name", [(m, n) for m, n, _ in tracer.FUNCTIONS],
    ids=[f"{m}.{n}" for m, n, _ in tracer.FUNCTIONS],
)
def test_function_binding_resolves(module_name, name):
    module = importlib.import_module(f"legspec.{module_name}")
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize(
    "module_name,cls_name,method", [(m, c, f) for m, c, f, _, _ in tracer.METHODS],
    ids=[span for *_, span, _ in tracer.METHODS],
)
def test_method_binding_resolves(module_name, cls_name, method):
    cls = getattr(importlib.import_module(f"legspec.{module_name}"), cls_name, None)
    assert cls is not None
    assert callable(getattr(cls, method, None))
