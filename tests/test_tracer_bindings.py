"""Every layer the benchmark tracer wraps still exists under its name.

``perfbench/tracer.py`` wraps legspec functions and methods by module and
name; a rename or deletion would make ``--trace 1`` fail with an
``AttributeError``.  The tracer is loaded by path and not installed, so
no binding is replaced here.
"""

import importlib.util
import inspect
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


# The arguments each keyed span's key function reads, in order; the first
# is the immersion (``self`` on a method).
KEYED_ARGUMENTS = {
    "immersions.frames": ("L", "u"),
    "immersions.sqrt_det_metric": ("L", "u"),
    "moment.moment_function": ("L", "X", "resolution"),
    "spectral.mesh_spectrum": ("L", "resolution"),
}

KEYED = [(f"{m}.{n}", importlib.import_module(f"legspec.{m}"), n, key)
         for m, n, key in tracer.FUNCTIONS if key is not None]
KEYED += [(span, getattr(importlib.import_module(f"legspec.{m}"), c), f, key)
          for m, c, f, span, key in tracer.METHODS if key is not None]


@pytest.mark.parametrize("span,owner,name,key", KEYED, ids=[k[0] for k in KEYED])
def test_key_binds_the_live_signature(span, owner, name, key):
    # a renamed or reordered parameter would otherwise surface only as a
    # TypeError, or a wrong key, under --trace 1
    first, *rest = KEYED_ARGUMENTS[span]
    for signature in (inspect.signature(getattr(owner, name)), inspect.signature(key)):
        signature.bind(first, *rest)
        signature.bind(first, **{arg: arg for arg in rest})


def test_eigsh_is_looked_up_on_scipy_at_call_time(monkeypatch):
    # the tracer's spectral.eigsh span wraps scipy.sparse.linalg.eigsh on
    # the module object, so spectral must not hold its own reference
    import scipy.sparse.linalg as spla

    from legspec import spectral
    from legspec.immersions import get_immersion

    calls = []
    original = spla.eigsh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting)
    spectral.mesh_spectrum(get_immersion("geodesic-sphere-n2"), 3)
    # one solve per orbit of the rotation on the reflection sectors
    assert len(calls) == 4
