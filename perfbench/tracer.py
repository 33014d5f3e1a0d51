"""Run one ``legspec`` CLI invocation in-process with spans around each layer.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/tracer.py --spans spans.json -- --suite relation --seed 0

The public functions of every layer are wrapped from outside, at every
name that binds them: ``spectral`` imports ``icosphere`` and
``shape_operator`` directly, ``nomizu`` imports ``moment_function``,
``suites.SUITE_FUNCTIONS`` holds the suite functions, so a wrapper on the
defining module alone would miss those calls.  Methods are wrapped on
their class, which also catches every construction of ``SphereSasaki``
whatever name it is reached by.  Nothing under ``src/`` changes.

Each wrapped call records a span (name, start, end, parent).  Spans stay
in memory; at exit the per-name totals are written to ``--spans`` as
JSON, and the process exits with the code ``legspec.cli.main`` returned.
"""

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _node_key(L, u, *args, **kwargs):
    return (L.name, len(u))


def _moment_key(L, X, resolution=None, *args, **kwargs):
    return (L.name, X.label, L.resolve_resolution(resolution))


def _mesh_key(L, resolution=None, *args, **kwargs):
    return (L.name, resolution)


# (module, function, distinct-input key); every binding of the function in
# a legspec module, or in a dict held by one, is replaced by the wrapper.
FUNCTIONS = [
    ("icosphere", "icosphere", None),
    ("icosphere", "cotangent_laplacian", None),
    ("spectral", "mesh_spectrum", _mesh_key),
    ("spectral", "extrinsic_laplacian", None),
    ("spectral", "eigen_residual", None),
    ("spectral", "rayleigh_quotient", None),
    ("spectral", "apply_mesh_operator", None),
    ("immersions", "shape_operator", None),
    ("immersions", "normal_split", None),
    ("moment", "moment_function", _moment_key),
    ("moment", "automorphism_residuals", None),
    ("moment", "algebra_basis", None),
    ("nomizu", "cone_field_residuals", None),
    ("nomizu", "nomizu_operator", None),
    ("nomizu", "operator_identity_residuals", None),
    ("nomizu", "family_coincidence_residuals", None),
    ("suites", "legendrian_geometry_records", None),
    ("suites", "moment_family_records", None),
    ("suites", "nomizu_family_records", None),
    ("suites", "relation_records", None),
    ("suites", "spectrum_records", None),
    ("suites", "run_suite", None),
    ("cli", "main", None),
]

# (module, class, method, span name, distinct-input key)
METHODS = [
    ("immersions", "LegendrianImmersion", "integrate", "immersions.integrate", None),
    ("immersions", "LegendrianImmersion", "sqrt_det_metric", "immersions.sqrt_det_metric",
     _node_key),
    ("immersions", "LegendrianImmersion", "frames", "immersions.frames", _node_key),
    ("sasaki", "SphereSasaki", "__init__", "sasaki.SphereSasaki", None),
    ("sasaki", "SphereCone", "__init__", "sasaki.SphereCone", None),
    ("reporting", "Report", "to_json", "reporting.Report.to_json", None),
]

# The eigensolver, looked up by ``spectral`` as ``spla.eigsh``, and the
# sparse LU it factors inside ARPACK's shift-invert mode.
SCIPY_SPANS = ["spectral.eigsh", "spectral.splu"]

SPAN_NAMES = (
    [f"{module}.{name}" for module, name, _ in FUNCTIONS]
    + [span for _, _, _, span, _ in METHODS]
    + SCIPY_SPANS
)

# Counters: vertices of the meshes built, LU solves inside eigsh, and
# records in the finished reports.
COUNTERS = ["icosphere.vertices", "spectral.eigsh.solves", "reporting.records"]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outermost of its name]
        self.stack = []
        self.active = defaultdict(int)
        self.keys = defaultdict(set)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name, fn, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.active[name] == 0]
            self.spans.append(span)
            self.stack.append(index)
            self.active[name] += 1
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.active[name] -= 1
                self.stack.pop()

        return wrapper

    def summary(self):
        """Per span name: inclusive time (outermost calls only), self time,
        exact call count and distinct keyed inputs."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {n: {"s": 0.0, "self_s": 0.0, "calls": 0, "distinct": 0} for n in SPAN_NAMES}
        for i, (name, t0, t1, _, outermost) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
            if outermost:
                agg["s"] += t1 - t0
        for name, keys in self.keys.items():
            out[name]["distinct"] = len(keys)
        return {"spans": out, "counts": self.counts}


def _legspec_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "legspec" or name.startswith("legspec."))]


def _rebind(modules, original, wrapper):
    """Replace every binding of ``original`` in the modules' globals and in
    dicts they hold."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def install(tracer):
    """Wrap every traced function and method of the imported legspec."""
    import scipy.sparse.linalg as spla
    from scipy.sparse.linalg._eigen.arpack import arpack

    import legspec.cli  # noqa: F401  (imports every layer)

    modules = _legspec_modules()
    for module_name, name, key in FUNCTIONS:
        module = importlib.import_module(f"legspec.{module_name}")
        original = getattr(module, name)
        wrapper = tracer.wrap(f"{module_name}.{name}", original, key)
        if module_name == "icosphere" and name == "icosphere":
            wrapper = _counting(tracer, wrapper, "icosphere.vertices", lambda r: len(r[0]))
        elif name == "run_suite":
            wrapper = _counting(tracer, wrapper, "reporting.records", lambda r: len(r.records))
        _rebind(modules, original, wrapper)
    for module_name, cls_name, method, span, key in METHODS:
        cls = getattr(importlib.import_module(f"legspec.{module_name}"), cls_name)
        setattr(cls, method, tracer.wrap(span, getattr(cls, method), key))

    spla.eigsh = tracer.wrap("spectral.eigsh", spla.eigsh)
    arpack.splu = tracer.wrap("spectral.splu", arpack.splu)
    solve = arpack.SpLuInv._matvec

    def counted_solve(self, x):
        tracer.counts["spectral.eigsh.solves"] += 1
        return solve(self, x)

    arpack.SpLuInv._matvec = counted_solve


def _counting(tracer, fn, counter, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts[counter] += measure(result)
        return result

    return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write span totals here (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the legspec CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import legspec

    if not Path(legspec.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tracer: legspec imported from {legspec.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    tracer = Tracer()
    install(tracer)
    import legspec.cli

    code = legspec.cli.main(cli_args)
    Path(args.spans).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
