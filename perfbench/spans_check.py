"""Tests of the benchmark itself: spans fire where expected, tracing leaves
outputs unchanged, and ``BENCHMARK.json`` lists what ``run.py`` prints.

Run from the repository root (about a minute)::

    python3 -m pytest -q perfbench/spans_check.py

The file name keeps it out of the package's default test collection.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

MESH_SPANS = ["icosphere.icosphere", "icosphere.cotangent_laplacian",
              "spectral.mesh_spectrum", "spectral.eigsh", "spectral.splu"]

POINTWISE = ["spectral.extrinsic_laplacian", "spectral.eigen_residual"]
GEOMETRY = ["immersions.integrate", "immersions.sqrt_det_metric", "immersions.frames"]

EXPECTED_SPANS = {
    "spectrum": MESH_SPANS + POINTWISE + GEOMETRY + [
        "spectral.rayleigh_quotient", "spectral.apply_mesh_operator",
        "immersions.shape_operator", "moment.moment_function", "moment.algebra_basis",
        "sasaki.SphereSasaki", "suites.spectrum_records", "suites.run_suite",
        "reporting.Report.to_json", "cli.main",
    ],
    "families": POINTWISE + GEOMETRY + [
        "immersions.shape_operator", "immersions.normal_split",
        "moment.moment_function", "moment.automorphism_residuals", "moment.algebra_basis",
        "nomizu.cone_field_residuals", "nomizu.nomizu_operator",
        "nomizu.operator_identity_residuals", "nomizu.family_coincidence_residuals",
        "sasaki.SphereSasaki", "sasaki.SphereCone", "suites.legendrian_geometry_records",
        "suites.moment_family_records", "suites.nomizu_family_records",
        "suites.relation_records", "suites.run_suite", "reporting.Report.to_json", "cli.main",
    ],
    "refine": POINTWISE + GEOMETRY + [
        "moment.moment_function", "nomizu.family_coincidence_residuals",
        "suites.moment_family_records", "suites.relation_records", "suites.run_suite",
        "reporting.Report.to_json", "cli.main",
    ],
}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced pass of each workload at seed 0."""
    out = {}
    for workload in run.WORKLOADS:
        bench = run.Bench(workload, 0, tmp_path_factory.mktemp(workload))
        bench.one_pass()
        _, _, totals = bench.one_pass(traced=True)
        out[workload] = (bench, run.layer_values(totals))
    return out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reproduces_untraced_outputs(passes, workload):
    bench, _ = passes[workload]
    assert bench.gate.failed == 0, bench.gate.notes
    assert bench.gate.attempted == 2 * len(bench.calls)
    if workload != "spectrum":
        # Only the eigensolver's random start vector moves bytes.
        assert bench.gate.roundoff_mismatches == 0, bench.gate.notes


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_expected_spans_fire(passes, workload):
    _, values = passes[workload]
    silent = [s for s in EXPECTED_SPANS[workload] if values[f"{s}.calls"] < 1]
    assert not silent


def test_every_span_fires_somewhere():
    assert set(tracer.SPAN_NAMES) == {s for spans in EXPECTED_SPANS.values() for s in spans}


@pytest.mark.parametrize("workload", ["families", "refine"])
def test_mesh_layers_idle_without_mesh(passes, workload):
    _, values = passes[workload]
    assert {s: values[f"{s}.calls"] for s in MESH_SPANS} == dict.fromkeys(MESH_SPANS, 0)
    assert values["icosphere.vertices"] == 0
    assert values["spectral.eigsh.solves"] == 0


def test_every_binding_is_wrapped():
    """No legspec module global, nor a dict it holds, still refers to an
    unwrapped traced function after install."""
    code = f"""
import importlib, json, sys
sys.path.insert(0, {str(HERE)!r})
import tracer
import legspec.cli
originals = [getattr(importlib.import_module("legspec." + m), n) for m, n, _ in tracer.FUNCTIONS]
tracer.install(tracer.Tracer())
left = []
for module in tracer._legspec_modules():
    for attr, value in vars(module).items():
        values = value.values() if isinstance(value, dict) else [value]
        left += [f"{{module.__name__}}.{{attr}}" for v in values if any(v is o for o in originals)]
print(json.dumps(left))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=run.child_env(), capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == []


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()


def test_float_drift():
    assert run.float_drift({"a": [1.0, "x"]}, {"a": [1.0 + 1e-15, "x"]}) < run.ROUNDOFF
    assert run.float_drift({"a": "pass"}, {"a": "fail"}) is None
    assert run.float_drift({"a": 1}, {"a": 2}) is None
    assert run.float_drift({"a": 1.0}, {"a": 1.1}) > run.ROUNDOFF
