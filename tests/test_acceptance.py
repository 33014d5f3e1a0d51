"""Acceptance criteria, one test per criterion.

Every criterion runs at its stated tolerance and prints a single
PASS/FAIL line (visible with ``pytest -s``); a failing assertion carries
the measured numbers.  Runtime limits are asserted per criterion.
"""

import time

import numpy as np

from legspec import immersions as im
from legspec import moment as mo
from legspec import nomizu as nz
from legspec import sasaki as sk
from legspec import spectral as spc

BUILTINS = (
    "great-circle-s3",
    "geodesic-sphere-n2",
    "clifford-torus-s5",
    "geodesic-sphere-n3",
)


class _Criterion:
    def __init__(self, index, label, limit_s):
        self.index = index
        self.label = label
        self.limit_s = limit_s
        self.t0 = time.perf_counter()
        self.failures = []
        self.worst = {}

    def check(self, name, value, threshold):
        self.worst[name] = max(self.worst.get(name, 0.0), value)
        if value > threshold:
            self.failures.append(f"{name}: {value:.3e} > {threshold:.1e}")

    def check_equal(self, name, value, expected):
        self.worst[name] = value
        if value != expected:
            self.failures.append(f"{name}: {value} != {expected}")

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.limit_s:
            self.failures.append(f"runtime {elapsed:.1f}s > {self.limit_s}s")
        status = "FAIL" if self.failures else "PASS"
        detail = "; ".join(self.failures) if self.failures else ", ".join(
            f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in list(self.worst.items())[:4]
        )
        print(f"ACCEPTANCE {self.index} [{self.label}]: {status} ({elapsed:.1f}s; {detail})")
        assert not self.failures, "; ".join(self.failures)


def test_criterion_1_sasaki_axioms():
    crit = _Criterion(1, "sasaki axiom suite", limit_s=10.0)
    for n in (1, 2):
        S = sk.SphereSasaki(n)
        residuals = sk.verify_sasaki_axioms(S, sk.sample_tangent_triples(S, 100, seed=0))
        for axiom, value in residuals.items():
            crit.check(f"S^{2*n+1} {axiom}", value, 1e-7)
        u = np.full(S.dim, 0.4 / np.sqrt(S.dim))  # a hemisphere chart point, |u| = 0.4
        crit.check(f"S^{2*n+1} einstein-constant-2n", sk.eta_einstein_residual(S, u), 1e-5)
    crit.finish()


def test_criterion_2_minimality_legendrianity():
    crit = _Criterion(2, "minimal Legendrian geometry", limit_s=20.0)
    for name in BUILTINS:
        L = im.get_immersion(name)
        crit.check(f"{name} legendrian", L.node_geometry().legendrian_residual, 1e-8)
        sd = im.shape_operator(L.node_geometry())
        crit.check(f"{name} mean-curvature", sd.mean_curvature_norm(), 1e-6)
        if "sphere" in name or "circle" in name:
            crit.check(
                f"{name} second-fundamental-form", sd.second_fundamental_norm(), 1e-6
            )
    crit.finish()


def test_criterion_3_moment_family():
    crit = _Criterion(3, "moment family eigenfunctions", limit_s=60.0)
    for name in BUILTINS:
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        vol = L.volume()
        degenerate = 0
        for X in mo.algebra_basis(L.n):
            f = mo.moment_function(L, X)
            res = spc.eigen_residual(L, f, target)
            if res.degenerate:
                degenerate += 1
            else:
                crit.check(f"{name} eigen-residual", res.residual, 1e-5)
            crit.check(
                f"{name} mean-zero",
                abs(L.integrate(f.node_values(L.node_geometry()))) / vol,
                1e-8,
            )
        crit.worst[f"{name} degenerate-count"] = degenerate
    crit.finish()


def test_criterion_4_nomizu_family():
    crit = _Criterion(4, "cone-operator family", limit_s=60.0)
    for name in BUILTINS:
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        J = sk.complex_structure(L.n)
        for X in mo.algebra_basis(L.n):
            alg = nz.cone_field_residuals(nz.nomizu_operator(X), J)
            crit.check(f"{name} operator-skew", alg["skew"], 1e-8)
            crit.check(f"{name} operator-J-commute", alg["j_commutes"], 1e-8)
            crit.check(f"{name} operator-trace", alg["j_trace"], 1e-8)
            f = nz.nomizu_function(X)
            frame_sum = nz.operator_identity_residuals(f, L)
            crit.check(f"{name} frame-sum", frame_sum, 1e-7)
            res = spc.eigen_residual(L, f, target)
            if not res.degenerate:
                crit.check(f"{name} eigen-residual", res.residual, 1e-5)
    crit.finish()


def test_criterion_5_family_coincidence():
    crit = _Criterion(5, "family coincidence and vanishing integrals", limit_s=30.0)
    for name in BUILTINS:
        L = im.get_immersion(name)
        vol = L.volume()
        for X in mo.algebra_basis(L.n):
            res = nz.family_coincidence_residuals(mo.moment_function(L, X), nz.nomizu_function(X))
            crit.check(f"{name} |f_cone - f_moment|", res, 1e-8)
        for X in mo.traceless_basis(L.n):
            val = abs(L.integrate(lambda u: mo.moment(L.points(u), X)))
            crit.check(f"{name} contact-integral", val / vol, 1e-8)
    crit.finish()


def test_criterion_6_multiplicity_bound():
    crit = _Criterion(6, "multiplicity bound and equality cases", limit_s=180.0)
    cases = [
        ("great-circle-s3", 4096, 2, 2, True),
        ("geodesic-sphere-n2", 6, 5, 5, True),
        ("clifford-torus-s5", 256, 6, 5, False),
    ]
    for name, res, mult, bound, equality in cases:
        L = im.get_immersion(name)
        report = spc.mesh_spectrum(L, res)
        verdict = spc.bound_check(report)
        crit.check_equal(f"{name} multiplicity", report.multiplicity, mult)
        crit.check_equal(f"{name} bound", report.bound, bound)
        crit.check_equal(f"{name} passes-bound", verdict.passed, True)
        crit.check_equal(f"{name} equality", verdict.equality, equality)
        crit.check(
            f"{name} cluster-accuracy",
            abs(report.cluster_mean - report.target) / report.target,
            0.02,
        )
        sep = report.separation_ratio()
        if sep < 3.0:
            crit.failures.append(f"{name} separation {sep:.2f} < 3")
        crit.worst[f"{name} separation"] = sep
    crit.finish()


def test_criterion_7_cross_pipeline():
    crit = _Criterion(7, "cross-pipeline agreement and Rayleigh", limit_s=120.0)
    for name, res in (("great-circle-s3", 256), ("clifford-torus-s5", 64)):
        L = im.get_immersion(name)
        shape = L.domain.grid_shape(res)

        def disagreement(r2):
            u2, _ = L.nodes(r2)
            worst = 0.0
            for X in mo.algebra_basis(L.n):
                f = mo.moment_function(L, X, r2)
                fv = f.ambient(L.points(u2))
                if np.max(np.abs(fv)) <= 1e-12:
                    continue
                mesh_vals = spc.apply_mesh_operator(L, fv.reshape(L.domain.grid_shape(r2)))
                ext_vals = spc.extrinsic_laplacian(L, f.quadratic_form, r2).reshape(
                    L.domain.grid_shape(r2)
                )
                worst = max(
                    worst,
                    float(np.max(np.abs(mesh_vals - ext_vals)) / np.max(np.abs(ext_vals))),
                )
            return worst

        errs = [disagreement(r) for r in (res // 2, res, 2 * res)]
        crit.check(f"{name} agreement", errs[1], 0.02)
        order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
        crit.worst[f"{name} order"] = order
        if order < 1.8:
            crit.failures.append(f"{name} refinement order {order:.2f} < 1.8")

    for name in BUILTINS:
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        for X in mo.algebra_basis(L.n):
            f = mo.moment_function(L, X)
            if np.max(np.abs(f.node_values(L.node_geometry()))) <= 1e-12:
                continue
            q = spc.rayleigh_quotient(L, f)
            crit.check(f"{name} rayleigh", abs(q - target) / target, 0.01)
    crit.finish()
