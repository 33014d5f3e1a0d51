"""Laplacian pipelines: pointwise values, mesh spectra, bounds."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from legspec import icosphere as ic
from legspec import immersions as im
from legspec import moment as mo
from legspec import spectral as spc
from legspec.cli import main
from legspec.errors import PreconditionError, UnsupportedError


def diag_field(n, entries):
    return mo.AutomorphismField(
        mo._real_form(np.zeros((n + 1, n + 1)), np.diag(entries)), n, "i*diag"
    )


class TestExtrinsicLaplacian:
    def test_constants_are_harmonic(self):
        L = im.clifford_torus()
        u, _ = L.nodes()
        # the constant 1 is |x|^2 on the unit sphere: the identity form
        vals = spc.extrinsic_laplacian(L, np.eye(2 * L.n + 2), u)
        assert np.max(np.abs(vals)) <= 1e-10

    def test_degree_two_harmonic_on_geodesic_sphere(self):
        # x1^2 - x2^2 restricted to round S^2: eigenvalue 6
        L = im.geodesic_sphere(2)
        f = mo.moment_function(L, diag_field(2, [1.0, -1.0, 0.0]))
        u, _ = L.nodes()
        lap = spc.extrinsic_laplacian(L, f.quadratic_form, u)
        fv = f.on_chart(u)
        assert np.max(np.abs(lap - 6.0 * fv)) / np.max(np.abs(fv)) <= 1e-6

    def test_torus_trigonometric_exactness(self):
        L = im.clifford_torus()
        u, _ = L.nodes()
        for X in mo.algebra_basis(2):
            f = mo.moment_function(L, X)
            fv = f.on_chart(u)
            if np.max(np.abs(fv)) <= 1e-12:
                continue
            lap = spc.extrinsic_laplacian(L, f.quadratic_form, u)
            assert np.max(np.abs(lap - 6.0 * fv)) / np.max(np.abs(fv)) <= 1e-6

    def test_minimality_precheck_can_fail(self):
        bad = _latitude_circle(0.5)
        with pytest.raises(PreconditionError):
            spc.extrinsic_laplacian(bad, np.eye(4), bad.nodes()[0])


class TestEigenResidual:
    def test_zero_function_flagged_degenerate(self):
        L = im.clifford_torus()
        res = spc.eigen_residual(
            L, mo.moment_function(L, mo.reeb_generator(2)), 6.0
        )
        assert res.degenerate
        assert res.residual == 0.0

    def test_circle_diag_difference(self):
        L = im.great_circle()
        f = mo.moment_function(L, diag_field(1, [1.0, -1.0]))
        res = spc.eigen_residual(L, f, 4.0)
        assert not res.degenerate
        assert res.residual <= 1e-6

    def test_torus_traceless_basis(self):
        L = im.clifford_torus()
        for X in mo.traceless_basis(2):
            f = mo.moment_function(L, X)
            res = spc.eigen_residual(L, f, 6.0)
            if not res.degenerate:
                assert res.residual <= 1e-6, X.label

    def test_residual_invariant_under_frame_remixing(self):
        rng = np.random.default_rng(31)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        L = im.geodesic_sphere(2)
        f = mo.moment_function(L, diag_field(2, [1.0, -1.0, 0.0]))
        a = spc.eigen_residual(L, f, 6.0).residual
        b = spc.eigen_residual(L.with_frame_mixer(Q), f, 6.0).residual
        assert abs(a - b) <= 1e-8


class TestMeshSpectrum:
    def test_circle_multiplicity_and_equality(self):
        rep = spc.mesh_spectrum(im.great_circle(), 4096)
        assert rep.multiplicity == 2
        assert rep.bound == 2
        assert abs(rep.first_eigenvalue) <= rep.window * rep.target
        verdict = spc.bound_check(rep)
        assert verdict.passed and verdict.equality and not verdict.inconclusive

    def test_sphere_multiplicity_and_equality(self):
        rep = spc.mesh_spectrum(im.geodesic_sphere(2), 5)
        assert rep.multiplicity == 5
        assert rep.bound == 5
        assert abs(rep.cluster_mean - 6.0) <= 0.02 * 6.0
        verdict = spc.bound_check(rep)
        assert verdict.passed and verdict.equality

    def test_torus_strict_inequality(self):
        # lattice count: p^2 - p q + q^2 = 3 has exactly six solutions
        rep = spc.mesh_spectrum(im.clifford_torus(), 128)
        assert rep.multiplicity == 6
        assert rep.bound == 5
        verdict = spc.bound_check(rep)
        assert verdict.passed and not verdict.equality

    def test_icosphere_spectrum_is_bitwise_reproducible(self):
        a = spc.mesh_spectrum(im.geodesic_sphere(2), 3).eigenvalues
        b = spc.mesh_spectrum(im.geodesic_sphere(2), 3).eigenvalues
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_icosphere_modes_match_arpack_internal_lu(self, level):
        # the sector solves against one full-size solve
        rep = spc.mesh_spectrum(im.geodesic_sphere(2), level)
        stiffness, mass = ic.cotangent_laplacian(*ic.icosphere(level))
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, stiffness.shape[0])
        ref = np.sort(spla.eigsh(stiffness, k=16, M=mass, sigma=-0.5, which="LM",
                                 v0=v0, return_eigenvectors=False))
        assert len(rep.eigenvalues) == 16
        assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-12 * ref[-1]

    def test_truncated_spectrum_is_inconclusive(self):
        # nine modes end at the l = 2 cluster, so it may continue past them
        L = im.geodesic_sphere(2)
        cut = spc.bound_check(spc.mesh_spectrum(L, 3, num_modes=9))
        assert cut.inconclusive and not cut.passed
        full = spc.bound_check(spc.mesh_spectrum(L, 3, num_modes=16))
        assert full.passed and full.equality and not full.inconclusive

    @pytest.mark.parametrize("per_sector", [1, 2, 3])
    def test_sectors_that_miss_the_window_are_inconclusive(self, monkeypatch, per_sector):
        # too few modes a sector: the spectrum known complete ends inside
        # the target window
        original = spla.eigsh
        monkeypatch.setattr(spla, "eigsh", lambda *a, **kw: original(*a, **dict(kw, k=per_sector)))
        rep = spc.mesh_spectrum(im.geodesic_sphere(2), 3)
        assert rep.eigenvalues[-1] <= rep.target * (1.0 + rep.window)
        verdict = spc.bound_check(rep)
        assert verdict.inconclusive and not verdict.passed

    def test_nan_in_one_sector_is_inconclusive(self, monkeypatch, tmp_path):
        original = spla.eigsh
        calls = []

        def third_sector_nan(*args, **kwargs):
            ev = original(*args, **kwargs)
            calls.append(1)
            if len(calls) % 8 == 3:
                ev[0] = np.nan
            return ev

        monkeypatch.setattr(spla, "eigsh", third_sector_nan)
        L = im.geodesic_sphere(2)
        verdict = spc.bound_check(spc.mesh_spectrum(L, 3))
        assert verdict.inconclusive and not verdict.passed
        out = tmp_path / "spectrum.json"
        argv = ["--suite", "spectrum", "--immersion", L.name, "--resolution", "3"]
        assert main(argv + ["--output", str(out)]) != 0
        status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
        assert status[f"{L.name}: multiplicity >= algebra bound"] == "inconclusive"

    def test_non_finite_eigenvalue_is_inconclusive(self):
        ev = [0.0, 2.0, 2.0, 2.0, 6.0, 6.0, 6.0, 6.0, 6.0, 12.0, np.nan]
        verdict = spc.bound_check(spc.SpectralReport(ev, 3, "test", 6.0, 0.05, 5))
        assert verdict.inconclusive and not verdict.passed

    def test_unsupported_immersion(self):
        with pytest.raises(UnsupportedError):
            spc.mesh_spectrum(im.geodesic_sphere(3))

    def test_out_of_range_resolution(self):
        with pytest.raises(UnsupportedError):
            spc.mesh_spectrum(im.great_circle(), 8)

    def test_narrow_window_makes_bound_inconclusive(self):
        rep = spc.mesh_spectrum(im.great_circle(), 64, window=0.8)
        verdict = spc.bound_check(rep)
        assert verdict.inconclusive and not verdict.passed

    def test_spectrum_convergence_order(self):
        # cluster-mean error of the periodic stencil drops at order >= 1.8
        L = im.great_circle()
        errors = [
            abs(spc.mesh_spectrum(L, N).cluster_mean - 4.0) for N in (256, 512, 1024)
        ]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_fem_convergence_order(self):
        errors = [
            abs(spc.mesh_spectrum(im.geodesic_sphere(2), lvl).cluster_mean - 6.0)
            for lvl in (3, 4, 5)
        ]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.5


class TestPipelineAgreement:
    @pytest.mark.parametrize("name,res", [("great-circle-s3", 256), ("clifford-torus-s5", 64)])
    def test_mesh_vs_pointwise(self, name, res):
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        u, _ = L.nodes(res)
        shape = L.domain.grid_shape(res)
        for X in mo.algebra_basis(L.n):
            f = mo.moment_function(L, X)
            fv = f.on_chart(u)
            if np.max(np.abs(fv)) <= 1e-12:
                continue
            mesh_vals = spc.apply_mesh_operator(L, fv.reshape(shape))
            ext_vals = spc.extrinsic_laplacian(L, f.quadratic_form, u).reshape(shape)
            rel = np.max(np.abs(mesh_vals - ext_vals)) / np.max(np.abs(ext_vals))
            assert rel <= 0.02, X.label

    def test_agreement_improves_at_order_two(self):
        L = im.clifford_torus()
        X = mo.algebra_basis(2)[4]
        f = mo.moment_function(L, X)
        errs = []
        for res in (32, 64, 128):
            u, _ = L.nodes(res)
            grid = f.on_chart(u).reshape(res, res)
            mesh_vals = spc.apply_mesh_operator(L, grid)
            ext_vals = spc.extrinsic_laplacian(L, f.quadratic_form, u).reshape(res, res)
            errs.append(np.max(np.abs(mesh_vals - ext_vals)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestRayleigh:
    @pytest.mark.parametrize(
        "name", ["great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3", "clifford-torus-s5"]
    )
    def test_family_functions_within_one_percent(self, name):
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        for X in mo.algebra_basis(L.n):
            f = mo.moment_function(L, X)
            if np.max(np.abs(f.values())) <= 1e-12:
                continue
            q = spc.rayleigh_quotient(L, f)
            assert abs(q - target) <= 0.01 * target, X.label


class TestSpanAndNotes:
    def test_family_span_on_geodesic_sphere(self):
        # node samples of the moment family span a five-dimensional space
        L = im.geodesic_sphere(2)
        u, _ = L.nodes()
        rows = [mo.moment_function(L, X).on_chart(u) for X in mo.algebra_basis(2)]
        mat = np.array(rows)
        svals = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(svals > 1e-6 * svals[0]))
        assert rank == 5  # n (n + 3) / 2 at n = 2

    def test_first_mesh_cluster_of_round_sphere(self):
        # eigenvalue 2 on round S^2 has multiplicity 3 (the restricted
        # linear coordinates)
        rep = spc.mesh_spectrum(im.geodesic_sphere(2), 4)
        ev = rep.eigenvalues
        near2 = ev[(ev > 1.8) & (ev < 2.2)]
        assert len(near2) == 3


def _latitude_circle(angle):
    def chart_map(u):
        t = u[..., 0]
        c, s = np.cos(angle), np.sin(angle)
        return np.stack(
            [c * np.cos(t), s * np.ones_like(t), c * np.sin(t), np.zeros_like(t)],
            axis=-1,
        )

    def jacobian(u):
        t = u[..., 0]
        c = np.cos(angle)
        zeros = np.zeros_like(t)
        return np.stack([-c * np.sin(t), zeros, c * np.cos(t), zeros], axis=-1)[..., None]

    def chart_hessian(u):
        t = u[..., 0]
        c = np.cos(angle)
        zeros = np.zeros_like(t)
        return np.stack([-c * np.cos(t), zeros, -c * np.sin(t), zeros], axis=-1)[..., None, None]

    return im.LegendrianImmersion(
        "latitude-circle", 1, chart_map, jacobian, im.PeriodicGridDomain(1), 128,
        chart_hessian,
    )
