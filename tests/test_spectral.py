"""Laplacian pipelines: pointwise values, mesh spectra, bounds."""

import gc
import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from legspec import icosphere as ic
from legspec import immersions as im
from legspec import moment as mo
from legspec import spectral as spc
from legspec.cli import main
from legspec.config import DEFAULT_TOLERANCES
from legspec.errors import ConvergenceError, EvaluationError, PreconditionError, UnsupportedError
from legspec.reporting import FAIL, PASS
from legspec.suites import SUITE_NAMES, SuiteConfig, run_suite, spectrum_records

# the records the icosphere's mesh spectrum gives, in report order:
# inconclusive together when its eigensolve does not converge
MESH_CHECKS = (
    "multiplicity at target",
    "multiplicity >= algebra bound",
    "equality case",
    "cluster mean accuracy",
    "constants eigenvalue",
    "cluster separation ratio",
    "cluster spread",
)
# the records that rest on the bound verdict, inconclusive with it
BOUND_CHECKS = MESH_CHECKS[:3]


def _on_dense_sectors(monkeypatch, solve):
    """Route the icosphere's dense sector eigensolves through ``solve(A)``.
    numpy's ``leggauss`` also calls eigvalsh, on the quadrature's Jacobi
    matrices (4 rows at the default nodes), which keep numpy's; the
    smallest sector, at level 3, has 69 columns."""
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: solve(A) if len(A) >= 64 else eigvalsh(A))


def _unconverged_dense(A):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def diag_field(n, entries):
    return mo.AutomorphismField(
        mo._real_form(np.zeros((n + 1, n + 1)), np.diag(entries)), n, "i*diag"
    )


class TestExtrinsicLaplacian:
    def test_constants_are_harmonic(self):
        L = im.clifford_torus()
        # the constant 1 is |x|^2 on the unit sphere: the identity form
        vals = spc.extrinsic_laplacian(L, np.eye(2 * L.n + 2))
        assert np.max(np.abs(vals)) <= 1e-10

    def test_degree_two_harmonic_on_geodesic_sphere(self):
        # x1^2 - x2^2 restricted to round S^2: eigenvalue 6
        L = im.geodesic_sphere(2)
        f = mo.moment_function(L, diag_field(2, [1.0, -1.0, 0.0]))
        u, _ = L.nodes()
        lap = spc.extrinsic_laplacian(L, f.quadratic_form)
        fv = f.ambient(L.points(u))
        assert np.max(np.abs(lap - 6.0 * fv)) / np.max(np.abs(fv)) <= 1e-6

    def test_torus_trigonometric_exactness(self):
        L = im.clifford_torus()
        u, _ = L.nodes()
        for X in mo.algebra_basis(2):
            f = mo.moment_function(L, X)
            fv = f.ambient(L.points(u))
            if np.max(np.abs(fv)) <= 1e-12:
                continue
            lap = spc.extrinsic_laplacian(L, f.quadratic_form)
            assert np.max(np.abs(lap - 6.0 * fv)) / np.max(np.abs(fv)) <= 1e-6

    def test_minimality_precheck_can_fail(self):
        bad = _latitude_circle(0.5)
        with pytest.raises(PreconditionError):
            spc.extrinsic_laplacian(bad, np.eye(4))


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

    @pytest.mark.parametrize("name,N", [("great-circle-s3", 64), ("clifford-torus-s5", 32)])
    def test_periodic_spectrum_is_the_stencil_spectrum(self, name, N):
        # the dense matrix of the stencil, one grid impulse per leading index
        L = im.get_immersion(name)
        shape = L.domain.grid_shape(N)
        size = L.domain.node_count(N)
        A = spc.apply_mesh_operator(L, np.eye(size).reshape((size,) + shape)).reshape(size, size)
        # exactly symmetric, so its DFT is real and dropping .imag loses nothing
        assert np.array_equal(A, A.T)
        ref = np.linalg.eigvalsh(A)
        ev = spc.mesh_spectrum(L, N).eigenvalues
        assert len(ev) == size
        assert np.max(np.abs(ev - ref)) <= 1e-12 * ref[-1]

    @pytest.mark.parametrize("name", ["great-circle-s3", "clifford-torus-s5"])
    def test_periodic_spectrum_is_bitwise_reproducible(self, name):
        L = im.get_immersion(name)
        a = spc.mesh_spectrum(L).eigenvalues
        assert a.tobytes() == spc.mesh_spectrum(L).eigenvalues.tobytes()

    def test_stencil_needs_a_periodic_grid(self):
        L = im.geodesic_sphere(2)
        with pytest.raises(UnsupportedError):
            spc.apply_mesh_operator(L, np.zeros(L.domain.node_count(3)))

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_icosphere_modes_match_arpack_internal_lu(self, level):
        # the sector solves against one full-size solve
        rep = spc.mesh_spectrum(im.geodesic_sphere(2), level)
        verts, faces = ic.icosphere(level)
        (rows, cols, values), mass = ic.cotangent_laplacian(verts, faces)
        stiffness = sp.csr_matrix((values, (rows, cols)), shape=(len(verts),) * 2)
        mass = sp.diags(mass).tocsr()
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, len(verts))
        ref = np.sort(spla.eigsh(stiffness, k=16, M=mass, sigma=-0.5, which="LM",
                                 v0=v0, return_eigenvectors=False))
        assert len(rep.eigenvalues) == 16
        assert np.max(np.abs(rep.eigenvalues - ref)) <= 1e-12 * ref[-1]

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_rotation_orbits_replicate_all_eight_sectors(self, level):
        # each sector solved on its own: the three sectors of an orbit agree,
        # and their union makes the spectrum of the four replicated solves
        parts = []
        for sector in ic.sector_operators(*ic.icosphere(level)):
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, sector.shape[0])
            parts.append(np.sort(spla.eigsh(sector, k=4, sigma=-0.5, which="LM", v0=v0,
                                            return_eigenvectors=False)))
        scale = max(p.max() for p in parts)
        for orbit in ([1, 2, 4], [3, 5, 6]):
            for s in orbit[1:]:
                assert np.max(np.abs(parts[s] - parts[orbit[0]])) <= 1e-12 * scale
        ev = np.concatenate(parts)
        ev = np.sort(ev[ev <= min(p.max() for p in parts)])[:16]
        rep = spc.mesh_spectrum(im.geodesic_sphere(2), level)
        assert len(rep.eigenvalues) == len(ev) == 16
        assert np.max(np.abs(rep.eigenvalues - ev)) <= 1e-12 * scale

    def test_assembly_and_solves_stay_sector_sized(self, monkeypatch):
        # level 5: 2,803 of the 20,480 faces touch the octant x, y, z >= 0,
        # and each solve is a standard problem on the sector of one rotation
        # orbit, odd in 0, 1, 2 and 3 coordinates (sizes sum to 10,242 with
        # the three-fold ones counted thrice)
        assembled, solved = [], []
        cotangent, eigsh = ic.cotangent_laplacian, spla.eigsh

        def counted_cotangent(verts, faces):
            assembled.append(len(faces))
            return cotangent(verts, faces)

        def counted_eigsh(A, *args, **kwargs):
            solved.append((A.shape, kwargs.get("M")))
            return eigsh(A, *args, **kwargs)

        monkeypatch.setattr(ic, "cotangent_laplacian", counted_cotangent)
        monkeypatch.setattr(spla, "eigsh", counted_eigsh)
        spc.mesh_spectrum(im.geodesic_sphere(2), 5)
        assert assembled == [2803]
        assert solved == [((n, n), None) for n in (1329, 1296, 1264, 1233)]

    def test_dense_assembly_and_solves_stay_sector_sized(self, monkeypatch):
        # level 4, the default: 763 of the 5,120 faces touch the octant, and
        # each of the four solves is a dense array of one sector (sizes sum
        # to 2,562 with the three-fold ones counted thrice), never eigsh
        assembled, solved = [], []
        cotangent, eigvalsh = ic.cotangent_laplacian, np.linalg.eigvalsh

        def counted_cotangent(verts, faces):
            assembled.append(len(faces))
            return cotangent(verts, faces)

        def counted_eigvalsh(A):
            solved.append((type(A), A.shape))
            return eigvalsh(A)

        monkeypatch.setattr(ic, "cotangent_laplacian", counted_cotangent)
        _on_dense_sectors(monkeypatch, counted_eigvalsh)
        monkeypatch.setattr(spla, "eigsh", None)
        spc.mesh_spectrum(im.geodesic_sphere(2))
        assert assembled == [763]
        assert solved == [(np.ndarray, (n, n)) for n in (345, 328, 312, 297)]

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
        rep = spc.mesh_spectrum(im.geodesic_sphere(2), 5)
        assert rep.eigenvalues[-1] <= rep.target * (1.0 + rep.window)
        verdict = spc.bound_check(rep)
        assert verdict.inconclusive and not verdict.passed

    def test_nan_in_one_sector_is_inconclusive(self, monkeypatch, tmp_path):
        original, original_spectrum = spla.eigsh, spc.mesh_spectrum
        calls, injected = [], []

        def third_sector_nan(*args, **kwargs):
            ev = original(*args, **kwargs)
            calls.append(1)
            if len(calls) == 3:
                ev[0] = np.nan
                injected.append(1)
            return ev

        def counting_from_zero(*args, **kwargs):
            # the third solve of each spectrum, whatever its number of solves
            calls.clear()
            return original_spectrum(*args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", third_sector_nan)
        monkeypatch.setattr(spc, "mesh_spectrum", counting_from_zero)
        L = im.geodesic_sphere(2)
        verdict = spc.bound_check(spc.mesh_spectrum(L, 5))
        assert verdict.inconclusive and not verdict.passed
        out = tmp_path / "spectrum.json"
        argv = ["--suite", "spectrum", "--immersion", L.name, "--resolution", "5"]
        assert main(argv + ["--output", str(out)]) != 0
        status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
        for check in BOUND_CHECKS:
            assert status[f"{L.name}: {check}"] == "inconclusive"
        assert len(injected) == 2

    def test_nan_from_a_dense_sector_is_inconclusive(self, monkeypatch, tmp_path):
        # eigvalsh returns nan for a nan entry, silently: the default level's
        # whole union is kept, and the bound records are inconclusive
        eigvalsh, injected = np.linalg.eigvalsh, []

        def third_sector_nan(A):
            ev = eigvalsh(A)
            injected.append(1)
            if len(injected) == 3:
                ev[0] = np.nan
            return ev

        _on_dense_sectors(monkeypatch, third_sector_nan)
        name = "geodesic-sphere-n2"
        out = tmp_path / "spectrum.json"
        assert main(["--suite", "spectrum", "--immersion", name, "--output", str(out)]) != 0
        status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
        for check in BOUND_CHECKS:
            assert status[f"{name}: {check}"] == "inconclusive"
        assert len(injected) == 4

    def test_unconverged_eigensolve_is_inconclusive(self, monkeypatch, tmp_path):
        # ARPACK's failure reaches the report as its reason, not a traceback
        def unconverged(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", unconverged)
        with pytest.raises(ConvergenceError, match="ARPACK error -1"):
            spc.mesh_spectrum(im.geodesic_sphere(2), 5)
        name = "geodesic-sphere-n2"
        for fmt in ("json", "csv"):
            out = tmp_path / f"spectrum.{fmt}"
            argv = ["--suite", "spectrum", "--immersion", name, "--resolution", "5",
                    "--format", fmt, "--output", str(out)]
            assert main(argv) == 2
            assert out.exists()
        assert (tmp_path / "spectrum.csv").read_text().splitlines() == ["immersion,index,eigenvalue"]
        checks = json.loads((tmp_path / "spectrum.json").read_text())["checks"]
        stopped = [c for c in checks if c["status"] == "inconclusive"]
        assert [c["name"] for c in stopped] == [f"{name}: {check}" for check in MESH_CHECKS]
        assert all("ARPACK error -1" in c["details"]["reason"] for c in stopped)
        assert {c["name"]: c["status"] for c in checks if c not in stopped} == {
            f"{name}: Rayleigh quotients": "pass"}

    def test_unconverged_eigensolve_leaves_the_other_immersions(self, monkeypatch):
        # the default level's dense solve, which raises LinAlgError
        _on_dense_sectors(monkeypatch, _unconverged_dense)
        with pytest.raises(ConvergenceError, match="Eigenvalues did not converge"):
            spc.mesh_spectrum(im.geodesic_sphere(2))
        report = run_suite(SuiteConfig(suite="spectrum"))
        assert report.exit_code() == 2
        stopped = {r.name for r in report.records if r.status == "inconclusive"}
        assert stopped == {f"geodesic-sphere-n2: {check}" for check in MESH_CHECKS}
        assert {r.status for r in report.records if r.name not in stopped} <= {PASS, "info"}

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

    def test_default_level_is_the_coarsest_ten_times_inside_the_threshold(self):
        # measured, not declared: 1.4e-3 at level 4 against 5.7e-3 at level 3
        L, limit = im.geodesic_sphere(2), DEFAULT_TOLERANCES.cluster_accuracy / 10.0
        default = spc.mesh_resolution("icosphere")

        def accuracy(level):
            return abs(spc.mesh_spectrum(L, level).cluster_mean - 6.0) / 6.0

        assert default > spc.MESH_RESOLUTIONS["icosphere"][0]
        assert accuracy(default) <= limit < accuracy(default - 1)

    def test_only_the_icosphere_has_a_cluster_spread_record(self):
        report = run_suite(SuiteConfig(suite="spectrum"))
        assert [r.name for r in report.records if r.name.endswith(": cluster spread")] == [
            "geodesic-sphere-n2: cluster spread"]

    def test_fem_convergence_order(self):
        errors = [
            abs(spc.mesh_spectrum(im.geodesic_sphere(2), lvl).cluster_mean - 6.0)
            for lvl in (3, 4, 5)
        ]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.5


def _torus_equality_record(patch):
    """The torus's spectrum-suite equality-case record, after ``patch``
    has changed its config and immersion."""
    cfg = SuiteConfig(suite="spectrum", immersion="clifford-torus-s5", resolution=32)
    L = cfg.selected_immersions()[0]
    patch(cfg, L)
    return next(r for r in spectrum_records(cfg) if r.name == f"{L.name}: equality case")


class TestEqualityCase:
    """The mesh's equality case is held to the measured second fundamental
    form, not to the eigenspace count."""

    def test_default_torus_passes(self):
        record = _torus_equality_record(lambda cfg, L: None)
        assert (record.status, record.value, record.details["expected"]) == ("pass", 0, 0)

    def test_count_at_the_bound_does_not_change_the_record(self):
        # the torus's count held at its bound, 5
        record = _torus_equality_record(lambda cfg, L: cfg._memo.update({("count", L.name): 5}))
        assert (record.status, record.value, record.details["expected"]) == ("pass", 0, 0)

    def test_vanishing_second_fundamental_form_fails(self):
        def flatten(cfg, L):
            geo = L.node_geometry()
            nodes, d = len(geo.u), L.ambient.embed_dim
            geo.shape = im.ShapeData(np.zeros((nodes, L.n, L.n, d)), np.zeros((nodes, d)))

        record = _torus_equality_record(flatten)
        assert (record.status, record.value, record.details["expected"]) == ("fail", 0, 1)


class TestPipelineAgreement:
    @pytest.mark.parametrize("name,res", [("great-circle-s3", 256), ("clifford-torus-s5", 64)])
    def test_mesh_vs_pointwise(self, name, res):
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        u, _ = L.nodes(res)
        shape = L.domain.grid_shape(res)
        for X in mo.algebra_basis(L.n):
            f = mo.moment_function(L, X)
            fv = f.ambient(L.points(u))
            if np.max(np.abs(fv)) <= 1e-12:
                continue
            mesh_vals = spc.apply_mesh_operator(L, fv.reshape(shape))
            ext_vals = spc.extrinsic_laplacian(L, f.quadratic_form, res).reshape(shape)
            rel = np.max(np.abs(mesh_vals - ext_vals)) / np.max(np.abs(ext_vals))
            assert rel <= 0.02, X.label

    def test_agreement_improves_at_order_two(self):
        L = im.clifford_torus()
        X = mo.algebra_basis(2)[4]
        f = mo.moment_function(L, X)
        errs = []
        for res in (32, 64, 128):
            u, _ = L.nodes(res)
            grid = f.ambient(L.points(u)).reshape(res, res)
            mesh_vals = spc.apply_mesh_operator(L, grid)
            ext_vals = spc.extrinsic_laplacian(L, f.quadratic_form, res).reshape(res, res)
            errs.append(np.max(np.abs(mesh_vals - ext_vals)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    @pytest.mark.parametrize("name,grids", [("great-circle-s3", (128, 256, 512)),
                                            ("clifford-torus-s5", (32, 64, 128))])
    def test_agreement_grids_are_released_after_their_read(self, monkeypatch, name, grids):
        # the report reads each grid once; only the default nodes stay kept
        built = []
        init = im.NodeGeometry.__init__

        def recorded(geo, immersion, u, w=None, resolution=None):
            init(geo, immersion, u, w, resolution)
            built.append((resolution, weakref.ref(geo)))

        monkeypatch.setattr(im.NodeGeometry, "__init__", recorded)
        cfg = SuiteConfig(suite="spectrum", immersion=name)
        run_suite(cfg)
        gc.collect()
        L = cfg.selected_immersions()[0]
        assert sorted(r for r, _ in built if r in grids) == list(grids)
        assert all(ref() is None for r, ref in built if r in grids)
        assert list(L._geometries) == [L.resolve_resolution()]
        assert not [key for key in cfg._memo if set(key) & set(grids)]

    def test_spectrum_reads_sqrt_det_g_and_the_family_at_the_default_nodes_only(
            self, monkeypatch):
        # the grids read their points and frames only: no sqrt det g, mean
        # or family is formed on them
        read = []
        sqrt_det_metric, moment_function = im.LegendrianImmersion.sqrt_det_metric, mo.moment_function

        def sqrt_det_spy(L, u, *args, **kwargs):
            read.append(("sqrt_det_metric", L.name, len(u)))
            return sqrt_det_metric(L, u, *args, **kwargs)

        def moment_spy(L, X, resolution=None):
            count = L.domain.node_count(L.resolve_resolution(resolution))
            read.append(("moment_function", L.name, count))
            return moment_function(L, X, resolution)

        monkeypatch.setattr(im.LegendrianImmersion, "sqrt_det_metric", sqrt_det_spy)
        monkeypatch.setattr(mo, "moment_function", moment_spy)
        cfg = SuiteConfig(suite="spectrum")
        run_suite(cfg)
        default = {L.name: L.domain.node_count(L.resolve_resolution())
                   for L in cfg.selected_immersions()}
        assert {kind for kind, _, _ in read} == {"sqrt_det_metric", "moment_function"}
        assert [r for r in read if r[2] != default[r[1]]] == []

    def test_agreement_does_not_read_the_means(self, monkeypatch):
        # the stencil reads the pairing values, whose constant it cancels; a
        # mean moved by 1e-13 would move the circle's records by it over h^2
        def agreement():
            report = run_suite(SuiteConfig(suite="spectrum", immersion="great-circle-s3"))
            return [r.value for r in report.records if r.anchor == "pipeline-agreement"]

        kept = agreement()
        moment_function = mo.moment_function

        def shifted(L, X, resolution=None):
            f = moment_function(L, X, resolution)
            f.offset = f.offset + 1e-13
            return f

        monkeypatch.setattr(mo, "moment_function", shifted)
        assert agreement() == kept


class TestRayleigh:
    @pytest.mark.parametrize(
        "name", ["great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3", "clifford-torus-s5"]
    )
    def test_family_functions_within_one_percent(self, name):
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        for X in mo.algebra_basis(L.n):
            f = mo.moment_function(L, X)
            if np.max(np.abs(f.node_values(L.node_geometry()))) <= 1e-12:
                continue
            q = spc.rayleigh_quotient(L, f)
            assert abs(q - target) <= 0.01 * target, X.label


    def test_stacked_quotients_are_the_single_ones(self):
        L = im.clifford_torus()
        basis = mo.algebra_basis(2)
        stacked = spc.rayleigh_quotient(L, mo.moment_function(L, mo.stack_fields(basis, "u(3)")))
        single = [spc.rayleigh_quotient(L, mo.moment_function(L, X)) for X in basis]
        np.testing.assert_allclose(stacked, single, rtol=1e-14, equal_nan=True)


def _nan_in_basis_1(monkeypatch, where):
    """Make basis[1] of every stacked family nan at one node of each node
    set ``geo`` for which ``where(geo)`` holds."""
    node_values = mo.QuadraticFamily.node_values

    def patched(f, geo):
        vals = node_values(f, geo)
        if np.ndim(vals) == 2 and where(geo):
            vals = vals.copy()
            vals[1, 0] = np.nan
        return vals

    monkeypatch.setattr(mo.QuadraticFamily, "node_values", patched)


def _nan_at_point_0(monkeypatch, where=lambda count: True):
    """Make the first coordinate of node 0 nan in the points of every node
    set whose node count satisfies ``where``."""
    points = im.LegendrianImmersion.points

    def patched(L, u, sweep=None):
        x = points(L, u, sweep)
        if np.ndim(x) == 2 and where(len(x)):
            x = x.copy()
            x[0, 0] = np.nan
        return x

    monkeypatch.setattr(im.LegendrianImmersion, "points", patched)


# the torus records, after "clifford-torus-s5: ", that read no point: the
# frame is the Jacobian's, and the mesh spectrum reads the metric at the
# chart origin; the records of S^5 read no immersion
READ_NO_POINT = {
    "frame orthonormality",
    "multiplicity >= algebra bound",
    "cluster mean accuracy",
    "constants eigenvalue",
    "cluster separation ratio",
}


# the torus records, after "clifford-torus-s5: ", that read the default-node
# stiffness and mass passes or that the eigenspace count on them selects
READ_PASS = {
    "moment-family": {"closed-form Laplacian vs Green identity", "rank of normal parts over basis"},
    "spectrum": {"Rayleigh quotients", "multiplicity at target"},
    "legendrian-geometry": {"second fundamental form"},
}


class TestNonFiniteFamily:
    """A nan family value is never skipped as a zero function."""

    @pytest.mark.parametrize(
        "where,expected",
        [
            # every agreement grid (32, 64 and 128), not the default 49
            (lambda count: count in (32 * 32, 64 * 64, 128 * 128), [FAIL, FAIL]),
            # only the finest: the middle grid's record holds, the order not
            (lambda count: count == 128 * 128, [PASS, FAIL]),
        ],
        ids=["agreement-grids", "finest-grid"],
    )
    def test_nan_on_the_agreement_grids_fails_pipeline_agreement(
        self, monkeypatch, where, expected
    ):
        # the grids read their points, in the pairing values and the
        # closed-form Laplacian; a nan point fails instead of being skipped
        _nan_at_point_0(monkeypatch, where)
        report = run_suite(SuiteConfig(suite="spectrum", immersion="clifford-torus-s5"))
        records = [r for r in report.records if r.anchor == "pipeline-agreement"]
        assert [r.status for r in records] == expected
        for r in records:
            if r.status == FAIL:
                assert np.isnan(r.value) and "non-finite value" in r.details["reason"]

    def test_nan_at_the_default_nodes_raises(self, monkeypatch):
        # the stiffness and mass pass behind closed-form-laplacian and
        # rayleigh-quotient integrates the nan instead of skipping it
        _nan_in_basis_1(monkeypatch, lambda geo: True)
        L = im.clifford_torus()
        f = mo.moment_function(L, mo.stack_fields(mo.algebra_basis(2), "u(3)"))
        for check in (spc.stiffness_mass, spc.green_identity_residual, spc.rayleigh_quotient):
            with pytest.raises(EvaluationError):
                check(L, f)

    @pytest.mark.parametrize("suite", [*READ_PASS, "all"])
    def test_nan_at_the_default_nodes_fails_the_report(self, monkeypatch, suite):
        # those records fail with its reason instead of aborting the report;
        # keyed by name, since "multiplicity at target" shares its anchor
        # with the mesh bound record, which reads no family
        _nan_in_basis_1(monkeypatch, lambda geo: True)
        report = run_suite(SuiteConfig(suite=suite, immersion="clifford-torus-s5"))
        assert report.exit_code() == 1
        checks = READ_PASS.get(suite) or set().union(*READ_PASS.values())
        stopped = {r.name.split(": ", 1)[1]: r for r in report.records}
        for r in [stopped[name] for name in checks]:
            assert r.status == FAIL and np.isnan(r.value)
            assert "non-finite" in r.details["reason"]

    def test_nan_point_fails_the_means_and_the_contact_integrals(self, monkeypatch):
        # both read the node set's second moment, which integrates the nan
        # point instead of skipping it; the report is still written
        points = im.LegendrianImmersion.points

        def nan_at_node_0(L, u, sweep=None):
            x = points(L, u, sweep)
            if np.ndim(x) == 2:
                x = x.copy()
                x[0, 0] = np.nan
            return x

        monkeypatch.setattr(im.LegendrianImmersion, "points", nan_at_node_0)
        L = im.clifford_torus()
        with pytest.raises(EvaluationError):
            mo.moment_function(L, mo.stack_fields(mo.algebra_basis(2), "u(3)"))
        report = run_suite(SuiteConfig(suite="relation", immersion=L.name))
        assert report.exit_code() == 1
        assert [(r.anchor, r.status) for r in report.records] == [
            ("families-coincide", FAIL), ("contact-integral-vanishes", FAIL)]
        for r in report.records:
            assert np.isnan(r.value) and "non-finite" in r.details["reason"]

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_nan_point_fails_every_record_that_reads_the_points(self, monkeypatch, tmp_path, suite):
        # each report is written; only sasaki-axioms, which reads no
        # immersion, keeps exit code 0
        name = "clifford-torus-s5"
        clean = {r.name: r.status for r in run_suite(SuiteConfig(suite=suite, immersion=name)).records}
        _nan_at_point_0(monkeypatch)
        out = tmp_path / "report.json"
        code = main(["--suite", suite, "--immersion", name, "--output", str(out)])
        assert code == (0 if suite == "sasaki-axioms" else 1)
        checks = json.loads(out.read_text())["checks"]
        assert checks
        for c in checks:
            where, _, check = c["name"].partition(": ")
            if where == "s5" or check in READ_NO_POINT:
                assert c["status"] == clean[c["name"]], c["name"]
            else:
                assert (c["status"], c["value"]) == (FAIL, "nan"), c["name"]
                assert "non-finite" in c["details"]["reason"], c["name"]

    def test_report_with_nan_values_is_strict_json(self, monkeypatch):
        # RFC 8259 has no NaN token: each nan record value is written as
        # the string "nan", so a strict parser reads the whole report
        _nan_in_basis_1(monkeypatch, lambda geo: True)
        report = run_suite(SuiteConfig(suite="all", immersion="clifford-torus-s5"))

        def refuse(token):
            raise ValueError(f"bare {token} token in the report")

        checks = json.loads(report.to_json(), parse_constant=refuse)["checks"]
        nan_values = {
            r.name.split(": ", 1)[1]: c["value"] for r, c in zip(report.records, checks)
            if isinstance(r.value, float) and np.isnan(r.value)
        }
        assert set(nan_values.values()) == {"nan"}
        assert set(nan_values) >= set().union(*READ_PASS.values())


class TestSpanAndNotes:
    def test_family_span_on_geodesic_sphere(self):
        # node samples of the moment family span a five-dimensional space
        L = im.geodesic_sphere(2)
        u, _ = L.nodes()
        rows = [mo.moment_function(L, X).ambient(L.points(u)) for X in mo.algebra_basis(2)]
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
    # the orbit of i E[1,1] through (cos angle, sin angle): an honest
    # immersion that is not Legendrian
    return im.LegendrianImmersion("latitude-circle", [mo.algebra_basis(1)[0].generator],
                                  (np.cos(angle), np.sin(angle), 0.0, 0.0), im.PeriodicGridDomain(1))


class TestNonMinimal:
    def test_spectrum_records_what_needs_minimality_as_inconclusive(self):
        # the closed-form Laplacian holds only on a minimal immersion: the
        # records that read it are inconclusive, and the report is written
        cfg = SuiteConfig(suite="spectrum")
        cfg._immersions = [_latitude_circle(0.3)]
        report = run_suite(cfg)
        json.loads(report.to_json())
        records = {r.name.split(": ", 1)[1]: r for r in report.records}
        for check in ("multiplicity at target", "mesh vs pointwise operator",
                      "agreement refinement order"):
            assert records[check].status == "inconclusive", check
            assert "mean-curvature residual 3.09e-01" in records[check].details["reason"]
        assert report.exit_code() == 1


    def test_empty_window_fails_with_its_bounds(self):
        # the latitude circle's stencil has no eigenvalue near 2n + 2 = 4
        cfg = SuiteConfig(suite="spectrum")
        cfg._immersions = [_latitude_circle(0.3)]
        record = next(r for r in run_suite(cfg).records if r.name.endswith("cluster mean accuracy"))
        assert record.status == FAIL
        assert record.details["reason"] == "latitude-circle: no eigenvalue in the window [3.8, 4.2]"


def _kind_and_threshold(report, rename=lambda name: name):
    return {rename(r.name): (r.kind, r.threshold) for r in report.records}


class TestKindAndThreshold:
    """A record's kind and threshold are its judge's whatever its status:
    each failure path gives, name by name, those of the seed-0 report."""

    @pytest.fixture(scope="class")
    def seed_0(self):
        return _kind_and_threshold(run_suite(SuiteConfig(suite="all")))

    @staticmethod
    def _compare(seed_0, report, rename=lambda name: name):
        ours = _kind_and_threshold(report, rename)
        shared = set(ours) & set(seed_0)
        assert {name: ours[name] for name in shared} == {name: seed_0[name] for name in shared}
        return {rename(r.name) for r in report.records if r.status not in (PASS, "info")}, shared

    def test_unconverged_eigensolve(self, monkeypatch, seed_0):
        _on_dense_sectors(monkeypatch, _unconverged_dense)
        stopped, shared = self._compare(seed_0, run_suite(SuiteConfig(suite="spectrum")))
        assert stopped == {f"geodesic-sphere-n2: {check}" for check in MESH_CHECKS}
        assert stopped <= shared

    def test_nan_value(self, monkeypatch, seed_0):
        _nan_in_basis_1(monkeypatch, lambda geo: True)
        report = run_suite(SuiteConfig(suite="all", immersion="clifford-torus-s5"))
        stopped, shared = self._compare(seed_0, report)
        # the failed count picks the equality-case checks, which the torus
        # does not have at seed 0
        picked = {"clifford-torus-s5: second fundamental form",
                  "clifford-torus-s5: rank of normal parts over basis"}
        assert len(stopped) > len(picked) and stopped - picked <= shared

    def test_non_minimal(self, seed_0):
        cfg = SuiteConfig(suite="all")
        cfg._immersions = [_latitude_circle(0.3)]
        # held to the great circle's records, the other circle of S^3
        rename = lambda name: name.replace("latitude-circle", "great-circle-s3")
        stopped, shared = self._compare(seed_0, run_suite(cfg), rename)
        assert len(stopped) > 10 and stopped <= shared
