"""Corrected cone operators: algebra, identities, family coincidence."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from legspec import immersions as im
from legspec import moment as mo
from legspec import nomizu as nz
from legspec import sasaki as sk
from legspec import spectral as spc
from legspec.errors import InvalidFieldError, PreconditionError
from legspec.reporting import FAIL
from legspec.suites import SuiteConfig, run_suite


def unit_point(n, seed=0):
    S = sk.SphereSasaki(n)
    return S.random_point(np.random.default_rng(seed))


class TestConeField:
    def test_from_automorphism_keeps_matrix(self):
        X = mo.algebra_basis(2)[5]
        K = nz.ConeField.from_automorphism(X)
        assert_allclose(K.matrix, X.generator, atol=0.0)

    def test_killing_and_holomorphy_residuals(self):
        for X in mo.algebra_basis(2):
            res = nz.cone_field_residuals(nz.ConeField.from_automorphism(X))
            assert res["killing"] <= 1e-12
            assert res["holomorphic"] <= 1e-12

    def test_non_skew_matrix_fails_check(self):
        M = np.zeros((6, 6))
        M[0, 1] = 1.0  # not skew, not J-commuting
        K = nz.ConeField(M, 2, "broken")
        res = nz.cone_field_residuals(K)
        assert res["killing"] == 1.0
        assert res["holomorphic"] == 1.0
        with pytest.raises(InvalidFieldError):
            nz.nomizu_operator(K)


class TestNomizuOperator:
    def test_traceless_field_is_fixed_point(self):
        # for generators with trace(J M) = 0 the correction vanishes
        for X in mo.traceless_basis(2):
            K = nz.ConeField.from_automorphism(X)
            op = nz.nomizu_operator(K)
            assert abs(op.div_jk) <= 1e-10
            assert np.max(np.abs(op.matrix - K.matrix)) <= 1e-10

    def test_reeb_generator_maps_to_zero(self):
        # K = J: div(JK) = trace(J J) = -(2n+2) cancels the field exactly
        n = 2
        K = nz.ConeField.from_automorphism(mo.reeb_generator(n))
        op = nz.nomizu_operator(K)
        assert_allclose(op.div_jk, -(2 * n + 2), atol=1e-12)
        assert np.max(np.abs(op.matrix)) <= 1e-9

    def test_zero_field(self):
        K = nz.ConeField(np.zeros((6, 6)), 2, "zero")
        op = nz.nomizu_operator(K)
        assert np.max(np.abs(op.matrix)) == 0.0

    def test_operator_invariants_at_200_points(self):
        # the operator of a linear field is constant on the cone, so one
        # matrix stands for every cone point
        J = sk.complex_structure(2)
        for X in mo.algebra_basis(2):
            res = nz.nomizu_operator(nz.ConeField.from_automorphism(X)).residuals(J)
            assert res["skew"] <= 1e-8
            assert res["j_commutes"] <= 1e-8
            assert res["j_trace"] <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_divergence_matches_central_differences(self, n):
        # reference: central-difference divergence of y -> J M y at random
        # cone points, against the exact trace tr(JM)
        h = 1e-5
        S = sk.SphereSasaki(n)
        rng = np.random.default_rng(10 + n)
        points = [rng.uniform(0.5, 2.0) * S.random_point(rng) for _ in range(5)]
        for X in mo.algebra_basis(n):
            K = nz.ConeField.from_automorphism(X)
            field = lambda y: K.J @ K(y)
            div_jk = nz.nomizu_operator(K).div_jk
            for y in points:
                fd = sum(
                    (field(y + h * e)[i] - field(y - h * e)[i]) / (2.0 * h)
                    for i, e in enumerate(np.eye(len(y)))
                )
                assert abs(fd - div_jk) <= 1e-8, X.label


class TestNomizuFunction:
    def test_reeb_generator_gives_zero_function(self):
        K = nz.ConeField.from_automorphism(mo.reeb_generator(2))
        f = nz.nomizu_function(K)
        x = sk.SphereSasaki(2).random_point(np.random.default_rng(7), count=20)
        assert np.max(np.abs(f.ambient(x))) <= 1e-9

    def test_traceless_field_recovers_radial_pairing(self):
        # <M x, J x> at unit points
        S = sk.SphereSasaki(2)
        x = S.random_point(np.random.default_rng(8), count=50)
        for X in mo.traceless_basis(2):
            K = nz.ConeField.from_automorphism(X)
            f = nz.nomizu_function(K)
            expected = np.einsum("ki,ki->k", x @ K.matrix.T, x @ K.J.T)
            assert np.max(np.abs(f.ambient(x) - expected)) <= 1e-9

    def test_radius_independence(self):
        x = unit_point(2, seed=9)
        for X in mo.algebra_basis(2):
            f = nz.nomizu_function(nz.ConeField.from_automorphism(X))
            assert abs(f(x, 0.7) - f(x, 1.3)) <= 1e-9


class TestOperatorIdentities:
    def test_geodesic_sphere_diag_difference(self):
        L = im.geodesic_sphere(2)
        X = mo.traceless_basis(2)[0]
        assert nz.operator_identity_residuals(nz.ConeField.from_automorphism(X), L) <= 1e-7

    def test_torus_full_basis(self):
        L = im.clifford_torus()
        for X in mo.algebra_basis(2):
            res = nz.operator_identity_residuals(nz.ConeField.from_automorphism(X), L)
            assert res <= 1e-7, X.label

    def test_zero_field_residuals_vanish(self):
        L = im.geodesic_sphere(2)
        res = nz.operator_identity_residuals(nz.ConeField(np.zeros((6, 6)), 2, "zero"), L)
        assert res == 0.0

    def test_frame_sum_invariant_under_frame_remixing(self):
        # the trace over the tangent space cannot see the frame choice
        rng = np.random.default_rng(23)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        L = im.clifford_torus()
        K = nz.ConeField.from_automorphism(mo.algebra_basis(2)[4])
        a = nz.operator_identity_residuals(K, L)
        b = nz.operator_identity_residuals(K, L.with_frame_mixer(Q))
        assert abs(a - b) <= 1e-8

    def test_non_legendrian_input_rejected(self):
        # latitude circle, the orbit of i E[1,1] through (cos 0.4, sin 0.4):
        # an honest immersion that is not Legendrian
        bad = im.LegendrianImmersion(
            "latitude-circle", [mo.algebra_basis(1)[0].generator],
            (np.cos(0.4), np.sin(0.4), 0.0, 0.0), im.PeriodicGridDomain(1), 128,
        )
        assert bad.node_geometry().legendrian_residual > 1e-3
        K = nz.ConeField.from_automorphism(mo.algebra_basis(1)[0])
        with pytest.raises(PreconditionError):
            nz.operator_identity_residuals(K, bad)


class TestFamilyCoincidence:
    @pytest.mark.parametrize(
        "name", ["great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3", "clifford-torus-s5"]
    )
    def test_families_agree_pointwise(self, name):
        L = im.get_immersion(name)
        for X in mo.algebra_basis(L.n):
            res = nz.family_coincidence_residuals(mo.moment_function(L, X))
            assert res["vs_contact_plus_trace"] <= 1e-8, X.label
            assert res["vs_moment_family"] <= 1e-8, X.label

    def test_reeb_generator_both_families_vanish(self):
        L = im.geodesic_sphere(2)
        X = mo.reeb_generator(2)
        K = nz.ConeField.from_automorphism(X)
        u, _ = L.nodes()
        assert np.max(np.abs(nz.nomizu_function(K).ambient(L.points(u)))) <= 1e-9
        assert np.max(np.abs(mo.moment_function(L, X).on_chart(u))) <= 1e-12

    def test_traceless_diag_on_geodesic_sphere_needs_no_mean(self):
        # trace(J M) = 0 there, so the cone function equals the raw
        # contact pairing with no correction
        L = im.geodesic_sphere(2)
        X = mo.traceless_basis(2)[0]
        K = nz.ConeField.from_automorphism(X)
        u, _ = L.nodes()
        pts = L.points(u)
        S = L.ambient
        assert np.max(
            np.abs(nz.nomizu_function(K).ambient(pts) - S.eta(pts, X(pts)))
        ) <= 1e-10


class TestSeededDefects:
    """Each plausible defect flips at least one nomizu-family record."""

    @staticmethod
    def failing_anchors():
        report = run_suite(SuiteConfig(suite="nomizu-family", n=2))
        return {r.anchor for r in report.records if r.status == FAIL}

    def test_unmutated_suite_passes(self):
        assert self.failing_anchors() == set()

    def test_trace_correction_over_2n(self, monkeypatch):
        def over_2n(K, tol=1e-6):
            div_jk = np.trace(K.J @ K.matrix, axis1=-2, axis2=-1)
            correction = np.expand_dims(div_jk / (2.0 * K.n), (-2, -1)) * K.J
            return nz.NomizuOperator(K.matrix + correction, div_jk)

        monkeypatch.setattr(nz, "nomizu_operator", over_2n)
        assert {"cone-operator-algebra", "frame-sum-identity"} <= self.failing_anchors()

    def test_negated_cone_function(self, monkeypatch):
        ambient = nz.NomizuFunction.ambient
        monkeypatch.setattr(nz.NomizuFunction, "ambient", lambda f, y: -ambient(f, y))
        assert "frame-sum-identity" in self.failing_anchors()


def closed_form(coefficient=lambda n: n, factor=2.0, projector=True):
    """``spectral.extrinsic_laplacian`` rebuilt with one term swappable:
    ``factor * tr(Q (coefficient(n) x x^T - P))``, with the identity for
    ``P`` when ``projector`` is false."""

    def laplacian(L, Q, resolution=None):
        geo = L.node_geometry(resolution)
        x, frame = geo.x, geo.frame
        P = np.swapaxes(frame, -1, -2) @ frame if projector else np.eye(x.shape[-1])
        weights = coefficient(L.n) * x[:, :, None] * x[:, None, :] - P
        return factor * np.einsum("...ab,nab->...n", Q, weights)

    return laplacian


class TestClosedFormDefects:
    """Each defect in the closed-form Laplacian fails the stencil cross-check
    and the eigen-residuals of both families at the default resolution."""

    ANCHORS = {"closed-form-laplacian", "moment-family-eigenvalue", "cone-family-eigenvalue"}

    @staticmethod
    def failing_anchors():
        failing = set()
        for suite in ("moment-family", "nomizu-family"):
            report = run_suite(SuiteConfig(suite=suite, n=2))
            failing |= {r.anchor for r in report.records if r.status == FAIL}
        return failing

    def test_rebuilt_closed_form_passes(self, monkeypatch):
        monkeypatch.setattr(spc, "extrinsic_laplacian", closed_form())
        assert self.failing_anchors() == set()

    @pytest.mark.parametrize(
        "defect",
        [
            closed_form(coefficient=lambda n: n + 1),  # 2n + 2 for 2n
            closed_form(factor=1.0),  # a dropped factor 2
            closed_form(projector=False),  # the identity for P
        ],
        ids=["2n+2", "dropped-2", "identity-projector"],
    )
    def test_defect_fails(self, monkeypatch, defect):
        monkeypatch.setattr(spc, "extrinsic_laplacian", defect)
        assert self.ANCHORS <= self.failing_anchors()

    @pytest.mark.parametrize(
        "suite,resolution,expected",
        [
            ("nomizu-family", None, {}),
            ("moment-family", None, {"geodesic-sphere-n2": 24 * 48, "clifford-torus-s5": 48 * 48}),
            # --resolution does not reach the cross-check
            ("moment-family", 16, {"geodesic-sphere-n2": 24 * 48, "clifford-torus-s5": 48 * 48}),
        ],
    )
    def test_stencil_runs_once_per_immersion_in_moment_family(
        self, monkeypatch, suite, resolution, expected
    ):
        calls = []
        stencil = spc.stencil_laplacian

        def counted(L, F):
            calls.append((L.name, len(L.nodes()[0])))
            return stencil(L, F)

        monkeypatch.setattr(spc, "stencil_laplacian", counted)
        assert run_suite(SuiteConfig(suite=suite, n=2, resolution=resolution)).exit_code() == 0
        assert sorted(calls) == sorted(expected.items())
