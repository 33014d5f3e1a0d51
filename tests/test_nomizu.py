"""Corrected cone operators: algebra, identities, family coincidence."""

import numpy as np
import pytest

from legspec import immersions as im
from legspec import moment as mo
from legspec import nomizu as nz
from legspec import sasaki as sk
from legspec import spectral as spc
from legspec.errors import InvalidFieldError, PreconditionError
from legspec.reporting import FAIL, INCONCLUSIVE
from legspec.suites import CANONICAL_IMMERSIONS, SuiteConfig, run_suite


J2 = sk.complex_structure(2)


def latitude_circle():
    """The orbit of i E[1,1] through (cos 0.4, sin 0.4): an honest
    immersion that is not Legendrian."""
    return im.LegendrianImmersion("latitude-circle", [mo.algebra_basis(1)[0].generator],
                                  (np.cos(0.4), np.sin(0.4), 0.0, 0.0), im.PeriodicGridDomain(1))


def over_2n(X):
    """``nomizu.nomizu_operator`` with ``2n`` for ``2n + 2`` in the trace
    correction."""
    J = sk.complex_structure(X.n)
    div_jk = np.trace(J @ X.generator, axis1=-2, axis2=-1)
    return X.generator + np.expand_dims(div_jk / (2.0 * X.n), (-2, -1)) * J


class TestConeField:
    def test_killing_and_holomorphy_residuals(self):
        for X in mo.algebra_basis(2):
            res = nz.cone_field_residuals(X.generator, J2)
            assert res["skew"] <= 1e-12
            assert res["j_commutes"] <= 1e-12

    def test_non_skew_matrix_fails_check(self):
        M = np.zeros((6, 6))
        M[0, 1] = 1.0  # not skew, not J-commuting
        res = nz.cone_field_residuals(M, J2)
        assert res["skew"] == 1.0
        assert res["j_commutes"] == 1.0
        # such a matrix is no automorphism field, so it has no operator
        with pytest.raises(InvalidFieldError):
            mo.AutomorphismField(M, 2)


class TestNomizuOperator:
    def test_traceless_field_is_fixed_point(self):
        # for generators with trace(J M) = 0 the correction vanishes
        for X in mo.traceless_basis(2):
            assert np.max(np.abs(nz.nomizu_operator(X) - X.generator)) <= 1e-10

    def test_reeb_generator_maps_to_zero(self):
        # K = J: div(JK) = trace(J J) = -(2n+2) cancels the field exactly
        assert np.max(np.abs(nz.nomizu_operator(mo.reeb_generator(2)))) <= 1e-9

    def test_zero_field(self):
        op = nz.nomizu_operator(mo.AutomorphismField(np.zeros((6, 6)), 2, "zero"))
        assert np.max(np.abs(op)) == 0.0

    def test_operator_invariants_at_200_points(self):
        # the operator of a linear field is constant on the cone, so one
        # matrix stands for every cone point
        for X in mo.algebra_basis(2):
            res = nz.cone_field_residuals(nz.nomizu_operator(X), J2)
            assert res["skew"] <= 1e-8
            assert res["j_commutes"] <= 1e-8
            assert res["j_trace"] <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_divergence_matches_central_differences(self, n):
        # reference: central-difference divergence of y -> J M y at random
        # cone points, against the correction op - M = div(JK) / (2n+2) * J,
        # whose trace against J^T is div(JK)
        h = 1e-5
        S = sk.SphereSasaki(n)
        J = sk.complex_structure(n)
        rng = np.random.default_rng(10 + n)
        points = [rng.uniform(0.5, 2.0) * S.random_point(rng) for _ in range(5)]
        for X in mo.algebra_basis(n):
            field = lambda y: J @ X(y)
            div_jk = np.trace(J.T @ (nz.nomizu_operator(X) - X.generator))
            for y in points:
                fd = sum(
                    (field(y + h * e)[i] - field(y - h * e)[i]) / (2.0 * h)
                    for i, e in enumerate(np.eye(len(y)))
                )
                assert abs(fd - div_jk) <= 1e-8, X.label


class TestNomizuFunction:
    def test_reeb_generator_gives_zero_function(self):
        f = nz.nomizu_function(mo.reeb_generator(2))
        x = sk.SphereSasaki(2).random_point(np.random.default_rng(7), count=20)
        assert np.max(np.abs(f.ambient(x))) <= 1e-9

    def test_traceless_field_recovers_radial_pairing(self):
        # <M x, J x> at unit points
        S = sk.SphereSasaki(2)
        x = S.random_point(np.random.default_rng(8), count=50)
        for X in mo.traceless_basis(2):
            f = nz.nomizu_function(X)
            expected = np.einsum("ki,ki->k", x @ X.generator.T, x @ J2.T)
            assert np.max(np.abs(f.ambient(x) - expected)) <= 1e-9

    def test_radius_independence(self):
        x = sk.SphereSasaki(2).random_point(np.random.default_rng(9))
        for X in mo.algebra_basis(2):
            f = nz.nomizu_function(X)
            assert abs(f.ambient(0.7 * x) - f.ambient(1.3 * x)) <= 1e-9


class TestOperatorIdentities:
    def test_geodesic_sphere_diag_difference(self):
        L = im.geodesic_sphere(2)
        X = mo.traceless_basis(2)[0]
        assert nz.operator_identity_residuals(nz.nomizu_function(X), L) <= 1e-7

    def test_torus_full_basis(self):
        L = im.clifford_torus()
        for X in mo.algebra_basis(2):
            res = nz.operator_identity_residuals(nz.nomizu_function(X), L)
            assert res <= 1e-7, X.label

    def test_zero_field_residuals_vanish(self):
        L = im.geodesic_sphere(2)
        f = nz.nomizu_function(mo.AutomorphismField(np.zeros((6, 6)), 2, "zero"))
        assert nz.operator_identity_residuals(f, L) == 0.0

    def test_frame_sum_invariant_under_frame_remixing(self):
        # the trace over the tangent space cannot see the frame choice
        rng = np.random.default_rng(23)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        L = im.clifford_torus()
        X = mo.algebra_basis(2)[4]
        a = nz.operator_identity_residuals(nz.nomizu_function(X), L)
        b = nz.operator_identity_residuals(nz.nomizu_function(X), L.with_frame_mixer(Q))
        assert abs(a - b) <= 1e-8

    def test_non_legendrian_input_rejected(self):
        bad = latitude_circle()
        assert bad.node_geometry().legendrian_residual > 1e-3
        f = nz.nomizu_function(mo.algebra_basis(1)[0])
        with pytest.raises(PreconditionError):
            nz.operator_identity_residuals(f, bad)


class TestFamilyCoincidence:
    @pytest.mark.parametrize(
        "name", ["great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3", "clifford-torus-s5"]
    )
    def test_families_agree_pointwise(self, name):
        L = im.get_immersion(name)
        for X in mo.algebra_basis(L.n):
            res = nz.family_coincidence_residuals(mo.moment_function(L, X), nz.nomizu_function(X))
            assert res <= 1e-8, X.label

    def test_matrix_sup_is_the_sup_over_the_sphere(self):
        # a mismatched pair, so that D = Q_cone - Q_mom is no multiple of I:
        # |f_cone - f_mom| reaches the value at the eigenvectors of D and
        # stays under it everywhere else on the sphere
        L = im.geodesic_sphere(2)
        basis = mo.algebra_basis(2)
        f_mom, f_cone = mo.moment_function(L, basis[1]), nz.nomizu_function(basis[4])
        value = nz.family_coincidence_residuals(f_mom, f_cone)
        spread, vectors = np.linalg.eigh(f_cone.quadratic_form - f_mom.quadratic_form)
        assert np.ptp(spread) > 1.0
        at_vectors = np.abs(f_cone.ambient(vectors.T) - f_mom.ambient(vectors.T))
        assert abs(np.max(at_vectors) - value) <= 1e-14
        x = sk.SphereSasaki(2).random_point(np.random.default_rng(31), count=20_000)
        assert np.max(np.abs(f_cone.ambient(x) - f_mom.ambient(x))) <= value

    @pytest.mark.parametrize("name", CANONICAL_IMMERSIONS)
    def test_matrix_sup_bounds_the_node_values(self, name):
        L = im.get_immersion(name)
        algebra = mo.stack_fields(mo.algebra_basis(L.n), "u(n+1)")
        f_mom, f_cone = mo.moment_function(L, algebra), nz.nomizu_function(algebra)
        geo = L.node_geometry()
        at_nodes = np.max(np.abs(f_cone.node_values(geo) - f_mom.node_values(geo)), axis=-1)
        assert np.all(nz.family_coincidence_residuals(f_mom, f_cone) >= at_nodes - 1e-15)

    def test_low_polar_resolutions_pass(self):
        # the polar rules are exact to degree 2R - 1, so every degree-2
        # mean and pairing integral is exact from R = 2 up
        for name, resolutions in (("geodesic-sphere-n2", range(2, 9)),
                                  ("geodesic-sphere-n3", range(2, 5))):
            for resolution in resolutions:
                cfg = SuiteConfig(suite="relation", immersion=name, resolution=resolution)
                statuses = [r.status for r in run_suite(cfg).records]
                assert statuses == ["pass", "pass"], (name, resolution)
        report = run_suite(SuiteConfig(suite="moment-family", n=2, resolution=3))
        eigen = [r.status for r in report.records
                 if r.name.startswith("geodesic-sphere-n2") and r.anchor == "moment-family-eigenvalue"]
        assert len(eigen) == 9 and set(eigen) <= {"pass", "degenerate"}
        assert report.exit_code() == 0

    @pytest.mark.parametrize(
        "name,resolution",
        [("great-circle-s3", 1), ("great-circle-s3", 2), ("clifford-torus-s5", 1),
         ("clifford-torus-s5", 2), ("geodesic-sphere-n2", 1), ("geodesic-sphere-n3", 1)],
    )
    def test_relation_below_degree_two_is_inconclusive(self, name, resolution):
        # below resolution_for(2) the degree-2 means are wrong on correct code
        report = run_suite(SuiteConfig(suite="relation", immersion=name, resolution=resolution))
        assert [r.status for r in report.records] == ["inconclusive", "inconclusive"]
        assert all("degree 2" in r.details["reason"] for r in report.records)
        assert report.exit_code() == 2

    def test_non_legendrian_circle_fails(self):
        # the moment mean along a circle that is not Legendrian does not
        # cancel the trace term of the diagonal generators
        bad = latitude_circle()
        algebra = mo.stack_fields(mo.algebra_basis(1), "u(2)")
        res = nz.family_coincidence_residuals(
            mo.moment_function(bad, algebra), nz.nomizu_function(algebra)
        )
        assert np.all(res[:2] > 0.3)

    def test_reeb_generator_both_families_vanish(self):
        L = im.geodesic_sphere(2)
        X = mo.reeb_generator(2)
        u, _ = L.nodes()
        assert np.max(np.abs(nz.nomizu_function(X).ambient(L.points(u)))) <= 1e-9
        assert np.max(np.abs(mo.moment_function(L, X).ambient(L.points(u)))) <= 1e-12

    def test_traceless_diag_on_geodesic_sphere_needs_no_mean(self):
        # trace(J M) = 0 there, so the cone function equals the raw
        # contact pairing with no correction
        L = im.geodesic_sphere(2)
        X = mo.traceless_basis(2)[0]
        u, _ = L.nodes()
        pts = L.points(u)
        S = L.ambient
        assert np.max(
            np.abs(nz.nomizu_function(X).ambient(pts) - S.eta(pts, X(pts)))
        ) <= 1e-10


class TestSeededDefects:
    """Each plausible defect flips at least one nomizu-family record."""

    @staticmethod
    def failing_anchors(suite="nomizu-family"):
        report = run_suite(SuiteConfig(suite=suite, n=2))
        return {r.anchor for r in report.records if r.status == FAIL}

    def test_unmutated_suite_passes(self):
        assert self.failing_anchors() == set()

    def test_trace_correction_over_2n(self, monkeypatch):
        monkeypatch.setattr(nz, "nomizu_operator", over_2n)
        assert {"cone-operator-algebra", "frame-sum-identity"} <= self.failing_anchors()

    @pytest.mark.parametrize(
        "defect,suite,anchor",
        [
            ("zeroed-offset", "relation", "families-coincide"),
            ("over-2n", "relation", "families-coincide"),
            # mean-free values are what the moment family's eigen-residual
            # and Rayleigh quotient read, so they see a skipped subtraction
            ("zeroed-offset", "moment-family", "moment-family-eigenvalue"),
            ("zeroed-offset", "spectrum", "rayleigh-quotient"),
        ],
        ids=["zeroed-offset", "over-2n", "zeroed-offset-moment-family", "zeroed-offset-spectrum"],
    )
    def test_defect_fails_on_every_immersion(self, monkeypatch, defect, suite, anchor):
        if defect == "zeroed-offset":
            # a skipped mean subtraction
            moment_function = mo.moment_function

            def zeroed(L, X, resolution=None):
                f = moment_function(L, X, resolution)
                f.offset = np.zeros_like(f.offset)
                return f

            monkeypatch.setattr(mo, "moment_function", zeroed)
        else:
            monkeypatch.setattr(nz, "nomizu_operator", over_2n)
        report = run_suite(SuiteConfig(suite=suite))
        failing = {r.name.split(":")[0] for r in report.records
                   if r.status == FAIL and r.anchor == anchor}
        assert failing == set(CANONICAL_IMMERSIONS)

    def test_negated_cone_function(self, monkeypatch):
        # only the values: the operator, its form and Laplacian are kept
        nomizu_function = nz.nomizu_function

        def negated(X):
            f = nomizu_function(X)
            ambient = f.ambient
            f.ambient = lambda y: -ambient(y)
            return f

        monkeypatch.setattr(nz, "nomizu_function", negated)
        assert "frame-sum-identity" in self.failing_anchors()

    @pytest.mark.parametrize("suite", ["nomizu-family", "all"])
    def test_identity_added_to_operator(self, monkeypatch, suite):
        # <x, J x> = 0 and tr(J P) = 0, so op + I/2 leaves the cone values,
        # the quadratic form and the frame sums as they are: only the
        # operator algebra sees that it is no longer skew
        nomizu_operator = nz.nomizu_operator
        monkeypatch.setattr(nz, "nomizu_operator", lambda X: nomizu_operator(X) + 0.5 * np.eye(6))
        assert self.failing_anchors(suite) == {"cone-operator-algebra"}


class TestNomizuFamilyPreconditions:
    """A failed precondition of one check gives inconclusive records for
    that check and leaves every other record of the report in place."""

    @staticmethod
    def records():
        report = run_suite(SuiteConfig(suite="nomizu-family", n=1))
        return {(r.name, r.anchor): r.status for r in report.records}

    @pytest.mark.parametrize(
        "owner,check,anchor",
        [
            # the Legendrian precheck of the frame sum
            (nz, "operator_identity_residuals", "frame-sum-identity"),
        ],
        ids=["legendrian"],
    )
    def test_failed_precondition_keeps_every_record(self, monkeypatch, owner, check, anchor):
        expected = self.records()

        def refuse(*args, **kwargs):
            raise PreconditionError("precondition refused")

        monkeypatch.setattr(owner, check, refuse)
        statuses = self.records()
        assert statuses.keys() == expected.keys()
        affected = {key for key in statuses if key[1] == anchor}
        assert affected and all(statuses[key] == INCONCLUSIVE for key in affected)
        assert all(statuses[key] == expected[key] for key in statuses.keys() - affected)


def closed_form(coefficient=lambda n: n, factor=2.0, projector=True, constant=0.0):
    """``spectral.extrinsic_laplacian`` rebuilt with one term swappable:
    ``factor * tr(Q (coefficient(n) x x^T - P)) + constant``, with the
    identity for ``P`` when ``projector`` is false."""

    def laplacian(L, Q, resolution=None):
        geo = L.node_geometry(resolution)
        x, frame = geo.x, geo.frame
        P = np.swapaxes(frame, -1, -2) @ frame if projector else np.eye(x.shape[-1])
        weights = coefficient(L.n) * x[:, :, None] * x[:, None, :] - P
        return factor * np.einsum("...ab,nab->...n", Q, weights) + constant

    return laplacian


def green_pass(inverse_metric=True):
    """``spectral.stiffness_mass`` rebuilt with one term swappable: the
    gradient raised with the identity in place of ``g^-1`` when
    ``inverse_metric`` is false."""

    def stiffness_mass(L, f, resolution=None):
        geo = L.node_geometry(resolution)
        Q = np.reshape(f.quadratic_form, (-1,) + f.quadratic_form.shape[-2:])
        fvals = np.reshape(f.node_values(geo), (len(Q), -1))
        grad = 2.0 * np.einsum("kab,nb,nai->kni", Q, geo.x, geo.jacobian)
        ginv = np.linalg.inv(geo.metric) if inverse_metric else np.eye(L.n)[None]
        raised = np.einsum("kni,nij->knj", grad, np.broadcast_to(ginv, geo.metric.shape))
        return L.gram(raised, grad, resolution), L.gram(fvals, fvals, resolution)

    return stiffness_mass


class TestClosedFormDefects:
    """Each defect in the closed-form Laplacian, or in the gradients of the
    stiffness matrix, fails Green's identity on S^2, the torus and S^3.  A
    closed-form defect also fails the moment family's eigen-residuals, a
    gradient defect the Rayleigh quotients."""

    IMMERSIONS = ("geodesic-sphere-n2", "clifford-torus-s5", "geodesic-sphere-n3")
    EIGEN_ANCHORS = ("moment-family-eigenvalue",)

    @staticmethod
    def failing(*suites):
        """(immersion or sphere, anchor) of every failing record of ``suites``."""
        failing = set()
        for suite in suites:
            report = run_suite(SuiteConfig(suite=suite))
            failing |= {(r.name.split(":")[0], r.anchor) for r in report.records if r.status == FAIL}
        return failing

    def test_rebuilds_pass(self, monkeypatch):
        monkeypatch.setattr(spc, "extrinsic_laplacian", closed_form())
        monkeypatch.setattr(spc, "stiffness_mass", green_pass())
        assert self.failing("moment-family", "nomizu-family", "spectrum") == set()

    @pytest.mark.parametrize(
        "target,defect,anchors",
        [
            # 2n + 2 for 2n
            ("extrinsic_laplacian", closed_form(coefficient=lambda n: n + 1), EIGEN_ANCHORS),
            # a dropped factor 2
            ("extrinsic_laplacian", closed_form(factor=1.0), EIGEN_ANCHORS),
            # the identity for P
            ("extrinsic_laplacian", closed_form(projector=False), EIGEN_ANCHORS),
            # a constant added: it pairs with the mean of each f_B, which
            # mean-free values would hide
            ("extrinsic_laplacian", closed_form(constant=1.0), EIGEN_ANCHORS),
            # the identity for g^-1; the circle is unit-speed, g = 1, so
            # only the other three immersions can show it
            ("stiffness_mass", green_pass(inverse_metric=False), ("rayleigh-quotient",)),
        ],
        ids=["2n+2", "dropped-2", "identity-projector", "constant", "identity-inverse-metric"],
    )
    def test_defect_fails(self, monkeypatch, target, defect, anchors):
        monkeypatch.setattr(spc, target, defect)
        failing = self.failing("moment-family", "nomizu-family", "spectrum")
        for name in self.IMMERSIONS:
            assert {(name, anchor) for anchor in ("closed-form-laplacian", *anchors)} <= failing

    @pytest.mark.parametrize(
        "suite,resolution,expected",
        [
            ("nomizu-family", None, {}),
            ("moment-family", None, {"geodesic-sphere-n2": 4 * 8, "clifford-torus-s5": 7 * 7}),
            # --resolution reaches neither Green's identity nor the count
            ("moment-family", 16, {"geodesic-sphere-n2": 4 * 8, "clifford-torus-s5": 7 * 7}),
            # closed-form-laplacian and rayleigh-quotient share one pass
            ("all", None, {"geodesic-sphere-n2": 4 * 8, "clifford-torus-s5": 7 * 7}),
        ],
    )
    def test_stiffness_mass_runs_once_per_immersion(
        self, monkeypatch, suite, resolution, expected
    ):
        calls = []
        stiffness_mass = spc.stiffness_mass

        def counted(L, f, resolution):
            calls.append((L.name, len(L.node_geometry(resolution).u)))
            return stiffness_mass(L, f, resolution)

        monkeypatch.setattr(spc, "stiffness_mass", counted)
        report = run_suite(SuiteConfig(suite=suite, n=2, resolution=resolution))
        assert report.exit_code() == 0
        # one pass of the moment family and one of the eigenspace count
        assert sorted(calls) == sorted(2 * list(expected.items()))
        if suite == "all":
            assert {r.anchor for r in report.records} >= {"closed-form-laplacian", "rayleigh-quotient"}
