"""Builtin Legendrian immersions: induced geometry, quadrature, splits."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from legspec import immersions as im
from legspec import moment as mo
from legspec import spectral as spc
from legspec.config import DEFAULT_TOLERANCES, GREEN_IDENTITY
from legspec.errors import EvaluationError, InvalidFieldError, InvalidPointError, UnsupportedError
from legspec.suites import (
    CANONICAL_IMMERSIONS, SuiteConfig, legendrian_geometry_records, run_suite,
)


ALL_BUILTINS = ["great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3", "clifford-torus-s5"]


@pytest.fixture(params=ALL_BUILTINS)
def immersion(request):
    return im.get_immersion(request.param)


class TestBuiltins:
    def test_unknown_name_rejected(self):
        with pytest.raises(UnsupportedError):
            im.get_immersion("mystery-immersion")

    def test_legendrian_residual(self, immersion):
        assert immersion.node_geometry().legendrian_residual <= 1e-8

    def test_jacobian_full_rank_and_metric_positive(self, immersion):
        u, _ = immersion.nodes()
        g = immersion.induced_metric(u)
        assert np.all(np.linalg.eigvalsh(g) > 1e-8)

    def test_jacobian_matches_map_differences(self, immersion):
        # analytic Jacobians against first differences of the chart map
        rng = np.random.default_rng(21)
        u = rng.uniform(0.3, 1.2, size=(5, u_dim(immersion)))
        h = 1e-6
        jac = immersion.jacobian_at(u)
        for a in range(u_dim(immersion)):
            e = np.zeros(u_dim(immersion))
            e[a] = h
            fd = (immersion.points(u + e) - immersion.points(u - e)) / (2 * h)
            assert np.max(np.abs(fd - jac[..., a])) < 1e-9

    def test_torus_point_and_metric(self):
        torus = im.clifford_torus()
        p = torus.points(np.zeros(2))
        assert_allclose(p[:3], np.full(3, 1 / np.sqrt(3)), atol=1e-15)
        assert_allclose(p[3:], 0.0, atol=1e-15)
        g = torus.induced_metric(np.zeros(2))
        assert_allclose(g, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-15)

    def test_circle_metric_and_length(self):
        circle = im.great_circle()
        assert_allclose(circle.induced_metric(np.array([0.7]))[0, 0], 1.0, atol=1e-15)
        assert_allclose(circle.volume(), 2 * np.pi, atol=1e-10)

    def test_volumes(self):
        assert_allclose(im.geodesic_sphere(2).volume(), 4 * np.pi, atol=1e-8)
        assert_allclose(im.geodesic_sphere(3).volume(), 2 * np.pi**2, atol=1e-8)
        assert_allclose(
            im.clifford_torus().volume(), (2 * np.pi) ** 2 / np.sqrt(3), atol=1e-8
        )


def u_dim(L):
    return L.nodes()[0].shape[-1]


@pytest.mark.parametrize("name", sorted(im.registry()))
class TestChartDerivatives:
    """Orbit-map chart derivatives against finite-difference references
    at 50 seeded chart points, polar angles kept off the poles."""

    def test_jacobian_matches_point_differences(self, name):
        L = im.get_immersion(name)
        u = _chart_points(L)
        h = 1e-6
        fd = np.stack(
            [(L.points(u + h * e) - L.points(u - h * e)) / (2 * h) for e in np.eye(L.n)],
            axis=-1,
        )
        assert np.max(np.abs(L.jacobian_at(u) - fd)) <= 1e-7

    def test_hessian_matches_jacobian_differences(self, name):
        L = im.get_immersion(name)
        u = _chart_points(L)
        h = 1e-4
        reference = np.stack(
            [(L.jacobian_at(u + h * e) - L.jacobian_at(u - h * e)) / (2 * h) for e in np.eye(L.n)],
            axis=-1,
        )
        reference = 0.5 * (reference + np.swapaxes(reference, -1, -2))
        assert np.max(np.abs(L.hessian_at(u) - reference)) <= 1e-7


def _chart_points(L):
    """50 seeded chart points, polar angles kept off the poles."""
    u = np.random.default_rng(31).uniform(0.1, np.pi - 0.1, size=(50, L.n))
    u[:, -1] *= 2.0  # the last axis is periodic on every shipped chart
    return u


def _circle(t):
    return [np.cos(t), np.sin(t)]


# each shipped chart in closed form, as the module docstring writes it, in
# complex coordinates
CLOSED_FORMS = {
    "great-circle-s3": _circle,
    "geodesic-sphere-n1": _circle,
    "geodesic-sphere-n2": lambda th, ph: [
        np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th),
    ],
    "geodesic-sphere-n3": lambda t1, t2, ph: [
        np.cos(t1), np.sin(t1) * np.cos(t2),
        np.sin(t1) * np.sin(t2) * np.cos(ph), np.sin(t1) * np.sin(t2) * np.sin(ph),
    ],
    "clifford-torus-s5": lambda a, b: [
        np.exp(1j * a) / np.sqrt(3.0), np.exp(1j * b) / np.sqrt(3.0),
        np.exp(-1j * (a + b)) / np.sqrt(3.0),
    ],
}


def _closed_form_error(L, name):
    """max |points - closed form| over the 50 seeded chart points."""
    u = _chart_points(L)
    z = np.stack(CLOSED_FORMS[name](*u.T), axis=-1).astype(complex)
    return np.max(np.abs(L.points(u) - np.concatenate([z.real, z.imag], axis=-1)))


class TestChartReference:
    @pytest.mark.parametrize("name", sorted(im.registry()))
    def test_points_match_the_closed_form(self, name):
        assert _closed_form_error(im.get_immersion(name), name) <= 1e-15

    def test_negated_generator_is_caught(self):
        # phi -> -phi: the same sphere, so every suite record still passes
        L = im.geodesic_sphere(2)
        A = L.generators
        flipped = im.LegendrianImmersion(L.name, [A[0], -A[1]], L.base_point, L.domain)
        assert _closed_form_error(flipped, L.name) > 0.1


# E[1,2] - E[2,1] of u(2) and of u(3): rotations, with A^3 = -A
ROTATION_N1 = mo.algebra_basis(1)[2].generator
ROTATION_N2 = mo.algebra_basis(2)[3].generator


class TestConstructorValidation:
    @staticmethod
    def build(generators, base_point=(1.0, 0.0, 0.0, 0.0), domain=None):
        return im.LegendrianImmersion("candidate", generators, base_point,
                                      domain or im.PeriodicGridDomain(1))

    def test_valid_row_builds(self):
        L = self.build([ROTATION_N1])
        assert L.n == 1 and L.volume() == pytest.approx(2 * np.pi)

    @pytest.mark.parametrize(
        "generator",
        [
            ROTATION_N1 + 0.1 * np.eye(4),  # not skew
            np.diag([1.0, 1.0, 0.0, 0.0]) @ ROTATION_N1,  # turns only real parts
            2.0 * ROTATION_N1,  # A^3 = -4 A
        ],
        ids=["not-skew", "not-J-commuting", "doubled-rotation"],
    )
    def test_bad_generator_rejected(self, generator):
        with pytest.raises(InvalidFieldError):
            self.build([generator])

    @pytest.mark.parametrize(
        "base_point", [(2.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)],
        ids=["non-unit", "wrong-length"],
    )
    def test_bad_base_point_rejected(self, base_point):
        with pytest.raises(InvalidPointError):
            self.build([ROTATION_N1], base_point)

    def test_generator_count_must_match_the_domain(self):
        with pytest.raises(InvalidFieldError):
            self.build([ROTATION_N1], domain=im.PeriodicGridDomain(2))
        with pytest.raises(InvalidFieldError):
            self.build([ROTATION_N2, ROTATION_N2])


def _count(L):
    """The measured eigenspace count the reports read, from a fresh config."""
    return SuiteConfig(suite="spectrum").eigenspace_count(L)


def _conjugate(L, g):
    """The orbit of ``g A g^-1`` through ``g x_0``: ``L`` moved by ``g``."""
    return im.LegendrianImmersion(L.name, g @ L.generators @ g.T, g @ L.base_point, L.domain)


@pytest.mark.parametrize("name", CANONICAL_IMMERSIONS)
def test_verdicts_invariant_under_unitary_conjugation(name):
    L = im.get_immersion(name)
    rng = np.random.default_rng(17)
    m = L.n + 1
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    g = np.block([[q.real, -q.imag], [q.imag, q.real]])
    moved = _conjugate(L, g)
    assert abs(moved.volume() - L.volume()) <= 1e-13 * L.volume()
    a = L.node_geometry().shape.second_fundamental_norm()
    b = moved.node_geometry().shape.second_fundamental_norm()
    count = _count(L)
    assert _count(moved) == count
    if count == spc.algebra_bound(L.n):
        assert max(a, b) <= DEFAULT_TOLERANCES.totally_geodesic
    else:
        assert abs(a - b) <= 1e-12 and a == pytest.approx(np.sqrt(0.5))
    cfg, moved_cfg = (SuiteConfig(suite="legendrian-geometry", immersion=name) for _ in range(2))
    moved_cfg._immersions = [moved]
    statuses = [[(r.name, r.status) for r in legendrian_geometry_records(c)]
                for c in (cfg, moved_cfg)]
    assert statuses[0] == statuses[1]
    # conjugation makes zero moment functions non-zero, so only the
    # worst residual of the non-degenerate ones is compared
    algebra = mo.stack_fields(mo.algebra_basis(L.n), "u(n+1)")
    f = mo.moment_function(moved, algebra)
    residual = spc.eigen_residual(moved, f, 2.0 * L.n + 2.0)
    assert np.max(residual.residual[~residual.degenerate]) <= DEFAULT_TOLERANCES.eigen_residual
    assert spc.green_identity_residual(moved, f) <= GREEN_IDENTITY


class TestShapeOperator:
    def test_geodesic_spheres_are_totally_geodesic(self):
        for name in ("great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3"):
            L = im.get_immersion(name)
            sd = im.shape_operator(L.node_geometry())
            assert sd.mean_curvature_norm() <= 1e-6, name
            assert sd.second_fundamental_norm() <= 1e-6, name

    def test_torus_minimal_but_not_totally_geodesic(self):
        torus = im.clifford_torus()
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 2 * np.pi, size=(100, 2))
        sd = im.shape_operator(im.NodeGeometry(torus, u))
        assert sd.mean_curvature_norm() <= 1e-6
        assert sd.second_fundamental_norm() >= 0.1

    def test_frame_orthonormality_and_symmetry(self, immersion):
        geo = immersion.node_geometry()
        sd = im.shape_operator(geo)
        gram = np.einsum("...ia,...ja->...ij", geo.frame, geo.frame)
        assert np.max(np.abs(gram - np.eye(immersion.n))) <= 1e-10
        sym = sd.second_fundamental - np.swapaxes(sd.second_fundamental, -3, -2)
        assert np.max(np.abs(sym)) <= 1e-8

    def test_mean_curvature_traces_second_fundamental(self, immersion):
        sd = im.shape_operator(immersion.node_geometry())
        trace = np.einsum("...iia->...a", sd.second_fundamental)
        assert_allclose(sd.mean_curvature, trace, atol=0.0)

    def test_frame_mixer_invariance(self):
        # scalar outputs may not depend on the Gram-Schmidt input order
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        for name in ("geodesic-sphere-n2", "clifford-torus-s5"):
            L = im.get_immersion(name)
            a = im.shape_operator(L.node_geometry())
            b = im.shape_operator(L.with_frame_mixer(Q).node_geometry())
            assert abs(a.mean_curvature_norm() - b.mean_curvature_norm()) <= 1e-8
            assert abs(a.second_fundamental_norm() - b.second_fundamental_norm()) <= 1e-8


def _reeb_in_first_column(monkeypatch, size):
    jacobian_at = im.LegendrianImmersion.jacobian_at

    def defective(L, u, sweep=None):
        jac = jacobian_at(L, u, sweep)
        jac[..., 0] += size * L.ambient.reeb(L.points(u))
        return jac

    monkeypatch.setattr(im.LegendrianImmersion, "jacobian_at", defective)


def _radial_on_hessian_diagonal(monkeypatch, size):
    hessian_at = im.LegendrianImmersion.hessian_at

    def defective(L, u):
        return hessian_at(L, u) + size * L.points(u)[..., :, None, None] * np.eye(L.n)

    monkeypatch.setattr(im.LegendrianImmersion, "hessian_at", defective)


def _first_frame_vector_scaled(monkeypatch, size):
    frames = im.LegendrianImmersion.frames

    def defective(L, u, *given):
        frame = frames(L, u, *given)
        frame[..., 0, :] *= 1.0 + size
        return frame

    monkeypatch.setattr(im.LegendrianImmersion, "frames", defective)


def _minus_j_in_rebuild(monkeypatch, size):
    # r xi + J W rebuilt as r xi - J W: the J-tangent part flips sign
    normal_from_split = im.normal_from_split

    def defective(geo, reeb_component, one_form):
        xi = geo.immersion.ambient.reeb(geo.x)
        reeb_part = 2.0 * np.asarray(reeb_component)[..., None] * xi
        return reeb_part - normal_from_split(geo, reeb_component, one_form)

    monkeypatch.setattr(im, "normal_from_split", defective)


# each seeded defect, its size, the anchor it must fail and the least value
# that record reads, in units of the size, on each canonical immersion at
# its default nodes (None: the immersion has no such record).  The circle's
# minus-J reads under 1 since its sup is over 7 nodes
POINTWISE_DEFECTS = {
    "reeb-column": (_reeb_in_first_column, 1e-6, "legendrian-pullback-vanishes",
                    (1.0, 1.0, 1.0, 1.0)),
    "hessian-mean": (_radial_on_hessian_diagonal, 1e-5, "minimal-immersion",
                     (1.0, 2.0, 4.0, 2.0)),
    "hessian-second": (_radial_on_hessian_diagonal, 1e-5, "totally-geodesic-equality-case",
                       (1.0, 1.0, None, 1.0)),
    "scaled-frame": (_first_frame_vector_scaled, 1e-6, "orthonormal-frame",
                     (2.0, 2.0, 2.0, 2.0)),
    "minus-J": (_minus_j_in_rebuild, 1.0, "normal-bundle-isomorphism",
                (0.975, 0.5, 1.63, 0.5)),
}
DEFAULT_NODE_COUNTS = dict(zip(CANONICAL_IMMERSIONS, (7, 32, 49, 128)))


class TestPointwiseDefects:
    """The pointwise records take their sup over the default nodes (7 on
    the circle, 32 on S^2, 49 on the torus, 128 on S^3); each seeded defect
    must still read at its full size there and fail its record."""

    @pytest.mark.parametrize(
        "name,case",
        [
            (name, case)
            for index, name in enumerate(CANONICAL_IMMERSIONS)
            for case, row in POINTWISE_DEFECTS.items()
            if row[3][index] is not None
        ],
        ids=lambda v: v,
    )
    def test_defect_fails_at_the_default_nodes(self, monkeypatch, name, case):
        defect, size, anchor, reads = POINTWISE_DEFECTS[case]
        defect(monkeypatch, size)
        L = im.get_immersion(name)
        assert len(L.node_geometry().u) == DEFAULT_NODE_COUNTS[name]
        cfg = SuiteConfig(suite="legendrian-geometry", immersion=name)
        (record,) = [r for r in legendrian_geometry_records(cfg) if r.anchor == anchor]
        assert record.status == "fail"
        assert record.value >= 0.99 * size * reads[CANONICAL_IMMERSIONS.index(name)]


class TestEigenspaceCount:
    """The measured dimension of the ``2n + 2`` eigenspace: the expected
    mesh multiplicity, and at the algebra bound the paper's equality case."""

    # cos 2t and sin 2t on the circle, the degree-2 harmonics of S^2 and S^3,
    # the six torus modes e^{ik.u} with k^T g^-1 k = 6
    @pytest.mark.parametrize("name,dimension", zip(CANONICAL_IMMERSIONS, (2, 5, 6, 9)))
    def test_ritz_pairs_are_eigenpairs(self, name, dimension):
        L = im.get_immersion(name)
        target = 2.0 * L.n + 2.0
        values, forms = mo.quadratic_ritz(L)
        cluster = np.abs(values - target) <= DEFAULT_TOLERANCES.cluster_window * target
        assert _count(L) == np.sum(cluster) == dimension and np.ptp(values[cluster]) <= 1e-12
        x, forms = L.node_geometry().x, forms[cluster]
        f = np.einsum("na,rab,nb->rn", x, forms, x)
        residual = np.abs(spc.extrinsic_laplacian(L, forms) - target * f)
        assert np.max(np.max(residual, axis=-1) / np.max(np.abs(f), axis=-1)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_algebra_bound(self, n):
        assert spc.algebra_bound(n) == len(mo.algebra_basis(n)) - n * (n + 1) // 2 - 1

    @pytest.mark.parametrize("name", CANONICAL_IMMERSIONS)
    def test_count_meets_the_bound_with_equality_exactly_when_flat(self, name):
        L = im.get_immersion(name)
        norm, bound = L.node_geometry().shape.second_fundamental_norm(), spc.algebra_bound(L.n)
        assert _count(L) >= bound
        assert (_count(L) == bound) == (norm <= DEFAULT_TOLERANCES.totally_geodesic)

    @pytest.mark.parametrize("end", [0, 1], ids=["coarsest", "finest"])
    @pytest.mark.parametrize("name", ["great-circle-s3", "geodesic-sphere-n2", "clifford-torus-s5"])
    def test_mesh_finds_the_count(self, name, end):
        L = im.get_immersion(name)
        level = spc.MESH_RESOLUTIONS[L.domain.mesh][end]
        assert spc.mesh_spectrum(L, level).multiplicity == _count(L)

    def test_wrong_mesh_misses_the_count(self):
        L = im.get_immersion("geodesic-sphere-n3")
        L.domain.mesh = "icosphere"  # the mesh of S^2, whose spectrum has no 8
        assert spc.mesh_spectrum(L, 3).multiplicity != _count(L)

    def test_dropped_gradient_factor_is_caught(self, monkeypatch):
        # the gradient without its factor 2 quarters the stiffness matrix
        stiffness_mass = spc.stiffness_mass

        def halved_gradient(L, f, resolution=None):
            K, M = stiffness_mass(L, f, resolution)
            return K / 4.0, M

        monkeypatch.setattr(spc, "stiffness_mass", halved_gradient)
        status = {r.name: r.status for r in run_suite(SuiteConfig(suite="all")).records}
        for name in ("great-circle-s3", "geodesic-sphere-n2", "clifford-torus-s5"):
            assert status[f"{name}: multiplicity at target"] == "fail"
        # each sphere's count leaves the bound, so it is held non-flat and fails
        for name in ("great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3"):
            assert f"{name}: second fundamental form" not in status
            assert status[f"{name}: second fundamental form nonzero"] == "fail"
        assert status["clifford-torus-s5: second fundamental form nonzero"] == "pass"

    @pytest.mark.parametrize("name", sorted(im.registry()))
    def test_frame_mixer_keeps_the_orbit_and_the_count(self, name):
        L = im.get_immersion(name)
        Q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((L.n, L.n)))
        geometry, mixed = L.node_geometry(), L.with_frame_mixer(Q)
        fields = ("name", "generators", "base_point", "domain")
        assert all(getattr(mixed, f) is getattr(L, f) for f in fields)
        assert mixed.node_geometry() is not geometry and L.node_geometry() is geometry
        assert _count(mixed) == _count(L)

    def test_alias_is_the_great_circle_renamed(self):
        alias, circle = im.geodesic_sphere(1), im.great_circle()
        assert alias.name == "geodesic-sphere-n1" and alias.domain.mesh == circle.domain.mesh
        assert np.array_equal(alias.generators, circle.generators) and _count(alias) == _count(circle)


def _monomials(dim, degree):
    """The exponent vectors of every monomial of degree <= ``degree`` in
    ``dim`` variables, one row each."""
    return np.array([
        np.bincount(combo, minlength=dim)
        for d in range(degree + 1)
        for combo in itertools.combinations_with_replacement(range(dim), d)
    ])


def _monomial_integral(name, alpha):
    """The integral of the ambient monomial ``x^alpha`` over a canonical
    immersion, in closed form.  Real unit ``S^n``: ``2 prod Gamma((a_i + 1)
    / 2) / Gamma(sum (a_i + 1) / 2)`` over the real exponents, zero when one
    is odd or an imaginary one is positive.  Torus: ``(2 pi)^2 / sqrt 3``
    times the mean of ``prod cos(k_j.u)^{a_j} sin(k_j.u)^{b_j} / sqrt
    3^deg``, ``k_j = (1, 0), (0, 1), (-1, -1)``, the constant term of the
    product of ``(e^{ik.u} + e^{-ik.u}) / 2`` and ``(e^{ik.u} - e^{-ik.u}) /
    2i``."""
    if name == "clifford-torus-s5":
        freqs = np.array([(1, 0), (0, 1), (-1, -1)] * 2)
        factors = np.repeat(np.arange(6), alpha)
        signs = np.array(list(itertools.product((1, -1), repeat=len(factors))), dtype=int)
        balanced = np.all(signs @ freqs[factors] == 0, axis=1)
        coeff = np.where(factors < 3, 0.5, signs / 2j)
        mean = np.sum(np.prod(coeff, axis=1)[balanced]).real / 3 ** (len(factors) / 2)
        return (2 * np.pi) ** 2 / np.sqrt(3) * mean
    real, imag = np.split(np.asarray(alpha), 2)
    if np.any(imag) or np.any(real % 2):
        return 0.0
    return 2.0 * math.prod(math.gamma((a + 1) / 2) for a in real) / math.gamma(sum(real + 1) / 2)


class TestQuadrature:
    def test_torus_area_closed_form(self):
        torus = im.clifford_torus()
        # induced metric has constant determinant 1/3
        assert_allclose(torus.volume(), (2 * np.pi) ** 2 / np.sqrt(3), atol=1e-8)

    def test_doubling_resolution_is_stable(self):
        for name, res in [("great-circle-s3", 128), ("clifford-torus-s5", 32)]:
            L = im.get_immersion(name)
            assert abs(L.volume(res) - L.volume(2 * res)) <= 1e-8
        gs2 = im.geodesic_sphere(2)
        assert abs(gs2.volume(16) - gs2.volume(32)) <= 1e-8

    @pytest.mark.parametrize("resolution", [2, 3, 4, 6])
    @pytest.mark.parametrize("n", [2, 3])
    def test_polar_rule_exact_to_degree_2r_minus_1(self, n, resolution):
        # the real coordinates only: the imaginary ones are zero on S^n
        L = im.geodesic_sphere(n)
        x = L.node_geometry(resolution).x[:, : n + 1]
        volume = L.volume(resolution)
        for alpha in _monomials(n + 1, 2 * resolution - 1):
            exact = _monomial_integral(L.name, np.concatenate([alpha, 0 * alpha]))
            value = L.integrate(np.prod(x ** alpha, axis=-1), resolution)
            assert abs(value - exact) <= 1e-14 * volume, alpha

    @pytest.mark.parametrize("degree", [2, 4, 6])
    @pytest.mark.parametrize("name", CANONICAL_IMMERSIONS)
    def test_degree_rule_is_tight(self, name, degree):
        # resolution_for(p) integrates every ambient monomial of degree <= p
        # exactly, and one resolution fewer misses one of degree p; only even
        # p, since an odd degree can be exact one lower by symmetry
        L = im.get_immersion(name)
        alphas = _monomials(2 * L.n + 2, degree)
        exact = np.array([_monomial_integral(name, alpha) for alpha in alphas])
        volume = _monomial_integral(name, 0 * alphas[0])
        resolution = L.domain.resolution_for(degree)
        for res in (resolution, resolution - 1):
            x = L.node_geometry(res).x
            values = L.integrate(np.prod(x ** alphas[:, None, :], axis=-1), res)
            inexact = np.abs(values - exact) > 1e-14 * volume
            if res == resolution:
                assert not np.any(inexact), alphas[inexact]
            else:
                assert np.any(inexact & (alphas.sum(axis=1) == degree))

    def test_polar_rule_needs_a_known_weight(self):
        # sin^3 th would need a Gauss-Jacobi rule the domain does not build
        with pytest.raises(UnsupportedError):
            im.PolarSphereDomain(4)

    def test_su_moment_integrals_vanish(self):
        # mean of the moment pairing over any builtin is zero for every
        # traceless generator
        for name in ALL_BUILTINS:
            L = im.get_immersion(name)
            vol = L.volume()
            for X in mo.traceless_basis(L.n):
                val = L.integrate(lambda u: mo.moment(L.points(u), X))
                assert abs(val) <= 1e-8 * vol, (name, X.label)

    def test_non_finite_integrand_rejected(self):
        circle = im.great_circle()
        with pytest.raises(EvaluationError):
            circle.integrate(lambda u: np.full(len(u), np.nan))
        circle.volume()  # sqrt det g now cached
        with pytest.raises(EvaluationError):
            circle.integrate(lambda u: np.full(len(u), np.inf))

    def test_cached_integrate_matches_uncached_sum_bitwise(self, immersion):
        L = immersion
        X = mo.algebra_basis(L.n)[-1]
        for res in (None, 16, None):
            u, w = L.nodes(res)
            vals = mo.moment(L.points(u), X)
            expected = float(np.sum(vals * L.sqrt_det_metric(u) * w))
            assert L.integrate(lambda v: mo.moment(L.points(v), X), res) == expected
            assert L.integrate(vals, res) == expected

    @pytest.mark.parametrize("resolution", [None, 16])
    def test_pullback_record_names_its_node_set(self, immersion, resolution):
        cfg = SuiteConfig(suite="legendrian-geometry", immersion=immersion.name,
                          resolution=resolution)
        (record,) = [r for r in legendrian_geometry_records(cfg)
                     if r.anchor == "legendrian-pullback-vanishes"]
        geo = immersion.node_geometry(resolution)
        assert record.details == {"nodes": len(geo.u), "volume": geo.volume}

    def test_volume_is_the_integral_of_one_kept_per_geometry(self, immersion):
        L = immersion
        for res in (None, 16):
            vol = L.volume(res)
            # bit for bit the quadrature of ones, and evaluated once
            assert vol == L.integrate(lambda u: np.ones(len(u)), res)
            assert L.volume(res) is vol is L.node_geometry(res).volume


class TestSecondMoment:
    """Integrals of quadratic forms read from ``NodeGeometry.second_moment``."""

    # node sets of 4,096 to 16,384 nodes, on which one running total per
    # entry (a BLAS product) would be several ulps off
    FINER = {"great-circle-s3": 4096, "geodesic-sphere-n2": 64,
             "clifford-torus-s5": 128, "geodesic-sphere-n3": 16}

    @pytest.mark.parametrize("finer", [False, True], ids=["default", "finer"])
    def test_pairing_integral_is_the_quadrature_of_the_pairing(self, immersion, finer):
        L = immersion
        res = self.FINER[L.name] if finer else None
        geo, vol = L.node_geometry(res), L.volume(res)
        algebra = mo.stack_fields(mo.algebra_basis(L.n), "u(n+1)")
        by_moment = mo.pairing_integral(algebra.generator, geo.second_moment) / vol
        by_nodes = L.integrate(mo.moment(geo.x, algebra), res) / vol
        assert np.max(np.abs(by_moment - by_nodes)) <= 1e-14
        assert_allclose(np.trace(geo.second_moment), vol, rtol=1e-14)

    def test_non_finite_weight_raises(self):
        geo = im.great_circle().node_geometry()
        geo.sqrt_g = np.where(np.arange(len(geo.u)) == 3, np.inf, geo.sqrt_g)
        with pytest.raises(EvaluationError):
            geo.second_moment

    def test_sqrt_det_g_is_the_metric_determinant(self, immersion):
        L = immersion
        rng = np.random.default_rng(5)
        for u in (L.nodes()[0], L.nodes(16)[0], rng.uniform(0.3, 2.8, (64, L.n))):
            jac = L.jacobian_at(u)
            reference = np.sqrt(np.linalg.det(np.swapaxes(jac, -1, -2) @ jac))
            assert np.max(np.abs(L.sqrt_det_metric(u) - reference)) <= 1e-14
        geo = L.node_geometry()
        assert geo.sqrt_g.tobytes() == L.sqrt_det_metric(geo.u).tobytes()

    @pytest.mark.parametrize("name", sorted(im.registry()))
    def test_one_sweep_gives_the_points(self, name):
        # a sweep of any order turns the points alike, bit for bit
        L = im.get_immersion(name)
        u = np.random.default_rng(8).uniform(0.0, 2.0 * np.pi, (40, L.n))
        sweeps = [L._orbit(u, order) for order in (0, 1, 2)]
        assert sweeps[0][0].tobytes() == sweeps[1][0].tobytes() == sweeps[2][0].tobytes()
        assert [c.tobytes() for c in sweeps[1][1]] == [c.tobytes() for c in sweeps[2][1]]
        geo = im.NodeGeometry(L, u)
        assert geo.x.tobytes() == L.points(u).tobytes()
        assert geo.jacobian.tobytes() == L.jacobian_at(u).tobytes()


class TestNormalSplit:
    def test_real_skew_fields_are_tangent_on_geodesic_spheres(self):
        for n in (1, 2, 3):
            L = im.geodesic_sphere(n)
            # real skew pairs sit between the diagonals and imaginary pairs
            m = n + 1
            for X in mo.algebra_basis(n)[m : m + m * (m - 1) // 2]:
                split = im.normal_split(L.node_geometry(), X)
                assert np.max(np.linalg.norm(split.normal, axis=-1)) <= 1e-10

    def test_reeb_field_is_normal_with_unit_component(self):
        L = im.geodesic_sphere(2)
        split = im.normal_split(L.node_geometry(), mo.reeb_generator(2))
        assert np.max(np.linalg.norm(split.tangent, axis=-1)) <= 1e-10
        assert_allclose(split.reeb_component, 1.0, atol=1e-10)

    def test_zero_field_splits_to_zero(self):
        L = im.clifford_torus()
        zero = lambda pts: np.zeros_like(pts)
        split = im.normal_split(L.node_geometry(), zero)
        assert np.max(np.abs(split.tangent)) == 0.0
        assert np.max(np.abs(split.normal)) == 0.0
        assert np.max(np.abs(split.reeb_component)) == 0.0
        assert np.max(np.abs(split.one_form)) == 0.0

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_roundtrip_reconstructs_normal_part(self, name):
        geo = im.get_immersion(name).node_geometry()
        for X in mo.algebra_basis(geo.immersion.n)[:: max(1, geo.immersion.n)]:
            split = im.normal_split(geo, X)
            rebuilt = im.normal_from_split(geo, split.reeb_component, split.one_form)
            assert np.max(np.linalg.norm(rebuilt - split.normal, axis=-1)) <= 1e-8
