"""Builtin Legendrian immersions: induced geometry, quadrature, splits."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from legspec import immersions as im
from legspec import moment as mo
from legspec.errors import EvaluationError, UnsupportedError


ALL_BUILTINS = ["great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3", "clifford-torus-s5"]


@pytest.fixture(params=ALL_BUILTINS)
def immersion(request):
    return im.get_immersion(request.param)


class TestBuiltins:
    def test_builtin_lists(self):
        assert [L.name for L in im.builtin_examples(1)] == ["great-circle-s3"]
        assert [L.name for L in im.builtin_examples(2)] == [
            "geodesic-sphere-n2",
            "clifford-torus-s5",
        ]
        assert [L.name for L in im.builtin_examples(3)] == ["geodesic-sphere-n3"]
        with pytest.raises(UnsupportedError):
            im.builtin_examples(4)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnsupportedError):
            im.get_immersion("mystery-immersion")

    def test_legendrian_residual(self, immersion):
        assert immersion.legendrian_residual() <= 1e-8

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


class TestShapeOperator:
    def test_geodesic_spheres_are_totally_geodesic(self):
        for name in ("great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3"):
            L = im.get_immersion(name)
            u, _ = L.nodes()
            sd = im.shape_operator(L, u)
            assert sd.mean_curvature_norm() <= 1e-6, name
            assert sd.second_fundamental_norm() <= 1e-6, name

    def test_torus_minimal_but_not_totally_geodesic(self):
        torus = im.clifford_torus()
        rng = np.random.default_rng(4)
        u = rng.uniform(0, 2 * np.pi, size=(100, 2))
        sd = im.shape_operator(torus, u)
        assert sd.mean_curvature_norm() <= 1e-6
        assert sd.second_fundamental_norm() >= 0.1

    def test_frame_orthonormality_and_symmetry(self, immersion):
        u, _ = immersion.nodes()
        sd = im.shape_operator(immersion, u)
        gram = np.einsum("...ia,...ja->...ij", sd.frame, sd.frame)
        assert np.max(np.abs(gram - np.eye(immersion.n))) <= 1e-10
        sym = sd.second_fundamental - np.swapaxes(sd.second_fundamental, -3, -2)
        assert np.max(np.abs(sym)) <= 1e-8

    def test_mean_curvature_traces_second_fundamental(self, immersion):
        u, _ = immersion.nodes()
        sd = im.shape_operator(immersion, u)
        trace = np.einsum("...iia->...a", sd.second_fundamental)
        assert_allclose(sd.mean_curvature, trace, atol=0.0)

    def test_frame_mixer_invariance(self):
        # scalar outputs may not depend on the Gram-Schmidt input order
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        for name in ("geodesic-sphere-n2", "clifford-torus-s5"):
            L = im.get_immersion(name)
            u, _ = L.nodes()
            a = im.shape_operator(L, u)
            b = im.shape_operator(L.with_frame_mixer(Q), u)
            assert abs(a.mean_curvature_norm() - b.mean_curvature_norm()) <= 1e-8
            assert abs(a.second_fundamental_norm() - b.second_fundamental_norm()) <= 1e-8


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


class TestNormalSplit:
    def test_real_skew_fields_are_tangent_on_geodesic_spheres(self):
        for n in (1, 2, 3):
            L = im.geodesic_sphere(n)
            u, _ = L.nodes()
            # real skew pairs sit between the diagonals and imaginary pairs
            m = n + 1
            for X in mo.algebra_basis(n)[m : m + m * (m - 1) // 2]:
                split = im.normal_split(L, X, u)
                assert np.max(np.linalg.norm(split.normal, axis=-1)) <= 1e-10

    def test_reeb_field_is_normal_with_unit_component(self):
        L = im.geodesic_sphere(2)
        u, _ = L.nodes()
        split = im.normal_split(L, mo.reeb_generator(2), u)
        assert np.max(np.linalg.norm(split.tangent, axis=-1)) <= 1e-10
        assert_allclose(split.reeb_component, 1.0, atol=1e-10)

    def test_zero_field_splits_to_zero(self):
        L = im.clifford_torus()
        u, _ = L.nodes()
        zero = lambda pts: np.zeros_like(pts)
        split = im.normal_split(L, zero, u)
        assert np.max(np.abs(split.tangent)) == 0.0
        assert np.max(np.abs(split.normal)) == 0.0
        assert np.max(np.abs(split.reeb_component)) == 0.0
        assert np.max(np.abs(split.one_form)) == 0.0

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_roundtrip_reconstructs_normal_part(self, name):
        L = im.get_immersion(name)
        u, _ = L.nodes()
        for X in mo.algebra_basis(L.n)[:: max(1, L.n)]:
            split = im.normal_split(L, X, u)
            rebuilt = im.normal_from_split(L, u, split.reeb_component, split.one_form)
            assert np.max(np.linalg.norm(rebuilt - split.normal, axis=-1)) <= 1e-8
