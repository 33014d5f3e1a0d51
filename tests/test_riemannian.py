"""Christoffel symbols and curvature against closed-form values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from legspec import riemannian as rm

RNG = np.random.default_rng(7)


def constant_metric(matrix):
    g = np.asarray(matrix, dtype=float)
    dg = np.zeros((len(g),) * 3)
    return (lambda u: g), (lambda u: dg)


def s2_polar_metric():
    """Round S^2 in polar coordinates: g = diag(1, sin^2 theta)."""

    def dmetric(u):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = 2.0 * np.sin(u[0]) * np.cos(u[0])
        return dg

    return (lambda u: np.diag([1.0, np.sin(u[0]) ** 2])), dmetric


def ball_points(rng, count, dim, radius=0.9):
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts * radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / dim)


def polar_points(rng, count):
    return rng.uniform([0.01, 0.0], [np.pi - 0.01, 2.0 * np.pi], size=(count, 2))


def cone_points(rng, count, dim):
    return np.hstack([ball_points(rng, count, dim), rng.uniform(0.5, 2.0, (count, 1))])


def bianchi_residual(riemann):
    """Max norm of the cyclic sum R(a,b)c + R(b,c)a + R(c,a)b."""
    cyc = riemann + riemann.transpose(1, 2, 0, 3) + riemann.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(cyc)))


def metric_compatibility_residual(metric, dmetric, u):
    """Max norm of d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il."""
    g, dg = metric(u), dmetric(u)
    gamma = rm.christoffel(metric, dmetric, u)
    nabla_g = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    return float(np.max(np.abs(nabla_g)))


def central_dmetric(metric, u, h=1e-5):
    return np.stack([(metric(u + h * e) - metric(u - h * e)) / (2.0 * h) for e in np.eye(len(u))])


class TestChristoffel:
    @pytest.mark.parametrize("matrix", [[[2.0, 0.3], [0.3, 1.0]], [[1.0]]], ids=["torus", "circle"])
    def test_constant_metric_is_flat(self, matrix):
        metric, dmetric = constant_metric(matrix)
        for u in RNG.uniform(0.0, 2.0 * np.pi, size=(5, len(matrix))):
            assert_allclose(rm.christoffel(metric, dmetric, u), 0.0, atol=1e-15)

    def test_round_s2_closed_form(self):
        # at theta = pi/3: Gamma^t_pp = -sin t cos t = -sqrt(3)/4,
        # Gamma^p_tp = cot t = 1/sqrt(3)
        gamma = rm.christoffel(*s2_polar_metric(), np.array([np.pi / 3, 0.4]))
        assert_allclose(gamma[0, 1, 1], -np.sqrt(3) / 4, atol=1e-12)
        assert_allclose(gamma[1, 0, 1], 1 / np.sqrt(3), atol=1e-12)
        assert_allclose(gamma[1, 1, 0], gamma[1, 0, 1], atol=0.0)

    def test_symmetry_is_exact(self):
        metric, dmetric = rm.sphere_metric(3)
        for u in ball_points(RNG, 10, 3):
            gamma = rm.christoffel(metric, dmetric, u)
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    def test_vanishes_at_the_hemisphere_centre(self):
        assert np.all(rm.christoffel(*rm.sphere_metric(3), np.zeros(3)) == 0.0)


class TestCurvature:
    def test_flat_chart(self):
        riemann, ricci = rm.riemann_ricci(*constant_metric(np.eye(4)), np.array([0.1, -0.2, 0.3, 2.0]))
        assert_allclose(riemann, 0.0, atol=1e-12)
        assert_allclose(ricci, 0.0, atol=1e-12)

    def test_round_s2_is_einstein(self):
        metric, dmetric = s2_polar_metric()
        for theta in (np.pi / 3, np.pi / 2, 2.0):
            u = np.array([theta, 1.0])
            _, ricci = rm.riemann_ricci(metric, dmetric, u)
            assert np.max(np.abs(ricci - metric(u))) <= 1e-6

    @pytest.mark.parametrize("u", [np.zeros(3), np.array([0.2, -0.1, 0.25])], ids=["centre", "off-centre"])
    def test_round_s3_is_einstein(self, u):
        # constant curvature one: Ric = (dim - 1) g = 2 g
        metric, dmetric = rm.sphere_metric(3)
        _, ricci = rm.riemann_ricci(metric, dmetric, u)
        assert np.max(np.abs(ricci - 2.0 * metric(u))) <= 1e-5

    def test_first_bianchi(self):
        for (metric, dmetric), u in [
            (s2_polar_metric(), np.array([1.0, 0.5])),
            (rm.sphere_metric(3), np.array([0.3, 0.1, -0.2])),
        ]:
            riemann, _ = rm.riemann_ricci(metric, dmetric, u)
            assert bianchi_residual(riemann) <= 1e-5


METRICS = {
    "torus": (constant_metric([[2.0, 0.5], [0.5, 1.0]]), lambda rng, k: rng.uniform(0, 6.2, (k, 2))),
    "s2-polar": (s2_polar_metric(), polar_points),
    "flat": (constant_metric(np.eye(3)), lambda rng, k: rng.uniform(-10, 10, (k, 3))),
    "s3-graph": (rm.sphere_metric(3), lambda rng, k: ball_points(rng, k, 3)),
    "s5-graph": (rm.sphere_metric(5), lambda rng, k: ball_points(rng, k, 5)),
    "cone-s3": (rm.cone_metric(*rm.sphere_metric(3)), lambda rng, k: cone_points(rng, k, 3)),
    "wrong-cone-s3": (
        rm.cone_metric(*rm.sphere_metric(3), defective=True),
        lambda rng, k: cone_points(rng, k, 3),
    ),
}


@pytest.fixture(params=sorted(METRICS), ids=sorted(METRICS))
def case(request):
    return METRICS[request.param]


class TestInvariants:
    def test_metric_compatibility(self, case):
        (metric, dmetric), sample = case
        worst = max(
            metric_compatibility_residual(metric, dmetric, u)
            for u in sample(np.random.default_rng(11), 100)
        )
        assert worst <= 1e-6

    def test_metric_is_symmetric(self, case):
        (metric, _), sample = case
        for u in sample(np.random.default_rng(12), 20):
            g = metric(u)
            assert np.max(np.abs(g - g.T)) <= 1e-14

    def test_analytic_derivative_matches_differences(self, case):
        (metric, dmetric), sample = case
        for u in sample(np.random.default_rng(13), 5):
            assert np.max(np.abs(dmetric(u) - central_dmetric(metric, u))) <= 1e-6

    def test_cone_over_s3_is_ricci_flat(self):
        cone = rm.cone_metric(*rm.sphere_metric(3))
        rng = np.random.default_rng(3)
        for _ in range(3):
            u = np.concatenate([0.4 * rng.uniform(-1, 1, 3), [rng.uniform(0.6, 1.8)]])
            _, ricci = rm.riemann_ricci(*cone, u)
            assert np.max(np.abs(ricci)) <= 1e-5

    def test_wrong_cone_metric_is_detected(self):
        # negative control: r^2 g + r^2 dr^2 is not a metric cone
        cone = rm.cone_metric(*rm.sphere_metric(3), defective=True)
        _, ricci = rm.riemann_ricci(*cone, np.array([0.2, -0.1, 0.25, 1.3]))
        assert np.max(np.abs(ricci)) >= 0.1
