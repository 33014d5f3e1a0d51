"""Chart calculus against closed-form values on model charts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from legspec import riemannian as rm
from legspec.errors import ConfigurationError, DegenerateMetricError, DomainError

RNG = np.random.default_rng(7)


def s3_graph_chart():
    base = np.array([1.0, 0.0, 0.0, 0.0])
    return rm.sphere_graph_chart(base, np.eye(4)[:, 1:])


class TestChristoffel:
    def test_constant_metric_is_flat(self):
        chart = rm.constant_metric_chart(np.array([[2.0, 0.3], [0.3, 1.0]]))
        for u in chart.domain.sample(RNG, 5):
            assert_allclose(rm.christoffel(chart, u), 0.0, atol=1e-15)

    def test_circle_chart(self):
        chart = rm.circle_chart()
        assert_allclose(rm.christoffel(chart, np.array([1.2])), 0.0, atol=1e-15)

    def test_round_s2_closed_form(self):
        # at theta = pi/3: Gamma^t_pp = -sin t cos t = -sqrt(3)/4,
        # Gamma^p_tp = cot t = 1/sqrt(3)
        chart = rm.sphere_polar_chart()
        gamma = rm.christoffel(chart, np.array([np.pi / 3, 0.4]))
        assert_allclose(gamma[0, 1, 1], -np.sqrt(3) / 4, atol=1e-12)
        assert_allclose(gamma[1, 0, 1], 1 / np.sqrt(3), atol=1e-12)
        assert_allclose(gamma[1, 1, 0], gamma[1, 0, 1], atol=0.0)

    def test_symmetry_is_exact(self):
        chart = s3_graph_chart()
        for u in chart.domain.sample(RNG, 10):
            gamma = rm.christoffel(chart, u)
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    def test_degenerate_metric_raises(self):
        chart = rm.constant_metric_chart(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateMetricError):
            rm.christoffel(chart, np.zeros(2))

    def test_outside_domain_raises(self):
        chart = rm.sphere_polar_chart()
        with pytest.raises(DomainError):
            rm.christoffel(chart, np.array([-0.5, 0.0]))

    def test_fd_fallback_converges(self):
        # halving h must shrink the error against the closed form by >= 3x
        chart = rm.sphere_polar_chart(analytic=False)
        u = np.array([1.1, 2.0])
        exact = rm.christoffel(rm.sphere_polar_chart(), u)
        err = [
            np.max(np.abs(rm.christoffel(chart, u, h=h) - exact))
            for h in (1e-4, 5e-5)
        ]
        assert err[0] / err[1] >= 3.0


class TestCurvature:
    def test_flat_chart(self):
        chart = rm.euclidean_chart(4)
        data = rm.riemann_ricci(chart, np.array([0.1, -0.2, 0.3, 2.0]))
        assert_allclose(data.riemann, 0.0, atol=1e-12)
        assert_allclose(data.ricci, 0.0, atol=1e-12)

    def test_round_s2_is_einstein(self):
        chart = rm.sphere_polar_chart()
        for theta in (np.pi / 3, np.pi / 2, 2.0):
            u = np.array([theta, 1.0])
            data = rm.riemann_ricci(chart, u)
            assert np.max(np.abs(data.ricci - chart.metric_at(u))) <= 1e-6

    def test_round_s3_is_einstein(self):
        # constant curvature one: Ric = (dim - 1) g = 2 g
        chart = s3_graph_chart()
        u = np.array([0.2, -0.1, 0.25])
        data = rm.riemann_ricci(chart, u)
        assert np.max(np.abs(data.ricci - 2.0 * chart.metric_at(u))) <= 1e-5

    def test_first_bianchi(self):
        for chart, u in [
            (rm.sphere_polar_chart(), np.array([1.0, 0.5])),
            (s3_graph_chart(), np.array([0.3, 0.1, -0.2])),
        ]:
            assert rm.riemann_ricci(chart, u).bianchi_residual() <= 1e-5

    def test_step_underflow_raises(self):
        with pytest.raises(ConfigurationError):
            rm.riemann_ricci(rm.sphere_polar_chart(), np.array([1.0, 1.0]), h2=1e-9)


REGISTERED_CHARTS = {
    "torus": rm.constant_metric_chart(np.array([[2.0, 0.5], [0.5, 1.0]])),
    "s2": rm.sphere_polar_chart(),
    "s2-fd": rm.sphere_polar_chart(analytic=False),
    "flat": rm.euclidean_chart(3),
    "s3-graph": s3_graph_chart(),
}


@pytest.fixture(params=sorted(REGISTERED_CHARTS), ids=sorted(REGISTERED_CHARTS))
def chart(request):
    return REGISTERED_CHARTS[request.param]


class TestInvariants:
    def test_metric_compatibility(self, chart):
        rng = np.random.default_rng(11)
        worst = max(
            rm.metric_compatibility_residual(chart, u)
            for u in chart.domain.sample(rng, 100)
        )
        assert worst <= 1e-6

    def test_metric_is_symmetric(self, chart):
        rng = np.random.default_rng(12)
        for u in chart.domain.sample(rng, 20):
            g = chart.metric_at(u)
            assert np.max(np.abs(g - g.T)) <= 1e-14

    def test_derivative_paths_agree(self, chart):
        if chart.metric_derivative is None:
            pytest.skip("finite-difference-only chart")
        rng = np.random.default_rng(13)
        u = chart.domain.sample(rng, 1)[0]
        analytic = chart.metric_derivative_at(u)
        fd = chart.without_analytic_derivative().metric_derivative_at(u, h=1e-4)
        assert np.max(np.abs(analytic - fd)) <= 1e-6

    def test_cone_over_s3_is_ricci_flat(self):
        cone = rm.cone_chart(s3_graph_chart())
        rng = np.random.default_rng(3)
        for _ in range(3):
            u = np.concatenate([0.4 * rng.uniform(-1, 1, 3), [rng.uniform(0.6, 1.8)]])
            data = rm.riemann_ricci(cone, u)
            assert np.max(np.abs(data.ricci)) <= 1e-5

    def test_wrong_cone_metric_is_detected(self):
        # negative control: r^2 g + r^2 dr^2 is not a metric cone
        cone = rm.scaled_cone_chart(s3_graph_chart())
        u = np.array([0.2, -0.1, 0.25, 1.3])
        assert np.max(np.abs(rm.riemann_ricci(cone, u).ricci)) >= 0.1
