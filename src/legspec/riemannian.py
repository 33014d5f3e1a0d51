"""Chart-based numerical Riemannian calculus.

A :class:`Chart` bundles a metric evaluator over a coordinate box with an
optional analytic metric derivative; every operation falls back to central
finite differences when the analytic derivative is missing.  All outputs
are plain numpy arrays at a single coordinate point.
"""

import numpy as np

from .config import FD_FIRST, FD_SECOND, POLE_MARGIN
from .errors import ConfigurationError, DegenerateMetricError, DomainError


class Box:
    """Coordinate box with optional periodic axes and a sampling margin.

    ``margin`` shrinks random sampling away from non-periodic edges
    (coordinate singularities such as polar-chart poles); it does not
    restrict explicit evaluation points.
    """

    def __init__(self, lower, upper, periodic=None, margin=0.0):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.dim = len(self.lower)
        self.periodic = tuple(periodic) if periodic is not None else (False,) * self.dim
        self.margin = margin

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        for k in range(self.dim):
            if self.periodic[k]:
                continue
            if u[k] < self.lower[k] or u[k] > self.upper[k]:
                return False
        return True

    def sample(self, rng, count):
        lo = self.lower.copy()
        hi = self.upper.copy()
        for k in range(self.dim):
            if not self.periodic[k]:
                lo[k] += self.margin
                hi[k] -= self.margin
        return rng.uniform(lo, hi, size=(count, self.dim))


class Ball:
    """Open ball |u| < radius, sampled uniformly inside radius - margin."""

    def __init__(self, dim, radius=1.0, margin=0.0):
        self.dim = dim
        self.radius = radius
        self.margin = margin

    def contains(self, u):
        return float(np.linalg.norm(u)) < self.radius

    def sample(self, rng, count):
        pts = rng.standard_normal((count, self.dim))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        r = (self.radius - self.margin) * rng.uniform(0.0, 1.0, count) ** (1.0 / self.dim)
        return pts * r[:, None]


class Chart:
    """Coordinate chart: a metric field over a domain.

    Parameters
    ----------
    dim : int
        Number of coordinates.
    metric : callable
        ``u -> (dim, dim)`` symmetric positive-definite matrix.
    metric_derivative : callable or None
        ``u -> (dim, dim, dim)`` with entry ``[k, i, j] = d_k g_ij``.
        When ``None``, central differences with step ``h`` are used.
    domain : Box or Ball
    """

    def __init__(self, dim, metric, metric_derivative=None, domain=None, name=""):
        self.dim = dim
        self.metric = metric
        self.metric_derivative = metric_derivative
        self.domain = domain if domain is not None else Box([-np.inf] * dim, [np.inf] * dim)
        self.name = name

    def metric_at(self, u):
        u = np.asarray(u, dtype=float)
        if not self.domain.contains(u):
            raise DomainError(f"{self.name or 'chart'}: point {u} outside domain")
        g = np.asarray(self.metric(u), dtype=float)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise DegenerateMetricError(
                f"{self.name or 'chart'}: metric not positive definite at {u}"
            ) from None
        return g

    def metric_derivative_at(self, u, h=FD_FIRST):
        """d_k g_ij, analytic when available, else central differences."""
        u = np.asarray(u, dtype=float)
        if self.metric_derivative is not None:
            dg = np.asarray(self.metric_derivative(u), dtype=float)
        else:
            dg = np.empty((self.dim, self.dim, self.dim))
            for k in range(self.dim):
                e = np.zeros(self.dim)
                e[k] = h
                dg[k] = (self.metric(u + e) - self.metric(u - e)) / (2.0 * h)
        # exact (i,j)-symmetry of everything downstream
        return 0.5 * (dg + dg.transpose(0, 2, 1))

    def without_analytic_derivative(self):
        return Chart(self.dim, self.metric, None, self.domain, self.name + " (fd)")


class CurvatureData:
    """Christoffel symbols and curvature tensors at one coordinate point.

    ``riemann[a, b, c, d]`` is the component of ``R(e_a, e_b) e_c`` along
    ``e_d``; ``ricci[i, j]`` contracts the first slot against the output.
    """

    def __init__(self, point, christoffel, riemann, ricci):
        self.point = point
        self.christoffel = christoffel
        self.riemann = riemann
        self.ricci = ricci

    def bianchi_residual(self):
        """Max norm of the cyclic sum R(a,b)c + R(b,c)a + R(c,a)b."""
        r = self.riemann
        cyc = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)
        return float(np.max(np.abs(cyc)))


def christoffel(chart, u, h=FD_FIRST):
    """Levi-Civita Christoffel symbols ``Gamma[k, i, j]`` at ``u``."""
    u = np.asarray(u, dtype=float)
    g = chart.metric_at(u)
    dg = chart.metric_derivative_at(u, h=h)
    ginv = np.linalg.inv(g)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    term = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, term)


def riemann_ricci(chart, u, h2=FD_SECOND):
    """Riemann (3,1)-tensor and Ricci tensor from Christoffel derivatives;
    ``h2`` is the step of the Christoffel differences."""
    if h2 < 1e-8:
        raise ConfigurationError("finite-difference step underflow (h < 1e-8)")
    u = np.asarray(u, dtype=float)
    dim = chart.dim
    gamma = christoffel(chart, u)
    dgamma = np.empty((dim, dim, dim, dim))  # [a, k, i, j] = d_a Gamma^k_ij
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h2
        dgamma[a] = (christoffel(chart, u + e) - christoffel(chart, u - e)) / (2.0 * h2)
    # R(e_a, e_b) e_c = (d_a Gamma^d_bc - d_b Gamma^d_ac
    #                    + Gamma^d_ae Gamma^e_bc - Gamma^d_be Gamma^e_ac) e_d
    riemann = (
        np.einsum("adbc->abcd", dgamma)
        - np.einsum("bdac->abcd", dgamma)
        + np.einsum("dae,ebc->abcd", gamma, gamma)
        - np.einsum("dbe,eac->abcd", gamma, gamma)
    )
    ricci = np.einsum("aija->ij", riemann)
    ricci = 0.5 * (ricci + ricci.T)
    return CurvatureData(u, gamma, riemann, ricci)


def metric_compatibility_residual(chart, u):
    """Max norm of d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il."""
    g = chart.metric_at(u)
    dg = chart.metric_derivative_at(u)
    gamma = christoffel(chart, u)
    nabla_g = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    return float(np.max(np.abs(nabla_g)))


# ---------------------------------------------------------------------------
# Builtin charts


def constant_metric_chart(matrix, periodic=True, name="constant"):
    """Chart with a constant metric over a periodic box (flat torus)."""
    g = np.asarray(matrix, dtype=float)
    dim = g.shape[0]
    dg = np.zeros((dim, dim, dim))
    domain = Box([0.0] * dim, [2.0 * np.pi] * dim, periodic=(periodic,) * dim)
    return Chart(dim, lambda u: g, lambda u: dg, domain, name)


def circle_chart():
    return constant_metric_chart(np.eye(1), name="circle")


def sphere_polar_chart(analytic=True):
    """Round S^2 in polar coordinates: g = diag(1, sin^2 theta)."""

    def metric(u):
        return np.diag([1.0, np.sin(u[0]) ** 2])

    def dmetric(u):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = 2.0 * np.sin(u[0]) * np.cos(u[0])
        return dg

    domain = Box([0.0, 0.0], [np.pi, 2.0 * np.pi], periodic=(False, True), margin=POLE_MARGIN)
    return Chart(2, metric, dmetric if analytic else None, domain, "s2-polar")


def euclidean_chart(dim, name="euclidean"):
    g = np.eye(dim)
    dg = np.zeros((dim, dim, dim))
    return Chart(dim, lambda u: g, lambda u: dg, Box([-10.0] * dim, [10.0] * dim), name)


def sphere_graph_chart(base_point, tangent_basis):
    """Hemisphere chart of the unit sphere around ``base_point``.

    ``u -> base*sqrt(1-|u|^2) + tangent_basis @ u`` pulls the round metric
    back to ``g = I + u u^T / (1 - |u|^2)``.
    """
    base = np.asarray(base_point, dtype=float)
    T = np.asarray(tangent_basis, dtype=float)  # columns orthonormal, span base^perp
    dim = T.shape[1]

    def metric(u):
        s2 = 1.0 - float(u @ u)
        return np.eye(dim) + np.outer(u, u) / s2

    def dmetric(u):
        s2 = 1.0 - float(u @ u)
        dg = np.empty((dim, dim, dim))
        eye = np.eye(dim)
        uu = np.outer(u, u)
        for k in range(dim):
            dg[k] = (np.outer(eye[k], u) + np.outer(u, eye[k])) / s2 + 2.0 * u[k] * uu / s2**2
        return dg

    chart = Chart(dim, metric, dmetric, Ball(dim, radius=0.95, margin=0.05), "sphere-graph")
    chart.embed = lambda u: base * np.sqrt(1.0 - float(u @ u)) + T @ np.asarray(u, float)
    chart.tangent_basis = T
    chart.base_point = base
    return chart


def cone_chart(base_chart, r_bounds=(0.5, 2.0)):
    """Metric cone over a base chart: block ``r^2 g(u)`` plus ``dr^2``."""
    m = base_chart.dim
    dim = m + 1

    def metric(w):
        u, r = w[:m], w[m]
        g = np.zeros((dim, dim))
        g[:m, :m] = r**2 * base_chart.metric(u)
        g[m, m] = 1.0
        return g

    dmetric = None
    if base_chart.metric_derivative is not None:

        def dmetric(w):
            u, r = w[:m], w[m]
            dg = np.zeros((dim, dim, dim))
            base_dg = base_chart.metric_derivative(u)
            dg[:m, :m, :m] = r**2 * base_dg
            dg[m, :m, :m] = 2.0 * r * base_chart.metric(u)
            return dg

    lower = list(getattr(base_chart.domain, "lower", [-1.0] * m)) + [r_bounds[0]]
    upper = list(getattr(base_chart.domain, "upper", [1.0] * m)) + [r_bounds[1]]
    periodic = tuple(getattr(base_chart.domain, "periodic", (False,) * m)) + (False,)
    margin = getattr(base_chart.domain, "margin", 0.0)
    domain = Box(lower, upper, periodic=periodic, margin=margin)
    return Chart(dim, metric, dmetric, domain, f"cone({base_chart.name})")


def scaled_cone_chart(base_chart):
    """Deliberately wrong cone metric ``r^2 g(u) + r^2 dr^2``.

    Not Ricci-flat; used as the negative control for the flatness suite.
    """
    right = cone_chart(base_chart)
    m = base_chart.dim

    def metric(w):
        g = right.metric(w)
        g = g.copy()
        g[m, m] = w[m] ** 2
        return g

    dmetric = None
    if right.metric_derivative is not None:

        def dmetric(w):
            dg = right.metric_derivative(w).copy()
            dg[m, m, m] = 2.0 * w[m]
            return dg

    return Chart(m + 1, metric, dmetric, right.domain, f"scaled-cone({base_chart.name})")
