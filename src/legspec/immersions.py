"""Chart-parameterized Legendrian immersions and their induced geometry.

Shipped examples (registered by name for the CLI):

* ``great-circle-s3``      -- t -> (cos t, sin t) on the real circle in S^3
  (alias ``geodesic-sphere-n1``);
* ``geodesic-sphere-n2``   -- the real unit S^2 inside S^5;
* ``geodesic-sphere-n3``   -- the real unit S^3 inside S^7;
* ``clifford-torus-s5``    -- (u, v) -> (e^{iu}, e^{iv}, e^{-i(u+v)}) / sqrt(3).

Quadrature follows the domain: uniform (trapezoid) grids on periodic
boxes, Gauss-Legendre x trapezoid products on polar sphere charts.  The
Gauss nodes are interior, so polar singularities are never evaluated.
"""

import numpy as np

from .errors import (
    DegenerateImmersionError,
    EvaluationError,
    QuadratureError,
    UnsupportedError,
)
from .sasaki import SphereSasaki


# ---------------------------------------------------------------------------
# quadrature domains


class PeriodicGridDomain:
    """Uniform tensor grid on [0, 2 pi)^k; trapezoid weights are exact
    (spectrally accurate) for smooth periodic integrands."""

    def __init__(self, k):
        self.k = k
        self.periodic = True

    def nodes_weights(self, resolution):
        ax = np.arange(resolution) * (2.0 * np.pi / resolution)
        grids = np.meshgrid(*([ax] * self.k), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.full(len(nodes), (2.0 * np.pi / resolution) ** self.k)
        return nodes, w

    def grid_shape(self, resolution):
        return (resolution,) * self.k


class PolarSphereDomain:
    """Polar chart of S^n: Gauss-Legendre on each polar angle in (0, pi),
    trapezoid on the periodic azimuth."""

    def __init__(self, n):
        self.n = n
        self.periodic = False

    def nodes_weights(self, resolution):
        polar_axes = []
        for _ in range(self.n - 1):
            t, w = np.polynomial.legendre.leggauss(resolution)
            polar_axes.append(((t + 1.0) * (np.pi / 2.0), w * (np.pi / 2.0)))
        m = 2 * resolution
        az = (np.arange(m) * (2.0 * np.pi / m), np.full(m, 2.0 * np.pi / m))
        axes = polar_axes + [az]
        grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
        weights = np.ones(len(nodes))
        for wg in wgrids:
            weights = weights * wg.ravel()
        return nodes, weights


# ---------------------------------------------------------------------------
# the immersion type


class LegendrianImmersion:
    """A parameterized immersion ``L^n -> S^{2n+1}`` with quadrature.

    ``chart_map`` and ``jacobian`` are vectorized over leading axes, the
    Jacobian having shape ``(..., 2n+2, n)``.  ``frame_mixer`` optionally
    rotates Jacobian columns before orthonormalization; every scalar
    output must be invariant under it.
    """

    def __init__(self, name, n, chart_map, jacobian, domain, default_resolution,
                 chart_hessian=None, frame_mixer=None):
        self.name = name
        self.n = n
        self.ambient = SphereSasaki(n)
        self.chart_map = chart_map
        self.jacobian = jacobian
        self.chart_hessian = chart_hessian  # u -> (..., 2n+2, n, n), optional
        self.domain = domain
        self.default_resolution = default_resolution
        self.frame_mixer = frame_mixer
        self._node_cache = {}

    def with_frame_mixer(self, mixer):
        return LegendrianImmersion(
            self.name, self.n, self.chart_map, self.jacobian, self.domain,
            self.default_resolution, chart_hessian=self.chart_hessian,
            frame_mixer=np.asarray(mixer, dtype=float),
        )

    def resolve_resolution(self, resolution=None):
        return self.default_resolution if resolution is None else int(resolution)

    def nodes(self, resolution=None):
        res = self.resolve_resolution(resolution)
        if res not in self._node_cache:
            self._node_cache[res] = self.domain.nodes_weights(res)
        return self._node_cache[res]

    def mean_curvature_residual(self, resolution=None):
        """max |H| over quadrature nodes, cached per resolution."""
        res = self.resolve_resolution(resolution)
        key = ("mean_h", res)
        if key not in self._node_cache:
            u, _ = self.nodes(res)
            self._node_cache[key] = shape_operator(self, u).mean_curvature_norm()
        return self._node_cache[key]

    # -- induced geometry --------------------------------------------------

    def points(self, u):
        return self.chart_map(np.asarray(u, dtype=float))

    def jacobian_at(self, u):
        jac = self.jacobian(np.asarray(u, dtype=float))
        if self.frame_mixer is not None:
            jac = jac @ self.frame_mixer
        return jac

    def induced_metric(self, u):
        jac = self.jacobian_at(u)
        return np.einsum("...ai,...aj->...ij", jac, jac)

    def frames(self, u):
        """Orthonormal tangent frames by Gram-Schmidt on Jacobian columns
        in fixed index order; shape (..., n, 2n+2)."""
        jac = self.jacobian_at(u)
        cols = np.moveaxis(jac, -1, 0)  # (n, ..., 2n+2)
        frame = []
        for i in range(self.n):
            v = cols[i]
            for e in frame:
                v = v - np.einsum("...i,...i->...", v, e)[..., None] * e
            norms = np.linalg.norm(v, axis=-1)
            if np.any(norms < 1e-10):
                raise DegenerateImmersionError(
                    f"{self.name}: rank-deficient Jacobian"
                )
            frame.append(v / norms[..., None])
        return np.stack(frame, axis=-2)

    def legendrian_residual(self, resolution=None):
        """max |eta(d_i map)| over quadrature nodes."""
        u, _ = self.nodes(resolution)
        x = self.points(u)
        jac = self.jacobian_at(u)
        jx = self.ambient.apply_J(x)
        return float(np.max(np.abs(np.einsum("...a,...ai->...i", jx, jac))))

    def sqrt_det_metric(self, u):
        g = self.induced_metric(u)
        det = np.linalg.det(g)
        if np.any(det <= 0.0):
            raise DegenerateImmersionError(f"{self.name}: induced metric degenerate")
        return np.sqrt(det)

    def integrate(self, f, resolution=None):
        """Quadrature of a scalar field given on chart coordinates;
        ``sqrt det g`` at the nodes is cached per resolution."""
        res = self.resolve_resolution(resolution)
        u, w = self.nodes(res)
        vals = f(u) if callable(f) else np.asarray(f, dtype=float)
        vals = np.broadcast_to(np.asarray(vals, dtype=float), (len(u),))
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"{self.name}: non-finite integrand at a node")
        key = ("sqrt_g", res)
        if key not in self._node_cache:
            self._node_cache[key] = self.sqrt_det_metric(u)
        # the weights stay out of the cache: vals * (sqrt_g * w) rounds
        # differently from vals * sqrt_g * w
        return float(np.sum(vals * self._node_cache[key] * w))

    def volume(self, resolution=None):
        vol = self.integrate(lambda u: np.ones(len(u)), resolution)
        if vol <= 0.0:
            raise QuadratureError(f"{self.name}: non-positive volume")
        return vol


# ---------------------------------------------------------------------------
# builtin examples


def _stack_real(re, im):
    return np.concatenate([re, im], axis=-1)


def _pack_hessian(rows):
    """Nested [a][b] lists of (..., D) arrays -> (..., D, k, k)."""
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-1)


def great_circle():
    """Real unit circle in S^3: totally geodesic Legendrian."""

    def chart_map(u):
        t = u[..., 0]
        z = np.zeros_like(t)
        return _stack_real(
            np.stack([np.cos(t), np.sin(t)], axis=-1),
            np.stack([z, z], axis=-1),
        )

    def jacobian(u):
        t = u[..., 0]
        z = np.zeros_like(t)
        col = _stack_real(
            np.stack([-np.sin(t), np.cos(t)], axis=-1),
            np.stack([z, z], axis=-1),
        )
        return col[..., None]

    def chart_hessian(u):
        return -chart_map(u)[..., None, None]

    return LegendrianImmersion(
        "great-circle-s3", 1, chart_map, jacobian, PeriodicGridDomain(1), 256,
        chart_hessian=chart_hessian,
    )


def geodesic_sphere(n):
    """Real unit S^n inside S^{2n+1} (imaginary parts zero)."""
    if n == 1:
        circle = great_circle()
        circle.name = "geodesic-sphere-n1"
        return circle
    if n == 2:

        def embed(u):
            th, ph = u[..., 0], u[..., 1]
            return np.stack(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)],
                axis=-1,
            )

        def dembed(u):
            th, ph = u[..., 0], u[..., 1]
            d_th = np.stack(
                [np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)],
                axis=-1,
            )
            d_ph = np.stack(
                [-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), np.zeros_like(th)],
                axis=-1,
            )
            return np.stack([d_th, d_ph], axis=-1)

        def d2embed(u):
            th, ph = u[..., 0], u[..., 1]
            st, ct = np.sin(th), np.cos(th)
            sp, cp = np.sin(ph), np.cos(ph)
            zeros = np.zeros_like(th)
            d_tt = np.stack([-st * cp, -st * sp, -ct], axis=-1)
            d_tp = np.stack([-ct * sp, ct * cp, zeros], axis=-1)
            d_pp = np.stack([-st * cp, -st * sp, zeros], axis=-1)
            return _pack_hessian([[d_tt, d_tp], [d_tp, d_pp]])

        default_res = 24
        name = "geodesic-sphere-n2"
    elif n == 3:

        def embed(u):
            t1, t2, ph = u[..., 0], u[..., 1], u[..., 2]
            s1 = np.sin(t1)
            return np.stack(
                [
                    np.cos(t1),
                    s1 * np.cos(t2),
                    s1 * np.sin(t2) * np.cos(ph),
                    s1 * np.sin(t2) * np.sin(ph),
                ],
                axis=-1,
            )

        def dembed(u):
            t1, t2, ph = u[..., 0], u[..., 1], u[..., 2]
            s1, c1 = np.sin(t1), np.cos(t1)
            s2, c2 = np.sin(t2), np.cos(t2)
            sp, cp = np.sin(ph), np.cos(ph)
            zeros = np.zeros_like(t1)
            d1 = np.stack([-s1, c1 * c2, c1 * s2 * cp, c1 * s2 * sp], axis=-1)
            d2 = np.stack([zeros, -s1 * s2, s1 * c2 * cp, s1 * c2 * sp], axis=-1)
            d3 = np.stack([zeros, zeros, -s1 * s2 * sp, s1 * s2 * cp], axis=-1)
            return np.stack([d1, d2, d3], axis=-1)

        def d2embed(u):
            t1, t2, ph = u[..., 0], u[..., 1], u[..., 2]
            s1, c1 = np.sin(t1), np.cos(t1)
            s2, c2 = np.sin(t2), np.cos(t2)
            sp, cp = np.sin(ph), np.cos(ph)
            zeros = np.zeros_like(t1)
            d11 = np.stack([-c1, -s1 * c2, -s1 * s2 * cp, -s1 * s2 * sp], axis=-1)
            d12 = np.stack([zeros, -c1 * s2, c1 * c2 * cp, c1 * c2 * sp], axis=-1)
            d13 = np.stack([zeros, zeros, -c1 * s2 * sp, c1 * s2 * cp], axis=-1)
            d22 = np.stack([zeros, -s1 * c2, -s1 * s2 * cp, -s1 * s2 * sp], axis=-1)
            d23 = np.stack([zeros, zeros, -s1 * c2 * sp, s1 * c2 * cp], axis=-1)
            d33 = np.stack([zeros, zeros, -s1 * s2 * cp, -s1 * s2 * sp], axis=-1)
            return _pack_hessian([[d11, d12, d13], [d12, d22, d23], [d13, d23, d33]])

        default_res = 12
        name = "geodesic-sphere-n3"
    else:
        raise UnsupportedError(f"no geodesic sphere shipped for n={n}")

    def chart_map(u):
        re = embed(u)
        return _stack_real(re, np.zeros_like(re))

    def jacobian(u):
        dre = dembed(u)
        return np.concatenate([dre, np.zeros_like(dre)], axis=-2)

    def chart_hessian(u):
        dre = d2embed(u)
        return np.concatenate([dre, np.zeros_like(dre)], axis=-3)

    return LegendrianImmersion(
        name, n, chart_map, jacobian, PolarSphereDomain(n), default_res,
        chart_hessian=chart_hessian,
    )


def clifford_torus():
    """Minimal Legendrian flat torus in S^5; induced metric
    (1/3) [[2, 1], [1, 2]] on the periodic (u, v) square."""
    s = 1.0 / np.sqrt(3.0)

    def chart_map(u):
        a, b = u[..., 0], u[..., 1]
        re = np.stack([np.cos(a), np.cos(b), np.cos(a + b)], axis=-1)
        im = np.stack([np.sin(a), np.sin(b), -np.sin(a + b)], axis=-1)
        return s * _stack_real(re, im)

    def jacobian(u):
        a, b = u[..., 0], u[..., 1]
        zeros = np.zeros_like(a)
        d_a = s * np.concatenate(
            [
                np.stack([-np.sin(a), zeros, -np.sin(a + b)], axis=-1),
                np.stack([np.cos(a), zeros, -np.cos(a + b)], axis=-1),
            ],
            axis=-1,
        )
        d_b = s * np.concatenate(
            [
                np.stack([zeros, -np.sin(b), -np.sin(a + b)], axis=-1),
                np.stack([zeros, np.cos(b), -np.cos(a + b)], axis=-1),
            ],
            axis=-1,
        )
        return np.stack([d_a, d_b], axis=-1)

    def chart_hessian(u):
        a, b = u[..., 0], u[..., 1]
        zeros = np.zeros_like(a)
        d_aa = s * np.concatenate(
            [
                np.stack([-np.cos(a), zeros, -np.cos(a + b)], axis=-1),
                np.stack([-np.sin(a), zeros, np.sin(a + b)], axis=-1),
            ],
            axis=-1,
        )
        d_ab = s * np.concatenate(
            [
                np.stack([zeros, zeros, -np.cos(a + b)], axis=-1),
                np.stack([zeros, zeros, np.sin(a + b)], axis=-1),
            ],
            axis=-1,
        )
        d_bb = s * np.concatenate(
            [
                np.stack([zeros, -np.cos(b), -np.cos(a + b)], axis=-1),
                np.stack([zeros, -np.sin(b), np.sin(a + b)], axis=-1),
            ],
            axis=-1,
        )
        return _pack_hessian([[d_aa, d_ab], [d_ab, d_bb]])

    return LegendrianImmersion(
        "clifford-torus-s5", 2, chart_map, jacobian, PeriodicGridDomain(2), 48,
        chart_hessian=chart_hessian,
    )


def builtin_examples(n):
    """The shipped minimal Legendrian immersions of S^{2n+1}."""
    if n == 1:
        return [great_circle()]
    if n == 2:
        return [geodesic_sphere(2), clifford_torus()]
    if n == 3:
        return [geodesic_sphere(3)]
    raise UnsupportedError(f"builtin examples exist for n in {{1, 2, 3}}, got {n}")


def registry():
    """Name -> constructor for CLI addressing."""
    return {
        "great-circle-s3": great_circle,
        "geodesic-sphere-n1": lambda: geodesic_sphere(1),
        "geodesic-sphere-n2": lambda: geodesic_sphere(2),
        "geodesic-sphere-n3": lambda: geodesic_sphere(3),
        "clifford-torus-s5": clifford_torus,
    }


def get_immersion(name):
    reg = registry()
    if name not in reg:
        raise UnsupportedError(
            f"unknown immersion '{name}'; shipped: {sorted(reg)}"
        )
    return reg[name]()


# ---------------------------------------------------------------------------
# second fundamental form


class ShapeData:
    """Frame, second fundamental form and mean curvature at chart points.

    ``frame`` has shape (..., n, 2n+2); ``second_fundamental`` has shape
    (..., n, n, 2n+2) with values normal to the immersion inside the
    sphere; ``mean_curvature`` is its frame trace.
    """

    def __init__(self, frame, second_fundamental, mean_curvature):
        self.frame = frame
        self.second_fundamental = second_fundamental
        self.mean_curvature = mean_curvature

    def mean_curvature_norm(self):
        return float(np.max(np.linalg.norm(self.mean_curvature, axis=-1)))

    def second_fundamental_norm(self):
        return float(np.max(np.linalg.norm(self.second_fundamental, axis=-1)))


def _chart_second_derivatives(L, u, h=1e-4):
    """d_a d_b (chart map) by central differences of the Jacobian,
    symmetrized over the two chart slots."""
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    base = L.jacobian(u)
    out = np.empty(base.shape + (k,))  # (..., D, b, a)
    for a in range(k):
        e = np.zeros(k)
        e[a] = h
        out[..., a] = (L.jacobian(u + e) - L.jacobian(u - e)) / (2.0 * h)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def shape_operator(L, u):
    """Second fundamental form of ``L`` inside the sphere at ``u``.

    Tensorial route: the sphere covariant derivative of coordinate fields
    is ``d_a d_b x + g_ab x``; contracting with the frame coefficients and
    removing the component tangent to ``L`` gives the second fundamental
    form.  Analytic chart Hessians are used when available (they keep the
    computation roundoff-limited near polar chart nodes); otherwise the
    Jacobian is differenced.
    """
    u = np.asarray(u, dtype=float)
    x = L.points(u)
    frame = L.frames(u)
    raw_jac = L.jacobian(u)
    gram = np.einsum("...ai,...aj->...ij", raw_jac, raw_jac)
    gram_inv = np.linalg.inv(gram)
    # chart coefficients of each frame vector: solve jac @ c = e_k
    coeff = np.einsum("...ij,...aj,...ka->...ki", gram_inv, raw_jac, frame)

    if L.chart_hessian is not None:
        hess = L.chart_hessian(u)  # (..., 2n+2, k, k)
    else:
        hess = _chart_second_derivatives(L, u)
    cov = hess + x[..., None, None] * gram[..., None, :, :]
    second = np.einsum("...iab,...Aa,...Bb->...ABi", cov, coeff, coeff)
    # remove the part tangent to L
    tangential = np.einsum(
        "...ABk,...ka->...ABa",
        np.einsum("...ABa,...ka->...ABk", second, frame),
        frame,
    )
    second = second - tangential
    mean = np.einsum("...iia->...a", second)
    return ShapeData(frame, second, mean)


# ---------------------------------------------------------------------------
# normal-bundle split


class NormalSplit:
    """Decomposition of an ambient field along the immersion.

    ``tangent + normal`` reconstructs the input; the normal part is
    encoded by its Reeb component and the chart components of the 1-form
    ``alpha_a = -(1/2) d eta(normal, d_a)``, which together determine it.
    """

    def __init__(self, tangent, normal, reeb_component, one_form):
        self.tangent = tangent
        self.normal = normal
        self.reeb_component = reeb_component
        self.one_form = one_form


def normal_split(L, X, u):
    """Split ``X`` along ``L`` into tangent and normal parts at ``u``.

    ``X`` maps ambient points to ambient vectors (vectorized).  Returns a
    :class:`NormalSplit`; the 1-form uses the pointwise identity
    ``d eta(V, W) = <JV, W>`` valid for vectors tangent to the sphere.
    """
    u = np.asarray(u, dtype=float)
    x = L.points(u)
    frame = L.frames(u)
    vals = X(x)
    coeffs = np.einsum("...a,...ka->...k", vals, frame)
    tangent = np.einsum("...k,...ka->...a", coeffs, frame)
    normal = vals - tangent
    S = L.ambient
    reeb_component = S.eta(x, normal)
    jac = L.jacobian_at(u)
    jnormal = S.apply_J(normal)
    one_form = -0.5 * np.einsum("...a,...ai->...i", jnormal, jac)
    return NormalSplit(tangent, normal, reeb_component, one_form)


def normal_from_split(L, u, reeb_component, one_form):
    """Reconstruct the normal field from its split data.

    Inverts the encoding: the normal bundle of a Legendrian is spanned by
    the Reeb vector and J of the tangent space, and ``one_form`` has
    components ``(1/2) <W, d_a>`` for the tangential potential ``W``.
    """
    u = np.asarray(u, dtype=float)
    x = L.points(u)
    jac = L.jacobian_at(u)
    gram = np.einsum("...ai,...aj->...ij", jac, jac)
    w_coeff = 2.0 * np.einsum("...ij,...j->...i", np.linalg.inv(gram), one_form)
    W = np.einsum("...i,...ai->...a", w_coeff, jac)
    S = L.ambient
    xi = S.reeb(x)
    return np.asarray(reeb_component)[..., None] * xi + S.apply_J(W)
