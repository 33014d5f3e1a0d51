"""Chart-parameterized Legendrian immersions and their induced geometry.

Shipped examples (registered by name for the CLI):

* ``great-circle-s3``      -- t -> (cos t, sin t) on the real circle in S^3
  (alias ``geodesic-sphere-n1``);
* ``geodesic-sphere-n2``   -- the real unit S^2 inside S^5;
* ``geodesic-sphere-n3``   -- the real unit S^3 inside S^7;
* ``clifford-torus-s5``    -- (u, v) -> (e^{iu}, e^{iv}, e^{-i(u+v)}) / sqrt(3).

Each states whether it is totally geodesic, the dimension of its
``2n + 2`` eigenspace and its intrinsic mesh, if any; the suites read
these fields, never the name.

Quadrature follows the domain: uniform (trapezoid) grids on periodic
boxes, Gauss-Legendre x trapezoid products on polar sphere charts.  The
Gauss nodes are interior, so polar singularities are never evaluated.

The per-node tensors every check reads live in one :class:`NodeGeometry`
per immersion and resolution, each built on first read and kept.
"""

import copy
from functools import cached_property

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
    (spectrally accurate) for smooth periodic integrands.  ``periodic``
    selects the finite-difference stencil of
    ``spectral.apply_mesh_operator`` as the intrinsic operator."""

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

    def node_count(self, resolution):
        return resolution**self.k


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

    def node_count(self, resolution):
        return 2 * resolution**self.n


# ---------------------------------------------------------------------------
# the immersion type


class LegendrianImmersion:
    """A parameterized immersion ``L^n -> S^{2n+1}`` with quadrature.

    ``chart_map``, ``jacobian`` and ``chart_hessian`` are vectorized over
    leading axes, the Jacobian having shape ``(..., 2n+2, n)`` and the
    Hessian ``(..., 2n+2, n, n)``.

    ``multiplicity`` is the dimension of the ``2n + 2`` eigenspace and
    ``discretizer`` a ``spectral.MESH_RESOLUTIONS`` key (``None``: none).
    """

    def __init__(self, name, n, chart_map, jacobian, domain, default_resolution,
                 chart_hessian, totally_geodesic=False, multiplicity=None,
                 discretizer=None):
        self.name = name
        self.n = n
        self.ambient = SphereSasaki(n)
        self.chart_map = chart_map
        self.jacobian = jacobian
        self.chart_hessian = chart_hessian
        self.domain = domain
        self.default_resolution = default_resolution
        self.totally_geodesic = totally_geodesic
        self.multiplicity = multiplicity
        self.discretizer = discretizer
        self._geometries = {}

    def with_frame_mixer(self, mixer):
        """A copy, with no node geometry yet, whose chart derivatives are taken
        along the columns of ``mixer``; every scalar output must be
        invariant under this rotation of the Jacobian columns."""
        M = np.asarray(mixer, dtype=float)
        mixed = copy.copy(self)
        mixed.jacobian = lambda u: self.jacobian(u) @ M
        mixed.chart_hessian = lambda u: M.T @ self.chart_hessian(u) @ M
        mixed._geometries = {}
        return mixed

    def resolve_resolution(self, resolution=None):
        return self.default_resolution if resolution is None else int(resolution)

    def node_geometry(self, resolution=None):
        """The :class:`NodeGeometry` of the quadrature at ``resolution``,
        one per resolution for the life of the immersion."""
        res = self.resolve_resolution(resolution)
        if res not in self._geometries:
            self._geometries[res] = NodeGeometry(self, *self.domain.nodes_weights(res))
        return self._geometries[res]

    def nodes(self, resolution=None):
        geo = self.node_geometry(resolution)
        return geo.u, geo.w

    # -- induced geometry --------------------------------------------------

    def points(self, u):
        return self.chart_map(np.asarray(u, dtype=float))

    def jacobian_at(self, u):
        return self.jacobian(np.asarray(u, dtype=float))

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

    def sqrt_det_metric(self, u):
        g = self.induced_metric(u)
        det = np.linalg.det(g)
        if np.any(det <= 0.0):
            raise DegenerateImmersionError(f"{self.name}: induced metric degenerate")
        return np.sqrt(det)

    def integrate(self, f, resolution=None):
        """Quadrature of a scalar field given on chart coordinates, over the
        last (node) axis: values ``(k, N)`` give ``k`` integrals."""
        geo = self.node_geometry(resolution)
        vals = np.asarray(f(geo.u) if callable(f) else f, dtype=float)
        vals = np.broadcast_to(vals, vals.shape[:-1] + (len(geo.u),))
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"{self.name}: non-finite integrand at a node")
        # the weights stay a separate factor: vals * (sqrt_g * w) rounds
        # differently from vals * sqrt_g * w
        return np.sum(vals * geo.sqrt_g * geo.w, axis=-1)

    def volume(self, resolution=None):
        return self.node_geometry(resolution).volume


class NodeGeometry:
    """The per-node tensors of an immersion at chart points ``u`` with
    quadrature weights ``w`` (``None`` off a quadrature), each built on
    first read from the immersion's evaluators and kept: unit points ``x``,
    ``jacobian``, orthonormal ``frame``, induced ``metric``, ``sqrt_g``
    (``sqrt det g``), the :class:`ShapeData` ``shape``, the quadrature
    ``volume`` and two residuals.
    """

    def __init__(self, immersion, u, w=None):
        self.immersion = immersion
        self.u = np.asarray(u, dtype=float)
        self.w = w

    def __getitem__(self, index):
        """The nodes ``index`` selects, with their points, Jacobian and
        frame sliced from this node set's instead of evaluated again."""
        part = NodeGeometry(self.immersion, self.u[index])
        part.x, part.jacobian, part.frame = self.x[index], self.jacobian[index], self.frame[index]
        return part

    @cached_property
    def x(self):
        return self.immersion.points(self.u)

    @cached_property
    def jacobian(self):
        return self.immersion.jacobian_at(self.u)

    @cached_property
    def frame(self):
        return self.immersion.frames(self.u)

    @cached_property
    def metric(self):
        return np.einsum("...ai,...aj->...ij", self.jacobian, self.jacobian)

    @cached_property
    def sqrt_g(self):
        return self.immersion.sqrt_det_metric(self.u)

    @cached_property
    def shape(self):
        return shape_operator(self)

    @cached_property
    def volume(self):
        """Quadrature of the constant 1: the same sum as ``integrate`` of
        ones, since ``1.0 * sqrt_g`` is exact."""
        vol = np.sum(self.sqrt_g * self.w, axis=-1)
        if vol <= 0.0:
            raise QuadratureError(f"{self.immersion.name}: non-positive volume")
        return vol

    @cached_property
    def legendrian_residual(self):
        """max |eta(d_i map)| over the nodes."""
        jx = self.immersion.ambient.apply_J(self.x)
        return float(np.max(np.abs(np.einsum("...a,...ai->...i", jx, self.jacobian))))

    @cached_property
    def mean_curvature_residual(self):
        """max |H| over the nodes."""
        return self.shape.mean_curvature_norm()

    def projector_trace(self, A, radial):
        """``tr(A (radial x x^T - P))`` at each node, ``P = sum_i e_i e_i^T``
        the tangent projector, for a ``(d, d)`` matrix or a ``(k, d, d)``
        stack ``A``; the ``(N, d, d)`` weights are formed in 4096-node
        blocks to bound memory."""
        x, frame = self.x, self.frame
        out = np.empty(np.shape(A)[:-2] + (len(x),))
        for start in range(0, len(x), 4096):
            block = slice(start, start + 4096)
            weights = radial * x[block, :, None] * x[block, None, :]
            weights -= np.einsum("nia,nib->nab", frame[block], frame[block])
            # each output row reads only its own A, so a stacked row equals,
            # bit for bit, the value of that matrix alone (a product over
            # the stack may not)
            out[..., block] = np.einsum("...ab,nab->...n", A, weights)
        return out


# ---------------------------------------------------------------------------
# builtin examples


def _stack_real(re, im):
    return np.concatenate([re, im], axis=-1)


def _pack_hessian(rows):
    """Nested [a][b] lists of (..., D) arrays -> (..., D, k, k)."""
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-1)


def great_circle(name="great-circle-s3"):
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
        name, 1, chart_map, jacobian, PeriodicGridDomain(1), 256,
        chart_hessian=chart_hessian, totally_geodesic=True, multiplicity=2,
        discretizer="circle",
    )


def geodesic_sphere(n):
    """Real unit S^n inside S^{2n+1} (imaginary parts zero)."""
    if n == 1:
        return great_circle(name="geodesic-sphere-n1")
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

        default_res, multiplicity, discretizer = 24, 5, "icosphere"
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

        default_res, multiplicity, discretizer = 12, 9, None
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
        f"geodesic-sphere-n{n}", n, chart_map, jacobian, PolarSphereDomain(n),
        default_res, chart_hessian=chart_hessian, totally_geodesic=True,
        multiplicity=multiplicity, discretizer=discretizer,
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
        chart_hessian=chart_hessian, multiplicity=6, discretizer="torus",
    )


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
    """Second fundamental form and mean curvature at chart points.

    ``second_fundamental`` has shape (..., n, n, 2n+2) with values normal
    to the immersion inside the sphere; ``mean_curvature`` is its frame
    trace.
    """

    def __init__(self, second_fundamental, mean_curvature):
        self.second_fundamental = second_fundamental
        self.mean_curvature = mean_curvature

    def mean_curvature_norm(self):
        return float(np.max(np.linalg.norm(self.mean_curvature, axis=-1)))

    def second_fundamental_norm(self):
        return float(np.max(np.linalg.norm(self.second_fundamental, axis=-1)))


def shape_operator(geo):
    """Second fundamental form of ``geo.immersion`` inside the sphere at the
    nodes of the :class:`NodeGeometry` ``geo``, from its points, frame,
    Jacobian and metric.

    Tensorial route: the sphere covariant derivative of coordinate fields
    is ``d_a d_b x + g_ab x``; contracting with the frame coefficients and
    removing the component tangent to ``L`` gives the second fundamental
    form.  The chart Hessians are analytic, which keeps the computation
    roundoff-limited near polar chart nodes.
    """
    x, frame, gram = geo.x, geo.frame, geo.metric
    gram_inv = np.linalg.inv(gram)
    # chart coefficients of each frame vector: solve jac @ c = e_k
    coeff = np.einsum("...ij,...aj,...ka->...ki", gram_inv, geo.jacobian, frame)

    hess = geo.immersion.chart_hessian(geo.u)  # (..., 2n+2, k, k)
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
    return ShapeData(second, mean)


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


def normal_split(geo, X):
    """Split ``X`` along the immersion into tangent and normal parts at the
    nodes of the :class:`NodeGeometry` ``geo``.

    ``X`` maps ambient points to ambient vectors (vectorized; a stacked
    field adds a leading generator axis to every part).  Returns a
    :class:`NormalSplit`; the 1-form uses the pointwise identity
    ``d eta(V, W) = <JV, W>`` valid for vectors tangent to the sphere.
    """
    x, frame = geo.x, geo.frame
    vals = X(x)
    coeffs = np.einsum("...a,...ka->...k", vals, frame)
    tangent = np.einsum("...k,...ka->...a", coeffs, frame)
    normal = vals - tangent
    S = geo.immersion.ambient
    reeb_component = S.eta(x, normal)
    jnormal = S.apply_J(normal)
    one_form = -0.5 * np.einsum("...a,...ai->...i", jnormal, geo.jacobian)
    return NormalSplit(tangent, normal, reeb_component, one_form)


def normal_from_split(geo, reeb_component, one_form):
    """Reconstruct the normal field from its split data at the nodes of
    ``geo``.

    Inverts the encoding: the normal bundle of a Legendrian is spanned by
    the Reeb vector and J of the tangent space, and ``one_form`` has
    components ``(1/2) <W, d_a>`` for the tangential potential ``W``.
    """
    w_coeff = 2.0 * np.einsum("...ij,...j->...i", np.linalg.inv(geo.metric), one_form)
    W = np.einsum("...i,...ai->...a", w_coeff, geo.jacobian)
    S = geo.immersion.ambient
    xi = S.reeb(geo.x)
    return np.asarray(reeb_component)[..., None] * xi + S.apply_J(W)
