"""Legendrian immersions as orbits of u(n+1) generators, and their geometry.

An immersion is the orbit map ``x(u) = exp(u_n A_n) ... exp(u_1 A_1) x_0``
of ``n`` generators through a unit base point, on a chart domain that
names its intrinsic mesh, if any.  That is all a row states: the dimension
of its ``2n + 2`` eigenspace, and with it whether it is totally geodesic,
is measured (``moment.quadratic_ritz``), and the suites never read the
name.  Shipped examples (registered by name for the CLI), generators in
factor order, ``A_kl`` turning ``e_k`` toward ``e_l``:

* ``great-circle-s3`` (alias ``geodesic-sphere-n1``): ``A_12`` through
  ``e_1``, the real circle t -> (cos t, sin t) in S^3;
* ``geodesic-sphere-n2``: ``A_zx``, ``A_xy`` through ``e_z``, the real unit
  S^2 (th, ph) -> (sin th cos ph, sin th sin ph, cos th) in S^5;
* ``geodesic-sphere-n3``: ``A_12``, ``A_23``, ``A_34`` through ``e_1``, the
  real unit S^3 (t1, t2, ph) -> (cos t1, sin t1 cos t2, sin t1 sin t2 cos ph,
  sin t1 sin t2 sin ph) in S^7;
* ``clifford-torus-s5``: ``i diag(1, 0, -1)``, ``i diag(0, 1, -1)`` through
  (1, 1, 1) / sqrt(3), the torus (u, v) -> (e^{iu}, e^{iv}, e^{-i(u+v)}) /
  sqrt(3) in S^5.

Quadrature follows the domain: uniform (trapezoid) grids on periodic
boxes; on polar sphere charts, products of a trapezoid azimuth and Gauss
rules in ``cos th`` for the weight ``sin th`` or ``sin^2 th`` that
``sqrt det g`` carries (Gauss-Legendre, Gauss-Chebyshev of the second
kind), exact for ambient polynomials of degree ``<= 2R - 1`` at resolution
``R`` (Stroud 1971; Golub and Welsch 1969).  The Gauss nodes are interior,
so polar singularities are never evaluated.  Each domain's
``resolution_for(p)`` is the least resolution exact to degree ``p``, and
every default node set is ``resolution_for(QUADRATURE_DEGREE)``.

The per-node tensors every check reads live in one :class:`NodeGeometry`
per immersion and resolution, each built on first read and kept; a node
set read only once is built as its own ``NodeGeometry``, which no cache
keeps.
"""

import copy
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateImmersionError,
    EvaluationError,
    InvalidFieldError,
    InvalidPointError,
    QuadratureError,
    UnsupportedError,
)
from .moment import AutomorphismField, _real_form
from .sasaki import SphereSasaki


# Degree of the ambient polynomials every default node set integrates
# exactly.  Both eigenfunction families are quadratic forms, so the records
# integrate degree <= 4; 6 also covers products of cubics.
QUADRATURE_DEGREE = 6

# Nodes per block where a pass over a large node set forms its per-node
# tensors a block at a time, to bound memory.
NODE_BLOCK = 2048


# ---------------------------------------------------------------------------
# quadrature domains


class PeriodicGridDomain:
    """Uniform tensor grid on [0, 2 pi)^dim.  ``R`` trapezoid nodes per axis
    integrate ``e^{ik.u}`` exactly for ``|k_j| <= R - 1``, and an ambient
    polynomial of degree ``p`` on the shipped orbits has ``|k_j| <= p``.
    ``periodic`` selects the finite-difference stencil of
    ``spectral.apply_mesh_operator`` as the intrinsic operator, on the
    ``mesh`` grid (``circle`` or ``torus``)."""

    def __init__(self, dim):
        self.dim = dim
        self.periodic = True
        self.mesh = {1: "circle", 2: "torus"}.get(dim)

    def resolution_for(self, degree):
        return degree + 1

    def nodes_weights(self, resolution):
        ax = np.arange(resolution) * (2.0 * np.pi / resolution)
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        w = np.full(len(nodes), (2.0 * np.pi / resolution) ** self.dim)
        return nodes, w

    def grid_shape(self, resolution):
        return (resolution,) * self.dim

    def node_count(self, resolution):
        return resolution**self.dim


class PolarSphereDomain:
    """Polar chart of S^dim, ``sqrt det g = sin^{dim-1} th_1 ... sin th_{dim-1}``:
    a Gauss rule in ``t = cos th`` for the Jacobi weight each polar angle
    carries, trapezoid on the periodic azimuth.

    An angle with factor ``sin th`` takes Gauss-Legendre nodes ``t_j``,
    ``th_j = arccos(-t_j)``, with chart weight ``v_j / sin th_j``; the
    first angle of S^3, factor ``sin^2 th``, takes Gauss-Chebyshev nodes of
    the second kind, ``th_j = j pi / (R + 1)``, each with chart weight
    ``pi / (R + 1)``.  So ``R`` nodes per angle and ``2R`` in azimuth
    integrate every ambient polynomial of degree ``<= 2R - 1`` exactly
    (Stroud, *Approximate Calculation of Multiple Integrals*, 1971; Golub
    and Welsch, Math. Comp. 23, 1969); ``R = 1`` is exact for degree 1
    only.  The nodes are interior, so the poles are never evaluated.  The
    intrinsic ``mesh`` is the icosphere on S^2; S^3 has none."""

    def __init__(self, dim):
        if dim not in (2, 3):
            raise UnsupportedError(f"no polar quadrature for S^{dim}")
        self.dim = dim
        self.periodic = False
        self.mesh = "icosphere" if dim == 2 else None

    def resolution_for(self, degree):
        return degree // 2 + 1

    def nodes_weights(self, resolution):
        polar_axes = []
        if self.dim == 3:  # sin^2 th_1
            theta = np.arange(1, resolution + 1) * (np.pi / (resolution + 1))
            polar_axes.append((theta, np.full(resolution, np.pi / (resolution + 1))))
        t, v = np.polynomial.legendre.leggauss(resolution)  # sin th of the last angle
        theta = np.arccos(-t)
        polar_axes.append((theta, v / np.sin(theta)))
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
        return 2 * resolution**self.dim


# ---------------------------------------------------------------------------
# the immersion type


def _turn(v, A, s, c, out, scratch, products):
    """Write ``exp(tA) v`` into ``out`` (``v`` itself, or a new array when
    ``v`` is broadcast) at ``s = sin t``, ``c = cos t`` for ``A^3 = -A``,
    grouped as ``((v + A^2 v) + s A v) - c A^2 v`` so a component outside the
    plane of ``A`` is exact; return ``A v`` and ``A^2 v``, written into the
    pair ``products`` unless ``v`` is broadcast.  ``scratch`` holds each
    scaled product in turn."""
    av, a2v = products if v.shape == out.shape else (None, None)
    av = np.matmul(A, v, out=av)
    a2v = np.matmul(A, av, out=a2v)
    np.add(v, a2v, out=out)
    out += np.multiply(s, av, out=scratch)
    out -= np.multiply(c, a2v, out=scratch)
    return av, a2v


def _derivative(av, a2v, s, c, scratch):
    """``c A v + s A^2 v``, the derivative of ``exp(tA) v`` in ``t``, as a new
    array; ``scratch`` holds ``s A^2 v``."""
    out = np.multiply(c, av)
    out += np.multiply(s, a2v, out=scratch)
    return out


class LegendrianImmersion:
    """An immersion ``L^n -> S^{2n+1}``, the orbit map
    ``x(u) = exp(u_n A_n) ... exp(u_1 A_1) x_0`` of its ``n`` generators
    through the unit ``base_point``, with quadrature on ``domain``.

    Each generator is a real ``(2n+2) x (2n+2)`` matrix of ``u(n+1)`` in
    the stacked layout (``moment.AutomorphismField`` checks it) with
    ``A^3 = -A``, so each factor is exact by Rodrigues' formula.  Points,
    Jacobian ``(..., 2n+2, n)`` and Hessian ``(..., 2n+2, n, n)`` are
    vectorized over leading axes of the chart points.

    The intrinsic mesh, if any, is ``domain.mesh``, and the default
    quadrature is ``domain.resolution_for(QUADRATURE_DEGREE)``.
    """

    def __init__(self, name, generators, base_point, domain):
        n = len(generators)
        if n != domain.dim:
            raise InvalidFieldError(f"{name}: {n} generators for a {domain.dim}-dimensional chart")
        A = AutomorphismField(generators, n, name).generator
        if np.max(np.abs(A @ A @ A + A)) > 1e-12:
            raise InvalidFieldError(f"{name}: every generator must satisfy A^3 = -A")
        x0 = np.asarray(base_point, dtype=float)
        if x0.shape != (2 * n + 2,) or abs(np.linalg.norm(x0) - 1.0) > 1e-12:
            raise InvalidPointError(f"{name}: base point must be a unit vector in R^{2 * n + 2}")
        self.name = name
        self.n = n
        self.ambient = SphereSasaki(n)
        self.generators = A
        self.base_point = x0
        self.domain = domain
        self._mixer = None
        self._geometries = {}

    def with_frame_mixer(self, mixer):
        """A copy, with no node geometry yet, whose chart derivatives are taken
        along the columns of ``mixer``; every scalar output must be
        invariant under this rotation of the Jacobian columns."""
        mixed = copy.copy(self)
        mixed._mixer = np.asarray(mixer, dtype=float) if self._mixer is None else self._mixer @ mixer
        mixed._geometries = {}
        return mixed

    def resolve_resolution(self, resolution=None):
        if resolution is None:
            return self.domain.resolution_for(QUADRATURE_DEGREE)
        return int(resolution)

    def node_geometry(self, resolution=None):
        """The :class:`NodeGeometry` of the quadrature at ``resolution``,
        one per resolution for the life of the immersion."""
        res = self.resolve_resolution(resolution)
        if res not in self._geometries:
            self._geometries[res] = NodeGeometry(self, *self.domain.nodes_weights(res), res)
        return self._geometries[res]

    def nodes(self, resolution=None):
        geo = self.node_geometry(resolution)
        return geo.u, geo.w

    # -- induced geometry --------------------------------------------------

    def _orbit(self, u, order):
        """Points, Jacobian columns (``order`` >= 1) and Hessian entries
        ``(b, a)``, ``b <= a`` (``order`` 2) in one sweep, as ``(2n+2, N)``
        arrays over the flattened nodes (faster than node-major rows).
        Column ``a`` is ``A_a`` applied after factor ``a``, entry ``(b, a)`` is
        ``A_a`` applied to column ``b`` after it and ``(a, a)`` is ``A_a^2``
        applied to the point.  Each factor turns the arrays in place, so
        the sweep holds its outputs, one scratch array and the two products
        of the current turn."""
        nodes = np.asarray(u, dtype=float).reshape(-1, self.n)
        shape = (len(self.base_point), len(nodes))
        x, cols, hess = self.base_point[:, None], [], {}
        scratch, products = np.empty(shape), (np.empty(shape), np.empty(shape))
        for a, A in enumerate(self.generators):
            s, c = np.sin(nodes[:, a]), np.cos(nodes[:, a])
            for h in hess.values():
                _turn(h, A, s, c, h, scratch, products)
            for b, col in enumerate(cols):
                av, a2v = _turn(col, A, s, c, col, scratch, products)
                if order == 2:
                    hess[b, a] = _derivative(av, a2v, s, c, scratch)
            # the base point is broadcast over the nodes until its first turn
            turned = x if a else np.empty(shape)
            ax, a2x = _turn(x, A, s, c, turned, scratch, products)
            x = turned
            if order >= 1:
                cols.append(_derivative(ax, a2x, s, c, scratch))
            if order == 2:
                second = np.multiply(c, a2x)
                second -= np.multiply(s, ax, out=scratch)
                hess[a, a] = second
        return x, cols, hess

    @staticmethod
    def _nodewise(u, vectors, trailing=()):
        """The sweep's ``(2n+2, N)`` vectors, keyed by index, written into one
        C-ordered ``(N, 2n+2) + trailing`` array, whose transpose the index
        selects, and shaped per chart point."""
        values = np.empty(next(iter(vectors.values())).shape[::-1] + trailing)
        for index, vector in vectors.items():
            values.T[index] = vector
        return values.reshape(np.shape(u)[:-1] + values.shape[1:])

    def points(self, u, sweep=None):
        """Unit points at chart points ``u``, from ``sweep`` (an ``_orbit``
        of ``u``) if given."""
        sweep = self._orbit(u, 0) if sweep is None else sweep
        return self._nodewise(u, {...: sweep[0]})

    def jacobian_at(self, u, sweep=None):
        """Jacobian at chart points ``u``, from ``sweep`` (an ``_orbit`` of
        ``u`` of order 1 or 2) if given."""
        sweep = self._orbit(u, 1) if sweep is None else sweep
        jac = self._nodewise(u, dict(enumerate(sweep[1])), (self.n,))
        return jac if self._mixer is None else jac @ self._mixer

    def hessian_at(self, u):
        entries, n = self._orbit(u, 2)[2], self.n
        hess = self._nodewise(u, {(a, b): entries[min(a, b), max(a, b)]
                                  for a in range(n) for b in range(n)}, (n, n))
        return hess if self._mixer is None else self._mixer.T @ hess @ self._mixer

    def induced_metric(self, u, jacobian=None):
        jac = self.jacobian_at(u) if jacobian is None else jacobian
        return np.einsum("...ai,...aj->...ij", jac, jac)

    def frames(self, u, jacobian=None, norms=None):
        """Orthonormal tangent frames by Gram-Schmidt on Jacobian columns
        in fixed index order; shape (..., n, 2n+2).  ``norms``, an
        ``(..., n)`` array if given, receives the norm of each column less
        its projection on the earlier ones."""
        jac = self.jacobian_at(u) if jacobian is None else jacobian
        frame = []
        for i, v in enumerate(np.moveaxis(jac, -1, 0)):  # columns (..., 2n+2)
            for e in frame:
                v = v - np.einsum("...i,...i->...", v, e)[..., None] * e
            norm = np.linalg.norm(v, axis=-1)
            if np.any(norm < 1e-10):
                raise DegenerateImmersionError(f"{self.name}: rank-deficient Jacobian")
            if norms is not None:
                norms[..., i] = norm
            frame.append(v / norm[..., None])
        return np.stack(frame, axis=-2)

    def sqrt_det_metric(self, u, jacobian=None, norms=None):
        """``sqrt det g`` from the Gram-Schmidt norms of ``frames`` (given
        as ``norms``, or formed here): the Jacobian is ``E^T R`` with ``R``
        upper triangular and ``R_ii`` the ``i``-th norm, so ``det g = det(R^T
        R) = prod_i R_ii^2``."""
        if norms is None:
            jac = self.jacobian_at(u) if jacobian is None else jacobian
            norms = np.empty(np.shape(jac)[:-2] + (self.n,))
            self.frames(u, jac, norms)
        sqrt_g = np.prod(norms, axis=-1)
        if np.any(sqrt_g <= 0.0):
            raise DegenerateImmersionError(f"{self.name}: induced metric degenerate")
        return sqrt_g

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

    def gram(self, a, b, resolution):
        """The ``(k, l)`` quadrature of ``a_A . b_B`` over the rows of the
        stacks ``a`` and ``b``, ``(k, N, ...)``, any axes after the node axis
        contracted at each node; non-finite values raise as in ``integrate``."""
        geo = self.node_geometry(resolution)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise EvaluationError(f"{self.name}: non-finite integrand at a node")
        weights = np.reshape(geo.sqrt_g * geo.w, (-1,) + (1,) * (np.ndim(a) - 2))
        return np.reshape(a * weights, (len(a), -1)) @ np.reshape(b, (len(b), -1)).T

    def volume(self, resolution=None):
        return self.node_geometry(resolution).volume


class NodeGeometry:
    """The per-node tensors of an immersion at chart points ``u`` with
    quadrature weights ``w`` of ``resolution`` (both ``None`` off a
    quadrature), each built on first read from the immersion's evaluators
    and kept: unit points ``x``, ``jacobian``, orthonormal ``frame``,
    induced ``metric``, ``sqrt_g`` (``sqrt det g``), the :class:`ShapeData`
    ``shape``, the quadrature ``volume`` and ``second_moment`` and the
    Legendrian residual.  The points and the Jacobian come from one sweep
    of the orbit; ``frame``, ``metric`` and ``sqrt_g`` are given that
    ``jacobian``, and ``sqrt_g`` the Gram-Schmidt norms of ``frame``.
    """

    def __init__(self, immersion, u, w=None, resolution=None):
        self.immersion = immersion
        self.u = np.asarray(u, dtype=float)
        self.w = w
        self.resolution = resolution

    def __getitem__(self, index):
        """The nodes ``index`` selects, with their points, Jacobian and
        frame sliced from this node set's instead of evaluated again."""
        part = NodeGeometry(self.immersion, self.u[index])
        part.x, part.jacobian, part.frame = self.x[index], self.jacobian[index], self.frame[index]
        return part

    @cached_property
    def _points_jacobian(self):
        L = self.immersion
        sweep = L._orbit(self.u, 1)
        return L.points(self.u, sweep), L.jacobian_at(self.u, sweep)

    @cached_property
    def x(self):
        return self._points_jacobian[0]

    @cached_property
    def jacobian(self):
        return self._points_jacobian[1]

    @cached_property
    def _frame_norms(self):
        # nan until frames writes them, so a frames that does not leaves
        # sqrt det g nan rather than arbitrary
        norms = np.full(self.u.shape[:-1] + (self.immersion.n,), np.nan)
        return self.immersion.frames(self.u, self.jacobian, norms), norms

    @cached_property
    def frame(self):
        return self._frame_norms[0]

    @cached_property
    def metric(self):
        return self.immersion.induced_metric(self.u, self.jacobian)

    @cached_property
    def sqrt_g(self):
        return self.immersion.sqrt_det_metric(self.u, self.jacobian, self._frame_norms[1])

    @cached_property
    def shape(self):
        return shape_operator(self)

    @cached_property
    def volume(self):
        """``integrate`` of the constant 1 at this node set's resolution."""
        if self.resolution is None:
            raise QuadratureError(f"{self.immersion.name}: nodes off a quadrature have no volume")
        vol = self.immersion.integrate(1.0, self.resolution)
        if vol <= 0.0:
            raise QuadratureError(f"{self.immersion.name}: non-positive volume")
        return vol

    @cached_property
    def second_moment(self):
        """The quadrature of ``x x^T``, ``sum_nodes w sqrt_g x x^T``; every
        integral of a quadratic form is read from it.  Each entry is a
        pairwise sum over the contiguous node axis, as in ``integrate``, a
        row of the upper triangle at a time (a BLAS product sums each entry
        in one running total, several ulps off on large node sets).  A
        non-finite point or weight raises as in ``integrate``."""
        weights = self.sqrt_g * self.w
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(weights))):
            raise EvaluationError(f"{self.immersion.name}: non-finite integrand at a node")
        xt = self.x.T.copy()
        weighted = xt * weights
        moment = np.empty((len(xt),) * 2)
        for a in range(len(xt)):
            moment[a, a:] = moment[a:, a] = np.sum(weighted[a] * xt[a:], axis=-1)
        return moment

    @cached_property
    def legendrian_residual(self):
        """max |eta(d_i map)| over the nodes."""
        jx = self.immersion.ambient.apply_J(self.x)
        return float(np.max(np.abs(np.einsum("...a,...ai->...i", jx, self.jacobian))))

    def projector_trace(self, A, radial):
        """``tr(A (radial x x^T - P))`` at each node, ``P = sum_i e_i e_i^T``
        the tangent projector, for a ``(d, d)`` matrix or a ``(k, d, d)``
        stack ``A``; the ``(N, d, d)`` weights are formed in ``NODE_BLOCK``-node
        blocks to bound memory."""
        x, frame = self.x, self.frame
        out = np.empty(np.shape(A)[:-2] + (len(x),))
        for start in range(0, len(x), NODE_BLOCK):
            block = slice(start, start + NODE_BLOCK)
            weights = radial * x[block, :, None] * x[block, None, :]
            weights -= np.einsum("nia,nib->nab", frame[block], frame[block])
            # each output row reads only its own A, so a stacked row equals,
            # bit for bit, the value of that matrix alone (a product over
            # the stack may not)
            out[..., block] = np.einsum("...ab,nab->...n", A, weights)
        return out


# ---------------------------------------------------------------------------
# builtin examples


def _rotation(m, k, l):
    """``A_kl`` in ``u(m)``: the real rotation turning ``e_k`` toward ``e_l``
    (1-based indices)."""
    A = np.zeros((m, m))
    A[l - 1, k - 1], A[k - 1, l - 1] = 1.0, -1.0
    return _real_form(A, 0.0 * A)


def _phase(*diagonal):
    """``i diag(diagonal)`` in ``u(m)``."""
    return _real_form(np.zeros((len(diagonal),) * 2), np.diag(diagonal))


def great_circle(name="great-circle-s3"):
    """Real unit circle in S^3: totally geodesic Legendrian."""
    return LegendrianImmersion(name, [_rotation(2, 1, 2)], np.eye(4)[0], PeriodicGridDomain(1))


def geodesic_sphere(n):
    """Real unit S^n inside S^{2n+1} (imaginary parts zero)."""
    if n == 1:
        return great_circle(name="geodesic-sphere-n1")
    if n == 2:  # A_zx, then A_xy, through e_z
        generators, base = [_rotation(3, 3, 1), _rotation(3, 1, 2)], np.eye(6)[2]
    elif n == 3:  # A_12, A_23, A_34 through e_1
        generators, base = [_rotation(4, 1, 2), _rotation(4, 2, 3), _rotation(4, 3, 4)], np.eye(8)[0]
    else:
        raise UnsupportedError(f"no geodesic sphere shipped for n={n}")
    return LegendrianImmersion(f"geodesic-sphere-n{n}", generators, base, PolarSphereDomain(n))


def clifford_torus():
    """Minimal Legendrian flat torus in S^5; induced metric
    (1/3) [[2, 1], [1, 2]] on the periodic (u, v) square."""
    return LegendrianImmersion(
        "clifford-torus-s5", [_phase(1, 0, -1), _phase(0, 1, -1)],
        np.concatenate([np.full(3, 1.0 / np.sqrt(3.0)), np.zeros(3)]), PeriodicGridDomain(2),
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
    form.  The chart Hessians are exact, which keeps the computation
    roundoff-limited near polar chart nodes.
    """
    x, frame, gram = geo.x, geo.frame, geo.metric
    gram_inv = np.linalg.inv(gram)
    # chart coefficients of each frame vector: solve jac @ c = e_k
    coeff = np.einsum("...ij,...aj,...ka->...ki", gram_inv, geo.jacobian, frame)

    hess = geo.immersion.hessian_at(geo.u)  # (..., 2n+2, k, k)
    cov = hess + x[..., None, None] * gram[..., None, :, :]
    second = np.einsum("...iab,...Aa,...Bb->...ABi", cov, coeff, coeff)
    # remove the part tangent to L
    along = np.einsum("...ABa,...ka->...ABk", second, frame)
    second = second - np.einsum("...ABk,...ka->...ABa", along, frame)
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
