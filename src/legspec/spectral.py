"""Laplacian pipelines: pointwise extrinsic values and mesh spectra.

Two independent routes to the same operator:

* :func:`extrinsic_laplacian` gives the Laplacian of a quadratic form
  restricted to a minimal ``L`` in closed form, pointwise (no
  discretization of the manifold); :func:`stencil_laplacian` checks it
  with a five-point stencil of the flat-cone Hessian;
* :func:`mesh_spectrum` diagonalizes an intrinsic discretization of
  the induced metric (periodic finite differences on the circle and
  torus, cotangent finite elements on the icosphere).

Both use the nonnegative sign convention: the spectrum of the round
circle is ``k^2``, of the round 2-sphere ``l (l + 1)``.

The pointwise functions accept a function family stacked over a leading
axis (values ``(k, N)``, see ``moment``) and reduce over nodes only.
"""

import numpy as np

from .config import FD_LAPLACIAN, ZERO_FUNCTION
from .errors import PreconditionError, UnsupportedError
from .icosphere import cotangent_laplacian, icosphere, reflection_sectors


# ---------------------------------------------------------------------------
# pointwise extrinsic pipeline


def extrinsic_laplacian(L, Q, u):
    """Laplacian along ``L`` at chart points of the quadratic forms ``Q``.

    ``Q`` is symmetric, ``(d, d)`` or a ``(k, d, d)`` stack, and stands for
    ``f(x) = x^T Q x`` on the unit sphere (a constant added to ``f`` does
    not change the value).  ``L`` must be minimal, with mean-curvature
    residual at most 1e-6 (checked first).  Then, with unit points ``x``
    and tangent projector ``P = sum_i e_i e_i^T``, the value is exact:

        Lap f = 2 tr(Q (n x x^T - P)),

    since along a unit ``e`` orthogonal to ``x`` the radially constant
    extension of ``f`` has second derivative ``2 e^T Q e - 2 x^T Q x``.
    """
    u = np.asarray(u, dtype=float)
    worst = L.mean_curvature_residual()
    if worst > 1e-6:
        raise PreconditionError(
            f"{L.name}: mean-curvature residual {worst:.2e} exceeds 1.0e-06; "
            "the frame-trace Laplacian holds only for minimal immersions"
        )
    x = L.points(u)
    frame = L.frames(u)
    lap = np.empty(np.shape(Q)[:-2] + (len(x),))
    # (N, d, d) weights in 4096-node blocks to bound memory
    for start in range(0, len(x), 4096):
        block = slice(start, start + 4096)
        weights = L.n * x[block, :, None] * x[block, None, :]
        weights -= np.swapaxes(frame[block], -1, -2) @ frame[block]
        # each output row reads only its own Q, so a stacked row equals, bit
        # for bit, the value of that form alone (a product over the stack
        # may not)
        lap[..., block] = np.einsum("...ab,nab->...n", Q, weights)
    return 2.0 * lap


def stencil_laplacian(L, F, u):
    """Five-point stencil of ``-sum_i Hess F(e_i, e_i)`` along straight
    ambient lines through each orthonormal frame direction ``e_i`` of ``L``
    at chart points ``u``: the Laplacian of an ambient scalar field ``F``
    that does not depend on the radius, on a minimal ``L``, up to the
    stencil's ``FD_LAPLACIAN^4`` truncation.  It cross-checks
    :func:`extrinsic_laplacian` without sharing its algebra.
    """
    x = L.points(u)
    frame = L.frames(u)
    h = FD_LAPLACIAN
    total = np.zeros(x.shape[:-1])
    for i in range(L.n):
        d = frame[..., i, :]
        total = total + (
            -F(x + 2.0 * h * d)
            + 16.0 * F(x + h * d)
            - 30.0 * F(x)
            + 16.0 * F(x - h * d)
            - F(x - 2.0 * h * d)
        ) / (12.0 * h**2)
    return -total


class EigenResidual:
    """Relative residual of the eigen-equation, one entry per function of
    a stacked family."""

    def __init__(self, residual, degenerate, sup_norm):
        self.residual = residual
        self.degenerate = degenerate
        self.sup_norm = sup_norm


def eigen_residual(L, f, eigenvalue, resolution=None):
    """max |Lap f - lambda f| / max |f| over quadrature nodes.

    ``f`` is a family of quadratic forms (``moment.MomentFunction`` or
    ``nomizu.NomizuFunction``): its values come from ``f.ambient`` and its
    Laplacian from ``f.quadratic_form`` in closed form.  A zero function
    (sup norm at most ``ZERO_FUNCTION``) is reported as residual 0 with
    ``degenerate`` set; the Laplacian is skipped only when every function
    is zero.
    """
    u, _ = L.nodes(resolution)
    fvals = f.ambient(L.points(u))
    sup = np.max(np.abs(fvals), axis=-1)
    degenerate = sup <= ZERO_FUNCTION
    if np.all(degenerate):
        return EigenResidual(np.zeros_like(sup), degenerate, sup)
    lap = extrinsic_laplacian(L, f.quadratic_form, u)
    worst = np.max(np.abs(lap - eigenvalue * fvals), axis=-1)
    res = np.where(degenerate, 0.0, worst / np.where(degenerate, 1.0, sup))
    return EigenResidual(res, degenerate, sup)


def rayleigh_quotient(L, f, resolution=None):
    """Quadrature Rayleigh quotient: integral |grad f|^2 / integral f^2.

    ``f`` is a family of quadratic forms, as for :func:`eigen_residual`.
    The gradient is exact: the chart derivatives of the unit points are
    tangent to the sphere, so ``d_a f = 2 (Q x) . d_a x``, raised with the
    inverse induced metric.  An eigensolver-free check of the eigenvalue;
    a zero function (sup norm at most ``ZERO_FUNCTION``) has none and
    gives nan.
    """
    u, _ = L.nodes(resolution)
    x = L.points(u)
    fvals = f.ambient(x)
    qx = np.einsum("...ab,nb->...na", f.quadratic_form, x)
    grad = 2.0 * np.einsum("...na,nai->...ni", qx, L.jacobian_at(u))
    ginv = np.linalg.inv(L.induced_metric(u))
    sq = np.einsum("...a,...ab,...b->...", grad, ginv, grad)
    num = L.integrate(sq, resolution)
    den = L.integrate(fvals**2, resolution)
    zero = np.max(np.abs(fvals), axis=-1) <= ZERO_FUNCTION
    return np.where(zero, np.nan, num / np.where(zero, 1.0, den))


# ---------------------------------------------------------------------------
# intrinsic mesh pipeline


MESH_RESOLUTIONS = {
    "circle": (64, 4096),
    "torus": (32, 256),
    "icosphere": (3, 6),
}


def mesh_resolution(kind, resolution=None):
    """The ``kind`` mesh resolution to use: the finest shipped one for
    ``None``; a value outside ``MESH_RESOLUTIONS[kind]`` is a usage error."""
    lo, hi = MESH_RESOLUTIONS[kind]
    resolution = hi if resolution is None else int(resolution)
    if not lo <= resolution <= hi:
        raise UnsupportedError(
            f"{kind} resolution {resolution} outside shipped range [{lo}, {hi}]"
        )
    return resolution


class SpectralReport:
    """Discrete spectrum with multiplicity bookkeeping at a target."""

    def __init__(self, eigenvalues, resolution, method, target, window, bound):
        self.eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))
        self.resolution = resolution
        self.method = method
        self.target = float(target)
        self.window = float(window)
        self.bound = int(bound)

    @property
    def first_eigenvalue(self):
        return float(self.eigenvalues[0])

    @property
    def cluster(self):
        lo = self.target * (1.0 - self.window)
        hi = self.target * (1.0 + self.window)
        ev = self.eigenvalues
        return ev[(ev >= lo) & (ev <= hi)]

    @property
    def multiplicity(self):
        return int(len(self.cluster))

    @property
    def cluster_mean(self):
        c = self.cluster
        return float(np.mean(c)) if len(c) else float("nan")

    def separation_ratio(self):
        """Distance of the nearest outside eigenvalue to the target,
        in units of the window half-width."""
        lo = self.target * (1.0 - self.window)
        hi = self.target * (1.0 + self.window)
        ev = self.eigenvalues
        outside = ev[(ev < lo) | (ev > hi)]
        if len(outside) == 0:
            return float("inf")
        return float(np.min(np.abs(outside - self.target)) / (self.target * self.window))

    def summary(self):
        return {
            "method": self.method,
            "resolution": self.resolution,
            "target": self.target,
            "window": self.window,
            "multiplicity": self.multiplicity,
            "bound": self.bound,
            "cluster_mean": self.cluster_mean,
            "separation_ratio": self.separation_ratio(),
            "first_eigenvalue": self.first_eigenvalue,
        }


def _intrinsic_kind(L):
    if L.discretizer is None:
        raise UnsupportedError(
            f"no intrinsic discretizer for '{L.name}' (pointwise pipeline still applies)"
        )
    return L.discretizer


def _fd_symbol_circle(L, N):
    # second-order periodic stencil on the arclength grid
    g = L.induced_metric(np.zeros(1))[0, 0]
    h = 2.0 * np.pi / N * np.sqrt(g)
    k = np.arange(N)
    return (2.0 - 2.0 * np.cos(2.0 * np.pi * k / N)) / h**2


def _fd_symbol_torus(L, N):
    # constant-coefficient stencil from the inverse induced metric
    ginv = np.linalg.inv(L.induced_metric(np.zeros(2)))
    a, b, c = ginv[0, 0], ginv[1, 1], ginv[0, 1]
    h = 2.0 * np.pi / N
    k = np.fft.fftfreq(N, d=1.0 / N)  # integer modes
    kp = k[:, None] * h
    kq = k[None, :] * h
    sym = (
        a * (2.0 - 2.0 * np.cos(kp))
        + b * (2.0 - 2.0 * np.cos(kq))
        + 2.0 * c * np.sin(kp) * np.sin(kq)
    ) / h**2
    return sym.ravel()


def apply_mesh_operator(L, grid_values):
    """Apply the intrinsic stencil to sampled grid values (circle/torus),
    the grid being the trailing one (circle) or two (torus) axes."""
    kind = _intrinsic_kind(L)
    v = np.asarray(grid_values, dtype=float)
    if kind == "circle":
        g = L.induced_metric(np.zeros(1))[0, 0]
        h = 2.0 * np.pi / v.shape[-1] * np.sqrt(g)
        return (2.0 * v - np.roll(v, 1, -1) - np.roll(v, -1, -1)) / h**2
    if kind == "torus":
        ginv = np.linalg.inv(L.induced_metric(np.zeros(2)))
        a, b, c = ginv[0, 0], ginv[1, 1], ginv[0, 1]
        h = 2.0 * np.pi / v.shape[-1]
        d_uu = (np.roll(v, 1, -2) - 2.0 * v + np.roll(v, -1, -2)) / h**2
        d_vv = (np.roll(v, 1, -1) - 2.0 * v + np.roll(v, -1, -1)) / h**2
        d_uv = (
            np.roll(np.roll(v, -1, -2), -1, -1)
            - np.roll(np.roll(v, -1, -2), 1, -1)
            - np.roll(np.roll(v, 1, -2), -1, -1)
            + np.roll(np.roll(v, 1, -2), 1, -1)
        ) / (4.0 * h**2)
        return -(a * d_uu + 2.0 * c * d_uv + b * d_vv)
    raise UnsupportedError("stencil application covers circle and torus grids")


def mesh_spectrum(L, resolution=None, window=0.05, num_modes=16):
    """Discrete Laplace-Beltrami spectrum of the induced metric.

    circle/torus: the spectrum of the second-order periodic stencil,
    evaluated exactly through its Fourier symbol (all modes).  Round
    2-sphere: cotangent finite elements with lumped mass on the
    icosphere at subdivision ``resolution``.  The problem splits into
    the eight reflection sectors of ``icosphere.reflection_sectors``;
    shift-invert Lanczos takes ``ceil(num_modes / 8) + 2`` eigenvalues of
    each, and the report holds the ``num_modes`` smallest of their union
    that lie at or below the smallest sector maximum, up to which every
    sector's spectrum is complete (fewer when the sectors cover less; a
    non-finite value keeps the whole union, for :func:`bound_check` to
    reject).  The default 16 is the complete round-sphere clusters
    l <= 3: it ends one cluster above the ``2n + 2 = 6`` target (l = 2)
    without splitting one.
    """
    kind = _intrinsic_kind(L)
    resolution = mesh_resolution(kind, resolution)
    target = 2.0 * L.n + 2.0
    dim_g = (L.n + 1) ** 2
    bound = dim_g - L.n * (L.n + 1) // 2 - 1

    if kind == "circle":
        ev = _fd_symbol_circle(L, resolution)
        method = "periodic-fd-symbol"
    elif kind == "torus":
        ev = _fd_symbol_torus(L, resolution)
        method = "periodic-fd-symbol"
    else:
        # imported here, not at module level, so processes that never build
        # an icosphere spectrum start without loading scipy (cold start);
        # eigsh is looked up on the module at call time, so a wrapper set on
        # scipy.sparse.linalg.eigsh (perfbench/tracer.py) sees each solve
        import scipy.sparse.linalg as spla

        verts, faces = icosphere(resolution)
        stiffness, mass = cotangent_laplacian(verts, faces)
        parts = []
        for basis in reflection_sectors(verts):
            # a fixed Lanczos start vector keeps the spectrum byte-reproducible;
            # ARPACK would otherwise draw one from OS entropy
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, basis.shape[1])
            parts.append(spla.eigsh(
                basis.T @ stiffness @ basis,
                # ceil(num_modes / 8) and two spare modes, since the sectors'
                # shares of the lowest num_modes are uneven
                k=-(-num_modes // 8) + 2,
                M=basis.T @ mass @ basis,
                # a negative shift keeps stiffness - shift * mass positive definite
                sigma=-0.5,
                which="LM",
                v0=v0,
                return_eigenvectors=False,
            ))
        ev = np.concatenate(parts)
        # a non-finite value keeps the whole union, for bound_check to reject
        if np.all(np.isfinite(ev)):
            ev = np.sort(ev[ev <= min(p.max() for p in parts)])[:num_modes]
        method = "icosphere-fem"
    return SpectralReport(ev, resolution, method, target, window, bound)


class BoundVerdict:
    """Outcome of the multiplicity-bound comparison."""

    def __init__(self, passed, equality, inconclusive, diagnostics):
        self.passed = passed
        self.equality = equality
        self.inconclusive = inconclusive
        self.diagnostics = diagnostics


def bound_check(report, min_separation=3.0):
    """Compare the cluster multiplicity with the algebra bound.

    Inconclusive (never a pass) when the cluster is not separated from
    the rest of the spectrum by ``min_separation`` window half-widths,
    when no computed eigenvalue lies above the window (the cluster may
    continue past the computed modes), or when an eigenvalue is not
    finite.
    """
    sep = report.separation_ratio()
    diag = report.summary()
    ev = report.eigenvalues
    truncated = not ev.size or ev[-1] <= report.target * (1.0 + report.window)
    if sep < min_separation or truncated or not np.all(np.isfinite(ev)):
        return BoundVerdict(False, False, True, diag)
    mult = report.multiplicity
    return BoundVerdict(mult >= report.bound, mult == report.bound, False, diag)

