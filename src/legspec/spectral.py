"""Laplacian pipelines: pointwise extrinsic values and mesh spectra.

Two independent routes to the same operator:

* :func:`extrinsic_laplacian` traces the flat-cone Hessian of the
  radially constant extension over an orthonormal tangent frame
  (pointwise, no discretization of the manifold);
* :func:`mesh_spectrum` diagonalizes an intrinsic discretization of
  the induced metric (periodic finite differences on the circle and
  torus, cotangent finite elements on the icosphere).

Both use the nonnegative sign convention: the spectrum of the round
circle is ``k^2``, of the round 2-sphere ``l (l + 1)``.

The pointwise functions accept a function family stacked over a leading
axis (values ``(k, N)``, see ``moment``) and reduce over nodes only.
"""

import numpy as np

from .config import FD_FIELD, FD_LAPLACIAN, ZERO_FUNCTION
from .errors import PreconditionError, UnsupportedError
from .icosphere import cotangent_laplacian, icosphere, nested_dissection


# ---------------------------------------------------------------------------
# pointwise extrinsic pipeline


def _directional_second(F, x, d, h):
    """Five-point second derivative of t -> F(x + t d) at t = 0."""
    return (
        -F(x + 2.0 * h * d)
        + 16.0 * F(x + h * d)
        - 30.0 * F(x)
        + 16.0 * F(x - h * d)
        - F(x - 2.0 * h * d)
    ) / (12.0 * h**2)


def extrinsic_laplacian(L, f, u):
    """Laplacian of an ambient scalar field along ``L`` at chart points.

    ``f`` maps ambient points to scalars, vectorized, and must not depend
    on the radius (compose with ``y -> y/|y|`` to enforce this).  ``L``
    must be minimal, with mean-curvature residual at most 1e-6 (checked
    first): the value is then ``-sum_i Hess f(e_i, e_i)`` along straight
    ambient lines through each frame direction.
    """
    u = np.asarray(u, dtype=float)
    x = L.points(u)
    worst = L.mean_curvature_residual()
    if worst > 1e-6:
        raise PreconditionError(
            f"{L.name}: mean-curvature residual {worst:.2e} exceeds 1.0e-06; "
            "the frame-trace Laplacian holds only for minimal immersions"
        )
    frame = L.frames(u)
    total = np.zeros(x.shape[:-1])
    for i in range(L.n):
        total = total + _directional_second(f, x, frame[..., i, :], FD_LAPLACIAN)
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

    A zero function (sup norm at most ``ZERO_FUNCTION``) is reported as
    residual 0 with ``degenerate`` set; the Laplacian is skipped only when
    every function is zero.
    """
    u, _ = L.nodes(resolution)
    fvals = f(L.points(u))
    sup = np.max(np.abs(fvals), axis=-1)
    degenerate = sup <= ZERO_FUNCTION
    if np.all(degenerate):
        return EigenResidual(np.zeros_like(sup), degenerate, sup)
    lap = extrinsic_laplacian(L, f, u)
    worst = np.max(np.abs(lap - eigenvalue * fvals), axis=-1)
    res = np.where(degenerate, 0.0, worst / np.where(degenerate, 1.0, sup))
    return EigenResidual(res, degenerate, sup)


def rayleigh_quotient(L, f, resolution=None):
    """Quadrature Rayleigh quotient: integral |grad f|^2 / integral f^2.

    The gradient is taken in chart coordinates with the inverse induced
    metric; an eigensolver-free check of the eigenvalue.
    """
    u, _ = L.nodes(resolution)
    dim = u.shape[-1]
    fvals = f(L.points(u))
    grad = np.empty(fvals.shape + (dim,))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = FD_FIELD
        grad[..., a] = (f(L.points(u + e)) - f(L.points(u - e))) / (2.0 * FD_FIELD)
    ginv = np.linalg.inv(L.induced_metric(u))
    sq = np.einsum("...a,...ab,...b->...", grad, ginv, grad)
    num = L.integrate(sq, resolution)
    den = L.integrate(fvals**2, resolution)
    return num / den


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


def _ordered_inverse(matrix, perm):
    """``x -> matrix^-1 x`` for a sparse positive-definite ``matrix``.

    The matrix is factored once, symmetrically permuted into the
    fill-reducing elimination order ``perm``; positive definiteness lets
    the LU skip pivoting, so it keeps that order.
    """
    # imported here, not at module level, so processes that never build an
    # icosphere spectrum start without loading scipy (cold start)
    import scipy.sparse.linalg as spla

    lu = spla.splu(matrix.tocsr()[perm][:, perm].tocsc(), permc_spec="NATURAL",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(b):
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        return x

    return spla.LinearOperator(matrix.shape, matvec=solve, dtype=float)


def mesh_spectrum(L, resolution=None, window=0.05, num_modes=16):
    """Discrete Laplace-Beltrami spectrum of the induced metric.

    circle/torus: the spectrum of the second-order periodic stencil,
    evaluated exactly through its Fourier symbol (all modes).  Round
    2-sphere: cotangent finite elements with lumped mass on the
    icosphere at subdivision ``resolution``; the ``num_modes`` smallest
    eigenvalues are extracted by shift-invert Lanczos.  The default 16
    is the complete round-sphere clusters l <= 3: it ends one cluster
    above the ``2n + 2 = 6`` target (l = 2) without splitting one.
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
        # local import for cold start, as in _ordered_inverse; eigsh is looked
        # up on the module at call time, so a wrapper set on
        # scipy.sparse.linalg.eigsh (perfbench/tracer.py) sees the solve
        import scipy.sparse.linalg as spla

        verts, faces = icosphere(resolution)
        stiffness, mass = cotangent_laplacian(verts, faces)
        # a negative shift keeps stiffness - shift * mass positive definite
        shift = -0.5
        opinv = _ordered_inverse(stiffness - shift * mass, nested_dissection(verts, faces))
        # a fixed Lanczos start vector keeps the spectrum byte-reproducible;
        # ARPACK would otherwise draw one from OS entropy
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, stiffness.shape[0])
        ev = spla.eigsh(
            stiffness,
            k=num_modes,
            M=mass,
            sigma=shift,
            which="LM",
            v0=v0,
            OPinv=opinv,
            return_eigenvectors=False,
        )
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

