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
"""

import numpy as np
import scipy.sparse.linalg as spla

from .config import FD_LAPLACIAN
from .errors import PreconditionError, UnsupportedError
from .icosphere import cotangent_laplacian, icosphere
from .immersions import shape_operator


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


def _minimality_check(L, tol):
    worst = L.mean_curvature_residual()
    if worst > tol:
        raise PreconditionError(
            f"{L.name}: mean-curvature residual {worst:.2e} exceeds {tol:.1e}; "
            "use include_mean_curvature=True for non-minimal immersions"
        )


def extrinsic_laplacian(L, f, u, h=FD_LAPLACIAN, include_mean_curvature=False,
                        minimality_tol=1e-6):
    """Laplacian of an ambient scalar field along ``L`` at chart points.

    ``f`` maps ambient points to scalars, vectorized, and must not depend
    on the radius (compose with ``y -> y/|y|`` to enforce this).  For
    minimal immersions the value is ``-sum_i Hess f(e_i, e_i)`` along
    straight ambient lines through each frame direction.  With
    ``include_mean_curvature=True`` the Hessian is taken along great
    circles of the sphere and the mean-curvature derivative term is
    added, which is valid for arbitrary immersions.
    """
    u = np.asarray(u, dtype=float)
    x = L.points(u)
    if include_mean_curvature:
        sd = shape_operator(L, u)
        frame = sd.frame
    else:
        _minimality_check(L, minimality_tol)
        frame = L.frames(u)

    total = np.zeros(x.shape[:-1])
    for i in range(L.n):
        e = frame[..., i, :]
        if include_mean_curvature:
            # second derivative along the great circle tangent to e
            def F_arc(t):
                return f(np.cos(t) * x + np.sin(t) * e)

            val = (
                -F_arc(2.0 * h)
                + 16.0 * F_arc(h)
                - 30.0 * F_arc(0.0)
                + 16.0 * F_arc(-h)
                - F_arc(-2.0 * h)
            ) / (12.0 * h**2)
        else:
            val = _directional_second(f, x, e, h)
        total = total + val
    result = -total
    if include_mean_curvature:
        H = sd.mean_curvature
        hnorm = np.linalg.norm(H, axis=-1)
        # derivative of f along H via the projected curve through x
        safe = np.where(hnorm > 1e-14, hnorm, 1.0)
        direction = H / safe[..., None]
        step = 1e-6

        def on_sphere(t):
            y = x + t * direction
            return f(y / np.linalg.norm(y, axis=-1, keepdims=True))

        df = (on_sphere(step) - on_sphere(-step)) / (2.0 * step)
        result = result - np.where(hnorm > 1e-14, hnorm * df, 0.0)
    return result


class EigenResidual:
    """Relative residual of the eigen-equation for one function."""

    def __init__(self, residual, degenerate, sup_norm):
        self.residual = residual
        self.degenerate = degenerate
        self.sup_norm = sup_norm


def eigen_residual(L, f, eigenvalue, resolution=None, zero_tol=1e-12, **kwargs):
    """max |Lap f - lambda f| / max |f| over quadrature nodes.

    The zero function is reported as residual 0 with ``degenerate`` set.
    """
    u, _ = L.nodes(resolution)
    fvals = f(L.points(u))
    sup = float(np.max(np.abs(fvals)))
    if sup <= zero_tol:
        return EigenResidual(0.0, True, sup)
    lap = extrinsic_laplacian(L, f, u, **kwargs)
    res = float(np.max(np.abs(lap - eigenvalue * fvals))) / sup
    return EigenResidual(res, False, sup)


def rayleigh_quotient(L, f, resolution=None, h=1e-5):
    """Quadrature Rayleigh quotient: integral |grad f|^2 / integral f^2.

    The gradient is taken in chart coordinates with the inverse induced
    metric; an eigensolver-free check of the eigenvalue.
    """
    u, _ = L.nodes(resolution)
    k = u.shape[-1]
    fvals = f(L.points(u))
    grad = np.empty(u.shape)
    for a in range(k):
        e = np.zeros(k)
        e[a] = h
        grad[..., a] = (f(L.points(u + e)) - f(L.points(u - e))) / (2.0 * h)
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


class SpectralReport:
    """Discrete spectrum with multiplicity bookkeeping at a target."""

    def __init__(self, eigenvalues, resolution, method, target, window, bound):
        self.eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))
        self.resolution = resolution
        self.method = method
        self.target = float(target)
        self.window = float(window)
        self.bound = int(bound)
        self.residuals = None

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
    if L.name in ("great-circle-s3", "geodesic-sphere-n1"):
        return "circle"
    if L.name == "clifford-torus-s5":
        return "torus"
    if L.name == "geodesic-sphere-n2":
        return "icosphere"
    raise UnsupportedError(
        f"no intrinsic discretizer for '{L.name}' (pointwise pipeline still applies)"
    )


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
    """Apply the intrinsic stencil to sampled grid values (circle/torus)."""
    kind = _intrinsic_kind(L)
    v = np.asarray(grid_values, dtype=float)
    if kind == "circle":
        g = L.induced_metric(np.zeros(1))[0, 0]
        h = 2.0 * np.pi / v.shape[0] * np.sqrt(g)
        return (2.0 * v - np.roll(v, 1) - np.roll(v, -1)) / h**2
    if kind == "torus":
        ginv = np.linalg.inv(L.induced_metric(np.zeros(2)))
        a, b, c = ginv[0, 0], ginv[1, 1], ginv[0, 1]
        h = 2.0 * np.pi / v.shape[0]
        d_uu = (np.roll(v, 1, 0) - 2.0 * v + np.roll(v, -1, 0)) / h**2
        d_vv = (np.roll(v, 1, 1) - 2.0 * v + np.roll(v, -1, 1)) / h**2
        d_uv = (
            np.roll(np.roll(v, -1, 0), -1, 1)
            - np.roll(np.roll(v, -1, 0), 1, 1)
            - np.roll(np.roll(v, 1, 0), -1, 1)
            + np.roll(np.roll(v, 1, 0), 1, 1)
        ) / (4.0 * h**2)
        return -(a * d_uu + 2.0 * c * d_uv + b * d_vv)
    raise UnsupportedError("stencil application covers circle and torus grids")


def mesh_spectrum(L, resolution=None, window=0.05, num_modes=24):
    """Discrete Laplace-Beltrami spectrum of the induced metric.

    circle/torus: the spectrum of the second-order periodic stencil,
    evaluated exactly through its Fourier symbol (all modes).  Round
    2-sphere: cotangent finite elements with lumped mass on the
    icosphere at subdivision ``resolution``; the ``num_modes`` smallest
    eigenvalues are extracted by shift-invert Lanczos.
    """
    kind = _intrinsic_kind(L)
    lo, hi = MESH_RESOLUTIONS[kind]
    resolution = hi if resolution is None else int(resolution)
    if not lo <= resolution <= hi:
        raise UnsupportedError(
            f"{kind} resolution {resolution} outside shipped range [{lo}, {hi}]"
        )
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
        verts, faces = icosphere(resolution)
        stiffness, mass = cotangent_laplacian(verts, faces)
        # a fixed Lanczos start vector keeps the spectrum byte-reproducible;
        # ARPACK would otherwise draw one from OS entropy
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, stiffness.shape[0])
        ev = spla.eigsh(
            stiffness,
            k=num_modes,
            M=mass,
            sigma=-0.5,
            which="LM",
            v0=v0,
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


def bound_check(report, n=None, dim_g=None, min_separation=3.0):
    """Compare the cluster multiplicity with the algebra bound.

    Inconclusive (never a pass) when the cluster is not separated from
    the rest of the spectrum by ``min_separation`` window half-widths.
    """
    if dim_g is None:
        bound = report.bound
    else:
        bound = int(dim_g) - int(n) * (int(n) + 1) // 2 - 1
    sep = report.separation_ratio()
    diag = dict(report.summary(), bound=bound)
    if sep < min_separation:
        return BoundVerdict(False, False, True, diag)
    mult = report.multiplicity
    return BoundVerdict(mult >= bound, mult == bound, False, diag)


def sphere_eigenvalue_note(n):
    """Degree-one harmonic count on the round n-sphere.

    The first nonzero eigenvalue of round S^n is n, carried by the
    restrictions of the ambient linear coordinates; the computed
    multiplicity is therefore n + 1.  A quoted count of n (n + 1) for
    this eigenvalue is reported alongside for comparison, not adjudicated.
    """
    return {
        "eigenvalue": float(n),
        "computed_multiplicity": n + 1,
        "quoted_multiplicity": n * (n + 1),
        "agrees": n + 1 == n * (n + 1),
    }
