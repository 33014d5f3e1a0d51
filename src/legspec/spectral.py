"""Laplacian pipelines: pointwise extrinsic values and mesh spectra.

Two independent routes to the same operator:

* :func:`extrinsic_laplacian` gives the Laplacian of a quadratic form
  restricted to a minimal ``L`` in closed form, pointwise (no
  discretization of the manifold); :func:`stiffness_mass` integrates the
  exact gradients of the same forms, so Green's identity checks the
  closed form without sharing its algebra;
* :func:`mesh_spectrum` diagonalizes an intrinsic discretization of
  the induced metric: on periodic grids (circle, torus) the
  finite-difference stencil of :func:`apply_mesh_operator`, whose
  spectrum is the DFT of its impulse response since the stencil is
  circulant; on the icosphere, cotangent finite elements.

Both use the nonnegative sign convention: the spectrum of the round
circle is ``k^2``, of the round 2-sphere ``l (l + 1)``.

The pointwise functions accept a function family stacked over a leading
axis (values ``(k, N)``, see ``moment``) and reduce over nodes only.
"""

import math

import numpy as np

from .config import ZERO_FUNCTION
from .errors import ConvergenceError, PreconditionError, UnsupportedError
from .icosphere import icosphere, sector_operators


# ---------------------------------------------------------------------------
# pointwise extrinsic pipeline


def extrinsic_laplacian(L, Q, resolution=None):
    """Laplacian along ``L`` of the quadratic forms ``Q`` at the quadrature
    nodes of ``resolution``.

    ``Q`` is symmetric, ``(d, d)`` or a ``(k, d, d)`` stack, and stands for
    ``f(x) = x^T Q x`` on the unit sphere (a constant added to ``f`` does
    not change the value).  ``L`` must be minimal, with mean-curvature
    residual at most 1e-6 at its default nodes (checked first).  Then, with
    unit points ``x`` and tangent projector ``P = sum_i e_i e_i^T``, the
    value is exact:

        Lap f = 2 tr(Q (n x x^T - P)),

    since along a unit ``e`` orthogonal to ``x`` the radially constant
    extension of ``f`` has second derivative ``2 e^T Q e - 2 x^T Q x``.
    """
    worst = L.node_geometry().shape.mean_curvature_norm()
    if worst > 1e-6:
        raise PreconditionError(
            f"{L.name}: mean-curvature residual {worst:.2e} exceeds 1.0e-06; "
            "the frame-trace Laplacian holds only for minimal immersions"
        )
    return 2.0 * L.node_geometry(resolution).projector_trace(Q, L.n)


class EigenResidual:
    """Relative residual of the eigen-equation, one entry per function of
    a stacked family."""

    def __init__(self, residual, degenerate, sup_norm):
        self.residual = residual
        self.degenerate = degenerate
        self.sup_norm = sup_norm


def eigen_residual(L, f, eigenvalue, resolution=None):
    """max |Lap f - lambda f| / max |f| over quadrature nodes.

    ``f`` is a ``moment.QuadraticFamily`` (the moment family of
    ``moment.moment_function`` or the cone family of
    ``nomizu.nomizu_function``): its values come from
    ``f.node_values`` and its Laplacian from ``f.laplacian``, in closed
    form.  A zero function (sup norm at most ``ZERO_FUNCTION``) is reported
    as residual 0 with ``degenerate`` set; the Laplacian is skipped only
    when every function is zero.
    """
    fvals = f.node_values(L.node_geometry(resolution))
    sup = np.max(np.abs(fvals), axis=-1)
    degenerate = sup <= ZERO_FUNCTION
    if np.all(degenerate):
        return EigenResidual(np.zeros_like(sup), degenerate, sup)
    lap = f.laplacian(L, resolution)
    worst = np.max(np.abs(lap - eigenvalue * fvals), axis=-1)
    res = np.where(degenerate, 0.0, worst / np.where(degenerate, 1.0, sup))
    return EigenResidual(res, degenerate, sup)


def stiffness_mass(L, f, resolution=None):
    """Stiffness ``K = integral <grad f_A, grad f_B>`` and mass ``M =
    integral f_A f_B`` of the family ``f`` (as for :func:`eigen_residual`)
    along ``L`` at the nodes of ``resolution``, each ``(k, k)``.  The
    gradient is exact: the chart derivatives of the unit points are tangent
    to the sphere, so ``d_a f = 2 (Q x) . d_a x``, raised with the inverse
    induced metric.  A non-finite value raises as in ``L.integrate``."""
    geo = L.node_geometry(resolution)
    fvals = np.reshape(f.node_values(geo), (-1, len(geo.x)))
    # x Q = (Q x)^T, Q being symmetric, is the largest array here, not kept
    grad = 2.0 * (np.reshape(geo.x @ f.quadratic_form, fvals.shape + (1, -1)) @ geo.jacobian)
    raised = grad @ np.linalg.inv(geo.metric)
    return L.gram(raised, grad, resolution), L.gram(fvals, fvals, resolution)


def green_identity_residual(L, f):
    """Green's identity at the default nodes of a closed ``L``: max |K - C|
    / max |K| over the family ``f``, ``K`` of :func:`stiffness_mass`, ``C =
    integral (Lap f_A) f_B`` of the closed form and the pairing values, means
    kept.  ``K`` reads ``Q`` twice, ``C`` once: a closed-form error shows."""
    geo = L.node_geometry()
    lap = np.reshape(f.laplacian(L), (-1, len(geo.x)))
    pairing = f.node_values(geo) + np.reshape(f.offset, np.shape(f.offset) + (1,))
    K, _ = f.stiffness_mass(L)
    C = L.gram(lap, np.reshape(pairing, lap.shape), None)
    return float(np.max(np.abs(K - C)) / np.max(np.abs(K)))


def rayleigh_quotient(L, f, resolution=None):
    """Quadrature Rayleigh quotient ``diag(K) / diag(M)`` of
    :func:`stiffness_mass`, an eigensolver-free check of the eigenvalue; a
    zero function (sup norm at most ``ZERO_FUNCTION``) has none: nan."""
    K, M = f.stiffness_mass(L, resolution)
    zero = np.max(np.abs(f.node_values(L.node_geometry(resolution))), axis=-1) <= ZERO_FUNCTION
    q = np.diagonal(K) / np.where(zero.ravel(), 1.0, np.diagonal(M))
    return np.where(zero, np.nan, np.reshape(q, zero.shape))


# ---------------------------------------------------------------------------
# intrinsic mesh pipeline


# Shipped range and default of each mesh's resolution: the finest grid for
# the stencils; for the icosphere the coarsest level whose l = 2 cluster
# accuracy stays 10x inside the default cluster_accuracy (P1 eigenvalue
# error is O(h^2 lambda^2), Strang & Fix 1973: 5.7e-3 at level 3, 1.4e-3
# at 4, 3.6e-4 at 5, 8.9e-5 at 6)
MESH_RESOLUTIONS = {
    "circle": (64, 4096, 4096),
    "torus": (32, 256, 256),
    "icosphere": (3, 6, 4),
}


def mesh_resolution(kind, resolution=None):
    """The ``kind`` mesh resolution to use: its default for ``None``; a value
    outside the shipped range of ``MESH_RESOLUTIONS[kind]`` is a usage
    error."""
    lo, hi, default = MESH_RESOLUTIONS[kind]
    resolution = default if resolution is None else int(resolution)
    if not lo <= resolution <= hi:
        raise UnsupportedError(
            f"{kind} resolution {resolution} outside shipped range [{lo}, {hi}]"
        )
    return resolution


def algebra_bound(n):
    """``dim u(n+1) - n(n+1)/2 - 1``, the paper's least dimension of the
    ``2n + 2`` eigenspace of a minimal Legendrian, met when totally geodesic."""
    return (n + 1) ** 2 - n * (n + 1) // 2 - 1


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
    def window_bounds(self):
        return self.target * (1.0 - self.window), self.target * (1.0 + self.window)

    @property
    def cluster(self):
        lo, hi = self.window_bounds
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
        lo, hi = self.window_bounds
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


def apply_mesh_operator(L, grid_values):
    """Apply the second-order periodic stencil ``-sum_ij g^ij D_ij`` of the
    induced metric at the chart origin (constant on the shipped flat
    grids) to values sampled on the uniform grid of ``L.domain``, which
    must be periodic.  The grid is the trailing ``L.n`` axes, square, of
    spacing ``2 pi / N``; leading axes are a stack.  ``D_ii`` is the
    three-point second difference and ``D_ij`` (``i < j``) the four-point
    central cross difference, counted twice for ``g^ij = g^ji``."""
    if not L.domain.periodic:
        raise UnsupportedError(f"'{L.name}' has no periodic grid for the stencil")
    ginv = np.linalg.inv(L.induced_metric(np.zeros(L.n)))
    v = np.asarray(grid_values, dtype=float)
    h = 2.0 * np.pi / v.shape[-1]
    k = L.n
    # summed in place, left to right, as each term is formed: one alive at a time
    for i in range(k):
        up, down = np.roll(v, -1, i - k), np.roll(v, 1, i - k)
        diagonal = ginv[i, i] * ((down - 2.0 * v + up) / h**2)
        total = diagonal if i == 0 else np.add(total, diagonal, out=total)
        for j in range(i + 1, k):
            cross = (np.roll(up, -1, j - k) - np.roll(up, 1, j - k)
                     - np.roll(down, -1, j - k) + np.roll(down, 1, j - k))
            total += 2.0 * ginv[i, j] * (cross / (4.0 * h**2))
    return np.negative(total, out=total)


def _shift_invert(sector, k):
    """The ``k`` eigenvalues of the sparse ``sector`` nearest ``-0.5``, by
    shift-invert Lanczos; ``ConvergenceError`` with ARPACK's message when
    it does not converge."""
    # imported here, not at module level, so processes that solve no sparse
    # sector start without loading scipy (cold start); eigsh is looked up on
    # the module at call time, so a wrapper set on scipy.sparse.linalg.eigsh
    # (perfbench/tracer.py) sees each solve
    import scipy.sparse.linalg as spla

    # a fixed Lanczos start vector keeps the spectrum byte-reproducible;
    # ARPACK would otherwise draw one from OS entropy
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, sector.shape[0])
    try:
        # a negative shift keeps sector - shift * I positive definite
        return spla.eigsh(sector, k=k, sigma=-0.5, which="LM", v0=v0,
                          return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(str(exc)) from None


def mesh_spectrum(L, resolution=None, window=0.05, num_modes=16):
    """Discrete Laplace-Beltrami spectrum of the induced metric.

    Periodic grid (circle, torus): every eigenvalue of the stencil of
    :func:`apply_mesh_operator` on the ``resolution`` grid.  The stencil
    has constant coefficients on a periodic grid, so its matrix is
    circulant and its eigenvalues are the DFT of its response to a unit
    impulse; that response is symmetric, so the DFT is real.  Round
    2-sphere: cotangent finite elements with lumped mass on the
    icosphere at subdivision ``resolution`` (default level 4, see
    ``MESH_RESOLUTIONS``), split into the eight reflection sectors of
    ``icosphere.sector_operators``, each a standard symmetric problem.
    The rotation ``(x, y, z) -> (y, z, x)`` permutes the sectors odd in
    one coordinate, and those odd in two, so four sector eigensolves, one
    per orbit, give all eight spectra.  A dense sector (levels 3 and 4)
    gives every eigenvalue by ``numpy.linalg.eigvalsh``; a sparse one
    (levels 5 and 6) its ``ceil(num_modes / 8) + 2`` smallest by
    shift-invert Lanczos.  Each sector's values count once per sector of
    its orbit, and the report holds the ``num_modes`` smallest of their
    union that lie at or below the smallest sector maximum, up to which
    every sector's spectrum is complete (fewer when the sectors cover
    less; a non-finite value, which eigvalsh returns for a nan entry
    without raising, keeps the whole union, for :func:`bound_check` to
    reject).  The default 16 is the complete round-sphere clusters l <= 3:
    it ends one cluster above the ``2n + 2 = 6`` target (l = 2) without
    splitting one.  A sector eigensolve that does not converge raises
    ``ConvergenceError`` with the solver's message.
    """
    if L.domain.mesh is None:
        raise UnsupportedError(
            f"no intrinsic mesh for '{L.name}' (pointwise pipeline still applies)"
        )
    resolution = mesh_resolution(L.domain.mesh, resolution)
    target = 2.0 * L.n + 2.0
    bound = algebra_bound(L.n)

    if L.domain.periodic:
        impulse = np.zeros(L.domain.grid_shape(resolution))
        impulse.flat[0] = 1.0
        ev = np.fft.fftn(apply_mesh_operator(L, impulse)).real.ravel()
        method = "periodic-fd-symbol"
    else:
        parts = []
        # sector 2^odd - 1, odd in the last ``odd`` coordinates, shares its
        # spectrum with the comb(3, odd) sectors the rotation maps it onto
        for odd, sector in enumerate(sector_operators(*icosphere(resolution), [0, 1, 3, 7])):
            try:
                # ceil(num_modes / 8) and two spare modes of a sparse sector,
                # since the sectors' shares of the lowest num_modes are uneven
                values = (np.linalg.eigvalsh(sector) if isinstance(sector, np.ndarray)
                          else _shift_invert(sector, -(-num_modes // 8) + 2))
            except (np.linalg.LinAlgError, ConvergenceError) as exc:
                raise ConvergenceError(
                    f"{L.name}: icosphere level {resolution} eigensolve did not converge: {exc}"
                ) from None
            parts += [values] * math.comb(3, odd)
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

