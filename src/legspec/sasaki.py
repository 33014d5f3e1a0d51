"""The standard contact structure of the round sphere and its flat cone.

Points of ``S^{2n+1}`` are unit vectors in ``R^{2n+2}`` with the complex
structure ``J`` acting as multiplication by ``i`` under the stacked
identification ``(x, y) <-> x + i y``.  The contact form is
``eta_x(v) = <Jx, v>``, the Reeb field is ``xi_x = Jx`` and ``Phi`` is
the tangential projection of ``J``.

Convention notes, pinned numerically on the sphere itself:

* the exterior derivative of a 1-form carries the 1/2 factor,
  ``d eta(V, W) = (V eta(W) - W eta(V) - eta([V, W])) / 2``, which makes
  ``d eta = g(Phi ., .)`` hold exactly;
* with that normalization the torsion identity reads
  ``N_Phi + 2 d eta (x) xi = 0``;
* metric compatibility is ``g(Phi v, Phi w) = g(v, w) - eta(v) eta(w)``
  (forced by ``Phi xi = 0``).
"""

import functools

import numpy as np

from . import riemannian as rm
from .errors import InvalidSampleError


@functools.cache
def complex_structure(n):
    """J on R^{2n+2} in the stacked layout: (x, y) -> (-y, x); cached, read-only."""
    m = n + 1
    J = np.zeros((2 * m, 2 * m))
    J[m:, :m], J[:m, m:] = np.eye(m), -np.eye(m)
    J.flags.writeable = False
    return J


class SphereSasaki:
    """Sasakian data of the unit sphere ``S^{2n+1}`` in ``R^{2n+2}``."""

    def __init__(self, n):
        self.n = int(n)
        self.dim = 2 * self.n + 1
        self.embed_dim = 2 * self.n + 2
        self.J = complex_structure(self.n)
        self.einstein_constant = 2.0 * self.n

    # -- pointwise evaluators (batched over leading axes) ------------------

    def apply_J(self, v):
        return np.asarray(v) @ self.J.T

    def eta(self, x, v):
        return np.einsum("...i,...i->...", self.apply_J(x), v)

    def reeb(self, x):
        return self.apply_J(x)

    def phi(self, x, v):
        jv = self.apply_J(v)
        return jv - np.einsum("...i,...i->...", jv, x)[..., None] * x

    def metric(self, x, v, w):
        return np.einsum("...i,...i->...", v, w)

    def project_tangent(self, x, v):
        return v - np.einsum("...i,...i->...", v, x)[..., None] * x

    # -- sampling -----------------------------------------------------------

    def random_point(self, rng, count=None):
        shape = (self.embed_dim,) if count is None else (count, self.embed_dim)
        x = rng.standard_normal(shape)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def random_tangent(self, rng, x):
        v = self.project_tangent(x, rng.standard_normal(x.shape))
        return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# field extensions and first-order contact operations


def _extend(v, x):
    """Projected-constant extension of a tangent vector: V(p) = v - <v,p> p."""
    v = np.asarray(v, dtype=float)

    def field(p):
        return v - np.dot(v, p) * p

    return field


def _reeb_field(S):
    return lambda p: S.apply_J(p)


def _bracket(V, W, x):
    return rm.derivative(W, x, V(x)) - rm.derivative(V, x, W(x))


def contact_two_form(S, V, W, x):
    """d eta (V, W) at x, with the 1/2 normalization."""
    f1 = rm.derivative(lambda p: np.dot(S.apply_J(p), W(p)), x, V(x))
    f2 = rm.derivative(lambda p: np.dot(S.apply_J(p), V(p)), x, W(x))
    lie = _bracket(V, W, x)
    return 0.5 * (f1 - f2 - np.dot(S.apply_J(x), lie))


def _phi_field(S, V):
    def field(p):
        jv = S.apply_J(V(p))
        return jv - (np.dot(jv, p) / np.dot(p, p)) * p

    return field


def nijenhuis(S, V, W, x):
    """Torsion N_Phi(V, W) at x from brackets of the extended fields."""
    pv, pw = _phi_field(S, V), _phi_field(S, W)
    t1 = S.phi(x, S.phi(x, _bracket(V, W, x)))
    t2 = _bracket(pv, pw, x)
    t3 = S.phi(x, _bracket(pv, W, x))
    t4 = S.phi(x, _bracket(V, pw, x))
    return t1 + t2 - t3 - t4


def sample_tangent_triples(S, count, seed=0):
    """Seeded (point, tangent, tangent) triples for the axiom suite."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = S.random_point(rng)
        out.append((x, S.random_tangent(rng, x), S.random_tangent(rng, x)))
    return out


def verify_sasaki_axioms(S, samples):
    """Max residual of each structure identity over the samples.

    Returns a dict with one entry per axiom.  Sample vectors must be
    tangent (``|<x, v>| <= 1e-8``) and points must be unit.
    """
    res = {
        "eta_reeb": 0.0,
        "reeb_contraction": 0.0,
        "phi_square": 0.0,
        "metric_compatibility": 0.0,
        "deta_phi": 0.0,
        "normality": 0.0,
    }
    for x, v, w in samples:
        if abs(np.linalg.norm(x) - 1.0) > 1e-12:
            raise InvalidSampleError("sample point is not on the unit sphere")
        for vec in (v, w):
            if abs(np.dot(vec, x)) > 1e-8:
                raise InvalidSampleError("sample vector is not tangent")
        xi = S.reeb(x)
        V, W = _extend(v, x), _extend(w, x)
        res["eta_reeb"] = max(res["eta_reeb"], abs(S.eta(x, xi) - 1.0))
        res["reeb_contraction"] = max(
            res["reeb_contraction"], abs(contact_two_form(S, _reeb_field(S), W, x))
        )
        res["phi_square"] = max(
            res["phi_square"],
            float(np.max(np.abs(S.phi(x, S.phi(x, v)) + v - S.eta(x, v) * xi))),
        )
        res["metric_compatibility"] = max(
            res["metric_compatibility"],
            abs(
                S.metric(x, S.phi(x, v), S.phi(x, w))
                - S.metric(x, v, w)
                + S.eta(x, v) * S.eta(x, w)
            ),
        )
        deta = contact_two_form(S, V, W, x)
        res["deta_phi"] = max(res["deta_phi"], abs(deta - S.metric(x, S.phi(x, v), w)))
        # factor 2 matches the 1/2 exterior-derivative normalization
        res["normality"] = max(
            res["normality"],
            float(np.max(np.abs(nijenhuis(S, V, W, x) + 2.0 * deta * xi))),
        )
    return res


def eta_einstein_residual(S, u, constant=None):
    """Entrywise residual ``max |g^-1 Ric - A I|`` of Ric = A g at the point
    ``u`` of the hemisphere chart (``|u| < 1``).

    On the round sphere the eta-Einstein constant is ``A = 2n``, so the
    ``(2n - A) eta (x) eta`` term of the general identity vanishes.
    """
    A = S.einstein_constant if constant is None else float(constant)
    metric, dmetric = rm.sphere_metric(S.dim)
    _, ricci = rm.riemann_ricci(metric, dmetric, u)
    return float(np.max(np.abs(np.linalg.solve(metric(u), ricci) - A * np.eye(S.dim))))


# ---------------------------------------------------------------------------
# the flat cone


class SphereCone:
    """Kaehler cone over the round sphere, realized as ``R^{2n+2} - {0}``.

    Cone points ``(x, r)`` are identified with ``y = r x``.  The cone
    metric is the flat Euclidean one, so the Levi-Civita connection is the
    directional derivative and the curvature vanishes identically; a
    linear field ``y -> M y`` has covariant derivative ``M`` (see
    ``legspec.nomizu``).  Flatness is cross-checked in the cone over the
    hemisphere chart of the sphere (``ricci_via_chart``).
    """

    def __init__(self, base):
        self.base = base

    def ricci_via_chart(self, radii):
        """Max Ricci norm of the cone chart at the chart centre and each radius."""
        return _cone_ricci(self.base, radii, defective=False)


def defective_cone_ricci(S, radii):
    """Negative control: Ricci norm of the wrong metric r^2 g + r^2 dr^2."""
    return _cone_ricci(S, radii, defective=True)


def _cone_ricci(S, radii, defective):
    metric, dmetric = rm.cone_metric(*rm.sphere_metric(S.dim), defective=defective)
    worst = 0.0
    for r in radii:
        u = np.concatenate([np.zeros(S.dim), [float(r)]])
        _, ricci = rm.riemann_ricci(metric, dmetric, u)
        worst = max(worst, float(np.max(np.abs(ricci))))
    return worst
