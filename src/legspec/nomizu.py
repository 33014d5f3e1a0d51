"""Corrected Nomizu operators on the flat cone and the induced functions.

A cone field here is a linear field ``K(y) = M y`` on ``R^{2n+2} - {0}``
with ``M`` skew and commuting with ``J``: exactly the Killing and
holomorphic fields obtained from sphere automorphisms extended radially.
The cone is flat, so ``grad K = M`` and ``div(JK) = tr(JM)`` at every
cone point, and the associated operator

    op(K) = grad K + div(JK) / (2n + 2) * J = M + tr(JM) / (2n + 2) * J

(the covariant derivative of ``K`` plus a trace correction) is one
constant matrix.  It is skew, commutes with ``J`` and has
``trace(J op) = 0``; pairing it radially, ``f(x) = <op x, J x>``,
produces the second eigenfunction family.

Like ``moment.AutomorphismField``, a cone field may stack ``k`` matrices
as ``(k, d, d)``; operators, functions and residuals then carry the same
leading axis.
"""

import numpy as np

from .errors import InvalidFieldError, PreconditionError
from .moment import QuadraticFamily, pairing_form
from .sasaki import complex_structure


class ConeField:
    """Linear Killing + holomorphic field on the flat cone."""

    def __init__(self, matrix, n, label=""):
        M = np.asarray(matrix, dtype=float)
        d = 2 * n + 2
        if M.shape[-2:] != (d, d):
            raise InvalidFieldError(f"cone field matrix must be {d}x{d}")
        self.matrix = M
        self.n = n
        self.label = label
        self.J = complex_structure(n)

    @classmethod
    def from_automorphism(cls, X):
        """Radially constant extension of a sphere automorphism field:
        the same matrix acts on cone points."""
        return cls(X.generator, X.n, X.label)

    def __call__(self, y):
        return np.asarray(y) @ np.swapaxes(self.matrix, -1, -2)


def cone_field_residuals(K):
    """Killing and holomorphy residuals of a linear field: its gradient
    ``M`` is skew (``max|M + M^T|``) and commutes with ``J``
    (``max|MJ - JM|``), exactly and at every cone point; a stacked field
    reports the worst of its matrices."""
    M = K.matrix
    return {
        "killing": float(np.max(np.abs(M + np.swapaxes(M, -1, -2)))),
        "holomorphic": float(np.max(np.abs(M @ K.J - K.J @ M))),
    }


class NomizuOperator:
    """The corrected operator of a cone field (constant on the cone)."""

    def __init__(self, matrix, div_jk):
        self.matrix = matrix
        self.div_jk = div_jk

    def residuals(self, J):
        M = self.matrix
        return {
            "skew": float(np.max(np.abs(M + np.swapaxes(M, -1, -2)))),
            "j_commutes": float(np.max(np.abs(M @ J - J @ M))),
            "j_trace": float(np.max(np.abs(np.trace(J @ M, axis1=-2, axis2=-1)))),
        }


def nomizu_operator(K):
    """Corrected Nomizu operator ``M + tr(JM) / (2n + 2) * J`` of ``K``.

    The field must pass its Killing/holomorphy residual check at 1e-6; on
    the flat cone the gradient of a linear field is its matrix and the
    divergence of ``y -> J M y`` is ``tr(JM)``.
    """
    res = cone_field_residuals(K)
    if max(res.values()) > 1e-6:
        raise InvalidFieldError(f"cone field fails Killing/holomorphy check: {res}")
    div_jk = np.trace(K.J @ K.matrix, axis1=-2, axis2=-1)
    matrix = K.matrix + np.expand_dims(div_jk / (2.0 * K.n + 2.0), (-2, -1)) * K.J
    return NomizuOperator(matrix, div_jk)


class NomizuFunction(QuadraticFamily):
    """Radial pairing of the corrected operator: ambient scalar field.

    Values do not depend on the radius; ``ambient`` accepts any nonzero
    point.  On unit points the function is ``x^T Q x`` with
    ``Q = quadratic_form``.
    """

    def __init__(self, K, operator):
        super().__init__()
        self.cone_field = K
        self.operator = operator

    @property
    def quadratic_form(self):
        return pairing_form(self.operator.matrix, self.cone_field.J)

    def ambient(self, y):
        y = np.asarray(y, dtype=float)
        xhat = y / np.linalg.norm(y, axis=-1, keepdims=True)
        jx = xhat @ self.cone_field.J.T
        op_x = xhat @ np.swapaxes(self.operator.matrix, -1, -2)
        return np.einsum("...i,...i->...", op_x, jx)

    def __call__(self, x, r=1.0):
        return self.ambient(float(r) * np.asarray(x, dtype=float))


def nomizu_function(K):
    """The eigenfunction candidate of a cone field."""
    return NomizuFunction(K, nomizu_operator(K))


def operator_identity_residuals(K, L, resolution=None, legendrian_tol=1e-8):
    """Frame-sum identity of the operator along ``L``:

        max | sum_i <op e_i, J e_i> + f |

    over quadrature nodes and orthonormal tangent frames ``e_i``, one
    value per generator of a stacked field: the trace of ``op^T J`` against
    the tangent projector ``sum_i e_i e_i^T``.  Every term scales by r^2 on
    the cone, so r = 1 stands for every radius.  It holds only for
    Legendrian ``L``, which is checked first (``PreconditionError``
    otherwise).
    """
    geo = L.node_geometry(resolution)
    if geo.legendrian_residual > legendrian_tol:
        raise PreconditionError(
            f"{L.name} is not Legendrian at tolerance {legendrian_tol}"
        )
    f = nomizu_function(K)
    op_j = np.swapaxes(f.operator.matrix, -1, -2) @ K.J
    sums = -geo.projector_trace(op_j, 0)
    return np.max(np.abs(sums + f.node_values(geo)), axis=-1)


def family_coincidence_residuals(f_mom, resolution=None):
    """Pointwise comparison of the two function families for the sphere
    automorphism ``X`` of the moment function ``f_mom`` along its
    immersion ``L``.

    Returns the max over quadrature nodes, per generator of a stacked
    field, of

    * ``vs_contact_plus_trace`` -- |f - eta(X) - div(JX)/(2n+2)|;
    * ``vs_moment_family``      -- |f - (eta(X) - mean eta(X))|.
    """
    X, L = f_mom.generator, f_mom.immersion
    f_cone = nomizu_function(ConeField.from_automorphism(X))
    geo = L.node_geometry(resolution)
    pts = geo.x
    cone_vals = f_cone.node_values(geo)

    eta_vals = L.ambient.eta(pts, X(pts))
    trace_term = np.expand_dims(f_cone.operator.div_jk / (2.0 * L.n + 2.0), -1)
    resid_a = np.max(np.abs(cone_vals - eta_vals - trace_term), axis=-1)

    resid_b = np.max(np.abs(cone_vals - f_mom.node_values(geo)), axis=-1)
    return {"vs_contact_plus_trace": resid_a, "vs_moment_family": resid_b}
