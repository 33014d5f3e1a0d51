"""Corrected Nomizu operators on the flat cone and the cone family.

A sphere automorphism with generator ``M`` (``moment.AutomorphismField``:
skew, commuting with ``J``) extends radially to the Killing and
holomorphic field ``K(y) = M y`` on the flat cone ``R^{2n+2} - {0}``, where
``grad K = M`` and ``div(JK) = tr(JM)``.  Its corrected operator

    op = grad K + div(JK) / (2n + 2) * J = M + tr(JM) / (2n + 2) * J

is one constant matrix of ``u(n+1)`` with ``trace(J op) = 0``; the cone
family ``f(x) = <op x, J x>`` is its ``moment.QuadraticFamily``, with no
constant subtracted.  A stack of ``k`` generators gives ``k`` operators,
functions and residuals.
"""

import numpy as np

from .errors import PreconditionError
from .moment import QuadraticFamily
from .sasaki import complex_structure


def _trace_term(M, n):
    """``div(JK) / (2n + 2) = tr(JM) / (2n + 2)``, one per matrix of a stack."""
    return np.trace(complex_structure(n) @ M, axis1=-2, axis2=-1) / (2.0 * n + 2.0)


def cone_field_residuals(A, J):
    """``skew`` (``max|A + A^T|``), ``j_commutes`` (``max|AJ - JA|``) and
    ``j_trace`` (``max|tr(JA)|``) of ``A``, the worst over a stack: all zero
    for an operator of ``u(n+1)`` with no ``J`` component."""
    return {
        "skew": float(np.max(np.abs(A + np.swapaxes(A, -1, -2)))),
        "j_commutes": float(np.max(np.abs(A @ J - J @ A))),
        "j_trace": float(np.max(np.abs(np.trace(J @ A, axis1=-2, axis2=-1)))),
    }


def nomizu_operator(X):
    """Corrected Nomizu operator ``M + tr(JM) / (2n + 2) * J`` of the
    automorphism field ``X`` extended to the cone, one matrix per
    generator of a stack."""
    M = X.generator
    return M + np.expand_dims(_trace_term(M, X.n), (-2, -1)) * complex_structure(X.n)


def nomizu_function(X):
    """The cone family of ``X``: ``<op x, J x>`` for ``op = nomizu_operator(X)``.
    Its values do not depend on the radius."""
    return QuadraticFamily(nomizu_operator(X), X.n, 0.0)


def operator_identity_residuals(f, L, resolution=None, legendrian_tol=1e-8):
    """Frame-sum identity of the cone family ``f`` along ``L``:

        max | sum_i <op e_i, J e_i> + f |

    over quadrature nodes and orthonormal tangent frames ``e_i``, one
    value per operator of the stack: the trace of ``op^T J`` against the
    tangent projector ``sum_i e_i e_i^T``.  Every term scales by r^2 on
    the cone, so r = 1 stands for every radius.  It holds only for
    Legendrian ``L``, which is checked first (``PreconditionError``
    otherwise).
    """
    geo = L.node_geometry(resolution)
    if geo.legendrian_residual > legendrian_tol:
        raise PreconditionError(
            f"{L.name} is not Legendrian at tolerance {legendrian_tol}"
        )
    op_j = np.swapaxes(f.matrix, -1, -2) @ complex_structure(f.n)
    sums = -geo.projector_trace(op_j, 0)
    return np.max(np.abs(sums + f.node_values(geo)), axis=-1)


def family_coincidence_residuals(f_mom, f_cone, resolution=None):
    """Pointwise comparison of the moment function ``f_mom`` of a sphere
    automorphism ``X`` along its immersion with the cone family ``f_cone``
    of the same ``X``.

    Returns the max over quadrature nodes, per generator of a stacked
    field, of

    * ``vs_contact_plus_trace`` -- |f - eta(X) - div(JX)/(2n+2)|;
    * ``vs_moment_family``      -- |f - (eta(X) - mean eta(X))|.
    """
    X, L = f_mom.generator, f_mom.immersion
    geo = L.node_geometry(resolution)
    pts = geo.x
    cone_vals = f_cone.node_values(geo)

    eta_vals = L.ambient.eta(pts, X(pts))
    trace_term = np.expand_dims(_trace_term(X.generator, X.n), -1)
    resid_a = np.max(np.abs(cone_vals - eta_vals - trace_term), axis=-1)

    resid_b = np.max(np.abs(cone_vals - f_mom.node_values(geo)), axis=-1)
    return {"vs_contact_plus_trace": resid_a, "vs_moment_family": resid_b}
