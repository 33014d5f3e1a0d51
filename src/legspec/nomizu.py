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

Along a Legendrian ``L`` the frame sum ``sum_i <op e_i, J e_i> = -tr(QP)``
equals ``-f`` (``operator_identity_residuals``).  On a minimal ``L`` the
closed form ``Lap f = 2n f - 2 tr(QP)`` turns that identity into the
eigen-equation ``Lap f = (2n + 2) f``, with eigen-residual ``2 |tr(QP) +
f| / sup|f|``, so the frame sum is the cone family's one node-level check.

The cone and mean-free moment families of one field are the same
functions on a minimal Legendrian ``L``.  Both are quadratic forms on the
sphere, so ``family_coincidence_residuals`` compares them as matrices.
"""

import numpy as np

from .errors import PreconditionError
from .moment import QuadraticFamily
from .sasaki import complex_structure


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
    M, J = X.generator, complex_structure(X.n)
    # div(JK) / (2n + 2) = tr(JM) / (2n + 2), one per matrix of a stack
    trace_term = np.trace(J @ M, axis1=-2, axis2=-1) / (2.0 * X.n + 2.0)
    return M + np.expand_dims(trace_term, (-2, -1)) * J


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


def family_coincidence_residuals(f_mom, f_cone):
    """Sup over the unit sphere of ``|f_cone - f_mom|``, one value per
    generator of a stack, for the moment family ``f_mom`` and the cone
    family ``f_cone`` of the same field ``X``.

    On unit ``x`` the difference is ``x^T D x + k``, with ``D = Q_cone -
    Q_mom`` and ``k = offset_mom - offset_cone``, so its sup is the largest
    ``|lambda + k|`` over the eigenvalues ``lambda`` of ``D``: one
    ``eigvalsh`` per generator and no pass over the nodes.  It bounds the
    difference on every immersion, which lies in the sphere.  The corrected
    operator makes ``D = tr(JM) / (2n + 2) * I``, so the value is the
    integral identity ``|tr(JM) / (2n + 2) + mean_L eta(X)|``; a ``D`` that
    is not a multiple of ``I`` spreads its eigenvalues and raises it.
    """
    D = f_cone.quadratic_form - f_mom.quadratic_form
    k = np.expand_dims(f_mom.offset - f_cone.offset, -1)
    return np.max(np.abs(np.linalg.eigvalsh(D) + k), axis=-1)
