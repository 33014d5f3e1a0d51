"""Christoffel symbols and curvature of a metric given in coordinates.

A metric is a pair of callables: ``metric(u)`` returns the ``(dim, dim)``
matrix ``g_ij`` and ``dmetric(u)`` the ``(dim, dim, dim)`` array of its
analytic derivatives ``d_k g_ij``.  Curvature differences the Christoffel
symbols centrally.  All outputs are plain numpy arrays at one point.
"""

import numpy as np

from .config import FD_SECOND


def christoffel(metric, dmetric, u):
    """Levi-Civita Christoffel symbols ``Gamma[k, i, j]`` at ``u``."""
    dg = dmetric(u)
    # exact (i,j)-symmetry of everything downstream
    dg = 0.5 * (dg + dg.transpose(0, 2, 1))
    ginv = np.linalg.inv(metric(u))
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    term = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, term)


def riemann_ricci(metric, dmetric, u, h2=FD_SECOND):
    """Riemann (3,1)-tensor and Ricci tensor at ``u`` from Christoffel
    differences of step ``h2``.

    ``riemann[a, b, c, d]`` is the component of ``R(e_a, e_b) e_c`` along
    ``e_d``; ``ricci[i, j]`` contracts the first slot against the output.
    """
    dim = len(u)
    gamma = christoffel(metric, dmetric, u)
    dgamma = np.empty((dim, dim, dim, dim))  # [a, k, i, j] = d_a Gamma^k_ij
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h2
        dgamma[a] = (
            christoffel(metric, dmetric, u + e) - christoffel(metric, dmetric, u - e)
        ) / (2.0 * h2)
    # R(e_a, e_b) e_c = (d_a Gamma^d_bc - d_b Gamma^d_ac
    #                    + Gamma^d_ae Gamma^e_bc - Gamma^d_be Gamma^e_ac) e_d
    riemann = (
        np.einsum("adbc->abcd", dgamma)
        - np.einsum("bdac->abcd", dgamma)
        + np.einsum("dae,ebc->abcd", gamma, gamma)
        - np.einsum("dbe,eac->abcd", gamma, gamma)
    )
    ricci = np.einsum("aija->ij", riemann)
    return riemann, 0.5 * (ricci + ricci.T)


def sphere_metric(dim):
    """Round metric of the unit ``S^dim`` in the hemisphere chart
    ``u -> (sqrt(1 - |u|^2), u)``: ``g = I + u u^T / (1 - |u|^2)``."""
    eye = np.eye(dim)

    def metric(u):
        return eye + np.outer(u, u) / (1.0 - float(u @ u))

    def dmetric(u):
        s2 = 1.0 - float(u @ u)
        uu = np.outer(u, u)
        dg = np.empty((dim, dim, dim))
        for k in range(dim):
            dg[k] = (np.outer(eye[k], u) + np.outer(u, eye[k])) / s2 + 2.0 * u[k] * uu / s2**2
        return dg

    return metric, dmetric


def cone_metric(metric, dmetric, defective=False):
    """Metric cone ``r^2 g(u) + dr^2`` over ``(metric, dmetric)``, with the
    radius ``r`` as the last coordinate.  ``defective`` gives the wrong
    metric ``r^2 g(u) + r^2 dr^2`` instead, which is not Ricci-flat."""

    def cone(w):
        u, r = w[:-1], w[-1]
        m = len(u)
        g = np.zeros((m + 1, m + 1))
        g[:m, :m] = r**2 * metric(u)
        g[m, m] = r**2 if defective else 1.0
        return g

    def dcone(w):
        u, r = w[:-1], w[-1]
        m = len(u)
        dg = np.zeros((m + 1, m + 1, m + 1))
        dg[:m, :m, :m] = r**2 * dmetric(u)
        dg[m, :m, :m] = 2.0 * r * metric(u)
        if defective:
            dg[m, m, m] = 2.0 * r
        return dg

    return cone, dcone
