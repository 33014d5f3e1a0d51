"""The u(n+1) automorphism algebra and the contact moment map.

Generators are stored as real ``(2n+2) x (2n+2)`` matrices in the stacked
layout, i.e. the real form of a complex skew-Hermitian matrix: skew
matrices commuting with ``J``.  The induced linear vector field
``x -> U x`` is tangent to the sphere, Killing, and preserves the contact
form; the moment map pairs it with the Reeb direction,
``mu(x)(X) = <U x, J x> = eta_x(X_x)``.

Both eigenfunction families are a ``QuadraticFamily`` ``<A x, J x> - c``:
the moment family (``moment_function``) of the generators less their
means along an immersion, the cone family (``nomizu.nomizu_function``) of
the corrected Nomizu operators.  A family holds only its matrices and
constants; each evaluation is given the immersion or nodes it reads.

The pairing is linear in ``x x^T``: ``<A x, J x> = sum_ab A_ab (J x
x^T)_ab``.  So every integral of it over a node set, the moment family's
means among them, is ``pairing_integral`` of the node set's second moment
``M = integral x x^T``, with no pass over the nodes.

A field may also carry ``k`` generators at once, as a ``(k, d, d)``
tensor: the family is a linear image of the algebra, so every evaluation
broadcasts over that leading axis.  Values at ``N`` points then have
shape ``(k, N)`` and node reductions run over ``axis=-1``; a single
``(d, d)`` generator gives the unstacked shapes.
"""

import numpy as np

from . import spectral as spc
from .errors import InvalidFieldError, InvalidPointError
from .riemannian import derivative
from .sasaki import _bracket, _extend, complex_structure


class AutomorphismField:
    """A sphere automorphism generator, or a ``(k, d, d)`` stack of them,
    as a linear vector field."""

    def __init__(self, generator, n, label=""):
        U = np.asarray(generator, dtype=float)
        d = 2 * n + 2
        if U.shape[-2:] != (d, d):
            raise InvalidFieldError(f"generator must be {d}x{d}")
        J = complex_structure(n)
        if (np.max(np.abs(U + np.swapaxes(U, -1, -2))) > 1e-12
                or np.max(np.abs(U @ J - J @ U)) > 1e-12):
            raise InvalidFieldError(
                "generator must be skew-symmetric and commute with J"
            )
        self.generator = U
        self.n = n
        self.label = label

    def __call__(self, points):
        return np.asarray(points) @ np.swapaxes(self.generator, -1, -2)

    def __repr__(self):
        return f"AutomorphismField({self.label or 'unlabeled'}, n={self.n})"


def _real_form(A, B):
    """Real matrix of the complex matrix A + iB in the stacked layout."""
    m = len(A)
    out = np.empty((2 * m, 2 * m), dtype=np.result_type(A, B))
    out[:m, :m], out[:m, m:], out[m:, :m], out[m:, m:] = A, -B, B, A
    return out


def algebra_basis(n):
    """The (n+1)^2 standard generators of the automorphism algebra.

    Order: imaginary diagonals, then real skew pairs, then imaginary
    symmetric pairs, each in lexicographic index order.
    """
    if n < 1:
        raise InvalidFieldError("n must be >= 1")
    m = n + 1
    basis = []
    for k in range(m):
        B = np.zeros((m, m))
        B[k, k] = 1.0
        basis.append(AutomorphismField(_real_form(np.zeros((m, m)), B), n, f"i*E[{k+1},{k+1}]"))
    for k in range(m):
        for l in range(k + 1, m):
            A = np.zeros((m, m))
            A[k, l] = 1.0
            A[l, k] = -1.0
            basis.append(AutomorphismField(_real_form(A, np.zeros((m, m))), n, f"E[{k+1},{l+1}]-E[{l+1},{k+1}]"))
    for k in range(m):
        for l in range(k + 1, m):
            B = np.zeros((m, m))
            B[k, l] = 1.0
            B[l, k] = 1.0
            basis.append(AutomorphismField(_real_form(np.zeros((m, m)), B), n, f"i*(E[{k+1},{l+1}]+E[{l+1},{k+1}])"))
    return basis


def stack_fields(fields, label):
    """The generators of ``fields`` as one field over a leading axis, so
    that each evaluation covers all of them; ``label`` names the stack
    (``u(n+1)`` for ``algebra_basis``, ``su(n+1)`` for ``traceless_basis``)."""
    return AutomorphismField(np.stack([X.generator for X in fields]), fields[0].n, label)


def traceless_basis(n):
    """Basis of the traceless subalgebra (su-type): diagonal differences
    replace the diagonal generators."""
    m = n + 1
    basis = []
    for k in range(m - 1):
        B = np.zeros((m, m))
        B[k, k] = 1.0
        B[k + 1, k + 1] = -1.0
        basis.append(
            AutomorphismField(
                _real_form(np.zeros((m, m)), B), n, f"i*(E[{k+1},{k+1}]-E[{k+2},{k+2}])"
            )
        )
    return basis + algebra_basis(n)[m:]


def reeb_generator(n):
    """i * Id, the generator of the Reeb flow."""
    m = n + 1
    return AutomorphismField(_real_form(np.zeros((m, m)), np.eye(m)), n, "i*Id")


def pairing_form(A, J):
    """Symmetric ``Q`` of the quadratic form ``x -> <A x, J x> = x^T A^T J x``;
    a ``(k, d, d)`` stack of ``A`` gives the ``k`` forms."""
    B = np.swapaxes(A, -1, -2) @ J
    return 0.5 * (B + np.swapaxes(B, -1, -2))


def pairing(A, x):
    """``<A x, J x>`` at points ``x``, one row per matrix of a stack ``A``,
    formed a matrix at a time: no temporary holds the whole stack's ``A x``."""
    jx = x @ complex_structure(A.shape[-1] // 2 - 1).T
    rows = [np.einsum("...i,...i->...", x @ a.T, jx) for a in np.reshape(A, (-1,) + A.shape[-2:])]
    return np.reshape(rows, A.shape[:-2] + np.shape(x)[:-1])


def pairing_integral(A, M):
    """The integral of ``<A x, J x>`` from the second moment ``M`` of the
    nodes (``NodeGeometry.second_moment``): the pairing is ``x^T A^T J x =
    sum_ab A_ab (J x x^T)_ab``, linear in ``x x^T``, so its integral is
    ``sum_ab A_ab (J M)_ab``.  One value per matrix of a stack ``A``, formed
    a matrix at a time, so a stacked row equals its matrix alone."""
    jm = complex_structure(A.shape[-1] // 2 - 1) @ M
    rows = [np.einsum("ab,ab->", a, jm) for a in np.reshape(A, (-1,) + A.shape[-2:])]
    return np.reshape(rows, A.shape[:-2])


def moment(x, X):
    """Contact moment pairing ``<U x, J x>`` at unit ambient points."""
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise InvalidPointError("moment map requires unit points")
    return pairing(X.generator, x)


class QuadraticFamily:
    """Functions ``<A x, J x> - c``, one per matrix ``A`` of the stack
    ``matrix`` and constant ``c`` of ``offset``: ``x^T Q x - c`` on unit
    points, with ``Q = quadratic_form``.  Values, Laplacians and stiffness
    and mass matrices are kept per ``NodeGeometry``, shared by its readers;
    a stacked row of values or Laplacians equals, bit for bit, its matrix."""

    def __init__(self, matrix, n, offset):
        self.matrix = matrix
        self.n = n
        self.offset = offset
        self._node_values, self._laplacians, self._stiffness_mass = {}, {}, {}

    @property
    def quadratic_form(self):
        return pairing_form(self.matrix, complex_structure(self.n))

    def ambient(self, y):
        """Values at nonzero points ``y``, by the pairing and not by
        ``quadratic_form``: Green's identity reads the closed form once."""
        y = np.asarray(y, dtype=float)
        xhat = y / np.linalg.norm(y, axis=-1, keepdims=True)
        # one constant per matrix, broadcast over the point axes
        offset = np.reshape(self.offset, np.shape(self.offset) + (1,) * (xhat.ndim - 1))
        return pairing(self.matrix, xhat) - offset

    def node_values(self, geo):
        """Values at the nodes of ``geo``, through :meth:`ambient`."""
        if geo not in self._node_values:
            self._node_values[geo] = self.ambient(geo.x)
        return self._node_values[geo]

    def laplacian(self, L, resolution=None):
        """``spectral.extrinsic_laplacian`` of ``quadratic_form`` at ``resolution``'s nodes."""
        geo = L.node_geometry(resolution)
        if geo not in self._laplacians:
            self._laplacians[geo] = spc.extrinsic_laplacian(L, self.quadratic_form, resolution)
        return self._laplacians[geo]

    def stiffness_mass(self, L, resolution=None):
        """``spectral.stiffness_mass`` of this family at ``resolution``'s nodes."""
        geo = L.node_geometry(resolution)
        if geo not in self._stiffness_mass:
            self._stiffness_mass[geo] = spc.stiffness_mass(L, self, resolution)
        return self._stiffness_mass[geo]


def moment_function(L, X, resolution=None):
    """The moment family of ``X`` on ``L``: the pairing of each generator
    less its quadrature mean at the nodes of ``resolution``, read from their
    second moment (no pass over the nodes)."""
    vol = L.volume(resolution)
    mean = pairing_integral(X.generator, L.node_geometry(resolution).second_moment) / vol
    return QuadraticFamily(X.generator, X.n, mean)


def quadratic_ritz(L):
    """Rayleigh-Ritz (Parlett, *The Symmetric Eigenvalue Problem*, 1980) of
    the Laplacian of ``L`` on the quadratic forms ``x^T Q x`` at the default
    nodes, which each shipped immersion maps into themselves: ascending Ritz
    values and the ``(r, d, d)`` forms of their vectors, so eigenpairs.  The
    basis is the symmetric unit ``Q`` of ``R^{2n+2}``, as the family of ``J
    Q`` (``J^T J = I``); ``M`` is whitened above 1e-10 of its largest
    eigenvalue, as ``|x|^2 = 1`` makes the forms dependent.  A non-finite
    value raises as in ``L.integrate``."""
    d = 2 * L.n + 2
    rows, cols = np.triu_indices(d)
    unit = np.zeros((len(rows), d, d))
    unit[np.arange(len(rows)), rows, cols] = unit[np.arange(len(rows)), cols, rows] = 1.0
    K, M = QuadraticFamily(complex_structure(L.n) @ unit, L.n, 0.0).stiffness_mass(L)
    mass, vectors = np.linalg.eigh(M)
    keep = mass > 1e-10 * mass[-1]
    whiten = vectors[:, keep] / np.sqrt(mass[keep])
    values, ritz = np.linalg.eigh(whiten.T @ K @ whiten)
    return values, np.tensordot((whiten @ ritz).T, unit, axes=1)


def automorphism_residuals(S, X, samples):
    """Killing and contact-form Lie-derivative residuals of a generator."""
    killing, contact = 0.0, 0.0
    for x, v, w in samples:
        V, W = _extend(v, x), _extend(w, x)
        xv = _bracket(X, V, x)
        xw = _bracket(X, W, x)
        dg = derivative(lambda p: np.dot(V(p), W(p)), x, X(x))
        killing = max(killing, abs(dg - np.dot(xv, w) - np.dot(v, xw)))
        de = derivative(lambda p: np.dot(S.apply_J(p), V(p)), x, X(x))
        contact = max(contact, abs(de - np.dot(S.apply_J(x), xv)))
    return {"killing": killing, "contact_form": contact}
