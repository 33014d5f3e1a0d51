"""The u(n+1) automorphism algebra and the contact moment map.

Generators are stored as real ``(2n+2) x (2n+2)`` matrices in the stacked
layout, i.e. the real form of a complex skew-Hermitian matrix: skew
matrices commuting with ``J``.  The induced linear vector field
``x -> U x`` is tangent to the sphere, Killing, and preserves the contact
form; the moment map pairs it with the Reeb direction,
``mu(x)(X) = <U x, J x> = eta_x(X_x)``.

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
    return np.block([[A, -B], [B, A]])


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


def moment(x, X):
    """Contact moment pairing ``<U x, J x>`` at unit ambient points."""
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise InvalidPointError("moment map requires unit points")
    return np.einsum("...i,...i->...", X(x), x @ complex_structure(X.n).T)


class QuadraticFamily:
    """Functions ``x^T Q x`` on unit points, each less a constant, of the
    stacked symmetric ``quadratic_form`` ``Q``, evaluated by ``ambient``.
    Values and closed-form Laplacians at the nodes of a ``NodeGeometry``
    are kept, so every reader of one node set shares one evaluation; a
    stacked row equals, bit for bit, the value of its form alone, so a
    slice of the rows is exact."""

    def __init__(self):
        self._node_values, self._laplacians = {}, {}

    def node_values(self, geo):
        """Values at the nodes of ``geo``, through :meth:`ambient`."""
        if geo not in self._node_values:
            self._node_values[geo] = self.ambient(geo.x)
        return self._node_values[geo]

    def laplacian(self, L, resolution=None):
        """``spectral.extrinsic_laplacian`` of ``quadratic_form`` along
        ``L`` at the nodes of ``resolution``."""
        geo = L.node_geometry(resolution)
        if geo not in self._laplacians:
            self._laplacians[geo] = spc.extrinsic_laplacian(L, self.quadratic_form, resolution)
        return self._laplacians[geo]


class MomentFunction(QuadraticFamily):
    """The mean-free moment-map function of a generator along an immersion.

    ``ambient`` evaluates the radially constant extension at arbitrary
    nonzero ambient points; ``on_chart`` evaluates at chart coordinates and
    ``node_values`` at the nodes of a ``NodeGeometry``, once per node set.
    ``mean_value`` is the quadrature mean that was subtracted, one per
    generator of a stacked field.  On unit points the function is
    ``x^T Q x - mean_value`` with ``Q = quadratic_form``.
    """

    def __init__(self, immersion, generator, mean_value):
        super().__init__()
        self.immersion = immersion
        self.generator = generator
        self.mean_value = mean_value

    def ambient(self, y):
        y = np.asarray(y, dtype=float)
        xhat = y / np.linalg.norm(y, axis=-1, keepdims=True)
        # one mean per generator, broadcast over the point axes
        mean = np.reshape(self.mean_value, np.shape(self.mean_value) + (1,) * (xhat.ndim - 1))
        return moment(xhat, self.generator) - mean

    @property
    def quadratic_form(self):
        return pairing_form(self.generator.generator, complex_structure(self.generator.n))

    def on_chart(self, u):
        return self.ambient(self.immersion.points(u))

    def values(self, resolution=None):
        return self.node_values(self.immersion.node_geometry(resolution))


def moment_function(L, X, resolution=None):
    """Moment-map function on ``L`` with its quadrature mean removed."""
    vol = L.volume(resolution)
    raw = moment(L.node_geometry(resolution).x, X)
    mean = L.integrate(raw, resolution) / vol
    return MomentFunction(L, X, mean)


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
