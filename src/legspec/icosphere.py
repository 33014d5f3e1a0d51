"""Icosphere meshes and the cotangent Laplace-Beltrami discretization.

Subdividing the icosahedron ``level`` times and projecting to the sphere
gives ``10 * 4^level + 2`` vertices.  The cotangent-weight stiffness
matrix with barycentric lumped mass is the standard piecewise-linear
finite-element Laplacian on the induced round metric.  The mesh maps
onto itself bit for bit under each coordinate reflection ``x_i -> -x_i``,
since negating a coordinate is exact in floating point, and under the
rotation ``(x, y, z) -> (y, z, x)`` of the icosahedron's orientation,
since midpoints are normalized by a norm that does not depend on the
order of the coordinates.  Both matrices commute with these vertex
permutations up to rounding, so they leave the eight sign-character
sectors of the reflections invariant, and the rotation permutes the
sectors odd in equally many coordinates, which share one spectrum.
:func:`sector_operators` assembles each sector on the octant
``x, y, z >= 0``, a fundamental domain of the reflections (A. Bossavit,
"Symmetry, groups and boundary value problems", Comput. Methods Appl.
Mech. Engrg. 56, 1986).
"""

import numpy as np

from .errors import PreconditionError


def icosahedron():
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=int,
    )
    return verts, faces


def _subdivide(verts, faces):
    """Split every face into four through its projected edge midpoints.

    Midpoints are numbered in order of first appearance along the faces'
    ``ab, bc, ca`` edges, so the face array does not depend on how the
    edges are deduplicated.
    """
    nv = len(verts)
    edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, first, inverse = np.unique(
        edges[:, 0] * nv + edges[:, 1], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mid = (nv + rank[inverse]).reshape(-1, 3)
    i, j = np.divmod(keys[order], nv)
    p = verts[i] + verts[j]
    # the squares are summed in sorted order, so permuting the coordinates
    # permutes the midpoint exactly (a sum in coordinate order, as in
    # np.linalg.norm, can round differently after a permutation)
    p /= np.sqrt(np.sort(p * p, axis=1).sum(axis=1))[:, None]
    a, b, c = faces.T
    ab, bc, ca = mid.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([verts, p]), out.reshape(-1, 3)


def icosphere(level):
    """Vertices and faces of the level-``level`` icosphere."""
    verts, faces = icosahedron()
    for _ in range(int(level)):
        verts, faces = _subdivide(verts, faces)
    return verts, faces


def cotangent_laplacian(verts, faces):
    """Stiffness matrix (cotangent weights) and lumped mass diagonal, both
    CSR, assembled from ``faces``: a vertex's row is exact when every face
    around it is given.  On the whole mesh ``stiffness v = lambda mass v``
    has eigenvalues approximating the nonnegative Laplace-Beltrami spectrum.
    """
    # imported here, not at module level, so processes that never assemble
    # a mesh start without loading scipy (cold start)
    import scipy.sparse as sp

    nv = len(verts)
    tri = verts[faces]
    rows, cols, vals = [], [], []
    for k in range(3):
        i = faces[:, (k + 1) % 3]
        j = faces[:, (k + 2) % 3]
        e1 = tri[:, (k + 1) % 3] - tri[:, k]
        e2 = tri[:, (k + 2) % 3] - tri[:, k]
        area2 = np.linalg.norm(np.cross(e1, e2), axis=1)
        cot = (e1 * e2).sum(axis=1) / area2
        rows += [i, j]
        cols += [j, i]
        vals += [-0.5 * cot, -0.5 * cot]
        if k == 0:
            areas = 0.5 * area2
    stiffness = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nv, nv),
    )
    stiffness = stiffness - sp.diags(np.asarray(stiffness.sum(axis=1)).ravel())
    mass = np.bincount(faces.ravel(), np.repeat(areas / 3.0, 3), minlength=nv)
    return stiffness.tocsr(), sp.diags(mass).tocsr()


def sector_operators(verts, faces, sectors=range(8)):
    """Mass-scaled Laplacian of each reflection sector in ``sectors``, a
    symmetric sparse matrix assembled on the octant ``x, y, z >= 0``.

    Sector ``s`` is odd in coordinate ``i`` when bit ``2 - i`` of ``s`` is
    set.  Its basis ``B`` has one column ``sum_j chi(j) e_j`` over the
    ``s_q`` vertices of each reflection orbit ``q`` on which the character
    ``chi`` does not cancel; with stiffness ``K`` and lumped mass ``m``,
    ``D = B^T M B`` is ``diag(s_q m_q)`` and ``D^-1/2 B^T K B D^-1/2`` is
    returned.  The reflections fix ``K``, so its entry ``(p, q)`` is
    ``sum_{j in q} chi(j) K[r_p, j] sqrt(s_p / s_q) / sqrt(m_p m_q)``, with
    ``r_p`` the vertex of orbit ``p`` in the octant: only the faces that
    touch the octant are assembled.

    Each orbit must hold ``2^k`` vertices with distinct sign patterns, ``k``
    its nonzero coordinates, and the rotation ``(x, y, z) -> (y, z, x)`` must
    map the orbits onto themselves; otherwise ``PreconditionError``.  The
    rotation maps each sector onto those odd in as many coordinates, so
    sectors 1, 2, 4 share one spectrum, and so do 3, 5, 6.
    """
    # imported here for cold start, as in cotangent_laplacian
    import scipy.sparse as sp

    # one orbit per distinct row of |x|, numbered in sorted order
    a = np.abs(verts)
    order = np.lexsort(a.T[::-1])
    first = np.r_[True, np.any(a[order[1:]] != a[order[:-1]], axis=1)]
    rows = a[order[first]]
    orbit = np.empty(len(a), dtype=int)
    orbit[order] = np.cumsum(first) - 1
    # bit 2 - i of a sign pattern is set when x_i < 0 (-0.0 is not)
    bits = np.array([4, 2, 1])
    sign = (verts < 0) @ bits
    present = np.zeros((len(rows), 8), dtype=bool)
    present[orbit, sign] = True
    size = np.bincount(orbit)
    if np.any(present.sum(axis=1) != size) or np.any(size != 2 ** np.sum(rows > 0, axis=1)):
        raise PreconditionError("a vertex has no exact mirror image under x_i -> -x_i, "
                                "or two vertices coincide")
    turned = rows[:, [1, 2, 0]]
    if not np.array_equal(rows, turned[np.lexsort(turned.T[::-1])]):
        raise PreconditionError("a vertex has no exact image under (x, y, z) -> (y, z, x)")

    # the vertex of each orbit in the octant, and every face touching one
    octant = sign == 0
    rep = np.empty(len(rows), dtype=int)
    rep[orbit[octant]] = np.flatnonzero(octant)
    stiffness, mass = cotangent_laplacian(verts, faces[octant[faces].any(axis=1)])
    k = stiffness[rep].tocoo()
    m = mass.diagonal()[rep]
    # chi in sector s of a sign pattern: -1 to the number of bits they share
    parity = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    out = []
    for s in sectors:
        # chi cancels on an orbit with an odd coordinate zero
        keep = ((rows > 0) @ bits & s) == s
        folded = sp.csr_matrix((k.data * parity[sign[k.col] & s], (k.row, orbit[k.col])),
                               shape=(len(rows),) * 2)[keep][:, keep]
        sector = (sp.diags(np.sqrt(size[keep] / m[keep])) @ folded
                  @ sp.diags(1.0 / np.sqrt(size[keep] * m[keep])))
        out.append(((sector + sector.T) * 0.5).tocsr())
    return out
