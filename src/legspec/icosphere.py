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
permutations up to the rounding of their sums; :func:`reflection_sectors`
splits the vertex space into the eight sign-character sectors of the
reflection group, which the two matrices therefore leave invariant, and
the rotation permutes the sectors that are odd in equally many
coordinates, so those share one spectrum.
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


def icosphere(level, radius=1.0):
    """Vertices and faces of the level-``level`` icosphere."""
    verts, faces = icosahedron()
    for _ in range(int(level)):
        verts, faces = _subdivide(verts, faces)
    return radius * verts, faces


def cotangent_laplacian(verts, faces):
    """Stiffness matrix (cotangent weights) and lumped mass diagonal.

    Both CSR; the pair defines the generalized symmetric eigenproblem
    ``stiffness v = lambda mass v`` whose eigenvalues approximate the
    nonnegative Laplace-Beltrami spectrum.
    """
    # imported here, not at module level, so processes that never assemble
    # a mesh start without loading scipy (cold start)
    import scipy.sparse as sp

    nv = len(verts)
    tri = verts[faces]
    rows, cols, vals = [], [], []
    areas = None
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
    mass = np.zeros(nv)
    np.add.at(mass, faces.ravel(), np.repeat(areas / 3.0, 3))
    return stiffness.tocsr(), sp.diags(mass).tocsr()


def reflection_sectors(verts):
    """Bases of the eight sign-character sectors of the coordinate
    reflections ``x_i -> -x_i``, sector ``s`` odd in coordinate ``i``
    when bit ``2 - i`` of ``s`` is set.

    Each reflection, and the rotation ``(x, y, z) -> (y, z, x)``, must map
    the vertex set onto itself exactly; a vertex without an exact image
    raises ``PreconditionError``.  The rotation maps each sector onto the
    sectors odd in as many coordinates, so sectors 1, 2, 4 share one
    spectrum, and so do 3, 5, 6.  A column of the basis of character
    ``chi`` is ``sum_g chi(g) e_{g(v)}`` over the reflection orbit of one
    vertex ``v``, with entries +-1 (orbits on which ``chi`` cancels give
    none).  The columns of the eight sparse ``(nv, m)`` bases are
    pairwise orthogonal and number ``nv`` in all.
    """
    # imported here for cold start, as in cotangent_laplacian
    import scipy.sparse as sp

    nv = len(verts)
    order = np.lexsort(verts.T[::-1])

    def permutation(moved, what):
        """The vertex permutation taking each vertex to its image, the
        same row of ``moved``, if the two sets agree exactly."""
        moved_order = np.lexsort(moved.T[::-1])
        if not np.array_equal(verts[order], moved[moved_order]):
            raise PreconditionError(f"a vertex has no exact {what}")
        out = np.empty(nv, dtype=int)
        out[moved_order] = order
        return out

    # images[g] maps each vertex to its image under group element g, and
    # characters[g, s] is the sign of g in sector s
    images, characters = [np.arange(nv)], np.ones((1, 1))
    for axis in range(3):
        flipped = verts * np.where(np.arange(3) == axis, -1.0, 1.0)
        mirror = permutation(flipped, f"mirror image under x{axis} -> -x{axis}")
        images = [image for g in images for image in (g, mirror[g])]
        characters = np.kron(characters, [[1.0, 1.0], [1.0, -1.0]])
    permutation(verts[:, [1, 2, 0]], "image under (x, y, z) -> (y, z, x)")
    # one column per orbit, keyed by its smallest vertex
    orbits = np.flatnonzero(np.min(images, axis=0) == np.arange(nv))
    rows = np.array(images)[:, orbits].ravel()
    cols = np.tile(np.arange(len(orbits)), 8)
    bases = []
    for chi in characters.T:
        # duplicate entries (orbits of fewer than 8 vertices) are summed
        basis = sp.csc_matrix((np.repeat(chi, len(orbits)), (rows, cols)),
                              shape=(nv, len(orbits)))
        basis.eliminate_zeros()
        basis = basis[:, np.diff(basis.indptr) > 0]
        basis.data = np.sign(basis.data)
        bases.append(basis)
    return bases
