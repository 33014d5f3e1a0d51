"""Icosphere meshes and the cotangent Laplace-Beltrami discretization.

Subdividing the icosahedron ``level`` times and projecting to the sphere
gives ``10 * 4^level + 2`` vertices.  The cotangent-weight stiffness
matrix with barycentric lumped mass is the standard piecewise-linear
finite-element Laplacian on the induced round metric;
:func:`nested_dissection` orders its vertices for a sparse factorization.
"""

import numpy as np
import scipy.sparse as sp


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
    p /= np.linalg.norm(p, axis=1)[:, None]
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


# subsets this small are not dissected further; at level 6 the factor has
# 4.25 M nonzeros at 32, 4.04 M at 8 for four times the recursion, 5.44 M
# at 256
_DISSECTION_LEAF = 32


def nested_dissection(verts, faces):
    """Fill-reducing elimination order for matrices on the mesh graph.

    The vertex set is bisected along its widest coordinate axis; the
    left-side vertices with a right-side neighbour form the separator,
    which is ordered after both halves, and each half is dissected
    recursively.  Returns a permutation of ``range(len(verts))``.
    """
    nv = len(verts)
    # neighbour table, one row per vertex, listing each neighbour once per
    # shared face and padded with nv, whose on_right entry stays False
    pairs = faces[:, [0, 1, 1, 2, 2, 0, 1, 0, 2, 1, 0, 2]].reshape(-1, 2)
    src, dst = pairs[np.argsort(pairs[:, 0], kind="stable")].T
    slot = np.arange(len(src)) - np.searchsorted(src, src)
    neighbours = np.full((nv, slot.max() + 1), nv)
    neighbours[src, slot] = dst
    on_right = np.zeros(nv + 1, dtype=bool)
    order = []

    def dissect(idx):
        if len(idx) <= _DISSECTION_LEAF:
            order.append(idx)
            return
        x = verts[idx]
        axis = np.argmax(x.max(axis=0) - x.min(axis=0))
        idx = idx[np.argsort(x[:, axis], kind="stable")]
        left, right = idx[: len(idx) // 2], idx[len(idx) // 2:]
        on_right[right] = True
        cut = on_right[neighbours[left]].any(axis=1)
        on_right[right] = False
        dissect(left[~cut])
        dissect(right)
        order.append(left[cut])

    dissect(np.arange(nv))
    return np.concatenate(order)


def cotangent_laplacian(verts, faces):
    """Stiffness matrix (cotangent weights) and lumped mass diagonal.

    Both CSR; the pair defines the generalized symmetric eigenproblem
    ``stiffness v = lambda mass v`` whose eigenvalues approximate the
    nonnegative Laplace-Beltrami spectrum.
    """
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
