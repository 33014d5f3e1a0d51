"""Icosphere mesh build and its elimination order."""

import numpy as np
import pytest

from legspec import icosphere as ic


def _reference_subdivide(verts, faces):
    """Per-edge loop: midpoints numbered in order of first appearance."""
    verts = [tuple(v) for v in verts]
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            p = np.array(verts[i]) + np.array(verts[j])
            p /= np.linalg.norm(p)
            cache[key] = len(verts)
            verts.append(tuple(p))
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), np.array(out, dtype=int)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_subdivide_matches_per_edge_loop(level):
    verts, faces = ic.icosphere(level - 1)
    got_v, got_f = ic._subdivide(verts, faces)
    ref_v, ref_f = _reference_subdivide(verts, faces)
    assert np.array_equal(got_f, ref_f)
    # a row norm and a vector norm may round differently in the last bit
    assert np.max(np.abs(got_v - ref_v)) <= 4.5e-16


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_mesh_is_a_closed_outward_oriented_sphere(level):
    verts, faces = ic.icosphere(level)
    assert len(verts) == 10 * 4**level + 2
    assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, rtol=0.0, atol=1e-15)
    edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, per_edge = np.unique(edges, axis=0, return_counts=True)
    assert np.all(per_edge == 2)
    assert len(verts) - len(per_edge) + len(faces) == 2
    tri = verts[faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    assert np.all(np.einsum("ij,ij->i", normals, tri.sum(axis=1)) > 0.0)


@pytest.mark.parametrize("level", [0, 2, 4])
def test_nested_dissection_is_a_permutation(level):
    verts, faces = ic.icosphere(level)
    perm = ic.nested_dissection(verts, faces)
    assert np.array_equal(np.sort(perm), np.arange(len(verts)))
