"""Icosphere mesh build and its reflection sectors."""

import numpy as np
import pytest
import scipy.sparse as sp

from legspec import icosphere as ic
from legspec.errors import PreconditionError


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


@pytest.mark.parametrize("level", range(7))
def test_reflections_map_the_mesh_onto_itself_exactly(level):
    verts, _ = ic.icosphere(level)
    # python floats hash and compare -0.0 equal to 0.0
    points = set(map(tuple, verts.tolist()))
    assert len(points) == len(verts)
    for axis in range(3):
        flipped = verts.copy()
        flipped[:, axis] = -flipped[:, axis]
        assert set(map(tuple, flipped.tolist())) == points


@pytest.mark.parametrize("level", range(7))
def test_rotation_maps_the_mesh_onto_itself_exactly(level):
    verts, _ = ic.icosphere(level)
    points = set(map(tuple, verts.tolist()))
    assert set(map(tuple, verts[:, [1, 2, 0]].tolist())) == points


@pytest.mark.parametrize("level", [0, 3, 5])
def test_sector_bases_are_orthogonal_and_complete(level):
    verts, _ = ic.icosphere(level)
    bases = ic.reflection_sectors(verts)
    assert len(bases) == 8
    # nv nonzero, pairwise orthogonal columns: a basis of the vertex space
    assert sum(b.shape[1] for b in bases) == len(verts)
    stacked = sp.hstack(bases).tocsc()
    gram = (stacked.T @ stacked).tocoo()
    off = gram.row != gram.col
    assert not np.any(gram.data[off])
    assert np.all(gram.diagonal() > 0)


@pytest.mark.parametrize("level", [3, 4])
def test_sectors_are_invariant_under_stiffness_and_mass(level):
    verts, faces = ic.icosphere(level)
    stiffness, mass = ic.cotangent_laplacian(verts, faces)
    for basis in ic.reflection_sectors(verts):
        # the columns are orthogonal, so B (B^T B)^-1 B^T projects onto their span
        inv_gram = sp.diags(1.0 / (basis.T @ basis).diagonal())
        for matrix in (stiffness, mass):
            image = matrix @ basis
            outside = image - basis @ (inv_gram @ (basis.T @ image))
            assert abs(outside).max() <= 1e-14 * abs(matrix).max()


def test_a_vertex_off_its_mirror_image_raises():
    verts, _ = ic.icosphere(3)
    verts[17, 0] = np.nextafter(verts[17, 0], 2.0)
    with pytest.raises(PreconditionError, match="no exact mirror image"):
        ic.reflection_sectors(verts)


def test_a_vertex_off_its_rotated_image_raises():
    verts, _ = ic.icosphere(3)
    # move x outward on a whole reflection orbit, whose mirror images all
    # stay exact, of a vertex with three distinct nonzero |coordinates|
    a = np.abs(verts)
    v = np.flatnonzero((a.min(axis=1) > 0) & (a[:, 0] != a[:, 1])
                       & (a[:, 1] != a[:, 2]) & (a[:, 0] != a[:, 2]))[0]
    orbit = np.all(a == a[v], axis=1)
    assert orbit.sum() == 8
    verts[orbit, 0] = np.nextafter(verts[orbit, 0], 2.0 * verts[orbit, 0])
    with pytest.raises(PreconditionError, match=r"no exact image under \(x, y, z\)"):
        ic.reflection_sectors(verts)
