"""Icosphere mesh build and its reflection sectors."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from legspec import icosphere as ic
from legspec import immersions as im
from legspec import spectral as spc
from legspec.errors import PreconditionError
from legspec.suites import SuiteConfig, run_suite


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


def _reference_bases(verts):
    """The eight sector bases as explicit sparse ``(nv, m)`` matrices, sector
    ``s`` odd in coordinate ``i`` when bit ``2 - i`` of ``s`` is set: one
    column ``sum_g chi(g) e_{g(v)}`` over the reflection orbit of each vertex
    ``v`` that is the smallest of its orbit, entries +-1, orbits on which
    ``chi`` cancels giving none.  Images are matched by sorting the vertices
    and each mirrored copy, independently of ``ic.sector_operators``."""
    nv = len(verts)
    order = np.lexsort(verts.T[::-1])
    images, characters = [np.arange(nv)], np.ones((1, 1))
    for axis in range(3):
        flipped = verts * np.where(np.arange(3) == axis, -1.0, 1.0)
        flipped_order = np.lexsort(flipped.T[::-1])
        assert np.array_equal(verts[order], flipped[flipped_order])
        mirror = np.empty(nv, dtype=int)
        mirror[flipped_order] = order
        images = [image for g in images for image in (g, mirror[g])]
        characters = np.kron(characters, [[1.0, 1.0], [1.0, -1.0]])
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


def _full_matrices(verts, faces):
    """The stiffness and lumped mass of ``ic.cotangent_laplacian`` as sparse
    ``(nv, nv)`` matrices, duplicate triplets added."""
    (rows, cols, values), mass = ic.cotangent_laplacian(verts, faces)
    stiffness = sp.csr_matrix((values, (rows, cols)), shape=(len(verts),) * 2)
    return stiffness, sp.diags(mass).tocsr()


def _projected(verts, faces, sectors=range(8), chi=True, weighted=True):
    """``D^-1/2 B^T K B D^-1/2``, ``D = B^T M B``, for the reference bases
    ``B`` of ``sectors`` and the full-size matrices, dense or sparse as
    ``ic.sector_operators`` makes them.  Two seeded defects: ``chi=False``
    drops the character (``|B|`` for ``B``), ``weighted=False`` drops the
    factor ``sqrt(s_p / s_q)`` of the orbit sizes (and symmetrizes, as the
    fold does)."""
    stiffness, mass = _full_matrices(verts, faces)
    bases = _reference_bases(verts)
    out = []
    for s in sectors:
        basis = bases[s] if chi else abs(bases[s])
        scale = sp.diags(1.0 / np.sqrt((basis.T @ mass @ basis).diagonal()))
        matrix = scale @ (basis.T @ stiffness @ basis) @ scale
        if not weighted:
            size = np.sqrt(np.diff(basis.indptr))
            matrix = sp.diags(1.0 / size) @ matrix @ sp.diags(size)
            matrix = 0.5 * (matrix + matrix.T)
        out.append(matrix.toarray() if matrix.shape[0] <= ic.DENSE_SECTOR_COLUMNS
                   else matrix.tocsr())
    return out


@pytest.mark.parametrize("level", [0, 3, 5])
def test_sector_bases_are_orthogonal_and_complete(level):
    verts, _ = ic.icosphere(level)
    bases = _reference_bases(verts)
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
    stiffness, mass = _full_matrices(verts, faces)
    for basis in _reference_bases(verts):
        # the columns are orthogonal, so B (B^T B)^-1 B^T projects onto their span
        inv_gram = sp.diags(1.0 / (basis.T @ basis).diagonal())
        for matrix in (stiffness, mass):
            image = matrix @ basis
            outside = image - basis @ (inv_gram @ (basis.T @ image))
            assert abs(outside).max() <= 1e-14 * abs(matrix).max()


@pytest.mark.parametrize("level", [0, 3, 5])
def test_folded_sectors_match_the_projected_full_matrices(level):
    verts, faces = ic.icosphere(level)
    folded = ic.sector_operators(verts, faces)
    assert sum(f.shape[0] for f in folded) == len(verts)
    octant = np.flatnonzero(np.all(verts >= 0, axis=1))
    for basis, got, want in zip(_reference_bases(verts), folded, _projected(verts, faces)):
        # dense exactly when small enough for a full eigvalsh
        assert isinstance(got, np.ndarray) == (got.shape[0] <= ic.DENSE_SECTOR_COLUMNS)
        got, want = sp.csr_matrix(got), sp.csr_matrix(want)
        # each reference column meets the octant once; order the columns by
        # that vertex's |x| and sign them +1 there, as the fold does
        at_octant = basis[octant].tocsc()
        assert np.all(np.diff(at_octant.indptr) == 1)
        order = np.lexsort(verts[octant[at_octant.indices]].T[::-1])
        flip = sp.diags(at_octant.data[order])
        want = flip @ want[order][:, order] @ flip
        assert got.shape == want.shape
        assert (got != got.T).nnz == 0
        if want.nnz:
            assert abs(got - want).max() <= 1e-14 * abs(want).max()


def _level3_spectrum(monkeypatch, level=3, **defect):
    """The spectrum report of geodesic-sphere-n2 at ``level`` (None for the
    default), with the sectors built by ``_projected`` seeded with
    ``defect``, and the status of each of its spectrum records by name."""
    monkeypatch.setattr(spc, "sector_operators", functools.partial(_projected, **defect))
    cfg = SuiteConfig(suite="spectrum", immersion="geodesic-sphere-n2", resolution=level)
    report = cfg.mesh_spectrum(cfg.selected_immersions()[0])
    return report, {r.name.split(": ")[1]: r.status for r in run_suite(cfg).records}


def test_reference_sectors_pass_the_spectrum_records(monkeypatch):
    _, status = _level3_spectrum(monkeypatch)
    assert set(status.values()) == {"pass"}


def test_dropped_character_is_inconclusive(monkeypatch):
    # every sector folds as the trivial one does, on its own orbits, and the
    # l = 2 cluster splits
    report, status = _level3_spectrum(monkeypatch, chi=False)
    assert report.multiplicity == 2
    assert status["multiplicity >= algebra bound"] == "inconclusive"


def test_dropped_character_fails_the_cluster_spread_at_the_default_level(monkeypatch):
    # at level 4 the split cluster keeps its five values and its mean
    # accuracy (0.0192 against 0.02): only the spread sees it
    report, status = _level3_spectrum(monkeypatch, level=None, chi=False)
    assert report.resolution == 4 and report.multiplicity == 5
    assert status["cluster mean accuracy"] == "pass"
    assert np.ptp(report.cluster) / report.target > 1e-2
    assert status["cluster spread"] == "fail"


@pytest.mark.parametrize("level", [3, 4, 6])
def test_l2_cluster_is_one_eigenvalue(level):
    # icosahedral symmetry makes l = 2 irreducible, but the sectors use only
    # the reflections and the rotation (x, y, z) -> (y, z, x), so its 2 + 3
    # parts come from different sector solves: a fold that shifts one part
    # splits the cluster (dropping the character gives 5.954 x3 and
    # 5.999 x2 at level 6, where every spectrum record still passes)
    report = spc.mesh_spectrum(im.get_immersion("geodesic-sphere-n2"), level)
    cluster = report.cluster
    assert len(cluster) == 5
    assert np.ptp(cluster) <= 1e-10 * np.mean(cluster)


def test_dropped_orbit_weight_fails_the_constants_eigenvalue(monkeypatch):
    # the unsymmetric scaling, symmetrized, is no longer positive semidefinite
    report, status = _level3_spectrum(monkeypatch, weighted=False)
    assert report.first_eigenvalue < -3.0
    assert status["constants eigenvalue"] == "fail"


def test_dropped_orbit_weight_fails_the_constants_eigenvalue_at_the_default_level(monkeypatch):
    report, status = _level3_spectrum(monkeypatch, level=None, weighted=False)
    assert report.resolution == 4 and report.first_eigenvalue < -8.0
    assert status["constants eigenvalue"] == "fail"


def test_a_vertex_off_its_mirror_image_raises():
    verts, faces = ic.icosphere(3)
    verts[17, 0] = np.nextafter(verts[17, 0], 2.0)
    with pytest.raises(PreconditionError, match="no exact mirror image"):
        ic.sector_operators(verts, faces)


def test_a_vertex_off_its_rotated_image_raises():
    verts, faces = ic.icosphere(3)
    # move x outward on a whole reflection orbit, whose mirror images all
    # stay exact, of a vertex with three distinct nonzero |coordinates|
    a = np.abs(verts)
    v = np.flatnonzero((a.min(axis=1) > 0) & (a[:, 0] != a[:, 1])
                       & (a[:, 1] != a[:, 2]) & (a[:, 0] != a[:, 2]))[0]
    orbit = np.all(a == a[v], axis=1)
    assert orbit.sum() == 8
    verts[orbit, 0] = np.nextafter(verts[orbit, 0], 2.0 * verts[orbit, 0])
    with pytest.raises(PreconditionError, match=r"no exact image under \(x, y, z\)"):
        ic.sector_operators(verts, faces)


def test_coinciding_vertices_raise():
    verts, faces = ic.icosphere(3)
    with pytest.raises(PreconditionError, match="two vertices coincide"):
        ic.sector_operators(np.concatenate([verts, verts[17:18]]), faces)
