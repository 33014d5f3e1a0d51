"""Automorphism algebra and moment-map function family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from legspec import immersions as im
from legspec import moment as mo
from legspec import sasaki as sk
from legspec.config import ZERO_FUNCTION
from legspec.errors import InvalidFieldError, InvalidPointError
from legspec.suites import SuiteConfig, run_suite


def diag_generator(n, entries):
    return mo.AutomorphismField(
        mo._real_form(np.zeros((n + 1, n + 1)), np.diag(entries)), n, "i*diag"
    )


class TestAlgebraBasis:
    def test_real_form_is_the_block_matrix(self):
        # the block layout [[A, -B], [B, A]], bit for bit, zero signs and
        # the dtype of an integer diagonal included
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            A, B = rng.standard_normal((2, n + 1, n + 1))
            for a, b in ((A, B), (A, 0.0 * A), (np.zeros_like(A), np.diag(np.arange(n + 1) - 1))):
                got, expected = mo._real_form(a, b), np.block([[a, -b], [b, a]])
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,expected", [(1, 4), (2, 9), (3, 16)])
    def test_dimension(self, n, expected):
        assert len(mo.algebra_basis(n)) == expected

    def test_generators_are_independent(self):
        for n in (1, 2):
            mats = np.array([X.generator.ravel() for X in mo.algebra_basis(n)])
            gram = mats @ mats.T
            assert np.linalg.matrix_rank(gram) == (n + 1) ** 2

    def test_generator_invariants(self):
        S = sk.SphereSasaki(2)
        rng = np.random.default_rng(1)
        x = S.random_point(rng, count=50)
        for X in mo.algebra_basis(2):
            U = X.generator
            assert np.max(np.abs(U + U.T)) <= 1e-12
            assert np.max(np.abs(U @ S.J - S.J @ U)) <= 1e-12
            assert np.max(np.abs(np.einsum("ki,ki->k", X(x), x))) <= 1e-12

    def test_killing_and_contact_preservation(self):
        for n in (1, 2):
            S = sk.SphereSasaki(n)
            samples = sk.sample_tangent_triples(S, 10, seed=13)
            for X in mo.algebra_basis(n):
                res = mo.automorphism_residuals(S, X, samples)
                assert res["killing"] <= 1e-7, X.label
                assert res["contact_form"] <= 1e-7, X.label

    def test_derivative_calls_do_not_grow_with_the_samples(self, monkeypatch):
        calls = []
        derivative = mo.derivative

        def counted(*args):
            calls.append(1)
            return derivative(*args)

        # automorphism_residuals differentiates directly and through
        # sasaki's brackets
        monkeypatch.setattr(mo, "derivative", counted)
        monkeypatch.setattr(sk.rm, "derivative", counted)
        S = sk.SphereSasaki(2)
        algebra = mo.stack_fields(mo.algebra_basis(2), "u(n+1)")
        counts = []
        for count in (10, 100):
            calls.clear()
            mo.automorphism_residuals(S, algebra, sk.sample_tangent_triples(S, count, seed=0))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_nan_sample_reaches_both_residuals(self):
        S = sk.SphereSasaki(1)
        samples = sk.sample_tangent_triples(S, 10, seed=0)
        x, v, w = samples[3]
        samples[3] = (np.full_like(x, np.nan), v, w)
        res = mo.automorphism_residuals(S, mo.algebra_basis(1)[0], samples)
        assert np.isnan(res["killing"]) and np.isnan(res["contact_form"])

    def test_bad_generator_rejected(self):
        bad = np.eye(4)
        with pytest.raises(InvalidFieldError):
            mo.AutomorphismField(bad, 1)


class TestMoment:
    def test_unit_diagonal_at_basis_point(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert_allclose(mo.moment(e1, mo.algebra_basis(2)[0]), 1.0, atol=0.0)

    def test_real_skew_vanishes_on_real_points(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        x = np.concatenate([v, np.zeros(3)])
        X = mo.algebra_basis(2)[3]
        assert X.label.startswith("E[")
        assert_allclose(mo.moment(x, X), 0.0, atol=1e-15)

    def test_reeb_generator_gives_one_everywhere(self):
        S = sk.SphereSasaki(2)
        rng = np.random.default_rng(3)
        x = S.random_point(rng, count=100)
        assert_allclose(mo.moment(x, mo.reeb_generator(2)), 1.0, atol=1e-12)

    def test_moment_equals_contact_pairing(self):
        S = sk.SphereSasaki(1)
        rng = np.random.default_rng(4)
        x = S.random_point(rng, count=50)
        for X in mo.algebra_basis(1):
            assert_allclose(mo.moment(x, X), S.eta(x, X(x)), atol=1e-14)

    def test_off_sphere_point_rejected(self):
        with pytest.raises(InvalidPointError):
            mo.moment(np.full(4, 0.9), mo.reeb_generator(1))


class TestMomentFunction:
    def test_reeb_generator_gives_zero_function(self):
        for L in (im.great_circle(), im.clifford_torus()):
            f = mo.moment_function(L, mo.reeb_generator(L.n))
            assert np.max(np.abs(f.node_values(L.node_geometry()))) <= 1e-12
            assert_allclose(f.offset, 1.0, atol=1e-12)

    def test_real_skew_gives_zero_on_geodesic_sphere(self):
        L = im.geodesic_sphere(2)
        X = mo.algebra_basis(2)[3]
        f = mo.moment_function(L, X)
        assert np.max(np.abs(f.node_values(L.node_geometry()))) <= 1e-12

    def test_diagonal_difference_on_geodesic_sphere(self):
        # i*diag(1,-1,0) pairs to x1^2 - x2^2 on real points, mean zero
        L = im.geodesic_sphere(2)
        f = mo.moment_function(L, diag_generator(2, [1.0, -1.0, 0.0]))
        u, _ = L.nodes()
        pts = L.points(u)
        assert_allclose(f.ambient(pts), pts[:, 0] ** 2 - pts[:, 1] ** 2, atol=1e-8)
        assert abs(f.offset) <= 1e-8

    def test_mean_zero_for_all_basis_and_builtins(self):
        for name in ("great-circle-s3", "geodesic-sphere-n2", "geodesic-sphere-n3", "clifford-torus-s5"):
            L = im.get_immersion(name)
            vol = L.volume()
            for X in mo.algebra_basis(L.n):
                f = mo.moment_function(L, X)
                assert abs(L.integrate(f.node_values(L.node_geometry()))) <= 1e-8 * vol

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        i=st.integers(0, 8),
        j=st.integers(0, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, i, j):
        L = _TORUS
        basis = _BASIS9
        X, Y = basis[i], basis[j]
        mixed = mo.AutomorphismField(
            a * X.generator + b * Y.generator, 2, "mix"
        )
        u = _TORUS_NODES
        fa = mo.moment_function(L, X).ambient(L.points(u))
        fb = mo.moment_function(L, Y).ambient(L.points(u))
        fm = mo.moment_function(L, mixed).ambient(L.points(u))
        assert np.max(np.abs(fm - a * fa - b * fb)) <= 1e-10 * (1 + abs(a) + abs(b))

    def test_kernel_rank_on_geodesic_spheres(self):
        # generators tangent along the real sphere span exactly the real
        # rotation subalgebra: rank of sampled normal parts is
        # (n+1)^2 - n(n+1)/2
        for n in (1, 2, 3):
            geo = im.geodesic_sphere(n).node_geometry()
            sel = geo[:: max(1, len(geo.u) // 40)]
            rows = []
            for X in mo.algebra_basis(n):
                split = im.normal_split(sel, X)
                rows.append(split.normal.ravel())
            mat = np.array(rows)
            svals = np.linalg.svd(mat, compute_uv=False)
            rank = int(np.sum(svals > 1e-8 * svals[0]))
            expected = (n + 1) ** 2 - n * (n + 1) // 2
            assert rank == expected, n

    @pytest.mark.parametrize(
        "immersion,resolution,rank",
        [("geodesic-sphere-n2", 20, 6), ("geodesic-sphere-n3", 10, 10)],
    )
    def test_kernel_rank_record_at_grid_aligned_resolutions(self, immersion, resolution, rank):
        # a node stride that divides the inner grid blocks samples a single
        # curve, whose normal parts have too small a rank
        cfg = SuiteConfig(suite="moment-family", immersion=immersion, resolution=resolution)
        kernel = [r for r in run_suite(cfg).records if r.anchor == "tangent-generator-kernel"]
        assert [(r.value, r.status) for r in kernel] == [(rank, "pass")]

    def test_kernel_rank_is_inconclusive_on_too_few_nodes(self):
        # two antipodal nodes share one normal plane: rank 2 of 3, while the
        # default nodes reach 3, so the deficit is the nodes', not the family's
        cfg = SuiteConfig(suite="moment-family", immersion="great-circle-s3", resolution=2)
        report = run_suite(cfg)
        kernel = [r for r in report.records if r.anchor == "tangent-generator-kernel"]
        assert [(r.value, r.status) for r in kernel] == [(2, "inconclusive")]
        assert kernel[0].details["rank"] == 2
        assert kernel[0].details["default_rank"] == 3
        assert report.exit_code() == 2

    @pytest.mark.parametrize(
        "immersion,resolution,false_zeros",
        [("clifford-torus-s5", 1, 6), ("clifford-torus-s5", 2, 3), ("great-circle-s3", 4, 1)],
    )
    def test_zero_only_at_too_few_nodes_is_inconclusive(self, immersion, resolution, false_zeros):
        # the default nodes integrate f^2 exactly with positive weights, so a
        # function zero at the requested nodes but not at the default ones
        # is nonzero: its eigen-residual is unknown, not degenerate
        report = run_suite(SuiteConfig(suite="moment-family", immersion=immersion,
                                       resolution=resolution))
        default = run_suite(SuiteConfig(suite="moment-family", immersion=immersion))
        eigen, at_default = (
            [r for r in rep.records if r.anchor == "moment-family-eigenvalue"]
            for rep in (report, default)
        )
        unknown = [r for r in eigen if r.status == "inconclusive"]
        assert len(unknown) == false_zeros
        assert all(r.details["sup_norm"] <= ZERO_FUNCTION < r.details["default_sup_norm"]
                   for r in unknown)
        # the functions that are zero stay degenerate
        assert ([r.name for r in eigen if r.status == "degenerate"]
                == [r.name for r in at_default if r.status == "degenerate"])
        assert report.exit_code() == 2 and default.exit_code() == 0

    @pytest.mark.parametrize("resolution", [None, 1])
    def test_kernel_rank_fails_when_a_normal_part_is_lost(self, monkeypatch, resolution):
        # i*E[1,1] has a normal part outside the span of the others; zeroing
        # it drops the rank below 6 at every node set, the default one
        # included, so a low resolution cannot turn the defect inconclusive
        split = im.normal_split

        def defective(geo, X):
            out = split(geo, X)
            out.normal[0] = 0.0
            return out

        monkeypatch.setattr(im, "normal_split", defective)
        cfg = SuiteConfig(suite="moment-family", immersion="geodesic-sphere-n2",
                          resolution=resolution)
        kernel = [r for r in run_suite(cfg).records if r.anchor == "tangent-generator-kernel"]
        assert [r.status for r in kernel] == ["fail"]


_TORUS = im.clifford_torus()
_TORUS_NODES = _TORUS.nodes(16)[0]
_BASIS9 = mo.algebra_basis(2)
