"""Structure-identity suites on the round spheres S^3 and S^5."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from legspec import riemannian as rm
from legspec import sasaki as sk
from legspec.suites import SuiteConfig, run_suite
from legspec.errors import InvalidSampleError


@pytest.fixture(scope="module", params=[1, 2], ids=["s3", "s5"])
def sphere(request):
    return sk.SphereSasaki(request.param)


class TestAxioms:
    def test_residuals_over_seeded_samples(self, sphere):
        samples = sk.sample_tangent_triples(sphere, 50, seed=101)
        res = sk.verify_sasaki_axioms(sphere, samples)
        assert set(res) == {
            "eta_reeb",
            "reeb_contraction",
            "phi_square",
            "metric_compatibility",
            "deta_phi",
            "normality",
        }
        for name, value in res.items():
            assert value <= 1e-7, name

    def test_reeb_insertion_vanishes(self, sphere):
        # iota_xi d eta = 0 checked with v replaced by the Reeb vector
        rng = np.random.default_rng(3)
        x = sphere.random_point(rng)
        w = sphere.random_tangent(rng, x)
        val = sk.contact_two_form(sphere, sphere.reeb, sk._extend(w, x), x)
        assert abs(val) <= 1e-8

    def test_zero_vector_residuals_vanish(self, sphere):
        rng = np.random.default_rng(4)
        x = sphere.random_point(rng)
        z = np.zeros(sphere.embed_dim)
        res = sk.verify_sasaki_axioms(sphere, [(x, z, z)])
        assert res["metric_compatibility"] == 0.0
        assert res["deta_phi"] == 0.0

    def test_non_tangent_sample_rejected(self, sphere):
        rng = np.random.default_rng(5)
        x = sphere.random_point(rng)
        with pytest.raises(InvalidSampleError):
            sk.verify_sasaki_axioms(sphere, [(x, x.copy(), x.copy())])
        # one bad sample among 100, last: a vector off the tangent space,
        # then a point off the unit sphere with tangent vectors
        samples = sk.sample_tangent_triples(sphere, 100, seed=5)
        x, v, w = samples[-1]
        with pytest.raises(InvalidSampleError, match="not tangent"):
            sk.verify_sasaki_axioms(sphere, samples[:-1] + [(x, v, w + 1e-6 * x)])
        with pytest.raises(InvalidSampleError, match="unit sphere"):
            sk.verify_sasaki_axioms(sphere, samples[:-1] + [(1.5 * x, v, w)])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_sample_reaches_every_axiom(self, sphere):
        # a nan point passes both guards; its residuals must not be dropped
        samples = sk.sample_tangent_triples(sphere, 10, seed=0)
        x, v, w = samples[3]
        samples[3] = (np.full_like(x, np.nan), v, w)
        assert all(np.isnan(value) for value in sk.verify_sasaki_axioms(sphere, samples).values())

    def test_batched_axioms_equal_the_max_of_one_sample_calls(self, sphere):
        # bit for bit, so no sample's vectors meet another sample's point
        samples = sk.sample_tangent_triples(sphere, 100, seed=0)
        batched = sk.verify_sasaki_axioms(sphere, samples)
        singles = [sk.verify_sasaki_axioms(sphere, [t]) for t in samples]
        for axiom, value in batched.items():
            assert value == max(r[axiom] for r in singles), axiom

    def test_derivative_calls_do_not_grow_with_the_samples(self, sphere, monkeypatch):
        calls = []
        derivative = rm.derivative

        def counted(*args):
            calls.append(1)
            return derivative(*args)

        monkeypatch.setattr(rm, "derivative", counted)
        counts = []
        for count in (10, 100):
            calls.clear()
            sk.verify_sasaki_axioms(sphere, sk.sample_tangent_triples(sphere, count, seed=0))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestPointwiseStructure:
    def test_reeb_is_jx_and_eta_is_its_dual(self, sphere):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = sphere.random_point(rng)
            v = sphere.random_tangent(rng, x)
            assert_allclose(sphere.reeb(x), sphere.apply_J(x), atol=0.0)
            assert_allclose(sphere.eta(x, v), np.dot(sphere.apply_J(x), v), atol=0.0)

    def test_phi_is_tangential_projection_of_j(self, sphere):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = sphere.random_point(rng)
            v = sphere.random_tangent(rng, x)
            jv = sphere.apply_J(v)
            expected = jv - np.dot(jv, x) * x
            assert np.max(np.abs(sphere.phi(x, v) - expected)) <= 1e-12

    def test_j_squares_to_minus_identity(self, sphere):
        assert_allclose(sphere.J @ sphere.J, -np.eye(sphere.embed_dim), atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complex_structure_is_one_read_only_array(self, n):
        J = sk.complex_structure(n)
        assert sk.complex_structure(n) is J
        assert not J.flags.writeable
        with pytest.raises(ValueError):
            J[0, 0] = 1.0
        m = n + 1
        eye, zero = np.eye(m), np.zeros((m, m))
        assert J.tobytes() == np.block([[zero, -eye], [eye, zero]]).tobytes()


def chart_points(dim):
    """The hemisphere chart centre and two points off it, |u| <= 0.5."""
    u = np.random.default_rng(8).standard_normal((2, dim))
    return [np.zeros(dim), *(u * np.array([[0.2], [0.5]]) / np.linalg.norm(u, axis=1)[:, None])]


class TestEtaEinstein:
    def test_round_spheres_have_constant_2n(self, sphere):
        for u in chart_points(sphere.dim):
            assert sk.eta_einstein_residual(sphere, u) <= 1e-13

    def test_wrong_constant_is_detected(self, sphere):
        # with A' = 2n + 1 the residual is max |g^-1 Ric - (2n + 1) I|,
        # and Ric = 2n g makes it exactly 1 up to roundoff
        for u in chart_points(sphere.dim):
            res = sk.eta_einstein_residual(sphere, u, constant=sphere.einstein_constant + 1)
            assert_allclose(res, 1.0, atol=1e-13)


class TestCone:
    def test_chart_cross_check(self, sphere):
        assert sk.SphereCone(sphere).ricci_via_chart([1.5]) <= 1e-5

    def test_chart_cross_check_at_sampled_radius_ends(self, sphere):
        # the suite samples r in [0.5, 2.0]
        assert sk.SphereCone(sphere).ricci_via_chart([0.5, 0.5001, 2.0]) <= 1e-5

    @pytest.mark.parametrize("seed", [24, 33, 52, 55])
    def test_suite_passes_at_seeds_sampling_r_near_half(self, seed):
        # each of these seeds draws a chart cross-check radius r < 0.53
        assert np.random.default_rng(seed + 1).uniform(0.5, 2.0, 2).min() < 0.53
        assert run_suite(SuiteConfig(suite="sasaki-axioms", seed=seed)).exit_code() == 0

    def test_wrong_cone_metric_fails(self, sphere):
        assert sk.defective_cone_ricci(sphere, [1.5]) >= 0.1


class _FlippedTerms:
    """numpy as seen by ``legspec.riemannian``, with the sign of the
    Riemann stencil terms computed by the einsums in ``subscripts`` flipped."""

    def __init__(self, subscripts):
        self.subscripts = subscripts

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands):
        out = np.einsum(subscripts, *operands)
        return -out if subscripts in self.subscripts else out


@pytest.mark.parametrize(
    "subscripts,failing",
    [
        # both records sit where Gamma != 0: the eta-Einstein record off the
        # hemisphere chart centre, the cone chart at radius r
        (("dae,ebc->abcd", "dbe,eac->abcd"), {"cone-ricci-flat", "eta-einstein-constant"}),
        (("adbc->abcd", "bdac->abcd"), {"cone-ricci-flat", "eta-einstein-constant"}),
    ],
    ids=["gamma-gamma", "d-gamma"],
)
def test_seeded_stencil_defect_fails_the_curvature_records(monkeypatch, subscripts, failing):
    monkeypatch.setattr(rm, "np", _FlippedTerms(subscripts))
    report = run_suite(SuiteConfig(suite="sasaki-axioms"))
    curvature = [r for r in report.records if r.anchor in ("cone-ricci-flat", "eta-einstein-constant")]
    assert len(curvature) == 6  # n = 1, 2, 3
    assert {r.anchor for r in curvature if r.status == "fail"} == failing
    assert all(r.status == "pass" for r in curvature if r.anchor not in failing)


@pytest.mark.parametrize(
    "defect,failing",
    [
        ("doubled-deta", {"deta_phi", "normality"}),
        ("negated-phi-field", {"normality"}),
    ],
)
def test_seeded_derivative_defect_fails_the_axiom_records(monkeypatch, defect, failing):
    if defect == "doubled-deta":
        two_form = sk.contact_two_form
        monkeypatch.setattr(sk, "contact_two_form", lambda *args: 2.0 * two_form(*args))
    else:
        phi_field = sk._phi_field
        monkeypatch.setattr(sk, "_phi_field", lambda S, V: lambda p: -phi_field(S, V)(p))
    report = run_suite(SuiteConfig(suite="sasaki-axioms"))
    axioms = [r for r in report.records if r.anchor == "sasaki-structure-axioms"]
    assert len(axioms) == 18  # six axioms on each of s3, s5, s7
    failed = [r.name for r in axioms if r.status == "fail"]
    assert sorted(failed) == sorted(f"s{d}: axiom {a}" for d in (3, 5, 7) for a in failing)
