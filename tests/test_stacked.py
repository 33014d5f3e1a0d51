"""Families over the stacked algebra: each row of a ``(k, d, d)`` field
evaluation equals, bit for bit, the evaluation of that generator alone."""

import numpy as np
import pytest

from legspec import immersions as im
from legspec import moment as mo
from legspec import nomizu as nz
from legspec import sasaki as sk
from legspec import spectral as spc
from legspec.errors import InvalidFieldError

IMMERSIONS = ["great-circle-s3", "geodesic-sphere-n2", "clifford-torus-s5", "geodesic-sphere-n3"]


def same_bits(stacked, singles):
    stacked = np.asarray(stacked)
    singles = np.asarray(singles)
    assert stacked.shape == singles.shape
    assert stacked.tobytes() == singles.tobytes()


@pytest.fixture(scope="module", params=IMMERSIONS)
def case(request):
    L = im.get_immersion(request.param)
    basis = mo.algebra_basis(L.n)
    return L, basis, mo.stack_fields(basis, "u(n+1)")


def test_stack_keeps_generators_and_validates_all_of_them():
    basis = mo.algebra_basis(2)
    algebra = mo.stack_fields(basis, "u(n+1)")
    assert algebra.generator.shape == (9, 6, 6)
    broken = algebra.generator.copy()
    broken[4, 0, 0] = 1.0  # one generator of nine no longer skew
    with pytest.raises(InvalidFieldError):
        mo.AutomorphismField(broken, 2)


def test_integrate(case):
    L, basis, algebra = case
    f = mo.moment_function(L, algebra)
    singles = [mo.moment_function(L, X) for X in basis]
    same_bits(f.offset, [g.offset for g in singles])
    geo = L.node_geometry()
    same_bits(L.integrate(f.node_values(geo)), [L.integrate(g.node_values(geo)) for g in singles])


def test_moment_eigen_residual(case):
    L, basis, algebra = case
    target = 2.0 * L.n + 2.0
    res = spc.eigen_residual(L, mo.moment_function(L, algebra), target)
    singles = [spc.eigen_residual(L, mo.moment_function(L, X), target) for X in basis]
    same_bits(res.residual, [r.residual for r in singles])
    same_bits(res.degenerate, [r.degenerate for r in singles])
    same_bits(res.sup_norm, [r.sup_norm for r in singles])


def test_cone_eigen_residual_and_operator_identities(case):
    L, basis, algebra = case
    target = 2.0 * L.n + 2.0
    f = nz.nomizu_function(algebra)
    cones = [nz.nomizu_function(X) for X in basis]
    res = spc.eigen_residual(L, f, target)
    singles = [spc.eigen_residual(L, g, target) for g in cones]
    same_bits(res.residual, [r.residual for r in singles])
    same_bits(nz.operator_identity_residuals(f, L),
              [nz.operator_identity_residuals(g, L) for g in cones])


def test_family_coincidence(case):
    L, basis, algebra = case
    res = nz.family_coincidence_residuals(
        mo.moment_function(L, algebra), nz.nomizu_function(algebra))
    same_bits(res, [nz.family_coincidence_residuals(mo.moment_function(L, X), nz.nomizu_function(X))
                    for X in basis])


def test_normal_split(case):
    L, basis, algebra = case
    geo = L.node_geometry()[::7]
    split = im.normal_split(geo, algebra)
    singles = [im.normal_split(geo, X) for X in basis]
    for part in ("tangent", "normal", "reeb_component", "one_form"):
        same_bits(getattr(split, part), [getattr(s, part) for s in singles])
    rebuilt = im.normal_from_split(geo, split.reeb_component, split.one_form)
    same_bits(rebuilt, [im.normal_from_split(geo, s.reeb_component, s.one_form)
                        for s in singles])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_automorphism_residuals(n):
    S = sk.SphereSasaki(n)
    samples = sk.sample_tangent_triples(S, 10, seed=0)
    basis = mo.algebra_basis(n)
    stacked = mo.automorphism_residuals(S, mo.stack_fields(basis, "u(n+1)"), samples)
    singles = [mo.automorphism_residuals(S, X, samples) for X in basis]
    for key in ("killing", "contact_form"):
        same_bits(stacked[key], [r[key] for r in singles])
