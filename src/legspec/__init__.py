"""Numerical verification toolkit for Laplace eigenfunctions on minimal
Legendrian submanifolds of the standard Sasakian spheres.

The package is organized around the objects it checks:

* :mod:`legspec.riemannian` -- Christoffel symbols and curvature of a
  metric in coordinates, with the hemisphere and cone metrics.
* :mod:`legspec.sasaki` -- the contact structure of the round sphere
  ``S^{2n+1}`` and its flat Kaehler cone, with axiom residual suites.
* :mod:`legspec.immersions` -- parameterized Legendrian immersions
  (great circle, geodesic spheres, Clifford torus), quadrature, second
  fundamental forms and the normal-bundle split.
* :mod:`legspec.moment` -- the u(n+1) automorphism algebra, the contact
  moment map and the moment eigenfunction family.
* :mod:`legspec.nomizu` -- corrected Nomizu operators on the cone, the
  cone eigenfunction family and their algebraic identities.
* :mod:`legspec.spectral` -- extrinsic Laplacians, mesh spectra and
  multiplicity/bound verdicts.
* :mod:`legspec.cli` -- the ``legspec`` command producing JSON/CSV reports.
"""

__version__ = "0.1.0"
