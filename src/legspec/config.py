"""Numerical defaults: the stencil cross-check's step and residual thresholds.

Every threshold used by a suite lives here so that reports can echo
overrides.  Suites always report the measured residual next to the
threshold, never a bare pass/fail.
"""

import math
from dataclasses import dataclass, fields

from .errors import UnsupportedError

# Step of the five-point second-derivative stencil on ambient lines, the
# one difference scheme; every other derivative is a complex step
# (``riemannian.derivative``) or a closed form
FD_LAPLACIAN = 1e-2
# Largest max|closed form - stencil| / sup|f| of the family Laplacians: the
# stencil's own truncation at FD_LAPLACIAN is about 3e-7 of sup|f|
STENCIL_AGREEMENT = 1e-6

# Sup norm at or below which a family member is the zero function: its
# eigen-residual is degenerate and the agreement and Rayleigh checks skip it.
ZERO_FUNCTION = 1e-12


@dataclass
class Tolerances:
    """Residual thresholds, keyed by the checks that consume them."""

    sasaki_axioms: float = 1e-7
    eta_einstein: float = 1e-5
    cone_ricci_chart: float = 1e-5
    legendrian: float = 1e-8
    mean_curvature: float = 1e-6
    totally_geodesic: float = 1e-6
    frame_orthonormality: float = 1e-10
    chi_roundtrip: float = 1e-8
    killing: float = 1e-7
    mean_zero: float = 1e-8
    eigen_residual: float = 1e-5
    nomizu_algebra: float = 1e-8
    frame_sum_identity: float = 1e-7
    family_coincidence: float = 1e-8
    pipeline_agreement: float = 0.02
    cluster_accuracy: float = 0.02
    rayleigh: float = 0.01
    cluster_window: float = 0.05
    cluster_separation: float = 3.0

    def override(self, updates):
        """Return a copy with ``updates`` (name -> value) applied; an unknown
        name raises ``KeyError``, a value that is not a positive finite
        number ``UnsupportedError``."""
        known = {f.name for f in fields(self)}
        bad = set(updates) - known
        if bad:
            raise KeyError(f"unknown tolerance name(s): {sorted(bad)}")
        # every tolerance is a positive threshold: nan or inf would pass or
        # fail each check it governs (and is not valid JSON in the report
        # echo), and cluster_window = 0 would divide by zero
        for name, value in updates.items():
            if not (math.isfinite(value) and value > 0):
                raise UnsupportedError(
                    f"tolerance {name} must be a positive finite number, got {value}"
                )
        merged = {f.name: getattr(self, f.name) for f in fields(self)}
        merged.update(updates)
        return Tolerances(**merged)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_TOLERANCES = Tolerances()
