"""Numerical defaults: the residual thresholds of the checks.

Every threshold used by a suite lives here so that reports can echo
overrides.  Suites always report the measured residual next to the
threshold, never a bare pass/fail.
"""

import math
from dataclasses import dataclass, fields

from .errors import UnsupportedError

# Largest max|K - C| / max|K| of a family's Green identity: it reads at
# most 5.4e-16 on the shipped immersions, whose quadratures are exact for it
GREEN_IDENTITY = 1e-12

# Largest ptp / target of an icosphere's l = 2 cluster: icosahedral symmetry
# makes it one eigenvalue, which the sector solves give to 2.8e-14 (dense,
# level 3), 2.2e-13 (dense, level 4), 3.4e-15 (eigsh, level 5) and 2.4e-14
# (eigsh, level 6); a fold without the sector character splits it by 3e-2
# at level 4, inside cluster_accuracy
CLUSTER_SPREAD = 1e-10

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
