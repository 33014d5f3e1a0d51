"""Named verification suites wiring the geometry modules to reports.

Seven suites ship: ``sasaki-axioms``, ``legendrian-geometry``,
``moment-family``, ``nomizu-family``, ``relation``, ``spectrum`` and
``all``.  Each suite is deterministic for a fixed config (seed, sample
ordering and reduction order are fixed) and appends
:class:`~legspec.reporting.CheckRecord` entries to a report.
"""

from dataclasses import dataclass, field

import numpy as np

from . import immersions as im
from . import moment as mo
from . import nomizu as nz
from . import reporting as rp
from . import sasaki as sk
from . import spectral as spc
from .config import DEFAULT_TOLERANCES, GREEN_IDENTITY, ZERO_FUNCTION, Tolerances
from .errors import ConvergenceError, EvaluationError, PreconditionError, UnsupportedError

CANONICAL_IMMERSIONS = (
    "great-circle-s3",
    "geodesic-sphere-n2",
    "clifford-torus-s5",
    "geodesic-sphere-n3",
)

# Largest quadrature a --resolution may ask of any selected immersion,
# twice the 65,536 nodes of the finest shipped grid (torus at 256)
MAX_NODES = 2**17
# Largest --n: the curvature holds two (2n+1)^4 arrays, 9.5 MB each at 16
MAX_N = 16

SUITE_NAMES = (
    "sasaki-axioms",
    "legendrian-geometry",
    "moment-family",
    "nomizu-family",
    "relation",
    "spectrum",
    "all",
)


def _inconclusive(name, anchor, exc):
    return rp.CheckRecord(
        name, anchor, "residual", float("nan"), None, rp.INCONCLUSIVE,
        {"reason": str(exc)},
    )


def _non_finite(name, anchor, threshold, exc):
    """The failing record of a check whose integrand was not finite."""
    return rp.CheckRecord(name, anchor, "residual", float("nan"), threshold, rp.FAIL,
                          {"reason": str(exc)})


@dataclass
class SuiteConfig:
    suite: str
    n: int | None = None
    immersion: str | None = None
    resolution: int | None = None
    seed: int = 0
    tolerance_overrides: dict = field(default_factory=dict)
    output: str | None = None
    fmt: str = "json"
    # the defaults with tolerance_overrides applied
    tolerances: Tolerances = field(init=False)
    # built on first use and shared by every suite and exporter of this
    # config, so each immersion's node geometry per resolution (and the
    # tensors it keeps), each mesh spectrum, eigenspace count and family
    # with its node values are computed once per report
    _immersions: list | None = field(default=None, init=False, repr=False, compare=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cones: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise UnsupportedError(
                f"unknown suite '{self.suite}'; shipped: {list(SUITE_NAMES)}"
            )
        if self.immersion is not None and self.immersion not in im.registry():
            raise UnsupportedError(
                f"unknown immersion '{self.immersion}'; shipped: {sorted(im.registry())}"
            )
        if self.seed < 0:
            raise UnsupportedError(f"seed must be non-negative, got {self.seed}")
        if self.resolution is not None and self.resolution <= 0:
            raise UnsupportedError(f"resolution must be positive, got {self.resolution}")
        if self.n is not None and not 1 <= self.n <= MAX_N:
            raise UnsupportedError(f"n must be between 1 and {MAX_N}, got {self.n}")
        # an --n that selects no immersion would give an empty report;
        # sasaki-axioms takes any dimension unless an immersion fixes it
        if self.n is not None and self.immersion is not None:
            dim = self.selected_immersions()[0].n
            if dim != self.n:
                raise UnsupportedError(f"'{self.immersion}' has n={dim}, not n={self.n}")
        elif self.n is not None and self.suite != "sasaki-axioms" and not self.selected_immersions():
            raise UnsupportedError(f"no shipped immersion has n={self.n}")
        if self.resolution is not None and self.suite != "sasaki-axioms":
            for L in self.selected_immersions():
                # the spectrum suite reads --resolution as each mesh's level
                # only, the other suites as a quadrature resolution
                mesh = L.domain.mesh
                if mesh is not None and self.suite in ("spectrum", "all"):
                    spc.mesh_resolution(mesh, self.resolution)
                if self.suite == "spectrum":
                    if mesh is None:
                        raise UnsupportedError(f"'{L.name}' has no mesh, so the spectrum "
                                               "suite's --resolution selects nothing")
                    continue
                count = L.domain.node_count(self.resolution)
                if count > MAX_NODES:
                    raise UnsupportedError(f"resolution {self.resolution} gives '{L.name}' "
                                           f"{count} quadrature nodes, more than {MAX_NODES}")
        self.tolerances = DEFAULT_TOLERANCES.override(self.tolerance_overrides)

    def echo(self):
        return {
            "suite": self.suite,
            "n": self.n,
            "immersion": self.immersion,
            "resolution": self.resolution,
            "seed": self.seed,
            "tolerance_overrides": dict(self.tolerance_overrides),
            "format": self.fmt,
        }

    def selected_immersions(self):
        if self._immersions is None:
            names = CANONICAL_IMMERSIONS if self.immersion is None else (self.immersion,)
            built = [im.get_immersion(x) for x in names]
            if self.immersion is None and self.n is not None:
                built = [L for L in built if L.n == self.n]
            self._immersions = built
        return list(self._immersions)

    def selected_dimensions(self):
        if self.n is not None:
            return [self.n]
        return sorted({L.n for L in self.selected_immersions()})

    def mesh_spectrum(self, L):
        """Mesh spectrum of ``L`` at the configured resolution (default the
        finest shipped level), solved once per config for the spectrum
        suite and its CSV export; the ``ConvergenceError`` of an eigensolve
        that did not converge is kept in its place, for each reader to
        report."""
        if L.name not in self._spectra:
            try:
                self._spectra[L.name] = spc.mesh_spectrum(
                    L, self.resolution, window=self.tolerances.cluster_window
                )
            except ConvergenceError as exc:
                self._spectra[L.name] = exc
        return self._spectra[L.name]

    def eigenspace_count(self, L):
        """The ``moment.quadratic_ritz`` values of ``L`` in the cluster window
        around ``2n + 2``, counted once per config; the ``EvaluationError`` of
        a non-finite value is kept in its place, for each reader to fail with."""
        if L.name not in self._counts:
            target, window = 2.0 * L.n + 2.0, self.tolerances.cluster_window
            try:
                ritz = mo.quadratic_ritz(L)[0]
                self._counts[L.name] = int(np.sum(np.abs(ritz - target) <= window * target))
            except EvaluationError as exc:
                self._counts[L.name] = exc
        return self._counts[L.name]

    def moment_function(self, L, resolution=None):
        """``moment.moment_function`` of the stacked ``u(n+1)`` algebra on ``L``,
        built once per immersion and resolution for every suite and exporter."""
        key = (L.name, L.resolve_resolution(resolution))
        if key not in self._moments:
            algebra = mo.stack_fields(mo.algebra_basis(L.n), "u(n+1)")
            self._moments[key] = mo.moment_function(L, algebra, resolution)
        return self._moments[key]

    def release(self, L, resolution):
        """Forget ``L``'s node geometry at ``resolution``, the moment family
        built on it and the cone families' tensors there, for a node set no
        later reader of the report uses."""
        geo = L.release_node_geometry(resolution)
        self._moments.pop((L.name, L.resolve_resolution(resolution)), None)
        for f in self._cones.values():
            f.release(geo)

    def cone_family(self, n):
        """``nomizu.nomizu_function`` of the stacked ``u(n+1)`` algebra,
        built once per dimension and keeping its values per node set."""
        if n not in self._cones:
            self._cones[n] = nz.nomizu_function(mo.stack_fields(mo.algebra_basis(n), "u(n+1)"))
        return self._cones[n]


# ---------------------------------------------------------------------------
# individual suites


def sasaki_axiom_records(cfg):
    tol = cfg.tolerances
    records = []
    for n in cfg.selected_dimensions():
        S = sk.SphereSasaki(n)
        samples = sk.sample_tangent_triples(S, 100, seed=cfg.seed)
        residuals = sk.verify_sasaki_axioms(S, samples)
        for axiom, value in residuals.items():
            records.append(
                rp.residual_record(
                    f"s{2*n+1}: axiom {axiom}",
                    "sasaki-structure-axioms",
                    value,
                    tol.sasaki_axioms,
                )
            )
        rng = np.random.default_rng(cfg.seed + 1)
        radii = rng.uniform(0.5, 2.0, 2)
        # a hemisphere chart point with |u| <= 0.5, where Gamma != 0
        u = rng.standard_normal(S.dim)
        u *= 0.5 * rng.uniform() / np.linalg.norm(u)
        records.append(
            rp.residual_record(
                f"s{2*n+1}: curvature constant 2n",
                "eta-einstein-constant",
                sk.eta_einstein_residual(S, u),
                tol.eta_einstein,
            )
        )
        records.append(
            rp.residual_record(
                f"s{2*n+1}: cone curvature flat (chart cross-check)",
                "cone-ricci-flat",
                sk.SphereCone(S).ricci_via_chart(radii),
                tol.cone_ricci_chart,
            )
        )
    return records


def legendrian_geometry_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        geo = L.node_geometry(cfg.resolution)
        # the node set every pointwise sup below is taken over
        records.append(
            rp.residual_record(
                f"{L.name}: contact form pullback",
                "legendrian-pullback-vanishes",
                geo.legendrian_residual,
                tol.legendrian,
                details={"nodes": len(geo.u), "volume": float(geo.volume)},
            )
        )
        sd = geo.shape
        records.append(
            rp.residual_record(
                f"{L.name}: mean curvature",
                "minimal-immersion",
                sd.mean_curvature_norm(),
                tol.mean_curvature,
            )
        )
        # the paper's equality case: L is totally geodesic exactly when its
        # eigenspace count meets the algebra bound
        count, norm = cfg.eigenspace_count(L), sd.second_fundamental_norm()
        name, anchor = f"{L.name}: second fundamental form", "totally-geodesic-equality-case"
        if isinstance(count, EvaluationError):
            records.append(_non_finite(name, anchor, tol.totally_geodesic, count))
        elif count == spc.algebra_bound(L.n):
            records.append(rp.residual_record(name, anchor, norm, tol.totally_geodesic))
        else:
            records.append(rp.CheckRecord(f"{name} nonzero", "minimal-but-not-totally-geodesic",
                                          "residual", norm, 0.1, rp.PASS if norm >= 0.1 else rp.FAIL))
        gram = np.einsum("...ia,...ja->...ij", geo.frame, geo.frame)
        records.append(
            rp.residual_record(
                f"{L.name}: frame orthonormality",
                "orthonormal-frame",
                float(np.max(np.abs(gram - np.eye(L.n)))),
                tol.frame_orthonormality,
            )
        )
        first = mo.stack_fields(mo.algebra_basis(L.n)[: L.n + 2], "u(n+1)[:n+2]")
        split = im.normal_split(geo, first)
        rebuilt = im.normal_from_split(geo, split.reeb_component, split.one_form)
        records.append(
            rp.residual_record(
                f"{L.name}: normal-split roundtrip",
                "normal-bundle-isomorphism",
                np.max(np.linalg.norm(rebuilt - split.normal, axis=-1)),
                tol.chi_roundtrip,
            )
        )
    return records


def moment_family_records(cfg):
    tol = cfg.tolerances
    records = []
    for n in cfg.selected_dimensions():
        S = sk.SphereSasaki(n)
        samples = sk.sample_tangent_triples(S, 10, seed=cfg.seed)
        worst_killing = 0.0
        for X in mo.algebra_basis(n):
            r = mo.automorphism_residuals(S, X, samples)
            worst_killing = max(worst_killing, r["killing"], r["contact_form"])
        records.append(
            rp.residual_record(
                f"s{2*n+1}: generators Killing / contact-preserving",
                "automorphism-killing",
                worst_killing,
                tol.killing,
            )
        )
    for L in cfg.selected_immersions():
        target = 2.0 * L.n + 2.0
        basis = mo.algebra_basis(L.n)
        f = cfg.moment_function(L, cfg.resolution)
        try:
            res = spc.eigen_residual(L, f, target, cfg.resolution)
        except PreconditionError as exc:
            res = exc
        # the default nodes integrate f^2 (degree 4) exactly with positive
        # weights, so a function zero at all of them is zero; one that is
        # zero only at the requested nodes says these nodes are too few.
        # The default family is the one Green's identity reads below
        default_sup = None
        if L.resolve_resolution(cfg.resolution) != L.resolve_resolution():
            default_values = cfg.moment_function(L).node_values(L.node_geometry())
            default_sup = np.max(np.abs(default_values), axis=-1)
        for idx, X in enumerate(basis):
            name = f"{L.name}: eigen-residual basis[{idx}] {X.label}"
            if isinstance(res, PreconditionError):
                records.append(_inconclusive(name, "moment-family-eigenvalue", res))
            elif res.degenerate[idx] and default_sup is not None and default_sup[idx] > ZERO_FUNCTION:
                records.append(
                    rp.CheckRecord(
                        name, "moment-family-eigenvalue", "residual", float("nan"),
                        tol.eigen_residual, rp.INCONCLUSIVE,
                        {"sup_norm": float(res.sup_norm[idx]),
                         "default_sup_norm": float(default_sup[idx]),
                         "reason": "zero at the quadrature nodes but not at the default nodes"},
                    )
                )
            else:
                records.append(
                    rp.residual_record(
                        name, "moment-family-eigenvalue", res.residual[idx],
                        tol.eigen_residual, degenerate=res.degenerate[idx],
                    )
                )
        count = cfg.eigenspace_count(L)
        if isinstance(count, EvaluationError):
            records.append(_non_finite(f"{L.name}: rank of normal parts over basis",
                                       "tangent-generator-kernel", None, count))
        elif count == spc.algebra_bound(L.n):
            records.append(_kernel_rank_record(L, mo.stack_fields(basis, "u(n+1)"), cfg.resolution))
        # the one check of the closed form that does not share its algebra,
        # at the default resolution whatever --resolution is
        name = f"{L.name}: closed-form Laplacian vs Green identity"
        try:
            value = spc.green_identity_residual(L, cfg.moment_function(L))
            records.append(rp.residual_record(name, "closed-form-laplacian", value, GREEN_IDENTITY))
        except PreconditionError as exc:
            records.append(_inconclusive(name, "closed-form-laplacian", exc))
        except EvaluationError as exc:
            records.append(_non_finite(name, "closed-form-laplacian", GREEN_IDENTITY, exc))
    return records


def _normal_rank(L, algebra, resolution):
    """Numerical rank of the normal parts of the stacked generators over
    every quadrature node, in 1024-node blocks to bound memory: a running
    QR's R factor keeps their singular values."""
    geo = L.node_geometry(resolution)
    count = len(geo.u)
    k = len(algebra.generator)
    r = np.empty((0, k))
    for block in np.array_split(np.arange(count), -(-count // 1024)):
        normal = im.normal_split(geo[block], algebra).normal
        r = np.linalg.qr(np.vstack([r, normal.reshape(k, -1).T]), mode="r")
    svals = np.linalg.svd(r, compute_uv=False)
    return int(np.sum(svals > 1e-8 * svals[0]))


def _kernel_rank_record(L, algebra, resolution):
    name = f"{L.name}: rank of normal parts over basis"
    rank = _normal_rank(L, algebra, resolution)
    expected = spc.algebra_bound(L.n) + 1
    if rank < expected and L.resolve_resolution(resolution) != L.resolve_resolution():
        # a rank over any node set is at most the true rank, so a deficit
        # the default nodes do not show says only that these nodes are too few
        default_rank = _normal_rank(L, algebra, None)
        if default_rank == expected:
            return rp.CheckRecord(
                name, "tangent-generator-kernel", "count", rank, None, rp.INCONCLUSIVE,
                {"expected": expected, "rank": rank, "default_rank": default_rank,
                 "reason": "the quadrature nodes cannot span the expected rank"},
            )
    return rp.count_record(name, "tangent-generator-kernel", rank, expected)


def nomizu_family_records(cfg):
    tol = cfg.tolerances
    records = []
    # the operator of a linear cone field is one matrix: its algebra
    # depends on the generator alone, not on the immersion
    for n in cfg.selected_dimensions():
        op, J = cfg.cone_family(n).matrix, sk.complex_structure(n)
        for idx, X in enumerate(mo.algebra_basis(n)):
            records.append(
                rp.residual_record(
                    f"s{2*n+1}: operator algebra basis[{idx}] {X.label}",
                    "cone-operator-algebra",
                    max(nz.cone_field_residuals(op[idx], J).values()),
                    tol.nomizu_algebra,
                )
            )
    # on a minimal L the closed form gives Lap f = 2n f - 2 tr(QP), so the
    # cone family's eigen-residual is 2 / sup|f| times its frame sum
    # |tr(QP) + f|, which holds on any Legendrian L
    for L in cfg.selected_immersions():
        f = cfg.cone_family(L.n)
        try:
            frame_sum = nz.operator_identity_residuals(
                f, L, resolution=cfg.resolution, legendrian_tol=tol.legendrian
            )
        except PreconditionError as exc:
            frame_sum = exc
        for idx in range(len(f.matrix)):
            name = f"{L.name}: frame-sum identity basis[{idx}]"
            if isinstance(frame_sum, PreconditionError):
                records.append(_inconclusive(name, "frame-sum-identity", frame_sum))
            else:
                records.append(
                    rp.residual_record(
                        name, "frame-sum-identity", frame_sum[idx], tol.frame_sum_identity
                    )
                )
    return records


def relation_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        # both records read means of degree-2 integrands, which coarser
        # nodes integrate wrong on correct code
        least = L.domain.resolution_for(2)
        if L.resolve_resolution(cfg.resolution) < least:
            reason = (f"resolution {cfg.resolution} does not integrate degree 2 exactly; "
                      f"{L.name} needs {least}")
            records.append(_inconclusive(
                f"{L.name}: cone family vs moment family", "families-coincide", reason))
            records.append(_inconclusive(
                f"{L.name}: traceless contact integrals", "contact-integral-vanishes", reason))
            continue
        # both read the node set's second moment, which a non-finite point
        # fails; neither reads a node value
        name = f"{L.name}: cone family vs moment family"
        try:
            f_mom, f_cone = cfg.moment_function(L, cfg.resolution), cfg.cone_family(L.n)
            value = np.max(nz.family_coincidence_residuals(f_mom, f_cone))
            records.append(rp.residual_record(name, "families-coincide", value,
                                              tol.family_coincidence))
        except EvaluationError as exc:
            records.append(_non_finite(name, "families-coincide", tol.family_coincidence, exc))
        # its own integrals: the moment family's means, which a skipped mean
        # subtraction zeroes, would read 0 whatever the integrals are
        name = f"{L.name}: traceless contact integrals"
        traceless = mo.stack_fields(mo.traceless_basis(L.n), "su(n+1)")
        try:
            second_moment = L.node_geometry(cfg.resolution).second_moment
            integrals = mo.pairing_integral(traceless.generator, second_moment)
            value = np.max(np.abs(integrals) / L.volume(cfg.resolution))
            records.append(rp.residual_record(name, "contact-integral-vanishes", value,
                                              tol.mean_zero))
        except EvaluationError as exc:
            records.append(_non_finite(name, "contact-integral-vanishes", tol.mean_zero, exc))
    return records


# the spectrum records each mesh spectrum gives, inconclusive together when
# its eigensolve does not converge
MESH_RECORDS = (
    ("multiplicity at target", "eigenspace-multiplicity-bound"),
    ("multiplicity >= algebra bound", "eigenspace-multiplicity-bound"),
    ("equality case", "equality-case-totally-geodesic"),
    ("cluster mean accuracy", "spectral-cluster-accuracy"),
    ("constants eigenvalue", "spectral-cluster-accuracy"),
    ("cluster separation ratio", "cluster-separation"),
)


def spectrum_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        if L.domain.mesh is None:
            records.append(
                rp.info_record(
                    f"{L.name}: no intrinsic discretizer",
                    "pointwise-pipeline-only",
                    "covered by the pointwise pipeline and Rayleigh checks",
                )
            )
            continue
        report = cfg.mesh_spectrum(L)
        if isinstance(report, ConvergenceError):
            records += [_inconclusive(f"{L.name}: {check}", anchor, report)
                        for check, anchor in MESH_RECORDS]
            continue
        basis = mo.algebra_basis(L.n)
        f = cfg.moment_function(L)
        er = spc.eigen_residual(L, f, report.target)
        residuals = {
            f"basis[{idx}] {X.label}": float(er.residual[idx])
            for idx, X in enumerate(basis)
            if not er.degenerate[idx]
        }
        verdict = spc.bound_check(report, min_separation=tol.cluster_separation)
        name, count = f"{L.name}: multiplicity at target", cfg.eigenspace_count(L)
        if isinstance(count, EvaluationError):
            records.append(_non_finite(name, "eigenspace-multiplicity-bound", None, count))
        else:
            records.append(rp.count_record(
                name, "eigenspace-multiplicity-bound", report.multiplicity, count,
                details=dict(report.summary(), eigen_residuals=residuals), verdict=verdict,
            ))
        records.append(
            rp.bound_record(
                f"{L.name}: multiplicity >= algebra bound",
                "eigenspace-multiplicity-bound",
                verdict,
            )
        )
        # measured, on the shape operator eigen_residual's minimality precheck built
        flat = L.node_geometry().shape.second_fundamental_norm() <= tol.totally_geodesic
        records.append(
            rp.count_record(
                f"{L.name}: equality case",
                "equality-case-totally-geodesic",
                int(verdict.equality),
                int(flat),
                verdict=verdict,
            )
        )
        records.append(
            rp.residual_record(
                f"{L.name}: cluster mean accuracy",
                "spectral-cluster-accuracy",
                abs(report.cluster_mean - report.target) / report.target,
                tol.cluster_accuracy,
            )
        )
        records.append(
            rp.residual_record(
                f"{L.name}: constants eigenvalue",
                "spectral-cluster-accuracy",
                abs(report.first_eigenvalue),
                tol.cluster_window * report.target,
            )
        )
        sep = report.separation_ratio()
        records.append(
            rp.CheckRecord(
                f"{L.name}: cluster separation ratio",
                "cluster-separation",
                "residual",
                sep,
                tol.cluster_separation,
                rp.PASS if sep >= tol.cluster_separation else rp.FAIL,
            )
        )
    # cross-pipeline agreement and Rayleigh checks
    for L in cfg.selected_immersions():
        target = 2.0 * L.n + 2.0
        if L.domain.periodic:
            res = 256 if L.n == 1 else 64

            def family_disagreement(r2):
                f = cfg.moment_function(L, r2)
                fv = f.node_values(L.node_geometry(r2))
                keep = ~(np.max(np.abs(fv), axis=-1) <= ZERO_FUNCTION)
                # the stencil first: it and the Laplacian row copy are never alive at once
                grid = fv[keep].reshape((-1,) + L.domain.grid_shape(r2))
                mesh_vals = spc.apply_mesh_operator(L, grid).reshape(-1, fv.shape[-1])
                ext_vals = f.laplacian(L, r2)[keep]
                worst = np.max(np.abs(mesh_vals - ext_vals), axis=-1)
                return float(np.max(worst / np.max(np.abs(ext_vals), axis=-1), initial=0.0))

            errs = []
            for r2 in (res // 2, res, 2 * res):
                errs.append(family_disagreement(r2))
                # read once: only the default nodes are read after this,
                # by the Rayleigh quotients, and spectrum is the last suite
                if r2 != L.resolve_resolution():
                    cfg.release(L, r2)
            records.append(
                rp.residual_record(
                    f"{L.name}: mesh vs pointwise operator",
                    "pipeline-agreement",
                    errs[1],
                    tol.pipeline_agreement,
                )
            )
            # np.min keeps a nan, where min(x, nan) returns x
            order = np.min([np.log2(errs[i] / errs[i + 1]) for i in range(2)])
            records.append(
                rp.CheckRecord(
                    f"{L.name}: agreement refinement order",
                    "pipeline-agreement",
                    "residual",
                    float(order),
                    1.8,
                    rp.PASS if order >= 1.8 else rp.FAIL,
                )
            )
        # --resolution is the mesh level here, so the Rayleigh quotients
        # integrate at the default quadrature like the eigen-residuals above
        f = cfg.moment_function(L)
        keep = ~(np.max(np.abs(f.node_values(L.node_geometry())), axis=-1) <= ZERO_FUNCTION)
        name = f"{L.name}: Rayleigh quotients"
        try:
            q = spc.rayleigh_quotient(L, f)[keep]
            value = np.max(np.abs(q - target) / target, initial=0.0)
            records.append(rp.residual_record(name, "rayleigh-quotient", value, tol.rayleigh))
        except EvaluationError as exc:
            records.append(_non_finite(name, "rayleigh-quotient", tol.rayleigh, exc))
    return records


SUITE_FUNCTIONS = {
    "sasaki-axioms": sasaki_axiom_records,
    "legendrian-geometry": legendrian_geometry_records,
    "moment-family": moment_family_records,
    "nomizu-family": nomizu_family_records,
    "relation": relation_records,
    "spectrum": spectrum_records,
}


def run_suite(cfg):
    """Execute a named suite and return the finished report."""
    report = rp.Report(cfg.suite, cfg.echo())
    if cfg.suite == "all":
        for name in SUITE_NAMES[:-1]:
            report.extend(SUITE_FUNCTIONS[name](cfg))
    else:
        report.extend(SUITE_FUNCTIONS[cfg.suite](cfg))
    return report.finish()


def list_targets():
    """Human-readable listing of suites, immersions and algebra sizes."""
    lines = ["suites:"]
    lines += [f"  {name}" for name in SUITE_NAMES]
    lines.append("immersions:")
    for name in sorted(im.registry()):
        L = im.get_immersion(name)
        lines.append(f"  {name} (n={L.n}, ambient S^{2*L.n+1})")
    lines.append("automorphism algebras:")
    for n in (1, 2, 3):
        basis = mo.algebra_basis(n)
        lines.append(f"  n={n}: dimension {len(basis)}")
        for idx, X in enumerate(basis):
            lines.append(f"    [{idx}] {X.label}")
    return "\n".join(lines)
