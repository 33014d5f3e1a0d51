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
from .config import DEFAULT_TOLERANCES, STENCIL_AGREEMENT, ZERO_FUNCTION, Tolerances
from .errors import PreconditionError, UnsupportedError

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
    # tensors it keeps), each mesh spectrum and each moment function with
    # its node values are computed once per report
    _immersions: list | None = field(default=None, init=False, repr=False, compare=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
                # the spectrum suite reads --resolution as each discretizer's
                # mesh level only, the other suites as a quadrature resolution
                if L.discretizer is not None and self.suite in ("spectrum", "all"):
                    spc.mesh_resolution(L.discretizer, self.resolution)
                if self.suite == "spectrum":
                    if L.discretizer is None:
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
        suite and its CSV export."""
        if L.name not in self._spectra:
            self._spectra[L.name] = spc.mesh_spectrum(
                L, self.resolution, window=self.tolerances.cluster_window
            )
        return self._spectra[L.name]

    def moment_function(self, L, X, resolution=None):
        """``moment.moment_function(L, X, resolution)``, built once per
        immersion, generator and resolution for all suites and exporters."""
        key = (L.name, X.label, L.resolve_resolution(resolution))
        if key not in self._moments:
            self._moments[key] = mo.moment_function(L, X, resolution)
        return self._moments[key]


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
        records.append(
            rp.residual_record(
                f"{L.name}: contact form pullback",
                "legendrian-pullback-vanishes",
                geo.legendrian_residual,
                tol.legendrian,
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
        if L.totally_geodesic:
            records.append(
                rp.residual_record(
                    f"{L.name}: second fundamental form",
                    "totally-geodesic-equality-case",
                    sd.second_fundamental_norm(),
                    tol.totally_geodesic,
                )
            )
        else:
            status = rp.PASS if sd.second_fundamental_norm() >= 0.1 else rp.FAIL
            records.append(
                rp.CheckRecord(
                    f"{L.name}: second fundamental form nonzero",
                    "minimal-but-not-totally-geodesic",
                    "residual",
                    sd.second_fundamental_norm(),
                    0.1,
                    status,
                )
            )
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
        records.append(
            rp.info_record(
                f"{L.name}: volume", "quadrature-volume", L.volume(cfg.resolution)
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
        vol = L.volume(cfg.resolution)
        basis = mo.algebra_basis(L.n)
        algebra = mo.stack_fields(basis, "u(n+1)")
        f = cfg.moment_function(L, algebra, cfg.resolution)
        try:
            res = spc.eigen_residual(L, f, target, cfg.resolution)
        except PreconditionError as exc:
            res = exc
        mean_resid = np.abs(L.integrate(f.values(cfg.resolution), cfg.resolution)) / vol
        for idx, X in enumerate(basis):
            name = f"{L.name}: eigen-residual basis[{idx}] {X.label}"
            if isinstance(res, PreconditionError):
                records.append(_inconclusive(name, "moment-family-eigenvalue", res))
            else:
                records.append(
                    rp.residual_record(
                        name,
                        "moment-family-eigenvalue",
                        res.residual[idx],
                        tol.eigen_residual,
                        degenerate=res.degenerate[idx],
                    )
                )
            records.append(
                rp.residual_record(
                    f"{L.name}: mean-zero basis[{idx}]",
                    "mean-free-normalization",
                    mean_resid[idx],
                    tol.mean_zero,
                )
            )
        if L.totally_geodesic:
            records.append(_kernel_rank_record(L, algebra, cfg.resolution))
        records.append(_stencil_record(cfg, L, algebra))
    return records


def _stencil_record(cfg, L, algebra):
    """The closed-form family Laplacian against the five-point stencil, on
    the stacked family at the default resolution whatever --resolution is:
    the one check of the closed form that does not share its algebra."""
    name = f"{L.name}: closed-form Laplacian vs five-point stencil"
    f = cfg.moment_function(L, algebra)
    try:
        closed = f.laplacian(L)
    except PreconditionError as exc:
        return _inconclusive(name, "closed-form-laplacian", exc)
    stencil = spc.stencil_laplacian(L, f.ambient)
    value = np.max(np.abs(closed - stencil)) / np.max(np.abs(f.values()))
    return rp.residual_record(name, "closed-form-laplacian", value, STENCIL_AGREEMENT)


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
    expected = (L.n + 1) ** 2 - L.n * (L.n + 1) // 2
    if rank < expected and L.resolve_resolution(resolution) != L.default_resolution:
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
        for idx, X in enumerate(mo.algebra_basis(n)):
            K = nz.ConeField.from_automorphism(X)
            records.append(
                rp.residual_record(
                    f"s{2*n+1}: operator algebra basis[{idx}] {X.label}",
                    "cone-operator-algebra",
                    max(nz.nomizu_operator(K).residuals(K.J).values()),
                    tol.nomizu_algebra,
                )
            )
    for L in cfg.selected_immersions():
        target = 2.0 * L.n + 2.0
        basis = mo.algebra_basis(L.n)
        K = nz.ConeField.from_automorphism(mo.stack_fields(basis, "u(n+1)"))
        try:
            frame_sum = nz.operator_identity_residuals(
                K, L, resolution=cfg.resolution, legendrian_tol=tol.legendrian
            )
        except PreconditionError as exc:
            records.extend(
                _inconclusive(
                    f"{L.name}: operator identities basis[{idx}]",
                    "frame-sum-identity",
                    exc,
                )
                for idx in range(len(basis))
            )
            continue
        res = spc.eigen_residual(L, nz.nomizu_function(K), target, cfg.resolution)
        for idx, X in enumerate(basis):
            records.append(
                rp.residual_record(
                    f"{L.name}: frame-sum identity basis[{idx}]",
                    "frame-sum-identity",
                    frame_sum[idx],
                    tol.frame_sum_identity,
                )
            )
            records.append(
                rp.residual_record(
                    f"{L.name}: eigen-residual basis[{idx}] {X.label}",
                    "cone-family-eigenvalue",
                    res.residual[idx],
                    tol.eigen_residual,
                    degenerate=res.degenerate[idx],
                )
            )
    return records


def relation_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        vol = L.volume(cfg.resolution)
        f = cfg.moment_function(L, mo.stack_fields(mo.algebra_basis(L.n), "u(n+1)"), cfg.resolution)
        res = nz.family_coincidence_residuals(f, cfg.resolution)
        records.append(
            rp.residual_record(
                f"{L.name}: cone function vs contact pairing + trace term",
                "families-coincide",
                np.max(res["vs_contact_plus_trace"]),
                tol.family_coincidence,
            )
        )
        records.append(
            rp.residual_record(
                f"{L.name}: cone family vs moment family",
                "families-coincide",
                np.max(res["vs_moment_family"]),
                tol.family_coincidence,
            )
        )
        traceless = mo.stack_fields(mo.traceless_basis(L.n), "su(n+1)")
        x = L.node_geometry(cfg.resolution).x
        integrals = L.integrate(mo.moment(x, traceless), cfg.resolution)
        records.append(
            rp.residual_record(
                f"{L.name}: traceless contact integrals",
                "contact-integral-vanishes",
                np.max(np.abs(integrals) / vol),
                tol.mean_zero,
            )
        )
    return records


def spectrum_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        if L.discretizer is None:
            records.append(
                rp.info_record(
                    f"{L.name}: no intrinsic discretizer",
                    "pointwise-pipeline-only",
                    "covered by the pointwise pipeline and Rayleigh checks",
                )
            )
            continue
        report = cfg.mesh_spectrum(L)
        basis = mo.algebra_basis(L.n)
        f = cfg.moment_function(L, mo.stack_fields(basis, "u(n+1)"))
        er = spc.eigen_residual(L, f, report.target)
        residuals = {
            f"basis[{idx}] {X.label}": float(er.residual[idx])
            for idx, X in enumerate(basis)
            if not er.degenerate[idx]
        }
        verdict = spc.bound_check(report, min_separation=tol.cluster_separation)
        records.append(
            rp.count_record(
                f"{L.name}: multiplicity at target",
                "eigenspace-multiplicity-bound",
                report.multiplicity,
                L.multiplicity,
                details=dict(report.summary(), eigen_residuals=residuals),
                verdict=verdict,
            )
        )
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
        algebra = mo.stack_fields(mo.algebra_basis(L.n), "u(n+1)")
        if L.domain.periodic:
            res = 256 if L.n == 1 else 64

            def family_disagreement(r2):
                f = cfg.moment_function(L, algebra, r2)
                fv = f.values(r2)
                keep = np.max(np.abs(fv), axis=-1) > ZERO_FUNCTION
                ext_vals = f.laplacian(L, r2)[keep]
                grid = fv[keep].reshape((-1,) + L.domain.grid_shape(r2))
                mesh_vals = spc.apply_mesh_operator(L, grid).reshape(ext_vals.shape)
                worst = np.max(np.abs(mesh_vals - ext_vals), axis=-1)
                return float(np.max(worst / np.max(np.abs(ext_vals), axis=-1), initial=0.0))

            errs = [family_disagreement(r2) for r2 in (res // 2, res, 2 * res)]
            records.append(
                rp.residual_record(
                    f"{L.name}: mesh vs pointwise operator",
                    "pipeline-agreement",
                    errs[1],
                    tol.pipeline_agreement,
                )
            )
            order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
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
        f = cfg.moment_function(L, algebra)
        keep = np.max(np.abs(f.values()), axis=-1) > ZERO_FUNCTION
        q = spc.rayleigh_quotient(L, f)[keep]
        records.append(
            rp.residual_record(
                f"{L.name}: Rayleigh quotients",
                "rayleigh-quotient",
                np.max(np.abs(q - target) / target, initial=0.0),
                tol.rayleigh,
            )
        )
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
