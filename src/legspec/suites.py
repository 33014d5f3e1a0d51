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
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import PreconditionError, UnsupportedError

CANONICAL_IMMERSIONS = (
    "great-circle-s3",
    "geodesic-sphere-n2",
    "clifford-torus-s5",
    "geodesic-sphere-n3",
)

SUITE_NAMES = (
    "sasaki-axioms",
    "legendrian-geometry",
    "moment-family",
    "nomizu-family",
    "relation",
    "spectrum",
    "all",
)

SPECTRUM_DEFAULTS = {
    "great-circle-s3": 4096,
    "geodesic-sphere-n1": 4096,
    "clifford-torus-s5": 256,
    "geodesic-sphere-n2": 6,
}

EXPECTED_MULTIPLICITY = {
    "great-circle-s3": 2,
    "geodesic-sphere-n1": 2,
    "clifford-torus-s5": 6,
    "geodesic-sphere-n2": 5,
}


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
    tolerances: Tolerances = field(default_factory=lambda: DEFAULT_TOLERANCES)
    tolerance_overrides: dict = field(default_factory=dict)
    output: str | None = None
    fmt: str = "json"
    # built on first use and shared by every suite and exporter of this
    # config, so per-resolution caches on the immersions and the mesh
    # spectra are computed once per report
    _immersions: list | None = field(default=None, init=False, repr=False, compare=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise UnsupportedError(
                f"unknown suite '{self.suite}'; shipped: {list(SUITE_NAMES)}"
            )
        if self.immersion is not None and self.immersion not in im.registry():
            raise UnsupportedError(
                f"unknown immersion '{self.immersion}'; shipped: {sorted(im.registry())}"
            )
        if self.tolerance_overrides:
            self.tolerances = self.tolerances.override(self.tolerance_overrides)

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
        if self.immersion is not None:
            return [self.selected_immersions()[0].n]
        return [1, 2]

    def mesh_spectrum(self, L):
        """Mesh spectrum of ``L`` at the configured resolution, solved once
        per config for the spectrum suite and its CSV export."""
        if L.name not in self._spectra:
            res = self.resolution or SPECTRUM_DEFAULTS[L.name]
            self._spectra[L.name] = spc.mesh_spectrum(
                L, res, window=self.tolerances.cluster_window
            )
        return self._spectra[L.name]


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
        x = S.random_point(rng)
        records.append(
            rp.residual_record(
                f"s{2*n+1}: curvature constant 2n",
                "eta-einstein-constant",
                sk.eta_einstein_residual(S, x),
                tol.eta_einstein,
            )
        )
        cone = sk.SphereCone(S)
        records.append(
            rp.residual_record(
                f"s{2*n+1}: cone metric restriction",
                "cone-metric-restriction",
                cone.restriction_residual(samples[:50]),
                1e-12,
            )
        )
        rel = cone.connection_relation_residuals(samples[:30])
        records.append(
            rp.residual_record(
                f"s{2*n+1}: cone connection relations",
                "cone-connection-relations",
                max(rel.values()),
                tol.cone_relations,
            )
        )
        pts = [(S.random_point(rng), rng.uniform(0.5, 2.0)) for _ in range(10)]
        records.append(
            rp.residual_record(
                f"s{2*n+1}: cone curvature flat",
                "cone-ricci-flat",
                sk.cone_ricci_flat(cone, pts),
                tol.cone_ricci,
            )
        )
        records.append(
            rp.residual_record(
                f"s{2*n+1}: cone curvature flat (chart cross-check)",
                "cone-ricci-flat",
                sk.cone_ricci_flat_via_chart(S, pts[:2]),
                tol.cone_ricci_chart,
            )
        )
    return records


def legendrian_geometry_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        u, _ = L.nodes(cfg.resolution)
        records.append(
            rp.residual_record(
                f"{L.name}: contact form pullback",
                "legendrian-pullback-vanishes",
                L.legendrian_residual(cfg.resolution),
                tol.legendrian,
            )
        )
        sd = im.shape_operator(L, u)
        records.append(
            rp.residual_record(
                f"{L.name}: mean curvature",
                "minimal-immersion",
                sd.mean_curvature_norm(),
                tol.mean_curvature,
            )
        )
        if L.name.startswith("geodesic-sphere") or L.name == "great-circle-s3":
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
        gram = np.einsum("...ia,...ja->...ij", sd.frame, sd.frame)
        records.append(
            rp.residual_record(
                f"{L.name}: frame orthonormality",
                "orthonormal-frame",
                float(np.max(np.abs(gram - np.eye(L.n)))),
                tol.frame_orthonormality,
            )
        )
        worst = 0.0
        for X in mo.algebra_basis(L.n)[: L.n + 2]:
            split = im.normal_split(L, X, u)
            rebuilt = im.normal_from_split(L, u, split.reeb_component, split.one_form)
            worst = max(worst, float(np.max(np.linalg.norm(rebuilt - split.normal, axis=-1))))
        records.append(
            rp.residual_record(
                f"{L.name}: normal-split roundtrip",
                "normal-bundle-isomorphism",
                worst,
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
    for L in cfg.selected_immersions():
        target = 2.0 * L.n + 2.0
        vol = L.volume(cfg.resolution)
        S = L.ambient
        samples = sk.sample_tangent_triples(S, 10, seed=cfg.seed)
        worst_killing = 0.0
        for idx, X in enumerate(mo.algebra_basis(L.n)):
            f = mo.moment_function(L, X, cfg.resolution)
            name = f"{L.name}: eigen-residual basis[{idx}] {X.label}"
            try:
                res = spc.eigen_residual(L, f.ambient, target, cfg.resolution)
            except PreconditionError as exc:
                records.append(_inconclusive(name, "moment-family-eigenvalue", exc))
            else:
                records.append(
                    rp.residual_record(
                        name,
                        "moment-family-eigenvalue",
                        res.residual,
                        tol.eigen_residual,
                        degenerate=res.degenerate,
                    )
                )
            mean_resid = abs(L.integrate(f.on_chart, cfg.resolution)) / vol
            records.append(
                rp.residual_record(
                    f"{L.name}: mean-zero basis[{idx}]",
                    "mean-free-normalization",
                    mean_resid,
                    tol.mean_zero,
                )
            )
            r = mo.automorphism_residuals(S, X, samples)
            worst_killing = max(worst_killing, r["killing"], r["contact_form"])
        records.append(
            rp.residual_record(
                f"{L.name}: generators Killing / contact-preserving",
                "automorphism-killing",
                worst_killing,
                tol.killing,
            )
        )
        if L.name.startswith("geodesic-sphere") or L.name == "great-circle-s3":
            u, _ = L.nodes(cfg.resolution)
            sel = u[:: max(1, len(u) // 40)]
            rows = [im.normal_split(L, X, sel).normal.ravel() for X in mo.algebra_basis(L.n)]
            svals = np.linalg.svd(np.array(rows), compute_uv=False)
            rank = int(np.sum(svals > 1e-8 * svals[0]))
            expected = (L.n + 1) ** 2 - L.n * (L.n + 1) // 2
            records.append(
                rp.count_record(
                    f"{L.name}: rank of normal parts over basis",
                    "tangent-generator-kernel",
                    rank,
                    expected,
                )
            )
    return records


def nomizu_family_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        target = 2.0 * L.n + 2.0
        S = L.ambient
        rng = np.random.default_rng(cfg.seed)
        cone_pts = [rng.uniform(0.5, 2.0) * S.random_point(rng) for _ in range(5)]
        for idx, X in enumerate(mo.algebra_basis(L.n)):
            K = nz.ConeField.from_automorphism(X)
            fres = nz.cone_field_residuals(K, cone_pts)
            records.append(
                rp.residual_record(
                    f"{L.name}: field Killing/holomorphic basis[{idx}]",
                    "cone-field-admissible",
                    max(fres.values()),
                    tol.killing,
                )
            )
            worst_alg = 0.0
            for y in cone_pts:
                worst_alg = max(
                    worst_alg, max(nz.nomizu_operator(K, y).residuals(K.J).values())
                )
            records.append(
                rp.residual_record(
                    f"{L.name}: operator algebra basis[{idx}] {X.label}",
                    "cone-operator-algebra",
                    worst_alg,
                    tol.nomizu_algebra,
                )
            )
            try:
                ident = nz.operator_identity_residuals(
                    K, L, seed=cfg.seed, resolution=cfg.resolution,
                    legendrian_tol=tol.legendrian,
                )
            except PreconditionError as exc:
                records.append(
                    _inconclusive(
                        f"{L.name}: operator identities basis[{idx}]",
                        "frame-sum-identity",
                        exc,
                    )
                )
                continue
            records.append(
                rp.residual_record(
                    f"{L.name}: divergence constancy basis[{idx}]",
                    "divergence-constancy",
                    ident["div_constancy"],
                    tol.div_constancy,
                )
            )
            records.append(
                rp.residual_record(
                    f"{L.name}: operator gradient vs curvature basis[{idx}]",
                    "operator-gradient-curvature",
                    max(ident["gradient_vs_curvature"], ident["radial_curvature"]),
                    tol.nomizu_algebra,
                )
            )
            records.append(
                rp.residual_record(
                    f"{L.name}: frame-sum identity basis[{idx}]",
                    "frame-sum-identity",
                    ident["frame_sum"],
                    tol.frame_sum_identity,
                )
            )
            records.append(
                rp.residual_record(
                    f"{L.name}: radial independence basis[{idx}]",
                    "radial-independence",
                    nz.radial_independence_residual(K, S.random_point(rng)),
                    tol.radial_independence,
                )
            )
            f = nz.nomizu_function(K)
            res = spc.eigen_residual(L, f.ambient, target, cfg.resolution)
            records.append(
                rp.residual_record(
                    f"{L.name}: eigen-residual basis[{idx}] {X.label}",
                    "cone-family-eigenvalue",
                    res.residual,
                    tol.eigen_residual,
                    degenerate=res.degenerate,
                )
            )
    return records


def relation_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        vol = L.volume(cfg.resolution)
        worst_a = worst_b = 0.0
        for X in mo.algebra_basis(L.n):
            res = nz.family_coincidence_residuals(X, L, cfg.resolution)
            worst_a = max(worst_a, res["vs_contact_plus_trace"])
            worst_b = max(worst_b, res["vs_moment_family"])
        records.append(
            rp.residual_record(
                f"{L.name}: cone function vs contact pairing + trace term",
                "families-coincide",
                worst_a,
                tol.family_coincidence,
            )
        )
        records.append(
            rp.residual_record(
                f"{L.name}: cone family vs moment family",
                "families-coincide",
                worst_b,
                tol.family_coincidence,
            )
        )
        worst_int = 0.0
        for X in mo.traceless_basis(L.n):
            val = abs(L.integrate(lambda u: mo.moment(L.points(u), X), cfg.resolution))
            worst_int = max(worst_int, val / vol)
        records.append(
            rp.residual_record(
                f"{L.name}: traceless contact integrals",
                "contact-integral-vanishes",
                worst_int,
                tol.mean_zero,
            )
        )
    return records


def spectrum_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        if L.name not in SPECTRUM_DEFAULTS:
            records.append(
                rp.info_record(
                    f"{L.name}: no intrinsic discretizer",
                    "pointwise-pipeline-only",
                    "covered by the pointwise pipeline and Rayleigh checks",
                )
            )
            continue
        report = cfg.mesh_spectrum(L)
        report.residuals = {}
        for idx, X in enumerate(mo.algebra_basis(L.n)):
            f = mo.moment_function(L, X)
            er = spc.eigen_residual(L, f.ambient, report.target)
            if not er.degenerate:
                report.residuals[f"basis[{idx}] {X.label}"] = er.residual
        verdict = spc.bound_check(report, min_separation=tol.cluster_separation)
        records.append(
            rp.count_record(
                f"{L.name}: multiplicity at target",
                "eigenspace-multiplicity-bound",
                report.multiplicity,
                EXPECTED_MULTIPLICITY[L.name],
                details=dict(report.summary(), eigen_residuals=report.residuals),
            )
        )
        records.append(
            rp.bound_record(
                f"{L.name}: multiplicity >= algebra bound",
                "eigenspace-multiplicity-bound",
                verdict,
            )
        )
        equality_expected = L.name != "clifford-torus-s5"
        records.append(
            rp.count_record(
                f"{L.name}: equality case",
                "equality-case-totally-geodesic",
                int(verdict.equality),
                int(equality_expected),
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
        if L.name in ("great-circle-s3", "geodesic-sphere-n1", "clifford-torus-s5"):
            res = 256 if L.n == 1 else 64

            def family_disagreement(r2):
                u2, _ = L.nodes(r2)
                shape = L.domain.grid_shape(r2)
                worst = 0.0
                for X in mo.algebra_basis(L.n):
                    f = mo.moment_function(L, X, r2)
                    fv = f.on_chart(u2)
                    if np.max(np.abs(fv)) <= tol.zero_function:
                        continue
                    mesh_vals = spc.apply_mesh_operator(L, fv.reshape(shape))
                    ext_vals = spc.extrinsic_laplacian(L, f.ambient, u2).reshape(shape)
                    worst = max(
                        worst,
                        float(
                            np.max(np.abs(mesh_vals - ext_vals))
                            / np.max(np.abs(ext_vals))
                        ),
                    )
                return worst

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
        worst_q = 0.0
        for X in mo.algebra_basis(L.n):
            f = mo.moment_function(L, X, cfg.resolution)
            if np.max(np.abs(f.values(cfg.resolution))) <= tol.zero_function:
                continue
            q = spc.rayleigh_quotient(L, f.ambient, cfg.resolution)
            worst_q = max(worst_q, abs(q - target) / target)
        records.append(
            rp.residual_record(
                f"{L.name}: Rayleigh quotients",
                "rayleigh-quotient",
                worst_q,
                tol.rayleigh,
            )
        )
    records.append(
        rp.info_record(
            "round-sphere first-eigenvalue multiplicity note",
            "sphere-first-eigenvalue-note",
            spc.sphere_eigenvalue_note(2),
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
