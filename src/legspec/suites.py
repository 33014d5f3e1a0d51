"""Named verification suites wiring the geometry modules to reports.

Seven suites ship: ``sasaki-axioms``, ``legendrian-geometry``,
``moment-family``, ``nomizu-family``, ``relation``, ``spectrum`` and
``all``.  Each suite is deterministic for a fixed config (seed, sample
ordering and reduction order are fixed) and appends
:class:`~legspec.reporting.CheckRecord` entries to a report.

Each record comes from one check given to :func:`run_check`: its name,
its anchor, a judge of :mod:`legspec.reporting` (a value at most or at
least a threshold, a count against its expected value, the bound
verdict, or info), which fixes the record's kind and threshold whatever
its status, and a thunk that measures the value and details.  The runner
is the one place where an error becomes a status:
``PreconditionError`` and ``ConvergenceError`` give ``inconclusive``,
``EvaluationError`` and a nan value ``fail``, with the message as the
reason.  The inputs that several checks read (each mesh spectrum,
eigenspace count, moment and cone family) are computed once per config
and kept in one memo, and a failure is raised again to every check that
reads it.  A node set read by one check only, such as the
pipeline-agreement grids, is built where it is read and kept by no cache.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import immersions as im
from . import moment as mo
from . import nomizu as nz
from . import reporting as rp
from . import sasaki as sk
from . import spectral as spc
from .config import CLUSTER_SPREAD, DEFAULT_TOLERANCES, GREEN_IDENTITY, ZERO_FUNCTION, Tolerances
from .errors import (ConvergenceError, EvaluationError, LegspecError, PreconditionError,
                     UnsupportedError)

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
    # config: each mesh spectrum, eigenspace count and family (with its node
    # values at the default nodes) is computed once per report, and kept,
    # or the LegspecError it raised, in _memo; a node set read once is
    # built where it is read and kept by no cache
    _immersions: list | None = field(default=None, init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _once(self, key, compute):
        """``compute()``, computed once per config under ``key`` for every
        reader; a ``LegspecError`` it raised is kept instead and raised
        again to each reader."""
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except LegspecError as exc:
                self._memo[key] = exc
        if isinstance(self._memo[key], LegspecError):
            raise self._memo[key]
        return self._memo[key]

    def mesh_spectrum(self, L):
        """Mesh spectrum of ``L`` at the configured resolution (default
        ``spectral.MESH_RESOLUTIONS``' default level), solved once per config
        for the spectrum suite and its CSV export."""
        return self._once(("spectrum", L.name), lambda: spc.mesh_spectrum(
            L, self.resolution, window=self.tolerances.cluster_window))

    def eigenspace_count(self, L):
        """The ``moment.quadratic_ritz`` values of ``L`` in the cluster window
        around ``2n + 2``, counted once per config."""
        target, window = 2.0 * L.n + 2.0, self.tolerances.cluster_window
        return self._once(("count", L.name), lambda: int(np.sum(
            np.abs(mo.quadratic_ritz(L)[0] - target) <= window * target)))

    def in_equality_case(self, L):
        """Whether the eigenspace count of ``L`` meets the algebra bound: the
        paper's equality case, which picks the checks that hold ``L`` to
        being totally geodesic.  A count that failed picks them too, and
        each, reading the count, fails with it."""
        try:
            return self.eigenspace_count(L) == spc.algebra_bound(L.n)
        except LegspecError:
            return True

    def moment_function(self, L, resolution=None):
        """``moment.moment_function`` of the stacked ``u(n+1)`` algebra on ``L``,
        built once per immersion and resolution for every suite and exporter."""
        return self._once(("moment", L.name, L.resolve_resolution(resolution)), lambda: (
            mo.moment_function(L, mo.stack_fields(mo.algebra_basis(L.n), "u(n+1)"), resolution)))

    def cone_family(self, n):
        """``nomizu.nomizu_function`` of the stacked ``u(n+1)`` algebra,
        built once per dimension and keeping its values per node set."""
        return self._once(("cone", n), lambda: (
            nz.nomizu_function(mo.stack_fields(mo.algebra_basis(n), "u(n+1)"))))


# ---------------------------------------------------------------------------
# the record runner

# the status an error of a check's measurement gives its record
ERROR_STATUS = {
    PreconditionError: rp.INCONCLUSIVE,
    ConvergenceError: rp.INCONCLUSIVE,
    EvaluationError: rp.FAIL,
}


def run_check(name, anchor, judge, measure):
    """The record of one check, named ``name`` and ``anchor``: ``measure()``
    gives its value, or an ``rp.Measured`` with details or a status of its
    own, and ``judge`` its kind, threshold and status.  This is the one
    place where an error becomes a status, by ``ERROR_STATUS``, with value
    nan and the message as the reason; a nan value is an
    ``EvaluationError``.  The kind and threshold are the judge's whatever
    the status."""
    try:
        value, status, details = judge(measure())
    except tuple(ERROR_STATUS) as exc:
        value, status, details = float("nan"), ERROR_STATUS[type(exc)], {"reason": str(exc)}
    return rp.CheckRecord(name, anchor, judge.kind, value, judge.threshold, status, details)


def _resting_on(verdict, value, details):
    """A measurement that rests on the bound ``verdict``: inconclusive, with
    the verdict's diagnostics added to ``details``, when the verdict is."""
    if verdict.inconclusive:
        return rp.Measured(value, {**details, **verdict.diagnostics}, rp.INCONCLUSIVE)
    return rp.Measured(value, details)


# ---------------------------------------------------------------------------
# individual suites


def sasaki_axiom_records(cfg):
    tol = cfg.tolerances
    records = []
    for n in cfg.selected_dimensions():
        S = sk.SphereSasaki(n)
        samples = sk.sample_tangent_triples(S, 100, seed=cfg.seed)
        residuals = sk.verify_sasaki_axioms(S, samples)
        for axiom in residuals:
            records.append(run_check(f"s{2*n+1}: axiom {axiom}", "sasaki-structure-axioms",
                                     rp.at_most(tol.sasaki_axioms), lambda: residuals[axiom]))
        rng = np.random.default_rng(cfg.seed + 1)
        radii = rng.uniform(0.5, 2.0, 2)
        # a hemisphere chart point with |u| <= 0.5, where Gamma != 0
        u = rng.standard_normal(S.dim)
        u *= 0.5 * rng.uniform() / np.linalg.norm(u)
        records.append(run_check(f"s{2*n+1}: curvature constant 2n", "eta-einstein-constant",
                                 rp.at_most(tol.eta_einstein),
                                 lambda: sk.eta_einstein_residual(S, u)))
        records.append(run_check(f"s{2*n+1}: cone curvature flat (chart cross-check)",
                                 "cone-ricci-flat", rp.at_most(tol.cone_ricci_chart),
                                 lambda: sk.SphereCone(S).ricci_via_chart(radii)))
    return records


def legendrian_geometry_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        geo = L.node_geometry(cfg.resolution)
        # the node set every pointwise sup below is taken over
        records.append(run_check(
            f"{L.name}: contact form pullback", "legendrian-pullback-vanishes",
            rp.at_most(tol.legendrian),
            lambda: rp.Measured(geo.legendrian_residual,
                                {"nodes": len(geo.u), "volume": float(geo.volume)})))
        records.append(run_check(f"{L.name}: mean curvature", "minimal-immersion",
                                 rp.at_most(tol.mean_curvature),
                                 lambda: geo.shape.mean_curvature_norm()))

        def second_fundamental_norm():
            # the count picked this check; a count that failed fails it
            cfg.eigenspace_count(L)
            return geo.shape.second_fundamental_norm()

        # the paper's equality case: L is totally geodesic exactly when its
        # eigenspace count meets the algebra bound
        if cfg.in_equality_case(L):
            records.append(run_check(f"{L.name}: second fundamental form",
                                     "totally-geodesic-equality-case",
                                     rp.at_most(tol.totally_geodesic), second_fundamental_norm))
        else:
            records.append(run_check(f"{L.name}: second fundamental form nonzero",
                                     "minimal-but-not-totally-geodesic", rp.at_least(0.1),
                                     second_fundamental_norm))

        def frame_orthonormality():
            gram = np.einsum("...ia,...ja->...ij", geo.frame, geo.frame)
            return np.max(np.abs(gram - np.eye(L.n)))

        records.append(run_check(f"{L.name}: frame orthonormality", "orthonormal-frame",
                                 rp.at_most(tol.frame_orthonormality), frame_orthonormality))

        def roundtrip():
            first = mo.stack_fields(mo.algebra_basis(L.n)[: L.n + 2], "u(n+1)[:n+2]")
            split = im.normal_split(geo, first)
            rebuilt = im.normal_from_split(geo, split.reeb_component, split.one_form)
            return np.max(np.linalg.norm(rebuilt - split.normal, axis=-1))

        records.append(run_check(f"{L.name}: normal-split roundtrip", "normal-bundle-isomorphism",
                                 rp.at_most(tol.chi_roundtrip), roundtrip))
    return records


def moment_family_records(cfg):
    tol = cfg.tolerances
    records = []
    for n in cfg.selected_dimensions():
        S = sk.SphereSasaki(n)
        samples = sk.sample_tangent_triples(S, 10, seed=cfg.seed)

        def worst_killing():
            worst = 0.0
            for X in mo.algebra_basis(n):
                r = mo.automorphism_residuals(S, X, samples)
                worst = max(worst, r["killing"], r["contact_form"])
            return worst

        records.append(run_check(f"s{2*n+1}: generators Killing / contact-preserving",
                                 "automorphism-killing", rp.at_most(tol.killing), worst_killing))
    for L in cfg.selected_immersions():
        target = 2.0 * L.n + 2.0
        basis = mo.algebra_basis(L.n)
        res = functools.cache(lambda: spc.eigen_residual(
            L, cfg.moment_function(L, cfg.resolution), target, cfg.resolution))
        # the default nodes integrate f^2 (degree 4) exactly with positive
        # weights, so a function zero at all of them is zero; one that is
        # zero only at the requested nodes says these nodes are too few.
        # The default family is the one Green's identity reads below
        coarse = L.resolve_resolution(cfg.resolution) != L.resolve_resolution()
        default_sup = functools.cache(lambda: np.max(
            np.abs(cfg.moment_function(L).node_values(L.node_geometry())), axis=-1))

        def eigen_residual(idx):
            r = res()
            if r.degenerate[idx] and coarse and default_sup()[idx] > ZERO_FUNCTION:
                return rp.Measured(
                    float("nan"),
                    {"sup_norm": float(r.sup_norm[idx]),
                     "default_sup_norm": float(default_sup()[idx]),
                     "reason": "zero at the quadrature nodes but not at the default nodes"},
                    rp.INCONCLUSIVE)
            return rp.Measured(r.residual[idx], None, rp.DEGENERATE if r.degenerate[idx] else None)

        for idx, X in enumerate(basis):
            records.append(run_check(f"{L.name}: eigen-residual basis[{idx}] {X.label}",
                                     "moment-family-eigenvalue", rp.at_most(tol.eigen_residual),
                                     lambda: eigen_residual(idx)))
        if cfg.in_equality_case(L):
            records.append(run_check(f"{L.name}: rank of normal parts over basis",
                                     "tangent-generator-kernel", rp.COUNT,
                                     lambda: _kernel_rank(cfg, L, basis)))
        # the one check of the closed form that does not share its algebra,
        # at the default resolution whatever --resolution is
        records.append(run_check(f"{L.name}: closed-form Laplacian vs Green identity",
                                 "closed-form-laplacian", rp.at_most(GREEN_IDENTITY),
                                 lambda: spc.green_identity_residual(L, cfg.moment_function(L))))
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


def _kernel_rank(cfg, L, basis):
    # the count picked this check; a count that failed fails it
    cfg.eigenspace_count(L)
    algebra = mo.stack_fields(basis, "u(n+1)")
    rank = _normal_rank(L, algebra, cfg.resolution)
    expected = spc.algebra_bound(L.n) + 1
    if rank < expected and L.resolve_resolution(cfg.resolution) != L.resolve_resolution():
        # a rank over any node set is at most the true rank, so a deficit
        # the default nodes do not show says only that these nodes are too few
        default_rank = _normal_rank(L, algebra, None)
        if default_rank == expected:
            return rp.Measured(
                rank,
                {"expected": expected, "rank": rank, "default_rank": default_rank,
                 "reason": "the quadrature nodes cannot span the expected rank"},
                rp.INCONCLUSIVE)
    return rp.Measured(rank, {"expected": expected})


def nomizu_family_records(cfg):
    tol = cfg.tolerances
    records = []
    # the operator of a linear cone field is one matrix: its algebra
    # depends on the generator alone, not on the immersion
    for n in cfg.selected_dimensions():
        op, J = cfg.cone_family(n).matrix, sk.complex_structure(n)
        for idx, X in enumerate(mo.algebra_basis(n)):
            records.append(run_check(
                f"s{2*n+1}: operator algebra basis[{idx}] {X.label}", "cone-operator-algebra",
                rp.at_most(tol.nomizu_algebra),
                lambda: max(nz.cone_field_residuals(op[idx], J).values())))
    # on a minimal L the closed form gives Lap f = 2n f - 2 tr(QP), so the
    # cone family's eigen-residual is 2 / sup|f| times its frame sum
    # |tr(QP) + f|, which holds on any Legendrian L
    for L in cfg.selected_immersions():
        f = cfg.cone_family(L.n)
        frame_sum = functools.cache(lambda: nz.operator_identity_residuals(
            f, L, resolution=cfg.resolution, legendrian_tol=tol.legendrian))
        for idx in range(len(f.matrix)):
            records.append(run_check(f"{L.name}: frame-sum identity basis[{idx}]",
                                     "frame-sum-identity", rp.at_most(tol.frame_sum_identity),
                                     lambda: frame_sum()[idx]))
    return records


def relation_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():

        def degree_two():
            # both records read means of degree-2 integrands, which coarser
            # nodes integrate wrong on correct code
            least = L.domain.resolution_for(2)
            if L.resolve_resolution(cfg.resolution) < least:
                raise PreconditionError(f"resolution {cfg.resolution} does not integrate "
                                        f"degree 2 exactly; {L.name} needs {least}")

        # both read the node set's second moment, which a non-finite point
        # fails; neither reads a node value
        def coincidence():
            degree_two()
            f_mom, f_cone = cfg.moment_function(L, cfg.resolution), cfg.cone_family(L.n)
            return np.max(nz.family_coincidence_residuals(f_mom, f_cone))

        # its own integrals: the moment family's means, which a skipped mean
        # subtraction zeroes, would read 0 whatever the integrals are
        def contact_integrals():
            degree_two()
            traceless = mo.stack_fields(mo.traceless_basis(L.n), "su(n+1)")
            second_moment = L.node_geometry(cfg.resolution).second_moment
            integrals = mo.pairing_integral(traceless.generator, second_moment)
            return np.max(np.abs(integrals) / L.volume(cfg.resolution))

        records.append(run_check(f"{L.name}: cone family vs moment family", "families-coincide",
                                 rp.at_most(tol.family_coincidence), coincidence))
        records.append(run_check(f"{L.name}: traceless contact integrals",
                                 "contact-integral-vanishes", rp.at_most(tol.mean_zero),
                                 contact_integrals))
    return records


def spectrum_records(cfg):
    tol = cfg.tolerances
    records = []
    for L in cfg.selected_immersions():
        if L.domain.mesh is None:
            records.append(run_check(f"{L.name}: no intrinsic discretizer",
                                     "pointwise-pipeline-only", rp.NOTE,
                                     lambda: "covered by the pointwise pipeline and Rayleigh checks"))
            continue
        target = 2.0 * L.n + 2.0
        verdict = functools.cache(lambda: spc.bound_check(
            cfg.mesh_spectrum(L), min_separation=tol.cluster_separation))

        def multiplicity():
            report = cfg.mesh_spectrum(L)
            er = spc.eigen_residual(L, cfg.moment_function(L), report.target)
            residuals = {
                f"basis[{idx}] {X.label}": float(er.residual[idx])
                for idx, X in enumerate(mo.algebra_basis(L.n))
                if not er.degenerate[idx]
            }
            details = dict(report.summary(), eigen_residuals=residuals,
                           expected=cfg.eigenspace_count(L))
            return _resting_on(verdict(), report.multiplicity, details)

        def equality():
            # measured, on the shape operator eigen_residual's minimality precheck built
            norm = L.node_geometry().shape.second_fundamental_norm()
            if np.isnan(norm):
                raise EvaluationError(f"{L.name}: non-finite second fundamental form")
            flat = norm <= tol.totally_geodesic
            return _resting_on(verdict(), int(verdict().equality), {"expected": int(flat)})

        def cluster():
            report = cfg.mesh_spectrum(L)
            if not report.multiplicity:
                lo, hi = report.window_bounds
                raise EvaluationError(f"{L.name}: no eigenvalue in the window [{lo:g}, {hi:g}]")
            return report

        records += [
            run_check(f"{L.name}: multiplicity at target", "eigenspace-multiplicity-bound",
                      rp.COUNT, multiplicity),
            run_check(f"{L.name}: multiplicity >= algebra bound", "eigenspace-multiplicity-bound",
                      rp.BOUND, lambda: _resting_on(
                          verdict(), verdict().diagnostics["multiplicity"],
                          dict(verdict().diagnostics, equality=verdict().equality))),
            run_check(f"{L.name}: equality case", "equality-case-totally-geodesic", rp.COUNT,
                      equality),
            run_check(f"{L.name}: cluster mean accuracy", "spectral-cluster-accuracy",
                      rp.at_most(tol.cluster_accuracy),
                      lambda: abs(cluster().cluster_mean - target) / target),
            run_check(f"{L.name}: constants eigenvalue", "spectral-cluster-accuracy",
                      rp.at_most(tol.cluster_window * target),
                      lambda: abs(cfg.mesh_spectrum(L).first_eigenvalue)),
            run_check(f"{L.name}: cluster separation ratio", "cluster-separation",
                      rp.at_least(tol.cluster_separation),
                      lambda: cfg.mesh_spectrum(L).separation_ratio()),
        ]
        # the stencils split their cluster by O(h^2), the icosphere not at all
        if L.domain.mesh == "icosphere":
            records.append(run_check(f"{L.name}: cluster spread", "spectral-cluster-accuracy",
                                     rp.at_most(CLUSTER_SPREAD),
                                     lambda: np.ptp(cluster().cluster) / target))
    # cross-pipeline agreement and Rayleigh checks
    for L in cfg.selected_immersions():
        target = 2.0 * L.n + 2.0
        # the default nodes integrate f^2 exactly, so a function zero at
        # all of them is zero on L and has no agreement or Rayleigh quotient
        # to check; a nan value is kept, never skipped as a zero function
        nonzero = functools.cache(lambda: ~(np.max(np.abs(
            cfg.moment_function(L).node_values(L.node_geometry())), axis=-1) <= ZERO_FUNCTION))
        if L.domain.periodic:
            res = 256 if L.n == 1 else 64

            @functools.cache
            def disagreement(r2):
                f, keep = cfg.moment_function(L), nonzero()
                # read once, so built here and kept by no cache: only its
                # points and frames are formed
                geo = im.NodeGeometry(L, *L.domain.nodes_weights(r2), r2)
                # the stencil reads the pairing values: it cancels a constant
                # only in exact arithmetic, so on the mean-subtracted values
                # the means' roundoff, over h^2, would move the records
                grid = mo.pairing(f.matrix[keep], geo.x)
                mesh_vals = spc.apply_mesh_operator(
                    L, grid.reshape((-1,) + L.domain.grid_shape(r2))).reshape(grid.shape)
                ext_vals = spc.laplacian_at(geo, f.quadratic_form[keep])
                worst = np.max(np.abs(mesh_vals - ext_vals), axis=-1)
                return float(np.max(worst / np.max(np.abs(ext_vals), axis=-1), initial=0.0))

            records.append(run_check(f"{L.name}: mesh vs pointwise operator",
                                     "pipeline-agreement", rp.at_most(tol.pipeline_agreement),
                                     lambda: disagreement(res)))
            # np.min keeps a nan, where min(x, nan) returns x
            records.append(run_check(
                f"{L.name}: agreement refinement order", "pipeline-agreement", rp.at_least(1.8),
                lambda: np.min([np.log2(disagreement(r // 2) / disagreement(r))
                                for r in (res, 2 * res)])))

        # --resolution is the mesh level here, so the Rayleigh quotients
        # integrate at the default quadrature like the eigen-residuals above
        def rayleigh():
            q = spc.rayleigh_quotient(L, cfg.moment_function(L))[nonzero()]
            return np.max(np.abs(q - target) / target, initial=0.0)

        records.append(run_check(f"{L.name}: Rayleigh quotients", "rayleigh-quotient",
                                 rp.at_most(tol.rayleigh), rayleigh))
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
