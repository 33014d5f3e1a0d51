"""Command-line surface: flags, exit codes, report files."""

import csv
import io
import json
import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from legspec import immersions as im
from legspec import moment as mo
from legspec import sasaki as sk
from legspec import spectral as spc
from legspec.cli import _moment_fields_csv, main
from legspec.config import Tolerances
from legspec.suites import (
    CANONICAL_IMMERSIONS,
    MAX_N,
    MAX_NODES,
    SUITE_NAMES,
    SuiteConfig,
    list_targets,
    run_suite,
)
from legspec.errors import UnsupportedError


class TestListTargets:
    def test_lists_all_suites(self, capsys):
        assert main(["--list-targets"]) == 0
        out = capsys.readouterr().out
        for name in SUITE_NAMES:
            assert name in out
        assert len(SUITE_NAMES) == 7

    def test_lists_builtin_immersions(self, capsys):
        main(["--list-targets"])
        out = capsys.readouterr().out
        for name in ("great-circle-s3", "geodesic-sphere-n2", "clifford-torus-s5"):
            assert name in out

    def test_lists_algebra_dimensions(self):
        out = list_targets()
        assert "n=2: dimension 9" in out
        assert "n=3: dimension 16" in out


class TestUsageErrors:
    def test_unknown_suite_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "unknown-suite"])
        assert exc.value.code == 64

    def test_unknown_immersion_exits_64(self):
        assert main(["--suite", "relation", "--immersion", "nope"]) == 64

    def test_unknown_tolerance_exits_64(self):
        assert main(["--suite", "relation", "--tolerance", "nope=1"]) == 64

    def test_malformed_tolerance_exits_64(self):
        assert main(["--suite", "relation", "--tolerance", "mean_zero"]) == 64

    @pytest.mark.parametrize(
        "pair",
        ["mean_zero=inf", "eigen_residual=inf", "rayleigh=-inf", "cluster_window=nan",
         "cluster_window=0", "cluster_separation=-0.0", "eigen_residual=-1e-3"],
    )
    def test_tolerance_that_is_not_positive_and_finite_exits_64(self, pair, monkeypatch, capsys):
        monkeypatch.setattr("legspec.cli.run_suite", _refuse_compute)
        assert main(["--suite", "relation", "--tolerance", pair]) == 64
        assert "positive finite number" in capsys.readouterr().err
        name, _, value = pair.partition("=")
        with pytest.raises(UnsupportedError):
            Tolerances().override({name: float(value)})

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_seed_exits_64(self, suite, monkeypatch, capsys):
        monkeypatch.setattr("legspec.cli.run_suite", _refuse_compute)
        assert main(["--suite", suite, "--seed", "-1"]) == 64
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_missing_suite_exits_64(self):
        assert main([]) == 64

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_exits_64_before_compute(self, where, monkeypatch, capsys,
                                                        tmp_path):
        monkeypatch.setattr("legspec.cli.run_suite", _refuse_compute)
        out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        assert main(["--suite", "moment-family", "--output", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("legspec: error: cannot write --output") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "relation", "--resolution", "0"],
            ["--suite", "relation", "--resolution", "-8"],
            ["--suite", "legendrian-geometry", "--n", "5"],
            ["--suite", "relation", "--immersion", "clifford-torus-s5", "--n", "1"],
            ["--suite", "sasaki-axioms", "--n", "0"],
            ["--suite", "sasaki-axioms", "--n", "-1"],
            ["--suite", "all", "--resolution", "128"],
        ],
        ids=[
            "zero-resolution", "negative-resolution", "n-selects-nothing",
            "n-contradicts-immersion", "zero-n", "negative-n", "resolution-outside-a-mesh-range",
        ],
    )
    def test_meaningless_selection_exits_64(self, argv, capsys):
        assert main(argv) == 64
        assert "legspec: error:" in capsys.readouterr().err

    def test_mesh_resolution_checked_before_compute(self, monkeypatch, capsys, tmp_path):
        # 128 is a circle and a torus level but no icosphere level
        solved = _count_calls(
            monkeypatch, spc, "mesh_spectrum", lambda L, *args, **kwargs: L.name
        )
        assert main(["--suite", "spectrum", "--resolution", "128"]) == 64
        assert "icosphere resolution 128 outside shipped range" in capsys.readouterr().err
        assert not solved
        argv = ["--suite", "spectrum", "--immersion", "clifford-torus-s5", "--resolution", "128"]
        assert main(argv + ["--output", str(tmp_path / "torus.json")]) == 0
        assert solved == {"clifford-torus-s5": 1}

    def test_quadrature_size_checked_before_compute(self, monkeypatch, capsys):
        # 2 * 128**3 polar nodes on S^3 would take gigabytes: building any
        # quadrature fails the test at once instead
        def refuse(L, resolution=None):
            raise AssertionError(f"{L.name}: nodes built at resolution {resolution}")

        monkeypatch.setattr(im.LegendrianImmersion, "nodes", refuse)
        argv = ["--suite", "legendrian-geometry", "--immersion", "geodesic-sphere-n3",
                "--resolution", "128"]
        assert main(argv) == 64
        assert "quadrature nodes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "immersion,resolution,nodes",
        [("geodesic-sphere-n3", 40, 128000), ("geodesic-sphere-n3", 41, 137842),
         ("clifford-torus-s5", 256, 65536), ("clifford-torus-s5", 363, 131769),
         ("geodesic-sphere-n2", 256, 131072), ("geodesic-sphere-n2", 257, 132098)],
    )
    def test_quadrature_cap_boundary(self, immersion, resolution, nodes):
        L = im.get_immersion(immersion)
        assert L.domain.node_count(resolution) == nodes == len(L.domain.nodes_weights(resolution)[1])
        if nodes <= MAX_NODES:
            SuiteConfig(suite="relation", immersion=immersion, resolution=resolution)
        else:
            with pytest.raises(UnsupportedError):
                SuiteConfig(suite="relation", immersion=immersion, resolution=resolution)

    @pytest.mark.parametrize("resolution", [5, 41])
    def test_spectrum_resolution_without_a_mesh_exits_64(self, resolution, capsys):
        # spectrum reads --resolution as a mesh level only and S^3 has no
        # mesh: the value selects nothing, within the quadrature cap (5) or
        # beyond it (41, which no spectrum record would integrate at)
        argv = ["--suite", "spectrum", "--immersion", "geodesic-sphere-n3",
                "--resolution", str(resolution)]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert "selects nothing" in err and "quadrature nodes" not in err

    def test_sasaki_axioms_ignore_the_quadrature_cap(self):
        SuiteConfig(suite="sasaki-axioms", resolution=1000)

    @pytest.mark.parametrize(
        "name",
        ["metric_symmetry", "metric_compatibility", "hessian_symmetry", "bianchi",
         "cone_relations", "zero_function"],
    )
    def test_tolerance_names_no_check_reads_exit_64(self, name):
        assert len(fields(Tolerances)) == 19
        assert main(["--suite", "sasaki-axioms", "--tolerance", f"{name}=1e-3"]) == 64

    def test_sasaki_axioms_takes_any_dimension(self):
        assert SuiteConfig(suite="sasaki-axioms", n=5).selected_dimensions() == [5]

    def test_dimension_cap_checked_before_compute(self, monkeypatch, capsys):
        # the curvature at n holds two (2n+1)^4 arrays, 12 MB each at n = 17
        # and growing as n^4
        assert SuiteConfig(suite="sasaki-axioms", n=MAX_N).selected_dimensions() == [16]
        monkeypatch.setattr("legspec.cli.run_suite", _refuse_compute)
        assert main(["--suite", "sasaki-axioms", "--n", "17"]) == 64
        assert "n must be between 1 and 16, got 17" in capsys.readouterr().err

    def test_sasaki_axioms_follow_the_selected_immersions(self):
        # geodesic-sphere-n3 is selected by default, so S^7 is checked too
        cfg = SuiteConfig(suite="sasaki-axioms")
        assert cfg.selected_dimensions() == [1, 2, 3]
        s7 = [r for r in run_suite(cfg).records if r.name.startswith("s7:")]
        assert len(s7) == 8
        assert {r.status for r in s7} == {"pass"}
        narrowed = SuiteConfig(suite="sasaki-axioms", immersion="clifford-torus-s5")
        assert narrowed.selected_dimensions() == [2]

    def test_config_rejects_unknown_names_before_compute(self):
        with pytest.raises(UnsupportedError):
            SuiteConfig(suite="bogus")
        with pytest.raises(UnsupportedError):
            SuiteConfig(suite="relation", immersion="bogus")


class TestReports:
    def test_moment_family_circle_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "--suite", "moment-family",
                "--immersion", "geodesic-sphere-n1",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["schema"] == 1
        assert data["suite"] == "moment-family"
        assert data["counts"]["fail"] == 0
        assert all("anchor" in c for c in data["checks"])

    def test_degenerate_records_exit_zero(self):
        # diagonal generators give the zero function on the torus
        cfg = SuiteConfig(suite="moment-family", immersion="clifford-torus-s5")
        report = run_suite(cfg)
        assert report.counts()["degenerate"] > 0
        assert report.exit_code() == 0

    def test_tolerance_override_is_echoed_and_applied(self):
        cfg = SuiteConfig(
            suite="relation",
            immersion="great-circle-s3",
            tolerance_overrides={"family_coincidence": 1e-30},
        )
        report = run_suite(cfg)
        assert report.config_echo["tolerance_overrides"] == {"family_coincidence": 1e-30}
        assert report.exit_code() == 1  # impossible tolerance must fail

    def test_inconclusive_exit_two(self):
        cfg = SuiteConfig(
            suite="spectrum",
            immersion="great-circle-s3",
            resolution=64,
            tolerance_overrides={"cluster_window": 0.8},
        )
        report = run_suite(cfg)
        assert report.counts()["inconclusive"] >= 1
        # a wide window also breaks the multiplicity count: exit 1 wins
        assert report.exit_code() in (1, 2)

    def test_inconclusive_bound_leaves_its_counts_inconclusive(self, tmp_path):
        # a separation demand the torus cluster cannot meet: the counts read
        # off the same spectrum may not pass beside the inconclusive bound
        out = tmp_path / "spectrum.json"
        argv = ["--suite", "spectrum", "--immersion", "clifford-torus-s5",
                "--tolerance", "cluster_separation=7", "--output", str(out)]
        assert main(argv) != 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in ("multiplicity at target", "multiplicity >= algebra bound", "equality case"):
            check = checks[f"clifford-torus-s5: {name}"]
            assert check["status"] == "inconclusive", name
            assert check["details"]["separation_ratio"] < 7

    def test_precondition_failure_surfaces_as_inconclusive(self):
        # an impossible Legendrian tolerance turns the identity checks
        # into inconclusive records instead of crashing the suite
        cfg = SuiteConfig(
            suite="nomizu-family",
            immersion="clifford-torus-s5",
            tolerance_overrides={"legendrian": 1e-30},
        )
        report = run_suite(cfg)
        assert report.counts()["inconclusive"] >= 1
        assert report.counts()["fail"] == 0
        assert report.exit_code() == 2

    def test_reports_are_deterministic(self):
        cfg = SuiteConfig(suite="sasaki-axioms", n=1, seed=7)
        a = run_suite(cfg).to_json(include_timing=False)
        b = run_suite(SuiteConfig(suite="sasaki-axioms", n=1, seed=7)).to_json(
            include_timing=False
        )
        assert a == b

    def test_spectrum_csv_export(self, tmp_path):
        out_file = tmp_path / "spectrum.csv"
        code = main(
            [
                "--suite", "spectrum",
                "--immersion", "great-circle-s3",
                "--resolution", "128",
                "--format", "csv",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "immersion,index,eigenvalue"
        assert len(lines) == 129  # header + one eigenvalue per grid mode

    def test_all_suite_default_budget(self):
        import time

        t0 = time.perf_counter()
        report = run_suite(SuiteConfig(suite="all"))
        elapsed = time.perf_counter() - t0
        assert report.counts()["fail"] == 0
        assert report.exit_code() == 0
        assert elapsed < 300.0

    def test_icosphere_level_is_the_mesh_level_only(self):
        # the Rayleigh quotients integrate at the default quadrature, not on
        # a polar grid of resolution equal to the mesh level
        values = []
        for level in (3, 4, 5):
            report = run_suite(SuiteConfig(
                suite="spectrum", immersion="geodesic-sphere-n2", resolution=level))
            assert report.exit_code() == 0, level
            values += [r.value for r in report.records if r.anchor == "rayleigh-quotient"]
        assert len(values) == 3 and len(set(values)) == 1

    def test_spectral_report_eigenvalues_sorted(self):
        from legspec import immersions as im
        from legspec import spectral as spc

        rep = spc.mesh_spectrum(im.get_immersion("clifford-torus-s5"), 64)
        assert np.all(np.diff(rep.eigenvalues) >= 0.0)

    def test_moment_csv_export(self, tmp_path):
        out_file = tmp_path / "fields.csv"
        code = main(
            [
                "--suite", "moment-family",
                "--immersion", "great-circle-s3",
                "--resolution", "32",
                "--format", "csv",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "immersion,basis_index,generator,node,value"
        assert len(lines) == 1 + 4 * 32  # four generators, 32 nodes each


def _per_row_moment_csv(cfg):
    """Reference export: one csv.writer row per generator and node."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["immersion", "basis_index", "generator", "node", "value"])
    for L in cfg.selected_immersions():
        u, _ = L.nodes(cfg.resolution)
        for idx, X in enumerate(mo.algebra_basis(L.n)):
            vals = mo.moment_function(L, X, cfg.resolution).values(cfg.resolution)
            for node, val in enumerate(vals):
                writer.writerow([L.name, idx, X.label, node, repr(float(val))])
    return buf.getvalue()


def _refuse_compute(cfg):
    raise AssertionError(f"{cfg.suite} ran although its config is a usage error")


def _count_calls(monkeypatch, owner, name, key):
    calls = Counter()
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSharedWork:
    def test_moment_csv_matches_per_row_writer(self):
        cfg = SuiteConfig(
            suite="moment-family", immersion="clifford-torus-s5", resolution=8, fmt="csv"
        )
        buf = io.StringIO()
        _moment_fields_csv(cfg, buf)
        text = buf.getvalue()
        assert text == _per_row_moment_csv(cfg)
        assert '"i*E[1,1]"' in text
        assert text.count("\r\n") == 1 + 9 * 8 * 8

    def test_moment_csv_keeps_every_bit_pattern(self, monkeypatch):
        # formatted once per distinct bit pattern: -0.0 keeps its sign next
        # to 0.0, which a np.unique over float values would merge
        special = [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]
        node_values = mo.MomentFunction.node_values

        def with_special_values(f, geo):
            vals = node_values(f, geo).copy()
            vals[..., : len(special)] = special
            return vals

        monkeypatch.setattr(mo.MomentFunction, "node_values", with_special_values)
        cfg = SuiteConfig(
            suite="moment-family", immersion="clifford-torus-s5", resolution=8, fmt="csv"
        )
        buf = io.StringIO()
        _moment_fields_csv(cfg, buf)
        text = buf.getvalue()
        assert text == _per_row_moment_csv(cfg)
        assert ",0,0.0\r\n" in text and ",1,-0.0\r\n" in text and ",4,nan\r\n" in text

    def test_moment_family_evaluates_sqrt_det_g_once(self, monkeypatch, tmp_path):
        calls = _count_calls(
            monkeypatch, im.LegendrianImmersion, "sqrt_det_metric",
            lambda L, u: (L.name, len(u)),
        )
        code = main(
            [
                "--suite", "moment-family", "--n", "2", "--format", "csv",
                "--output", str(tmp_path / "fields.csv"),
            ]
        )
        assert code == 0
        assert calls == {("geodesic-sphere-n2", 24 * 48): 1, ("clifford-torus-s5", 48 * 48): 1}

    def test_all_builds_each_immersion_once(self, monkeypatch):
        built = _count_calls(monkeypatch, im, "get_immersion", lambda name: name)
        cfg = SuiteConfig(suite="all", n=1)
        run_suite(cfg)
        # the n filter reads each canonical immersion's dimension once
        assert built == dict.fromkeys(CANONICAL_IMMERSIONS, 1)
        assert [L.name for L in cfg.selected_immersions()] == ["great-circle-s3"]
        first, second = cfg.selected_immersions(), cfg.selected_immersions()
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "spectrum", "--immersion", "great-circle-s3"],
            ["--suite", "moment-family", "--immersion", "clifford-torus-s5",
             "--resolution", "16", "--format", "csv"],
            ["--suite", "all", "--n", "2"],
        ],
    )
    def test_builds_each_moment_function_once(self, monkeypatch, tmp_path, argv):
        built = _count_calls(
            monkeypatch, mo, "moment_function",
            lambda L, X, resolution=None: (L.name, X.label, L.resolve_resolution(resolution)),
        )
        assert main(argv + ["--output", str(tmp_path / "out")]) == 0
        assert built and set(built.values()) == {1}

    def test_nomizu_family_checks_legendrian_once_per_immersion(self, monkeypatch):
        # the Legendrian check reads the node geometry's Jacobian, the one
        # evaluation outside those made inside frames and sqrt det g
        calls = _count_calls(
            monkeypatch, im.LegendrianImmersion, "jacobian_at",
            lambda L, u: (L.name, sys._getframe(2).f_code.co_name),
        )
        assert run_suite(SuiteConfig(suite="nomizu-family")).exit_code() == 0
        evaluations = Counter()
        for (name, caller), count in calls.items():
            if caller not in ("frames", "induced_metric"):
                evaluations[name] += count
        assert evaluations == dict.fromkeys(CANONICAL_IMMERSIONS, 1)

    def test_nomizu_family_takes_frames_once_per_pass(self, monkeypatch):
        # per immersion, one node geometry serves the minimality precheck's
        # shape operator, the frame-sum identity and the eigen-residual
        calls = _count_calls(
            monkeypatch, im.LegendrianImmersion, "frames", lambda L, u: L.name
        )
        assert run_suite(SuiteConfig(suite="nomizu-family")).exit_code() == 0
        assert calls == dict.fromkeys(CANONICAL_IMMERSIONS, 1)

    def test_all_evaluates_each_node_set_once(self, monkeypatch):
        # every call of each evaluator has its own (immersion, node count)
        calls = {
            method: _count_calls(monkeypatch, im.LegendrianImmersion, method,
                                 lambda L, u: (L.name, len(u)))
            for method in ("frames", "points", "sqrt_det_metric")
        }
        calls["shape_operator"] = _count_calls(
            monkeypatch, im, "shape_operator", lambda geo: (geo.immersion.name, len(geo.u))
        )
        assert run_suite(SuiteConfig(suite="all", seed=0)).exit_code() == 0
        assert set(calls["shape_operator"]) == {
            (name, len(im.get_immersion(name).nodes()[0])) for name in CANONICAL_IMMERSIONS
        }
        for method, counted in calls.items():
            assert counted and set(counted.values()) == {1}, (method, counted)

    def test_all_contracts_each_closed_form_laplacian_once(self, monkeypatch):
        # each family keeps its Laplacian per node set, shared by
        # moment-family, the stencil record, spectrum and relation (a row
        # slice); the cone family's frame sum is its own contraction
        calls = _count_calls(
            monkeypatch, im.NodeGeometry, "projector_trace",
            lambda geo, A, radial: (geo.immersion.name, len(geo.u), radial, A.tobytes()),
        )
        assert run_suite(SuiteConfig(suite="all", seed=0)).exit_code() == 0
        assert sum(calls.values()) == 17
        assert set(calls.values()) == {1}

    def test_moment_builds_no_sasaki_structure(self, monkeypatch):
        L = im.clifford_torus()
        pts = L.points(L.nodes(8)[0])
        algebra = mo.stack_fields(mo.algebra_basis(2), "u(n+1)")
        built = _count_calls(monkeypatch, sk.SphereSasaki, "__init__", lambda S, n: n)
        assert mo.moment(pts, algebra).shape == (9, 64)
        assert not built

    def test_spectrum_suite_leaves_the_cached_spectrum_unchanged(self):
        cfg = SuiteConfig(suite="spectrum", immersion="great-circle-s3", resolution=64)
        spectrum = cfg.mesh_spectrum(cfg.selected_immersions()[0])
        before = {key: repr(value) for key, value in vars(spectrum).items()}
        assert run_suite(cfg).exit_code() == 0
        assert {key: repr(value) for key, value in vars(spectrum).items()} == before

    def test_spectrum_csv_reuses_the_suite_spectrum(self, monkeypatch, tmp_path):
        solved = _count_calls(
            monkeypatch, spc, "mesh_spectrum", lambda L, *args, **kwargs: L.name
        )
        code = main(
            [
                "--suite", "spectrum", "--immersion", "great-circle-s3",
                "--resolution", "128", "--format", "csv",
                "--output", str(tmp_path / "spectrum.csv"),
            ]
        )
        assert code == 0
        assert solved == {"great-circle-s3": 1}
