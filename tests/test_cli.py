"""Command-line surface: flags, exit codes, report files."""

import csv
import io
import json
from collections import Counter

import numpy as np
import pytest

from legspec import immersions as im
from legspec import moment as mo
from legspec import spectral as spc
from legspec.cli import _moment_fields_csv, main
from legspec.suites import (
    CANONICAL_IMMERSIONS,
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

    def test_missing_suite_exits_64(self):
        assert main([]) == 64

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
            vals = mo.moment_function(L, X, cfg.resolution).on_chart(u)
            for node, val in enumerate(vals):
                writer.writerow([L.name, idx, X.label, node, repr(float(val))])
    return buf.getvalue()


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
        text = _moment_fields_csv(cfg)
        assert text == _per_row_moment_csv(cfg)
        assert '"i*E[1,1]"' in text
        assert text.count("\r\n") == 1 + 9 * 8 * 8

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
