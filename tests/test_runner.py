"""The record runner: one mapping of errors to statuses, one judge per check."""

import numpy as np
import pytest

from legspec import reporting as rp
from legspec import suites
from legspec.errors import ConvergenceError, EvaluationError, PreconditionError
from legspec.suites import SuiteConfig, run_check, run_suite

# each judge with a measurement it passes (info for the info judge)
JUDGES = {
    "at-most": (rp.at_most(1.0), 0.5),
    "at-least": (rp.at_least(1.0), 2.0),
    "count": (rp.COUNT, rp.Measured(3, {"expected": 3})),
    "bound": (rp.BOUND, rp.Measured(5, {"bound": 5})),
    "info": (rp.NOTE, "a note"),
}

FAILURES = {
    "precondition": (PreconditionError("precondition unmet"), rp.INCONCLUSIVE),
    "convergence": (ConvergenceError("solver stopped"), rp.INCONCLUSIVE),
    "evaluation": (EvaluationError("non-finite integrand"), rp.FAIL),
    "nan-value": (None, rp.FAIL),
}


@pytest.mark.parametrize("judge", JUDGES)
def test_judges_pass_what_they_hold(judge):
    judge, measured = JUDGES[judge]
    record = run_check("check", "anchor", judge, lambda: measured)
    assert record.status == (rp.INFO if judge is rp.NOTE else rp.PASS)


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("judge", JUDGES)
def test_no_failure_passes(judge, failure):
    judge, good = JUDGES[judge]
    exc, status = FAILURES[failure]

    def measure():
        if exc is not None:
            raise exc
        # the details the judge reads, with a nan value
        return rp.Measured(float("nan"), getattr(good, "details", None))

    record = run_check("check", "anchor", judge, measure)
    assert record.status == status
    assert np.isnan(record.value)
    assert record.details["reason"] == ("non-finite value" if exc is None else str(exc))
    # the kind and threshold are the judge's whatever the status
    assert (record.kind, record.threshold) == (judge.kind, judge.threshold)


def test_every_record_goes_through_the_runner(monkeypatch):
    names = []

    def counted(name, *args):
        names.append(name)
        return run_check(name, *args)

    monkeypatch.setattr(suites, "run_check", counted)
    report = run_suite(SuiteConfig(suite="all"))
    assert len(names) == len(report.records) == 194
    assert names == [r.name for r in report.records]


def test_a_cached_failure_is_raised_to_each_reader(monkeypatch):
    cfg = SuiteConfig(suite="spectrum")
    L = cfg.selected_immersions()[0]
    calls = []

    def unconverged(*args, **kwargs):
        calls.append(1)
        raise ConvergenceError("solver stopped")

    monkeypatch.setattr(suites.spc, "mesh_spectrum", unconverged)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="solver stopped"):
            cfg.mesh_spectrum(L)
    assert calls == [1]
