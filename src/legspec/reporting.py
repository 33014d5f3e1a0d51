"""Machine-readable check records and suite reports.

Every record pairs a measured value with its threshold and a stable
``anchor`` slug naming the mathematical claim it verifies, so reports
stay traceable when thresholds are overridden.  Reports serialize to a
versioned JSON schema; the wall-time field is the only entry excluded
from the byte-stability contract (it is placed last and may be stripped
for comparisons).  The JSON is strict (RFC 8259): a non-finite float is
written as the string ``"nan"``, ``"inf"`` or ``"-inf"``.
"""

import json
import math
import time
from typing import NamedTuple

from . import __version__
from .errors import EvaluationError

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
DEGENERATE = "degenerate"
INCONCLUSIVE = "inconclusive"
INFO = "info"


def _strict_json(obj):
    """``obj`` with every non-finite float, at any depth, replaced by its
    ``repr`` string, which strict JSON parsers accept."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {key: _strict_json(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(val) for val in obj]
    return obj


class CheckRecord:
    def __init__(self, name, anchor, kind, value, threshold, status, details=None):
        self.name = name
        self.anchor = anchor
        self.kind = kind
        self.value = value
        self.threshold = threshold
        self.status = status
        self.details = details or {}

    def as_dict(self):
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "kind": self.kind,
            "value": self.value,
            "threshold": self.threshold,
            "status": self.status,
        }
        if self.details:
            out["details"] = self.details
        return out

    def line(self):
        thr = "" if self.threshold is None else f" (threshold {self.threshold:g})"
        val = f"{self.value:.3e}" if isinstance(self.value, float) else f"{self.value}"
        return f"[{self.status.upper():>12}] {self.name}: {val}{thr}"


class Measured(NamedTuple):
    """A check's measurement with what its judge cannot know: the record's
    ``details``, and a ``status`` the measurement settles itself
    (``degenerate``, or ``inconclusive`` when the value cannot be judged)."""

    value: object
    details: dict | None = None
    status: str | None = None


class Judge:
    """How a check's measured value becomes its record.  ``kind`` and
    ``threshold`` are the record's whatever its status; when the measurement
    settles no status, ``passes(value, details)`` gives pass or fail, and a
    judge without it gives info.  A nan value raises ``EvaluationError``,
    so it never passes."""

    def __init__(self, kind, threshold, convert, passes=None):
        self.kind = kind
        self.threshold = threshold
        self._convert = convert
        self._passes = passes

    def __call__(self, measured):
        """``(value, status, details)`` of a value or a :class:`Measured`."""
        value, details, status = measured if isinstance(measured, Measured) else (measured, None, None)
        if status is None:
            if isinstance(value, float) and math.isnan(value):
                raise EvaluationError("non-finite value")
            status = INFO if self._passes is None else PASS if self._passes(value, details) else FAIL
        return self._convert(value), status, details or {}


def at_most(threshold):
    """A residual that passes at or below ``threshold``."""
    return Judge("residual", float(threshold), float, lambda value, _: value <= threshold)


def at_least(threshold):
    """A residual that passes at or above ``threshold``."""
    return Judge("residual", float(threshold), float, lambda value, _: value >= threshold)


# a count that passes when it is the ``expected`` of its details
COUNT = Judge("count", None, int, lambda value, details: value == details["expected"])
# a multiplicity that passes when it is at least the ``bound`` of its details
BOUND = Judge("bound", None, int, lambda value, details: value >= details["bound"])
# a value reported for information, with no verdict
NOTE = Judge("info", None, lambda value: value)


class Report:
    """Outcome of one suite run: config echo plus ordered records."""

    def __init__(self, suite, config_echo):
        self.suite = suite
        self.config_echo = config_echo
        self.records = []
        self._t0 = time.perf_counter()
        self.wall_time_s = None

    def extend(self, records):
        self.records.extend(records)

    def finish(self):
        self.wall_time_s = time.perf_counter() - self._t0
        return self

    def counts(self):
        out = {PASS: 0, FAIL: 0, DEGENERATE: 0, INCONCLUSIVE: 0, INFO: 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def exit_code(self):
        c = self.counts()
        if c[FAIL]:
            return 1
        if c[INCONCLUSIVE]:
            return 2
        return 0

    def as_dict(self, include_timing=True):
        out = {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "toolkit_version": __version__,
            "config": self.config_echo,
            "checks": [r.as_dict() for r in self.records],
            "counts": self.counts(),
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_timing=True):
        # allow_nan=False: a non-finite float that escaped _strict_json raises
        report = _strict_json(self.as_dict(include_timing))
        return json.dumps(report, indent=2, allow_nan=False) + "\n"

    def print_lines(self, stream=None):
        import sys

        stream = stream or sys.stdout
        for r in self.records:
            print(r.line(), file=stream)
        c = self.counts()
        wt = f" in {self.wall_time_s:.2f}s" if self.wall_time_s is not None else ""
        print(
            f"suite '{self.suite}': {c[PASS]} pass, {c[FAIL]} fail, "
            f"{c[DEGENERATE]} degenerate, {c[INCONCLUSIVE]} inconclusive, "
            f"{c[INFO]} info{wt}",
            file=stream,
        )
