#!/usr/bin/env python3
"""legspec benchmark: cold CLI workloads, an output gate and per-layer spans.

Run from the repository root::

    python3 perfbench/run.py --workload spectrum --seed 0 --seconds 40 --trace 0

Each workload is a closed loop: one benchmark process starts one cold
``python3 -m legspec.cli`` process at a time, with ``src`` on
``PYTHONPATH``, and waits for it to exit.  A *pass* is the workload's
list of invocations.  Passes repeat until ``--seconds`` is spent.  The
seed reaches the program only as ``--seed`` on every invocation.

``--trace 0`` reports the end-to-end metrics; each loop iteration times
cold ``legspec --list-targets`` processes (set-up time), then one pass.
``--trace 1`` alternates an untraced pass with a traced one, where each
invocation runs under ``perfbench/tracer.py``, and reports the per-layer
metrics.  Every output is checked (see ``check_output``); the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The BLAS thread environment is passed through unchanged, as users run it.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer  # perfbench/tracer.py, beside this file

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACER = Path(tracer.__file__).resolve()
TMP_PARENT = ROOT / ".perfbench_tmp"

# A run must exit within 180 s; a child still running at this many seconds
# after start is killed and counted as failed.
HARD_LIMIT_S = 170.0

# Cold ``--list-targets`` processes timed before each pass for setup_s.
SETUP_PROBES = 2

WORKLOADS = {
    "spectrum": "the only mesh build, FEM assembly and shift-invert eigensolve (icosphere level 6)",
    "families": "four small suites: thousands of small calls and duplicated work, no mesh",
    "refine": "same layers as families on node arrays larger than L2, plus a 36 MB CSV export",
}

# Multiplicity at eigenvalue 2n+2 that the spectrum report must state.
EXPECTED_MULTIPLICITY = {"great-circle-s3": 2, "geodesic-sphere-n2": 5, "clifford-torus-s5": 6}

TORUS_CSV_NODES = 256 * 256
TORUS_GENERATORS = 9  # dim u(3)


@dataclass
class Invocation:
    """One CLI process of a pass: its arguments and where it writes."""

    label: str
    argv: list
    output: Path
    csv_rows: int | None = None  # expected CSV lines, header included
    spectrum: bool = False


def invocations(workload, seed, tmp):
    s = ["--seed", str(seed)]
    if workload == "spectrum":
        out = tmp / "spectrum.json"
        return [Invocation("spectrum", ["--suite", "spectrum", *s, "--output", str(out)],
                           out, spectrum=True)]
    if workload == "families":
        calls = []
        # --suite sasaki-axioms is left out: its chart cross-check of cone
        # flatness fails at about one seed in six (see BASELINE.md).
        for suite in ("legendrian-geometry", "moment-family", "nomizu-family", "relation"):
            out = tmp / f"{suite}.json"
            calls.append(Invocation(suite, ["--suite", suite, *s, "--output", str(out)], out))
        return calls
    if workload == "refine":
        csv_out = tmp / "moment-torus-256.csv"
        json_out = tmp / "relation-s3-24.json"
        return [
            Invocation("moment-csv",
                       ["--suite", "moment-family", "--immersion", "clifford-torus-s5",
                        "--resolution", "256", "--format", "csv", *s, "--output", str(csv_out)],
                       csv_out, csv_rows=TORUS_CSV_NODES * TORUS_GENERATORS + 1),
            Invocation("relation-s3",
                       ["--suite", "relation", "--immersion", "geodesic-sphere-n3",
                        "--resolution", "24", *s, "--output", str(json_out)],
                       json_out),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def computed_sizes():
    """Quadrature node counts and array bytes per workload, computed from the
    domains' formulas (float64; points (N, 2n+2), Jacobians (N, 2n+2, n))."""

    def arrays(nodes, n):
        d = 2 * n + 2
        return {"nodes": nodes, "points_bytes": nodes * d * 8,
                "jacobian_bytes": nodes * d * n * 8}

    canonical = {
        "great-circle-s3 (256)": arrays(256, 1),
        "geodesic-sphere-n2 (24)": arrays(24 * 48, 2),
        "clifford-torus-s5 (48)": arrays(48 * 48, 2),
        "geodesic-sphere-n3 (12)": arrays(12 * 12 * 24, 3),
    }
    level = 6
    return {
        "spectrum": {"icosphere_level": level, "vertices": 10 * 4**level + 2,
                     "faces": 20 * 4**level, "canonical": canonical},
        "families": {"canonical": canonical},
        "refine": {
            "clifford-torus-s5 (256)": arrays(TORUS_CSV_NODES, 2),
            "geodesic-sphere-n3 (24)": arrays(24 * 24 * 48, 3),
            "csv_rows": TORUS_CSV_NODES * TORUS_GENERATORS + 1,
        },
    }


def _cache_size(index):
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
    try:
        return (path / "level").read_text().strip(), (path / "size").read_text().strip()
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in range(8):
        found = _cache_size(index)
        if found and found[0] in ("2", "3"):
            caches[f"L{found[0]}"] = found[1]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches": caches,
    }


# ---------------------------------------------------------------------------
# running processes


@dataclass
class Proc:
    returncode: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float
    stderr: str


def run_process(cmd, env, stderr_path, deadline):
    """Start ``cmd``, wait for it, and return its exit code, wall time and
    rusage.  A process still running at ``deadline`` is killed."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime, Path(stderr_path).read_text(errors="replace"))


# ---------------------------------------------------------------------------
# the output gate

_WALL_TIME = re.compile(rb',\n  "wall_time_s": [^\n]*\n}\n$')

# Largest change |a - b| / max(1, |a|, |b|) of a float in a JSON report
# that still counts as the same output.  ``eigsh`` starts Lanczos from a
# vector drawn from OS entropy, so the spectrum report moves by ~3e-15
# from run to run at a fixed seed.
ROUNDOFF = 1e-12


def stable_bytes(call):
    """The output's bytes; for a JSON report, the part before ``wall_time_s``."""
    data = call.output.read_bytes()
    if call.csv_rows is None:
        match = _WALL_TIME.search(data)
        if match is None:
            raise ValueError("report does not end with the wall_time_s field")
        data = data[: match.start()]
    return data


def check_output(call, data):
    """Return a list of reasons the output is wrong (empty if it is right)."""
    if call.csv_rows is not None:
        lines = data.decode().splitlines()
        problems = []
        if len(lines) != call.csv_rows:
            problems.append(f"{len(lines)} CSV lines, expected {call.csv_rows}")
        if lines[:1] != ["immersion,basis_index,generator,node,value"]:
            problems.append("unexpected CSV header")
        bad = sum(1 for line in lines[1:] if not math.isfinite(float(line.rsplit(",", 1)[1])))
        if bad:
            problems.append(f"{bad} non-finite CSV values")
        return problems
    report = json.loads(call.output.read_bytes())
    problems = []
    if report.get("schema") != 1:
        problems.append(f"schema {report.get('schema')!r}, expected 1")
    bad = [c["name"] for c in report["checks"] if c["status"] in ("fail", "inconclusive")]
    if bad:
        problems.append(f"{len(bad)} fail/inconclusive records, first: {bad[0]}")
    if call.spectrum:
        found = {c["name"].split(":")[0]: c["value"] for c in report["checks"]
                 if c["name"].endswith(": multiplicity at target")}
        if found != EXPECTED_MULTIPLICITY:
            problems.append(f"multiplicities {found}, expected {EXPECTED_MULTIPLICITY}")
    return problems


def float_drift(a, b):
    """Largest relative change between two parsed reports that differ only in
    float values; None if anything else differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = list(zip(a, b))
    elif type(a) is float and type(b) is float:
        return abs(a - b) / max(1.0, abs(a), abs(b))
    else:
        return 0.0 if a == b else None
    worst = 0.0
    for x, y in pairs:
        drift = float_drift(x, y)
        if drift is None:
            return None
        worst = max(worst, drift)
    return worst


class Gate:
    """Checks each invocation's exit code and output.

    The first output of an invocation is checked in full and kept.  A later
    output of the same invocation (same code, same seed) must be the same:
    byte-identical, or for a JSON report equal up to float changes within
    ``ROUNDOFF``.  Such roundoff-level changes are not failures, but are
    counted and printed, because the program promises byte-stable reports.
    """

    def __init__(self):
        self.reference = {}  # label -> stable bytes of the first good output
        self.attempted = 0
        self.failed = 0
        self.roundoff_mismatches = 0
        self.notes = []

    def judge(self, call, proc):
        self.attempted += 1
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        try:
            problems += self._compare(call, stable_bytes(call))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}; stderr: {proc.stderr.strip()[-300:]}")
        if problems:
            self.failed += 1
            self.notes.append(f"FAILED {call.label}: {'; '.join(problems)}")
        return not problems

    def _compare(self, call, data):
        ref = self.reference.get(call.label)
        if ref is None:
            problems = check_output(call, data)
            if not problems:
                self.reference[call.label] = data
            return problems
        if data == ref:
            return []
        drift = None
        if call.csv_rows is None:
            drift = float_drift(json.loads(ref + b"}"), json.loads(data + b"}"))
        if drift is None or drift > ROUNDOFF:
            return [f"output differs from an earlier one at the same seed (drift {drift})"]
        self.roundoff_mismatches += 1
        self.notes.append(f"roundoff {call.label}: bytes differ at the same seed, "
                          f"largest float change {drift:.1e}")
        return []

    def setup_probe(self, proc):
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.notes.append(f"FAILED --list-targets: exit code {proc.returncode}")

    def digests(self):
        return {label: hashlib.sha256(data).hexdigest()[:16]
                for label, data in self.reference.items()}


# ---------------------------------------------------------------------------
# metrics

# wall_s is the fastest pass of the run, not the median.  The host's
# neighbours slow passes by up to 1.45x, in phases of minutes and in bursts
# within a run; noise only adds time.  Over ten 40 s spectrum runs the
# quartile spread was 0.33 of the median for per-run medians and 0.11 for
# per-run minima.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

USEFUL_RATIO = ["immersions.sqrt_det_metric", "immersions.frames",
                "moment.moment_function", "spectral.mesh_spectrum"]


def per_layer_metrics():
    """(name, unit, better) of every metric ``--trace 1`` prints."""
    out = []
    for span in tracer.SPAN_NAMES:
        out += [(f"{span}.s", "s", "lower"), (f"{span}.self_s", "s", "lower"),
                (f"{span}.calls", "count", "lower")]
    out += [(f"{span}.useful_ratio", "ratio", "higher") for span in USEFUL_RATIO]
    out += [(name, "count", "lower") for name in tracer.COUNTERS]
    out += [("cli.output_bytes", "B", "lower"), ("gate.roundoff_mismatches", "count", "lower"),
            ("proc.cpu_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def percentile_note(samples):
    """Minimum, median, the highest whole percentile with at least ten samples
    above it (when there are enough samples), and the sample count."""
    n = len(samples)
    parts = [f"min {min(samples):.4f}", f"median {statistics.median(samples):.4f}"]
    if n >= 11:
        p = math.floor(100 * (1 - 10 / n))
        parts.append(f"p{p} {statistics.quantiles(samples, n=100, method='inclusive')[p - 1]:.4f}")
    else:
        parts.append("no percentile with 10 samples beyond it")
    parts.append(f"n={n}")
    return ", ".join(parts)


def child_env():
    """The caller's environment, BLAS thread settings included, with this
    checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    return env


class Bench:
    def __init__(self, workload, seed, tmp):
        self.calls = invocations(workload, seed, tmp)
        self.tmp = tmp
        self.gate = Gate()
        self.start = time.perf_counter()
        self.deadline = self.start + HARD_LIMIT_S
        self.env = child_env()

    def cli(self, argv):
        return [sys.executable, "-m", "legspec.cli", *argv]

    def setup_sample(self):
        proc = run_process(self.cli(["--list-targets"]), self.env, self.tmp / "stderr",
                           self.deadline)
        self.gate.setup_probe(proc)
        return proc.wall_s

    def one_pass(self, traced=False):
        """Run every invocation once; return (wall, procs, span totals).
        Span totals are kept for every traced process that ran to the end,
        whatever its verdict."""
        procs = []
        spans = [self.tmp / f"spans{i}.json" for i in range(len(self.calls))]
        t0 = time.perf_counter()
        for call, span_file in zip(self.calls, spans):
            call.output.unlink(missing_ok=True)
            span_file.unlink(missing_ok=True)
            if traced:
                cmd = [sys.executable, str(TRACER), "--spans", str(span_file), "--", *call.argv]
            else:
                cmd = self.cli(call.argv)
            procs.append(run_process(cmd, self.env, self.tmp / "stderr", self.deadline))
        wall = time.perf_counter() - t0
        totals = []
        for call, proc, span_file in zip(self.calls, procs, spans):
            self.gate.judge(call, proc)
            if span_file.exists():
                total = json.loads(span_file.read_text())
                try:
                    total["output_bytes"] = len(stable_bytes(call))
                except (OSError, ValueError):
                    total["output_bytes"] = 0
                totals.append(total)
        return wall, procs, totals

    def out_of_time(self, seconds, iteration_times):
        elapsed = time.perf_counter() - self.start
        return (elapsed + statistics.median(iteration_times) > seconds
                or elapsed + 2 * max(iteration_times) > HARD_LIMIT_S)


def run_untraced(bench, seconds):
    walls, setups, rss, iters = [], [], [], []
    while True:
        t0 = time.perf_counter()
        setups += [bench.setup_sample() for _ in range(SETUP_PROBES)]
        wall, procs, _ = bench.one_pass()
        walls.append(wall)
        rss.append(max(p.maxrss_mb for p in procs))
        iters.append(time.perf_counter() - t0)
        print(f"pass {len(walls)}: wall {wall:.3f} s, setup {setups[-1]:.3f} s, "
              f"peak rss {rss[-1]:.1f} MB")
        if bench.out_of_time(seconds, iters):
            break
    g = bench.gate
    print(f"wall_s: {percentile_note(walls)}")
    print(f"setup_s: {percentile_note(setups)}")
    # failed_share is the JSON's failed / attempted; it is no metric because
    # it is 0 whenever the program is right.
    print(f"failed_share = {g.failed / g.attempted:.6g} ratio ({g.failed}/{g.attempted}; "
          f"roundoff-level mismatches, not failures: {g.roundoff_mismatches})")
    return {
        "wall_s": min(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def run_traced(bench, seconds):
    plain, traced, cpu, iters = [], [], [], []
    passes = []  # per traced pass: metric -> value
    while True:
        t0 = time.perf_counter()
        wall, _, _ = bench.one_pass()
        plain.append(wall)
        wall, procs, totals = bench.one_pass(traced=True)
        iters.append(time.perf_counter() - t0)
        if len(totals) == len(bench.calls):
            traced.append(wall)
            cpu.append(sum(p.cpu_s for p in procs))
            passes.append(layer_values(totals))
        print(f"pair {len(iters)}: untraced {plain[-1]:.3f} s, traced {wall:.3f} s")
        if bench.out_of_time(seconds, iters):
            break
    if not passes:
        return {}
    metrics = {}
    for name, _, _ in per_layer_metrics():
        values = [p[name] for p in passes if name in p]
        if not values:
            continue
        if name.endswith((".s", ".self_s")):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                print(f"note: {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["gate.roundoff_mismatches"] = bench.gate.roundoff_mismatches
    metrics["proc.cpu_s"] = statistics.median(cpu)
    metrics["trace.overhead_s"] = min(traced) - min(plain)
    print(f"traced wall_s: {percentile_note(traced)}; untraced wall_s: {percentile_note(plain)}")
    return metrics


def layer_values(totals):
    """Sum one traced pass's per-invocation span totals into metric values.
    A useful ratio is distinct inputs (per process) over calls; 0 when the
    function was not called."""
    out = {}
    for t in totals:
        for span, agg in t["spans"].items():
            for field in ("s", "self_s", "calls", "distinct"):
                key = f"{span}.{field}"
                out[key] = out.get(key, 0) + agg[field]
        for counter, value in t["counts"].items():
            out[counter] = out.get(counter, 0) + value
        out["cli.output_bytes"] = out.get("cli.output_bytes", 0) + t["output_bytes"]
    for span in USEFUL_RATIO:
        calls = out[f"{span}.calls"]
        out[f"{span}.useful_ratio"] = out[f"{span}.distinct"] / calls if calls else 0.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "legspec" / "cli.py").is_file():
        print(f"perfbench: no legspec sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"sizes: {json.dumps(computed_sizes()[args.workload])} (computed)")
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        bench = Bench(args.workload, args.seed, tmp)
        if args.trace:
            values = run_traced(bench, args.seconds)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            values = run_untraced(bench, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    gate = bench.gate
    for note in gate.notes:
        print(note)
    print(f"reference digests: {json.dumps(gate.digests(), sort_keys=True)}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": gate.failed == 0 and len(values) == len(units),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
