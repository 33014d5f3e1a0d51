"""Command-line entry point.

Examples::

    legspec --suite spectrum --immersion clifford-torus-s5 --resolution 128
    legspec --suite moment-family --immersion geodesic-sphere-n1
    legspec --suite all --output report.json
    legspec --list-targets

Exit codes: 0 all checks pass (or are degenerate), 1 any check fails,
2 inconclusive checks only, 64 usage errors.
"""

import argparse
import csv
import io
import os
import sys

import numpy as np

from . import moment as mo
from .errors import LegspecError, UnsupportedError
from .suites import SUITE_NAMES, SuiteConfig, list_targets, run_suite

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser():
    parser = _Parser(prog="legspec", description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=SUITE_NAMES, help="verification suite to run")
    parser.add_argument("--n", type=int, help="restrict to one intrinsic dimension")
    parser.add_argument("--immersion", help="restrict to one registered immersion")
    parser.add_argument("--resolution", type=int, help="override the default resolution")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    parser.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    parser.add_argument("--output", help="write the report to this path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    parser.add_argument(
        "--list-targets", action="store_true", help="list suites, immersions, algebras"
    )
    return parser


def _parse_tolerances(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UnsupportedError(f"--tolerance expects NAME=VALUE, got '{pair}'")
        name, _, value = pair.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise UnsupportedError(f"tolerance value '{value}' is not a number") from None
    return out


def _records_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "anchor", "kind", "value", "threshold", "status"])
    for r in report.records:
        writer.writerow([r.name, r.anchor, r.kind, r.value, r.threshold, r.status])
    return buf.getvalue()


def _spectrum_csv(cfg):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["immersion", "index", "eigenvalue"])
    for L in cfg.selected_immersions():
        if L.domain.mesh is None:
            continue
        try:
            report = cfg.mesh_spectrum(L)
        except LegspecError:
            # a spectrum that failed has no eigenvalues; the report says why
            continue
        for idx, ev in enumerate(report.eigenvalues):
            writer.writerow([L.name, idx, repr(float(ev))])
    return buf.getvalue()


def _moment_fields_csv(cfg, out):
    """Write one row per generator and node to the text stream ``out``, a
    generator at a time, so the file is never held as one string.  The
    fixed columns go through ``csv.writer`` once per generator (it quotes
    labels such as ``i*E[1,1]``).  Each distinct value is formatted once,
    with its CRLF line end: values are told apart by their bit patterns, so
    ``-0.0`` and ``0.0`` keep their own strings.  A generator's rows are
    one join of a list holding, per node, the fixed columns, the
    ``,node,`` string and the value string; these are the bytes a per-row
    ``csv.writer`` writes, since no node number or float ``repr`` needs
    quoting."""
    csv.writer(out).writerow(["immersion", "basis_index", "generator", "node", "value"])
    for L in cfg.selected_immersions():
        basis = mo.algebra_basis(L.n)
        f = cfg.moment_function(L, cfg.resolution)
        values = f.node_values(L.node_geometry(cfg.resolution))
        bits, inverse = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
        # one repr of the list formats every float as repr(float) does
        text = np.array(repr(bits.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
        text += "\r\n"
        count = values.shape[-1]
        parts = [None] * (3 * count)
        parts[1::3] = [f",{node}," for node in range(count)]
        for idx, (X, row) in enumerate(zip(basis, inverse.reshape(values.shape))):
            fixed = io.StringIO()
            csv.writer(fixed).writerow([L.name, idx, X.label])
            parts[0::3] = [fixed.getvalue().removesuffix("\r\n")] * count
            parts[2::3] = text[row].tolist()
            out.write("".join(parts))


def _writable(path):
    """Whether ``path`` can be opened for writing: a writable file that is
    not a directory, or a new name in a writable directory."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_targets:
        print(list_targets())
        return 0
    if args.suite is None:
        parser.print_usage(sys.stderr)
        print("legspec: error: --suite is required (or --list-targets)", file=sys.stderr)
        return USAGE_EXIT

    # checked before the suite runs, not found when the report is written
    if args.output is not None and not _writable(args.output):
        print(f"legspec: error: cannot write --output '{args.output}'", file=sys.stderr)
        return USAGE_EXIT

    try:
        cfg = SuiteConfig(
            suite=args.suite,
            n=args.n,
            immersion=args.immersion,
            resolution=args.resolution,
            seed=args.seed,
            tolerance_overrides=_parse_tolerances(args.tolerance),
            output=args.output,
            fmt=args.format,
        )
    except (UnsupportedError, KeyError) as exc:
        print(f"legspec: error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    try:
        report = run_suite(cfg)
    except LegspecError as exc:
        print(f"legspec: error: {exc}", file=sys.stderr)
        return 1

    report.print_lines()

    if cfg.output:
        with open(cfg.output, "w") as fh:
            if cfg.fmt == "json":
                fh.write(report.to_json())
            elif cfg.suite == "spectrum":
                fh.write(_spectrum_csv(cfg))
            elif cfg.suite == "moment-family":
                _moment_fields_csv(cfg, fh)
            else:
                fh.write(_records_csv(report))
        print(f"report written to {cfg.output}", file=sys.stderr)

    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
