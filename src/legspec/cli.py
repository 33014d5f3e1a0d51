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
import sys

from . import moment as mo
from .errors import LegspecError, UnsupportedError
from .suites import SPECTRUM_DEFAULTS, SUITE_NAMES, SuiteConfig, list_targets, run_suite

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
        if L.name not in SPECTRUM_DEFAULTS:
            continue
        report = cfg.mesh_spectrum(L)
        for idx, ev in enumerate(report.eigenvalues):
            writer.writerow([L.name, idx, repr(float(ev))])
    return buf.getvalue()


def _moment_fields_csv(cfg):
    """One row per generator and node.  The fixed columns go through
    ``csv.writer`` once per generator (it quotes labels such as
    ``i*E[1,1]``); the node and value columns are joined directly, with the
    same ``repr`` floats and CRLF line ends a per-row writer produces."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["immersion", "basis_index", "generator", "node", "value"])
    for L in cfg.selected_immersions():
        u, _ = L.nodes(cfg.resolution)
        for idx, X in enumerate(mo.algebra_basis(L.n)):
            vals = mo.moment_function(L, X, cfg.resolution).on_chart(u)
            fixed = io.StringIO()
            csv.writer(fixed).writerow([L.name, idx, X.label])
            prefix = fixed.getvalue().removesuffix("\r\n")
            buf.write("".join(
                f"{prefix},{node},{val!r}\r\n" for node, val in enumerate(vals.tolist())
            ))
    return buf.getvalue()


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
        if cfg.fmt == "json":
            payload = report.to_json()
        elif cfg.suite == "spectrum":
            payload = _spectrum_csv(cfg)
        elif cfg.suite == "moment-family":
            payload = _moment_fields_csv(cfg)
        else:
            payload = _records_csv(report)
        with open(cfg.output, "w") as fh:
            fh.write(payload)
        print(f"report written to {cfg.output}", file=sys.stderr)

    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
