"""Command-line interface: verify manifests, list and describe fixtures.

Exit codes of ``verify``: 0 when every check is PASS or NOT-APPLICABLE,
1 when any check FAILs, 2 when any check ERRORs (or the manifest cannot be
loaded at all).  Every other failure exits with 2 as well, so 1 always means
that a check FAILed; a closed stdout (``statgeom verify ... | head -1``)
exits with 2 and no message.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback

from .fixtures import fixture_ids, load_fixture
from .manifest import LIMITS, ManifestError, load_manifest
from .report import canonical_json, emit_report, render_report
from .suite import CHECKS, run_suite


def _tolerance(text: str) -> float:
    """A finite positive number, the rule manifest tolerances follow."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _integer_at_least(low: int, rule: str, high: int | None = None):
    """An argparse type for ``rule`` integers (at least ``low``, at most ``high``), as in manifests."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {rule} integer, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statgeom",
        description="Numerical verification of statistical-manifold geometry fixtures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="run the checks declared by a manifest file or fixture id"
    )
    verify.add_argument("manifest", help="path to a manifest JSON file, or a built-in fixture id")
    verify.add_argument("--seed", type=_integer_at_least(0, "non-negative"), default=None,
                        help="override the sampling seed")
    verify.add_argument("--points", type=_integer_at_least(1, "positive", LIMITS["points"]),
                        default=None, help="override the sample count")
    verify.add_argument("--tol", type=_tolerance, default=None, help="override every check tolerance")
    verify.add_argument("--report", default=None, help="write the canonical report to this path")

    commands.add_parser("list-fixtures", help="list the built-in fixture ids")

    describe = commands.add_parser("describe", help="print a built-in fixture manifest")
    describe.add_argument("fixture", help="fixture id")
    return parser


def _load(reference: str):
    if os.path.exists(reference):
        return load_manifest(reference, known_checks=set(CHECKS))
    return load_fixture(reference, known_checks=set(CHECKS))


def _summarize(report) -> str:
    lines = [f"fixture {report.fixture}  seed {report.seed}  points {report.points}"]
    for check in report.checks:
        parts = [f"{check.status:>14}  {check.name}"]
        if check.residual is not None:
            parts.append(f"residual {check.residual:.3e}")
        if check.tolerance is not None:
            parts.append(f"tol {check.tolerance:.1e}")
        if check.reason:
            parts.append(f"({check.reason})")
        lines.append("  ".join(parts))
    lines.append(f"wall time {report.wall_time_s:.3f}s")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe fails here, inside the guard, not at exit
        return code
    except BrokenPipeError:
        # Nobody reads stdout any more.  Python flushes it again at exit, so
        # point it at devnull, where that flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except ManifestError as err:
        print(f"error: {err}", file=sys.stderr)
    except Exception as err:  # noqa: BLE001 - exit code 1 is reserved for a FAILed check
        traceback.print_exc(file=sys.stderr)
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
    return 2


def _run(args) -> int:
    if args.command == "list-fixtures":
        for fixture_id in fixture_ids():
            print(fixture_id)
        return 0

    if args.command == "describe":
        print(canonical_json(load_fixture(args.fixture, known_checks=set(CHECKS)).data))
        return 0

    manifest = _load(args.manifest)
    report = run_suite(manifest, seed=args.seed, points=args.points, tol=args.tol)
    print(_summarize(report))
    if args.report:
        emit_report(report, args.report)
        print(f"report written to {args.report}")
    else:
        sys.stdout.write(render_report(report))
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
