"""Verification reports and their canonical, byte-stable serialization.

A report's rows are the checks' own :class:`geometry.CheckResult` values,
named by the suite, and :func:`report_to_mapping` alone turns them into JSON
values.  The emitted file is JSON with sorted keys, floats formatted as
``%.12e``, LF line endings and a trailing newline, so two runs with the same
inputs produce byte-identical files.  A non-finite float is written as the
string ``"inf"``, ``"-inf"`` or ``"nan"``, so the file stays valid JSON.  Wall
time is kept on the in-memory report for console display but deliberately
left out of the canonical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import STATUS_ERROR, STATUS_FAIL, CheckResult


@dataclass(frozen=True)
class VerificationReport:
    """All rows of one suite run over one fixture, each a named :class:`geometry.CheckResult`."""

    fixture: str
    seed: int
    points: int
    checks: tuple[CheckResult, ...]
    wall_time_s: float = 0.0

    def exit_code(self) -> int:
        """2 when a row ERRORs, else 1 when a row FAILs, else 0."""
        statuses = {check.status for check in self.checks}
        if STATUS_ERROR in statuses:
            return 2
        return 1 if STATUS_FAIL in statuses else 0


def canonical_json(value) -> str:
    """Deterministic JSON text: sorted str keys, %.12e floats, LF endings, numpy values as Python's."""

    def render(node) -> str:
        if node is None:
            return "null"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            if not math.isfinite(node):
                return json.dumps(str(float(node)))  # "inf", "-inf" or "nan"
            return f"{float(node):.12e}"
        if isinstance(node, str):
            return json.dumps(node, ensure_ascii=False)
        if isinstance(node, np.ndarray):
            return render(node.tolist())
        if isinstance(node, (list, tuple)):
            return "[" + ", ".join(render(item) for item in node) + "]"
        if isinstance(node, dict):
            items = {str(k): v for k, v in node.items()}
            parts = (f"{json.dumps(k)}: {render(items[k])}" for k in sorted(items))
            return "{" + ", ".join(parts) + "}"
        raise TypeError(f"cannot serialize {type(node)!r}")

    return render(value)


def _float(value):
    return None if value is None else float(value)


def report_to_mapping(report: VerificationReport) -> dict:
    """The canonical content of a report: all but wall time, a row's measurements as floats."""
    return {
        "fixture": report.fixture,
        "seed": report.seed,
        "points": report.points,
        "checks": [
            {
                "name": check.name,
                "status": check.status,
                "residual": _float(check.residual),
                "raw_residual": _float(check.raw_residual),
                "tolerance": _float(check.tolerance),
                "worst_point": (None if check.worst_point is None
                                else [float(x) for x in check.worst_point]),
                "points_used": check.points_used,
                "reason": check.reason,
                "data": {key: float(value) for key, value in check.details.items()},
            }
            for check in report.checks
        ],
    }


def render_report(report: VerificationReport) -> str:
    return canonical_json(report_to_mapping(report)) + "\n"


def emit_report(report: VerificationReport, path) -> None:
    """Write the canonical report bytes; identical inputs give identical files."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_report(report))
