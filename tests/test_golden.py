"""Golden reports: each shipped fixture, run with its default seed and point
count, must render byte for byte the report stored under ``tests/golden/``.

The stored files were generated before the O'Neill tensors moved to whole
coordinate arrays, so any refactor of a check path that changes a report byte
shows up here.  Regenerate a file only for an intended change, and explain the
drift field by field in CHANGES.md.
"""

from pathlib import Path

import pytest

from statgeom.fixtures import fixture_ids, load_fixture
from statgeom.report import render_report
from statgeom.suite import run_suite

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_every_fixture_has_a_golden_report():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.json")) == sorted(fixture_ids())


@pytest.mark.parametrize("fixture_id", fixture_ids())
def test_report_matches_golden(fixture_id):
    expected = (GOLDEN_DIR / f"{fixture_id}.json").read_bytes()
    actual = render_report(run_suite(load_fixture(fixture_id))).encode("utf-8")
    assert actual == expected
