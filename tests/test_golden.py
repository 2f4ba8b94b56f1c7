"""Golden reports: each shipped fixture, run with its default seed and point
count, must render byte for byte the report stored under ``tests/golden/``,
and ``statgeom describe`` must print the manifest whose sha256 digest is
stored in ``golden/describe.sha256``.

The stored files were generated before the O'Neill tensors moved to whole
coordinate arrays, so any refactor of a check path that changes a report byte
shows up here.  Regenerate a file only for an intended change, and explain the
drift field by field in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import CURVATURE_CHECKS, nonconstant_involution_manifest
from statgeom import cli, geometry
from statgeom.fixtures import (
    curved_product_manifest,
    fixture_ids,
    load_fixture,
    model_manifest,
    submersion_manifest,
)
from statgeom.manifest import parse_manifest
from statgeom.report import render_report
from statgeom.suite import CHECKS, run_suite

GOLDEN_DIR = Path(__file__).parent / "golden"
DESCRIBE_DIGESTS = GOLDEN_DIR / "describe.sha256"


def test_every_fixture_has_a_golden_report():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.json")) == sorted(fixture_ids())


@pytest.mark.parametrize("fixture_id", fixture_ids())
def test_report_matches_golden(fixture_id):
    expected = (GOLDEN_DIR / f"{fixture_id}.json").read_bytes()
    actual = render_report(run_suite(load_fixture(fixture_id))).encode("utf-8")
    assert actual == expected


@pytest.mark.parametrize("fixture_id", fixture_ids())
def test_console_summary_matches_golden(fixture_id):
    """The ``statgeom verify`` summary, all but its wall-time line, is stored under ``golden/summaries/``."""
    body, wall_time = cli._summarize(run_suite(load_fixture(fixture_id))).rsplit("\n", 1)
    assert wall_time.startswith("wall time ")
    expected = (GOLDEN_DIR / "summaries" / f"{fixture_id}.txt").read_bytes()
    assert (body + "\n").encode("utf-8") == expected


def stored_describe_digests() -> dict:
    lines = DESCRIBE_DIGESTS.read_text(encoding="utf-8").splitlines()
    return {fixture_id: value for value, fixture_id in (line.split("  ", 1) for line in lines)}


def test_every_fixture_has_a_describe_digest():
    assert sorted(stored_describe_digests()) == sorted(fixture_ids())


@pytest.mark.parametrize("fixture_id", fixture_ids())
def test_describe_matches_stored_digest(fixture_id, capsys):
    """``statgeom describe`` prints the fixture's manifest with the same bytes as ever."""
    assert cli.main(["describe", fixture_id]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == stored_describe_digests()[fixture_id]


# Generated models at 100 points (seed 7): deep derivative trees that share
# subexpressions across Fisher components, stored under ``golden/models/``.
MODEL_GOLDENS = {
    "model_dirichlet4": ("dirichlet", {"dim": 4}),
    "model_multinomial5": ("multinomial", {"categories": 5}),
}


def model_golden_manifest(name):
    model, hyperparams = MODEL_GOLDENS[name]
    data = model_manifest(model, hyperparams, seed=7)
    data["name"] = name
    data["points"] = 100
    return parse_manifest(data, known_checks=set(CHECKS))


@pytest.mark.parametrize("name", sorted(MODEL_GOLDENS))
def test_generated_model_report_matches_golden(name):
    expected = (GOLDEN_DIR / "models" / f"{name}.json").read_bytes()
    assert render_report(run_suite(model_golden_manifest(name))).encode("utf-8") == expected


@pytest.mark.parametrize("name", fixture_ids() + sorted(MODEL_GOLDENS))
def test_second_run_of_one_manifest_matches_golden(name):
    """Every run of a parsed manifest shares its component grids and their walk plans.  A
    first run at another seed and point count leaves nothing in them that the second run
    reads: its report still renders the golden bytes."""
    if name in MODEL_GOLDENS:
        manifest, golden = model_golden_manifest(name), GOLDEN_DIR / "models" / f"{name}.json"
    else:
        manifest, golden = load_fixture(name), GOLDEN_DIR / f"{name}.json"
    run_suite(manifest, seed=manifest.seed + 1, points=7)
    assert render_report(run_suite(manifest)).encode("utf-8") == golden.read_bytes()


def test_nonconstant_involution_report_matches_golden():
    """The one golden whose P varies (∂P ≠ 0), so ∂P* and every product with P carry rounding."""
    expected = (GOLDEN_DIR / "structures" / "nonconstant_involution.json").read_bytes()
    manifest = parse_manifest(nonconstant_involution_manifest(), name="nonconstant_involution",
                              known_checks=set(CHECKS))
    assert render_report(run_suite(manifest)).encode("utf-8") == expected


@pytest.mark.parametrize("data", [
    curved_product_manifest(3, 1.0, 2.0, [1.0] * 3, seed=3, checks=CURVATURE_CHECKS),
    curved_product_manifest(4, 1.0, 2.0, [1.0] * 4, seed=4, checks=CURVATURE_CHECKS),
    submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=5),
], ids=["curved_6d", "curved_8d", "submersion_3to1"])
def test_block_size_is_bit_neutral(data, monkeypatch):
    """One point per block, the default blocks and one block for all points render the same bytes."""
    reports = []
    for entries in (geometry._BLOCK_ENTRIES, 1, 1 << 30):
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", entries)
        reports.append(render_report(run_suite(parse_manifest(data, known_checks=set(CHECKS)))))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
