"""The benchmark-shaped reports: the 13 manifests of the benchmark's three
workloads, at benchmark seeds 0 and 7, must render reports whose sha256
digests are stored in ``golden/benchmark_reports.sha256``.

The manifests are rebuilt here from ``statgeom.fixtures``, with the seed
derivation and point counts of ``perfbench/workloads.py``, so the package's
tests do not depend on the benchmark's code.  Each case runs through
``run_suite(manifest, seed=..., points=...)`` and ``render_report``, the path
the benchmark times.  Regenerate the digests only for an intended change, and
explain it in CHANGES.md::

    PYTHONPATH=src python tests/test_benchmark_reports.py > tests/golden/benchmark_reports.sha256
"""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from conftest import CURVATURE_CHECKS
from statgeom import geometry, product
from statgeom.fixtures import (
    curved_product_manifest,
    load_fixture,
    model_manifest,
    submersion_manifest,
)
from statgeom.manifest import build_context, parse_manifest
from statgeom.report import render_report
from statgeom.suite import CHECKS, DEFAULT_TOLERANCES, run_suite

DIGESTS = Path(__file__).parent / "golden" / "benchmark_reports.sha256"
SEEDS = (0, 7)

# workload -> [(manifest name, points, builder of its data from a seed, or None for a shipped fixture)]
WORKLOADS = {
    "submersion": [
        ("example_5_6_k1_l1", 25, None),
        ("example_5_6_k1_l2", 25, None),
        ("curved_submersion_3to1", 25,
         lambda s: submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=s)),
    ],
    "curvature": [
        (f"curved_product_{pairs}pair", 100,
         lambda s, pairs=pairs: curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=s,
                                                        checks=CURVATURE_CHECKS))
        for pairs in (1, 2, 3, 4)
    ],
    "models": [
        ("example_5_5_normal", 25, None),
        ("example_5_5_multinomial", 25, None),
        ("example_5_5_dirichlet", 25, None),
        ("model_poisson", 100, lambda s: model_manifest("poisson", seed=s)),
        ("model_multinomial5", 100, lambda s: model_manifest("multinomial", {"categories": 5}, seed=s)),
        ("model_dirichlet4", 100, lambda s: model_manifest("dirichlet", {"dim": 4}, seed=s)),
    ],
}


def cases():
    """(label, manifest, seed, points) for every workload manifest at every benchmark seed."""
    known = set(CHECKS)
    for seed in SEEDS:
        for workload, specs in WORKLOADS.items():
            rng = random.Random(seed)
            derived = {name: rng.randrange(2**31) for name, _, _ in specs}
            for name, points, build in specs:
                if build is None:
                    manifest = load_fixture(name, known_checks=known)
                else:
                    data = build(derived[name])
                    data["name"] = name
                    data["points"] = points
                    manifest = parse_manifest(data, name=name, known_checks=known)
                yield f"{seed}/{workload}/{name}", manifest, derived[name], points


def digest(manifest, seed, points) -> str:
    report = render_report(run_suite(manifest, seed=seed, points=points))
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def stored_digests() -> dict:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {label: value for value, label in (line.split("  ", 1) for line in lines)}


def test_every_case_has_a_digest():
    assert sorted(stored_digests()) == sorted(label for label, *_ in cases())


@pytest.mark.parametrize("label, manifest, seed, points",
                         [pytest.param(*case, id=case[0]) for case in cases()])
def test_report_matches_stored_digest(label, manifest, seed, points):
    assert digest(manifest, seed, points) == stored_digests()[label]


# The manifests whose reports must not depend on the block size of geometry.in_blocks.
BLOCK_CASES = {f"0/curvature/curved_product_{pairs}pair" for pairs in (1, 2, 3, 4)} | {
    "0/submersion/curved_submersion_3to1", "0/models/model_dirichlet4"}


@pytest.mark.parametrize("label, manifest, seed, points",
                         [pytest.param(*case, id=case[0]) for case in cases() if case[0] in BLOCK_CASES])
def test_block_size_changes_no_byte(monkeypatch, label, manifest, seed, points):
    """in_blocks treats every point on its own, so blocks of any size give the same report."""
    reports = set()
    for entries in (1 << 8, 1 << 13, 1 << 15, 1 << 16):
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", entries)
        reports.add(render_report(run_suite(manifest, seed=seed, points=points)))
    assert len(reports) == 1


# Each public function that reads block-loop rows, by the suite row it must reproduce alone.
ALONE = {
    "flatness": lambda spec, pts, tol: geometry.curvature_residual(spec, pts, tol),
    "kurose_constant_curvature": lambda spec, pts, tol: geometry.fit_kurose_constant(spec, pts, tol),
    "dual_curvature_identity": lambda spec, pts, tol: geometry.check_dual_curvature_identity(spec, pts, tol),
    "space_form": lambda spec, pts, tol: product.check_space_form(
        spec, product.fit_space_form_constant(spec, pts), pts, tol),
    "para_kahler_like": lambda spec, pts, tol: product.check_para_kahler_like(spec, pts, tol),
    "conjugate_parallelism": lambda spec, pts, tol: product.conjugate_parallelism_check(spec, pts, tol),
    "flatness_theorem": lambda spec, pts, tol: product.verify_flatness_theorem(spec, pts, tol),
}


@pytest.mark.parametrize("label, manifest, seed, points",
                         [pytest.param(*case, id=case[0]) for case in cases() if "/curvature/" in case[0]])
def test_functions_called_alone_match_the_suite_rows(label, manifest, seed, points):
    """A public check called alone, on a context of its own, runs its reducers in a loop of
    their own and gives the suite's row bit for bit, worst point included."""
    rows = {row.name: row for row in run_suite(manifest, seed=seed, points=points).checks}
    for name, alone in ALONE.items():
        ctx = build_context(manifest, seed=seed)
        pts = geometry.sample_points(ctx.chart, points)
        result = alone(ctx.manifold, pts, manifest.tolerances.get(name, DEFAULT_TOLERANCES[name]))
        row = rows[name]
        assert dataclasses.replace(result, worst_point=None, name=row.name, points_used=row.points_used) \
            == dataclasses.replace(row, worst_point=None), name
        assert (result.worst_point is None) == (row.worst_point is None), name
        if row.worst_point is not None:
            assert result.worst_point.tobytes() == row.worst_point.tobytes(), name
    spec = build_context(manifest, seed=seed).manifold
    fitted = product.fit_space_form_constant(spec, geometry.sample_points(spec.chart, points))
    assert fitted.hex() == rows["space_form"].details["constant"].hex()


if __name__ == "__main__":
    for label, manifest, seed, points in cases():
        print(f"{digest(manifest, seed, points)}  {label}")
