"""Checks that can FAIL, seen to FAIL: one small defect per manifest, its rows pinned.

Example 5.3 (k = 1, l = 2) is para-Kähler-like with ∇P = 0.  Adding 0.01 to
Γ⁰₀₀ breaks ∇P = 0 and with it the para-Kähler-like certification and the
constant-curvature form, while ∇P and ∇*P* stay nonzero together.  The curved
product of two pairs has R ≠ 0 off the constant-curvature and space-form
shapes, so the flatness theorem's hypothesis fails.
"""

import copy

import numpy as np
import pytest

from conftest import CURVATURE_CHECKS
from statgeom.fixtures import curved_product_manifest, load_fixture
from statgeom.manifest import parse_manifest
from statgeom.suite import CHECKS, run_suite

DEFECT_CHECKS = ("product_parallelism", "para_kahler_like", "kurose_constant_curvature",
                 "conjugate_parallelism")


def gamma_defect_manifest():
    """``example_5_3_k1_l2`` with Γ⁰₀₀ = 0.01 in place of 0, and the checks it refutes."""
    data = copy.deepcopy(load_fixture("example_5_3_k1_l2").data)
    data["connection"][0][0][0] = "0.01"
    data["checks"] = list(DEFECT_CHECKS)
    return data


def _rows(data, **options):
    report = run_suite(parse_manifest(data, known_checks=set(CHECKS)), **options)
    return {check.name: check for check in report.checks}


def _assert_row(row, status, residual, worst_point):
    assert row.status == status
    assert row.residual == pytest.approx(residual, rel=1e-9)
    np.testing.assert_allclose(row.worst_point, worst_point, rtol=0, atol=1e-8)


def test_gamma_defect_refutes_parallelism_and_constant_curvature():
    rows = _rows(gamma_defect_manifest())
    assert list(rows) == list(DEFECT_CHECKS)
    _assert_row(rows["product_parallelism"], "FAIL", 5.0e-3, [0.03714602, 1.89790486])
    assert rows["product_parallelism"].raw_residual == pytest.approx(0.01, rel=1e-12)
    _assert_row(rows["para_kahler_like"], "FAIL", 5.0e-3, [0.03714602, 1.89790486])
    assert rows["para_kahler_like"].details["parallelism_residual"] == pytest.approx(5.0e-3)
    assert rows["para_kahler_like"].details["statistical_residual"] < 1e-12
    _assert_row(rows["kurose_constant_curvature"], "FAIL", 0.14030555305139059,
                [-0.66405207, 0.61299855])
    assert rows["kurose_constant_curvature"].details["constant"] == pytest.approx(1 / 3)
    # ∇P ≠ 0 and ∇*P* ≠ 0 together: the pair is consistent
    _assert_row(rows["conjugate_parallelism"], "PASS", 0.006666666666666668,
                [0.23859749, 0.89123612])
    assert rows["conjugate_parallelism"].details == pytest.approx(
        {"primal": 5.0e-3, "dual": 0.006666666666666668})


def test_curved_product_refutes_flatness_and_the_space_form():
    data = curved_product_manifest(2, 1.0, 2.0, [1.0] * 2, seed=3, checks=CURVATURE_CHECKS)
    rows = _rows(data, points=25)
    assert all(row.status != "ERROR" for row in rows.values())
    worst = [0.40367972, 0.59126732, 0.35257297, 1.0563743]
    _assert_row(rows["flatness"], "FAIL", 0.2837365963995728, worst)
    _assert_row(rows["kurose_constant_curvature"], "FAIL", 0.2837365963995728, worst)
    _assert_row(rows["space_form"], "FAIL", 0.38507109511370596, worst)
    assert rows["space_form"].details == pytest.approx(
        {"primal": 1.2940068202067132, "dual": 2.5880136404134264,
         "constant": -0.2857142857142858})
    theorem = rows["flatness_theorem"]
    assert theorem.status == "NOT-APPLICABLE"
    assert theorem.reason == "curvature is not of constant-curvature form"
    assert theorem.details == pytest.approx({"constant": 1 / 3, "fit_residual": 0.2837365963995728})
