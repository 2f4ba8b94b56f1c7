"""Checks that can FAIL, seen to FAIL: one small defect per manifest, its rows pinned.

Example 5.3 (k = 1, l = 2) is para-Kähler-like with ∇P = 0.  Adding 0.01 to
Γ⁰₀₀ breaks ∇P = 0 and with it the para-Kähler-like certification and the
constant-curvature form, while ∇P and ∇*P* stay nonzero together.  The curved
product of two pairs has R ≠ 0 off the constant-curvature and space-form
shapes, so the flatness theorem's hypothesis fails.  Setting Γ⁰₀₁ = 0.01 in
the same example adds torsion, so ∇ and ∇* no longer average to the
Levi-Civita connection.  In the submersion of the curved product of two
pairs onto its first pair, Γ⁰₂₂ = 0.01 makes the fibers non-isometric and
breaks T(P̂U, P̂V) = T(U, V).  Conjugate parallelism cannot FAIL through a
defect alone: g((∇_i P)E, F) + g(E, (∇*_i P*)F) = 0 for any connection, so
∇P and ∇*P* vanish together.  Its two residuals are scaled apart, though,
so it FAILs when the tolerance falls between them.
"""

import copy

import numpy as np
import pytest

from conftest import CURVATURE_CHECKS, nonconstant_involution_manifest
from statgeom.fixtures import curved_product_manifest, load_fixture, submersion_manifest
from statgeom.geometry import sample_points
from statgeom.manifest import build_context, parse_manifest
from statgeom.suite import CHECKS, run_suite

DEFECT_CHECKS = ("product_parallelism", "para_kahler_like", "kurose_constant_curvature",
                 "conjugate_parallelism")


TORSION_CHECKS = ("statistical_structure", "conjugate_involution", "levi_civita_average",
                  "conjugate_parallelism", "product_parallelism")


def gamma_defect_manifest(i=0, j=0, checks=DEFECT_CHECKS):
    """``example_5_3_k1_l2`` with Γ⁰ᵢⱼ = 0.01 in place of its entry, and the checks it refutes."""
    data = copy.deepcopy(load_fixture("example_5_3_k1_l2").data)
    data["connection"][0][i][j] = "0.01"
    data["checks"] = list(checks)
    return data


def fiber_defect_manifest():
    """``curved_submersion_2to1`` with Γ⁰₂₂ = 0.01 in place of 0, with its default checks."""
    data = submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5)
    data["connection"][0][2][2] = "0.01"
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


def test_torsion_refutes_the_levi_civita_average():
    rows = _rows(gamma_defect_manifest(0, 1, TORSION_CHECKS))
    assert {name: row.status for name, row in rows.items()} == dict(zip(
        TORSION_CHECKS, ("FAIL", "PASS", "FAIL", "PASS", "FAIL")))
    worst = [-0.66405207, 0.61299855]
    _assert_row(rows["levi_civita_average"], "FAIL", 0.5257598984032833, worst)
    assert rows["levi_civita_average"].raw_residual == pytest.approx(1.0975501600703392, rel=1e-9)
    assert rows["statistical_structure"].details["torsion"] == pytest.approx(1.097550160070339)
    # (∇*)* = ∇ holds for any connection, torsion or not
    assert rows["conjugate_involution"].residual < 1e-12
    _assert_row(rows["product_parallelism"], "FAIL", 0.5257598984032832, worst)


def test_fiber_defect_refutes_isometric_fibers():
    rows = _rows(fiber_defect_manifest())
    assert all(row.status != "ERROR" for row in rows.values())
    _assert_row(rows["isometric_fibers"], "FAIL", 0.007394038169267128,
                [-0.25895375, 1.91300378, -0.19712649, 1.89156983])
    assert rows["isometric_fibers"].raw_residual == pytest.approx(0.01, rel=1e-12)
    symmetry = rows["submersion_theorems.vertical_symmetry"]
    assert symmetry.status == "FAIL"
    assert symmetry.residual == pytest.approx(5.0e-3, rel=1e-9)
    flat = rows["submersion_theorems.flat_decomposition"]
    assert flat.status == "NOT-APPLICABLE"
    assert flat.reason.endswith("fibers are not isometric")


def _covariant_derivative(gamma, m, dm):
    """(∇_i P)^k_j = ∂_i P^k_j + Γ^k_im P^m_j − Γ^m_ij P^k_m as [p, i, k, j]."""
    return (dm + np.einsum("pkim,pmj->pikj", gamma, m)
            - np.einsum("pmij,pkm->pikj", gamma, m))


@pytest.mark.parametrize("data", [
    gamma_defect_manifest(), gamma_defect_manifest(0, 1, TORSION_CHECKS),
    nonconstant_involution_manifest(), fiber_defect_manifest(),
], ids=["gamma_defect", "torsion", "nonconstant_involution", "fiber_defect"])
def test_conjugate_parallelism_sides_vanish_together(data):
    """g((∇_i P)∂_j, ∂_z) + g(∂_j, (∇*_i P*)∂_z) = 0, torsion or not: differentiate
    g(PE, F) + g(E, P*F) = 0 with the duality of ∇ and ∇*."""
    spec = build_context(parse_manifest(data, known_checks=set(CHECKS))).manifold
    points = sample_points(spec.chart, 25)
    g = spec.metric.values(points)
    primal = _covariant_derivative(spec.resolved_connection.values(points), *spec.product.jets(points))
    dual = _covariant_derivative(spec.conjugate.values(points), *spec.adjoint.jets(points))
    defect = np.einsum("pikj,pkz->pijz", primal, g) + np.einsum("pjk,pikz->pijz", g, dual)
    assert np.abs(primal).max() >= 0.01  # ∇P ≠ 0 on each: the identity is not 0 = 0
    assert np.abs(defect).max() <= 1e-13 * (1 + np.abs(primal).max() + np.abs(dual).max())


def test_conjugate_parallelism_fails_between_its_residuals():
    """With Γ⁰₀₀ = 0.01 the primal residual is 5e-3 and the dual 6.67e-3; a tolerance of
    6e-3 passes the first and fails the second, so the row FAILs at the dual's worst point."""
    data = gamma_defect_manifest(checks=("conjugate_parallelism",))
    data["tolerances"] = {"conjugate_parallelism": 0.006}
    row = _rows(data)["conjugate_parallelism"]
    _assert_row(row, "FAIL", 0.006666666666666668, [0.23859749, 0.89123612])
    assert row.tolerance == 0.006
    assert row.details == pytest.approx({"primal": 5.0e-3, "dual": 0.006666666666666668})
