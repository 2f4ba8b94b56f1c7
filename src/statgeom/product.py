"""Almost product structures and their interplay with statistical structures.

A product structure is a (1,1) tensor field P with P² = Id and P ≠ ±Id; its
matrix convention is ``M[i, j] = P^i_j`` so that P ∂_j = P^i_j ∂_i and the
matrix acts on component columns.  ``adjoint_structure`` builds the
negative-adjoint partner P* with g(PE, F) + g(E, P*F) = 0, realized as a
derived field so that structures of structures (P** and friends) compose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr as ex
from .geometry import (
    DEFAULT_TOLERANCE,
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    CheckResult,
    DerivedJets,
    ExpressionField,
    MetricField,
    ResidualTracker,
    _as_points,
    _inverse_derivative,
    _scale_of,
    check_statistical_structure,
    conjugate_connection,
    curvature_tensor,
    fit_kurose_constant,
)

_IDENTITY_WITNESS_MARGIN = 1e-6


class ExpressionProductStructure(ExpressionField):
    """Product structure with explicitly given component fields P^i_j.

    Jets are ``(M, dM)`` with ``dM[k,i,j] = ∂_k P^i_j``.
    """

    @classmethod
    def from_constant(cls, matrix, coords: Sequence[str]) -> "ExpressionProductStructure":
        mat = np.asarray(matrix, dtype=float)
        fields = [[ex.constant_field(mat[i, j], coords) for j in range(mat.shape[1])]
                  for i in range(mat.shape[0])]
        return cls(fields)


class AdjointStructure(DerivedJets):
    """Negative adjoint of a base structure: P* = −G⁻¹ Pᵀ G pointwise; jets are (P*, ∂P*)."""

    def __init__(self, metric: MetricField, base):
        if metric.dim != base.dim:
            raise ValueError("metric and structure disagree on dimension")
        self._bases = (metric, base)
        self._value_needs = (False, False)

    def _derive(self, full, metric_jets, base_jets):
        g, m = metric_jets[0], base_jets[0]
        ginv = np.linalg.inv(g)
        star = -ginv @ np.swapaxes(m, 1, 2) @ g
        if not full:
            return (star,)
        dg, dm = metric_jets[1], base_jets[1]
        dginv = _inverse_derivative(ginv, dg)
        dstar = -(np.einsum("pkab,pcb,pcd->pkad", dginv, m, g)
                  + np.einsum("pab,pkcb,pcd->pkad", ginv, dm, g)
                  + np.einsum("pab,pcb,pkcd->pkad", ginv, m, dg))
        return star, dstar


def adjoint_structure(g: MetricField, structure) -> AdjointStructure:
    """The structure P* with g(PE, F) + g(E, P*F) = 0; an involution on fixtures."""
    return AdjointStructure(g, structure)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def check_almost_product(structure, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """P² = Id at every sample, plus a witness that P is not ±Id anywhere."""
    points = _as_points(pts)
    eye = np.eye(structure.dim)
    tracker = ResidualTracker()
    plus_witness = 0.0
    minus_witness = 0.0
    for p, m in zip(points, structure.values(points)):
        tracker.update(float(np.max(np.abs(m @ m - eye))), _scale_of(m), p)
        plus_witness = max(plus_witness, float(np.max(np.abs(m - eye))))
        minus_witness = max(minus_witness, float(np.max(np.abs(m + eye))))
    details = {"identity_distance": plus_witness, "negated_identity_distance": minus_witness}
    result = tracker.result(tol, details=details)
    has_witness = plus_witness > _IDENTITY_WITNESS_MARGIN and minus_witness > _IDENTITY_WITNESS_MARGIN
    if not has_witness:
        return CheckResult(
            passed=False,
            residual=result.residual,
            raw_residual=result.raw_residual,
            tolerance=tol,
            worst_point=result.worst_point,
            details={**details, "witness_missing": 1.0},
        )
    return result


def check_pairing_identities(g: MetricField, structure, pts, tol: float = 1e-10) -> CheckResult:
    """(P*)² = Id, g(PE, P*F) = −g(E, F), and (P*)* = P at the samples."""
    points = _as_points(pts)
    star = adjoint_structure(g, structure)
    double = adjoint_structure(g, star)
    eye = np.eye(structure.dim)
    tracker = ResidualTracker()
    worst = {"square": 0.0, "pairing": 0.0, "double_adjoint": 0.0}
    matrices = zip(g.values(points), structure.values(points), star.values(points),
                   double.values(points))
    for p, (gm, m, ms, back_m) in zip(points, matrices):
        square = float(np.max(np.abs(ms @ ms - eye)))
        # g(P ∂_i, P* ∂_j) + g(∂_i, ∂_j)
        pairing = float(np.max(np.abs(m.T @ gm @ ms + gm)))
        back = float(np.max(np.abs(back_m - m)))
        worst["square"] = max(worst["square"], square)
        worst["pairing"] = max(worst["pairing"], pairing)
        worst["double_adjoint"] = max(worst["double_adjoint"], back)
        tracker.update(max(square, pairing, back), _scale_of(m, ms, gm), p)
    return tracker.result(tol, details=worst)


def _covariant_derivative_P(gamma, m, dm) -> np.ndarray:
    return (np.einsum("ikj->ikj", dm)
            + np.einsum("kim,mj->ikj", gamma, m)
            - np.einsum("mij,km->ikj", gamma, m))


def covariant_derivative_P_at(connection, structure, point) -> np.ndarray:
    """(∇_{∂_i} P)^k_j = ∂_i P^k_j + Γ^k_im P^m_j − Γ^m_ij P^k_m, indexed [i, k, j]."""
    return _covariant_derivative_P(connection.coefficients(point), *structure.jet(point))


def product_parallelism_residual(connection, structure, pts) -> ResidualTracker:
    points = _as_points(pts)
    tracker = ResidualTracker()
    for p, gamma, (m, dm) in zip(points, connection.values(points), zip(*structure.jets(points))):
        nabla_p = _covariant_derivative_P(gamma, m, dm)
        tracker.update(float(np.max(np.abs(nabla_p))), _scale_of(gamma, m), p)
    return tracker


@dataclass(frozen=True)
class Certification:
    """Aggregate para-Kähler-like certification outcome."""

    passed: bool
    statistical: CheckResult
    almost_product: CheckResult
    parallelism: CheckResult


def check_para_kahler_like(
    g: MetricField, connection, structure, pts, tol: float = DEFAULT_TOLERANCE
) -> Certification:
    """Statistical structure + almost product structure + ∇P = 0, all at the samples."""
    points = _as_points(pts)
    statistical = check_statistical_structure(g, connection, points, tol)
    almost = check_almost_product(structure, points, tol)
    parallel = product_parallelism_residual(connection, structure, points).result(tol)
    return Certification(
        passed=statistical.passed and almost.passed and parallel.passed,
        statistical=statistical,
        almost_product=almost,
        parallelism=parallel,
    )


def conjugate_parallelism_check(
    g: MetricField, connection, structure, pts, tol: float = DEFAULT_TOLERANCE
) -> CheckResult:
    """∇P = 0 and ∇*P* = 0 vanish together: PASS when both do or neither does."""
    points = _as_points(pts)
    primal = product_parallelism_residual(connection, structure, points)
    dual = product_parallelism_residual(
        conjugate_connection(g, connection), adjoint_structure(g, structure), points
    )
    both_zero = primal.residual <= tol and dual.residual <= tol
    both_nonzero = primal.residual > tol and dual.residual > tol
    worst = primal if primal.residual >= dual.residual else dual
    return CheckResult(
        passed=both_zero or both_nonzero,
        residual=worst.residual,
        raw_residual=worst.raw_residual,
        tolerance=tol,
        worst_point=worst.worst_point,
        details={"primal": primal.residual, "dual": dual.residual},
    )


def _space_form_model(gm: np.ndarray, m: np.ndarray, c: float) -> np.ndarray:
    """(c/4){g_jk δ^l_i − g_ik δ^l_j + g(P∂_j,∂_k) P∂_i − g(P∂_i,∂_k) P∂_j
    + [g(∂_i,P∂_j) − g(P∂_i,∂_j)] P∂_k} as an [l,i,j,k] array."""
    eye = np.eye(gm.shape[0])
    q = gm @ m  # q[i, j] = g(∂_i, P ∂_j)
    model = (np.einsum("jk,li->lijk", gm, eye)
             - np.einsum("ik,lj->lijk", gm, eye)
             + np.einsum("kj,li->lijk", q, m)
             - np.einsum("ki,lj->lijk", q, m)
             + np.einsum("ij,lk->lijk", q - q.T, m))
    return (c / 4.0) * model


def check_space_form(
    g: MetricField, connection, structure, c: float, pts, tol: float = DEFAULT_TOLERANCE
) -> CheckResult:
    """Curvature has the para-Kähler space-form shape with constant ``c``.

    The dual side is verified too: R* must match the same expression with P
    replaced by P*.
    """
    points = _as_points(pts)
    dual_connection = conjugate_connection(g, connection)
    dual_structure = adjoint_structure(g, structure)
    tracker = ResidualTracker()
    worst = {"primal": 0.0, "dual": 0.0}
    samples = zip(points, g.values(points), structure.values(points),
                  zip(*connection.jets(points)), dual_structure.values(points),
                  zip(*dual_connection.jets(points)))
    for p, gm, m, (gamma, dgamma), ms, (star, dstar) in samples:
        r = curvature_tensor(gamma, dgamma)
        primal = float(np.max(np.abs(r - _space_form_model(gm, m, c))))
        r_star = curvature_tensor(star, dstar)
        dual = float(np.max(np.abs(r_star - _space_form_model(gm, ms, c))))
        worst["primal"] = max(worst["primal"], primal)
        worst["dual"] = max(worst["dual"], dual)
        tracker.update(max(primal, dual), _scale_of(r, r_star, gm, m), p)
    return tracker.result(tol, details=worst)


def fit_space_form_constant(g: MetricField, connection, structure, pts) -> float:
    """Least-squares constant for the space-form shape, fitted at the best-conditioned sample.

    Reporting convenience only: verification must call :func:`check_space_form`
    with the fitted value.
    """
    points = _as_points(pts)
    best = None
    for index, (gm, m) in enumerate(zip(g.values(points), structure.values(points))):
        basis = _space_form_model(gm, m, 4.0)  # model is linear in c; c=4 gives the raw bracket
        weight = float(np.einsum("lijk,lijk->", basis, basis))
        if best is None or weight > best[0]:
            best = (weight, index, basis)
    weight, index, basis = best
    if weight == 0.0:
        return 0.0
    gammas, dgammas = connection.jets(points)
    r = curvature_tensor(gammas[index], dgammas[index])
    return 4.0 * float(np.einsum("lijk,lijk->", r, basis)) / weight


@dataclass(frozen=True)
class TheoremOutcome:
    """Status of a conditional (theorem-shaped) verification."""

    status: str
    reason: str | None = None
    residual: float | None = None
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == STATUS_PASS


def verify_flatness_theorem(
    g: MetricField, connection, structure, pts, tol: float = DEFAULT_TOLERANCE
) -> TheoremOutcome:
    """Certified para-Kähler-like + constant curvature (dim ≠ 2) must force R = 0.

    When either hypothesis fails the outcome is NOT-APPLICABLE, never FAIL.
    """
    if g.dim == 2:
        return TheoremOutcome(STATUS_NOT_APPLICABLE, reason="dimension 2 is excluded by hypothesis")
    points = _as_points(pts)
    certification = check_para_kahler_like(g, connection, structure, points, tol)
    if not certification.passed:
        return TheoremOutcome(
            STATUS_NOT_APPLICABLE, reason="para-Kähler-like certification failed"
        )
    fit = fit_kurose_constant(g, connection, points, tol)
    if not fit.passed:
        return TheoremOutcome(
            STATUS_NOT_APPLICABLE,
            reason="curvature is not of constant-curvature form",
            data={"constant": fit.constant, "fit_residual": fit.residual},
        )
    tracker = ResidualTracker()
    for p, gm, (gamma, dgamma) in zip(points, g.values(points), zip(*connection.jets(points))):
        r = curvature_tensor(gamma, dgamma)
        tracker.update(float(np.max(np.abs(r))), _scale_of(gm), p)
    flat = tracker.result(tol)
    status = STATUS_PASS if flat.passed else STATUS_FAIL
    return TheoremOutcome(
        status,
        reason=None if flat.passed else "hypotheses hold but curvature does not vanish",
        residual=flat.residual,
        data={"constant": fit.constant, "max_curvature": flat.raw_residual},
    )
