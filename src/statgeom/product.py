"""Almost product structures and their interplay with statistical structures.

A product structure is a (1,1) tensor field P with P² = Id and P ≠ ±Id; its
matrix convention is ``M[i, j] = P^i_j`` so that P ∂_j = P^i_j ∂_i and the
matrix acts on component columns.  Given by expressions, P is a
:class:`geometry.ExpressionField` with jets ``(M, dM)``, ``dM[k, i, j] = ∂_k P^i_j``
(``ExpressionField.constant`` if constant).  The negative-adjoint partner P* with
g(PE, F) + g(E, P*F) = 0 is :class:`geometry.AdjointStructure`, a derived
field, so structures of structures (P** and friends) compose.

Every check takes the :class:`geometry.ManifoldSpec` (g, ∇, P) it certifies
and reads ∇* and P* from it (``conjugate`` and ``adjoint``), so the checks of
one spec share those fields and their stores.  Checks, the para-Kähler-like
certification and the flatness theorem all return a
:class:`geometry.CheckResult`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .geometry import (
    DEFAULT_TOLERANCE,
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    AdjointStructure,
    CheckResult,
    ManifoldSpec,
    _as_points,
    check_statistical_structure,
    curvature_residual,
    curvature_tensor,
    fit_kurose_constant,
    in_blocks,
    max_abs,
    residual_check,
    scale_of,
)

_IDENTITY_WITNESS_MARGIN = 1e-6


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def check_almost_product(structure, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """P² = Id at every sample, plus a witness that P is not ±Id anywhere."""
    points = _as_points(pts)
    eye = np.eye(structure.dim)
    m = structure.values(points)
    plus, minus = float(max_abs(m - eye).max()), float(max_abs(m + eye).max())
    details = {"identity_distance": plus, "negated_identity_distance": minus}
    result = residual_check(max_abs(m @ m - eye), scale_of(m), points, tol, details)
    if plus > _IDENTITY_WITNESS_MARGIN and minus > _IDENTITY_WITNESS_MARGIN:
        return result
    return dataclasses.replace(result, status=STATUS_FAIL, details={**details, "witness_missing": 1.0})


def check_pairing_identities(spec: ManifoldSpec, pts, tol: float = 1e-10) -> CheckResult:
    """(P*)² = Id, g(PE, P*F) = −g(E, F), and (P*)* = P at the samples."""
    points = _as_points(pts)
    double = AdjointStructure(spec.metric, spec.adjoint)
    eye = np.eye(spec.product.dim)
    gm, m, ms = spec.metric.values(points), spec.product.values(points), spec.adjoint.values(points)
    square = max_abs(ms @ ms - eye)
    # g(P ∂_i, P* ∂_j) + g(∂_i, ∂_j)
    pairing = max_abs(np.swapaxes(m, 1, 2) @ gm @ ms + gm)
    back = max_abs(double.values(points) - m)
    details = {"square": float(square.max()), "pairing": float(pairing.max()),
               "double_adjoint": float(back.max())}
    return residual_check(np.maximum.reduce([square, pairing, back]), scale_of(m, ms, gm),
                          points, tol, details)


def _covariant_derivative_P(gamma, m, dm) -> np.ndarray:
    return (np.einsum("...ikj->...ikj", dm)
            + np.einsum("...kim,...mj->...ikj", gamma, m)
            - np.einsum("...mij,...km->...ikj", gamma, m))


def check_product_parallelism(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """∇P = 0 at the samples, scaled by 1 + max |Γ|, |P|."""
    return _parallelism(spec.resolved_connection, spec.product, pts, tol)


def _parallelism(connection, structure, pts, tol: float) -> CheckResult:
    """∇P = 0 for one pair: a spec's (∇, P), or its dual pair (∇*, P*)."""
    points = _as_points(pts)
    gamma = connection.values(points)
    m, dm = structure.jets(points)
    return residual_check(max_abs(_covariant_derivative_P(gamma, m, dm)), scale_of(gamma, m),
                          points, tol)


def check_para_kahler_like(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Statistical structure + almost product structure + ∇P = 0, all at the samples.

    PASS when all three parts pass.  The residuals are the worst of the
    parts, the worst point is that of ∇P = 0, and the details hold each
    part's residual.
    """
    points = _as_points(pts)
    parts = {"statistical_residual": check_statistical_structure(spec, points, tol),
             "almost_product_residual": check_almost_product(spec.product, points, tol),
             "parallelism_residual": check_product_parallelism(spec, points, tol)}
    return CheckResult(
        STATUS_PASS if all(part.passed for part in parts.values()) else STATUS_FAIL,
        residual=max(part.residual for part in parts.values()),
        raw_residual=max(part.raw_residual for part in parts.values()),
        tolerance=tol,
        worst_point=parts["parallelism_residual"].worst_point,
        details={name: part.residual for name, part in parts.items()},
    )


def conjugate_parallelism_check(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """∇P = 0 and ∇*P* = 0 vanish together: PASS when both do or neither does.

    A non-finite residual on either side FAILs.
    """
    points = _as_points(pts)
    primal = check_product_parallelism(spec, points, tol)
    dual = _parallelism(spec.conjugate, spec.adjoint, points, tol)
    both_zero = primal.passed and dual.passed
    both_nonzero = tol < primal.residual < math.inf and tol < dual.residual < math.inf
    worst = primal if primal.residual >= dual.residual else dual
    return dataclasses.replace(worst, status=STATUS_PASS if both_zero or both_nonzero else STATUS_FAIL,
                               details={"primal": primal.residual, "dual": dual.residual})


def _space_form_model(gm: np.ndarray, m: np.ndarray, c: float) -> np.ndarray:
    """(c/4){g_jk δ^l_i − g_ik δ^l_j + g(P∂_j,∂_k) P∂_i − g(P∂_i,∂_k) P∂_j
    + [g(∂_i,P∂_j) − g(P∂_i,∂_j)] P∂_k} as an [l,i,j,k] array, over leading axes."""
    eye = np.eye(gm.shape[-1])
    q = gm @ m  # q[i, j] = g(∂_i, P ∂_j)
    model = (np.einsum("...jk,li->...lijk", gm, eye)
             - np.einsum("...ik,lj->...lijk", gm, eye)
             + np.einsum("...kj,...li->...lijk", q, m)
             - np.einsum("...ki,...lj->...lijk", q, m)
             + np.einsum("...ij,...lk->...lijk", q - np.swapaxes(q, -1, -2), m))
    return (c / 4.0) * model


def check_space_form(spec: ManifoldSpec, c: float, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Curvature has the para-Kähler space-form shape with constant ``c``.

    The dual side is verified too: R* must match the same expression with P
    replaced by P*.  The result carries ``c`` as ``details["constant"]``.
    """
    points = _as_points(pts)

    def reduce(gm, m, jets, ms, dual_jets):
        r = curvature_tensor(*jets)
        r_star = curvature_tensor(*dual_jets)
        return (max_abs(r - _space_form_model(gm, m, c)),
                max_abs(r_star - _space_form_model(gm, ms, c)), scale_of(r, r_star, gm, m))

    batches = (spec.metric.values(points), spec.product.values(points),
               spec.resolved_connection.jets(points), spec.adjoint.values(points),
               spec.conjugate.jets(points))
    primal, dual, scale = in_blocks(reduce, spec.metric.dim, *batches)
    return residual_check(np.maximum(primal, dual), scale, points, tol, details={
        "primal": float(primal.max()), "dual": float(dual.max()), "constant": c})


def fit_space_form_constant(spec: ManifoldSpec, pts) -> float:
    """Least-squares constant for the space-form shape, fitted at the best-conditioned sample.

    Reporting convenience only: verification must call :func:`check_space_form`
    with the fitted value.
    """
    points = _as_points(pts)

    def weights(gm, m):
        basis = _space_form_model(gm, m, 4.0)  # model is linear in c; c=4 gives the raw bracket
        return (np.einsum("plijk,plijk->p", basis, basis),)

    gm, m = spec.metric.values(points), spec.product.values(points)
    (weight,) = in_blocks(weights, spec.metric.dim, gm, m)
    index = int(np.argmax(weight))
    if weight[index] == 0.0:
        return 0.0
    basis = _space_form_model(gm[index], m[index], 4.0)
    r = curvature_tensor(*(part[index] for part in spec.resolved_connection.jets(points)))
    return 4.0 * float(np.einsum("lijk,lijk->", r, basis)) / float(weight[index])


def verify_flatness_theorem(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Certified para-Kähler-like + constant curvature (dim ≠ 2) must force R = 0.

    When either hypothesis fails the result is NOT-APPLICABLE, never FAIL,
    and its reason names the hypothesis.  Otherwise the residual is that of
    R = 0, and the details hold the fitted constant and the largest |R|.
    """
    def not_applicable(reason, **details):
        return CheckResult(STATUS_NOT_APPLICABLE, tolerance=tol, reason=reason, details=details)

    if spec.metric.dim == 2:
        return not_applicable("dimension 2 is excluded by hypothesis")
    points = _as_points(pts)
    if not check_para_kahler_like(spec, points, tol).passed:
        return not_applicable("para-Kähler-like certification failed")
    fit = fit_kurose_constant(spec, points, tol)
    constant = fit.details["constant"]
    if not fit.passed:
        return not_applicable("curvature is not of constant-curvature form",
                              constant=constant, fit_residual=fit.residual)
    flat = curvature_residual(spec, points, tol)
    return CheckResult(
        flat.status, residual=flat.residual, tolerance=tol,
        reason=None if flat.passed else "hypotheses hold but curvature does not vanish",
        details={"constant": constant, "max_curvature": flat.raw_residual},
    )
