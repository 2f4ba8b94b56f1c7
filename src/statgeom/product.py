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
one spec share those fields and their stores.  Each check is a block
reducer and its finisher (see :mod:`geometry`); the para-Kähler-like
certification, conjugate parallelism and the flatness theorem read the rows
of their parts, and the theorem forms its two R readers in one loop.  All
return a :class:`geometry.CheckResult`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from .geometry import (
    DEFAULT_TOLERANCE,
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    AdjointStructure,
    Block,
    CheckResult,
    ManifoldSpec,
    _as_points,
    _bracket,
    _bracket_width,
    _contract,
    _curvature_at,
    _flatness_rows,
    _if_finite,
    _kept_bracket,
    _kept_plans,
    _kept_slot,
    _kurose_rows,
    _model_defect,
    _sized,
    _unchecked,
    block_rows,
    check_statistical_structure,
    curvature_residual,
    fit_kurose_constant,
    max_abs,
    reduced_check,
    residual_check,
    scale_of,
)

_IDENTITY_WITNESS_MARGIN = 1e-6


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def _almost_product_rows(b: Block, structure):
    m = b.values(structure)
    eye = np.eye(structure.dim)
    return max_abs(m @ m - eye), scale_of(m), max_abs(m - eye), max_abs(m + eye)


def check_almost_product(structure, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """P² = Id at every sample, plus a witness that P is not ±Id anywhere."""
    result = reduced_check(pts, tol, _almost_product_rows, structure,
                           details=("identity_distance", "negated_identity_distance"))
    if all(distance > _IDENTITY_WITNESS_MARGIN for distance in result.details.values()):
        return result
    return dataclasses.replace(result, status=STATUS_FAIL, details={**result.details, "witness_missing": 1.0})


def _pairing_rows(b: Block, spec):
    double = b.loop.setdefault(("P**", spec), AdjointStructure(spec.metric, spec.adjoint))
    eye = np.eye(spec.product.dim)
    gm, m, ms = b.values(spec.metric), b.values(spec.product), b.values(spec.adjoint)
    square = max_abs(ms @ ms - eye)
    # g(P ∂_i, P* ∂_j) + g(∂_i, ∂_j)
    pairing = max_abs(np.swapaxes(m, 1, 2) @ gm @ ms + gm)
    back = max_abs(b.derived(double) - m)
    return np.maximum.reduce([square, pairing, back]), scale_of(m, ms, gm), square, pairing, back


def check_pairing_identities(spec: ManifoldSpec, pts, tol: float = 1e-10) -> CheckResult:
    """(P*)² = Id, g(PE, P*F) = −g(E, F), and (P*)* = P at the samples."""
    return reduced_check(pts, tol, _pairing_rows, spec, details=("square", "pairing", "double_adjoint"))


def _covariant_derivative_P(gamma, m, dm, plans=None) -> np.ndarray:
    if gamma.ndim == 3:
        return _covariant_derivative_P(gamma[None], m[None], dm[None], plans)[0]
    return (dm + _contract("pkim,pmj->pikj", gamma, m, plans=plans)
            - _contract("pmij,pkm->pikj", gamma, m, plans=plans))


def _parallelism_rows(b: Block, connection, structure):
    """∇P for one pair: a spec's (∇, P), or its dual pair (∇*, P*)."""
    gamma = b.values(connection)
    m, dm = b.read(structure, True)
    plans = _kept_plans(connection, structure, ("∇P", "pkim,pmj->pikj a b", "pmij,pkm->pikj a b"),
                        (connection.patterns[0], structure.patterns[0]))
    plans = _if_finite(plans, *_unchecked(connection, gamma), *_unchecked(structure, m))
    return max_abs(_covariant_derivative_P(gamma, m, dm, plans)), scale_of(gamma, m)


def check_product_parallelism(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """∇P = 0 at the samples, scaled by 1 + max |Γ|, |P|."""
    return reduced_check(pts, tol, _parallelism_rows, spec.resolved_connection, spec.product)


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
    dual = reduced_check(points, tol, _parallelism_rows, spec.conjugate, spec.adjoint)
    both_zero = primal.passed and dual.passed
    both_nonzero = tol < primal.residual < math.inf and tol < dual.residual < math.inf
    worst = primal if primal.residual >= dual.residual else dual
    return dataclasses.replace(worst, status=STATUS_PASS if both_zero or both_nonzero else STATUS_FAIL,
                               details={"primal": primal.residual, "dual": dual.residual})


def _space_form_model(spec: ManifoldSpec, structure, gm: np.ndarray, m: np.ndarray, *union) -> np.ndarray:
    """g_jk δ^l_i − g_ik δ^l_j + g(P∂_j,∂_k) P∂_i − g(P∂_i,∂_k) P∂_j
    + [g(∂_i,P∂_j) − g(P∂_i,∂_j)] P∂_k as an [l,i,j,k] array, over a leading point axis or at one
    point: the bracket that the space-form shape with constant c scales by c/4, for ``structure``
    (P or P*) of ``spec`` with values ``m``.  Only the terms that the structural patterns of g and
    P keep are formed, by the plan of the pair kept on the spec (:func:`geometry._bracket`), with
    the bits of the dense ``np.einsum`` outer products; those are formed where a derived P (such as
    P*), gP or gP − (gP)ᵀ is non-finite.  Given R's pattern in ``union``, the terms are formed on
    the union of their slots and R's (:func:`plans._bracket_union`)."""
    return _bracket(_kept_bracket(spec, spec.metric, structure, *union), gm, m, _unchecked(structure, m))


def _space_form_defect(spec: ManifoldSpec, structure, gm: np.ndarray, m: np.ndarray, c: float,
                       r) -> np.ndarray:
    """Per point, max |(c/4) bracket − R| for ``structure`` and R packed (:class:`geometry.Packed`),
    the block's bracket scaled in place on the union of its slots and R's."""
    plan = _kept_bracket(spec, spec.metric, structure, r.pattern)
    return _model_defect(_space_form_model(spec, structure, gm, m, r.pattern), plan, c / 4.0, r)


@_sized(lambda spec, c: max(_bracket_width(spec, spec.product, spec.resolved_connection),
                            _bracket_width(spec, spec.adjoint, spec.conjugate)))
def _space_form_rows(b: Block, spec, c: float):
    gm, m = b.values(spec.metric), b.values(spec.product)
    r = b.curvature(spec.resolved_connection)
    primal = _space_form_defect(spec, spec.product, gm, m, c, r)
    ms = b.values(spec.adjoint)
    r_star = b.curvature(spec.conjugate)
    dual = _space_form_defect(spec, spec.adjoint, gm, ms, c, r_star)
    return primal, dual, scale_of(r.values, r_star.values, gm, m)


def check_space_form(spec: ManifoldSpec, c: float, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Curvature has the para-Kähler space-form shape with constant ``c``.

    The dual side is verified too: R* must match the same expression with P
    replaced by P*.  The result carries ``c`` as ``details["constant"]``.
    """
    points = _as_points(pts)
    primal, dual, scale = block_rows(points, (_space_form_rows, spec, c))[0]
    return residual_check(np.maximum(primal, dual), scale, points, tol, details={
        "primal": float(primal.max()), "dual": float(dual.max()), "constant": c})


def _space_form_weights(b: Block, spec):
    basis = _space_form_model(spec, spec.product, b.values(spec.metric), b.values(spec.product))
    return (np.einsum("plijk,plijk->p", basis, basis),)


def fit_space_form_constant(spec: ManifoldSpec, pts) -> float:
    """Least-squares constant for the space-form shape, fitted at the best-conditioned sample.

    The weights of all samples come first, from a block loop of their own.
    The fit is kept for the batch, so the checks of a run fit once.
    Reporting convenience only: verification must call :func:`check_space_form`
    with the fitted value.
    """
    points = _as_points(pts)
    store, slot = _kept_slot((points.shape, points.tobytes()), ("space_form_constant", spec))
    if slot not in store:
        (weight,) = block_rows(points, (_space_form_weights, spec))[0]
        index = int(np.argmax(weight))
        if weight[index] == 0.0:
            store[slot] = 0.0
        else:
            basis = _space_form_model(spec, spec.product, spec.metric.values(points)[index],
                                      spec.product.values(points)[index])
            connection = spec.resolved_connection  # its stored jets, ∂Γ packed where it is sparse
            r = _curvature_at(connection, *(part[index] for part in connection._lookup(points, True)))
            store[slot] = 4.0 * float(np.einsum("lijk,lijk->", r, basis)) / float(weight[index])
    return store[slot]


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
    with contextlib.suppress(Exception):  # R once per block for both; each raises again where it is read
        block_rows(points, *_flatness_theorem_reducers(spec))
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


def _flatness_theorem_reducers(spec: ManifoldSpec):
    """The theorem's reducers that read R, none in dimension 2: formed in one block loop."""
    return [] if spec.metric.dim == 2 else [(_kurose_rows, spec), (_flatness_rows, spec)]
