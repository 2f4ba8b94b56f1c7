"""Suite execution: the check registry and the manifest-driven runner.

Checks run in declaration order.  Each one evaluates its fields over the
whole batch of sample points and ends in one :func:`geometry.residual_check`
of per-point arrays (the last worst point wins ties), so a fixed seed yields
byte-identical reports.  A check that raises is recorded as ERROR and the run
continues.

A check reads its subject from the context (the manifold, its submersion or
its model) and hands it to the library function that certifies it.  Every
library function returns :class:`geometry.CheckResult` (a theorem returns
one per item), and :func:`_outcome` is the one adapter to a report row.
Most checks report one result; they are rows of one table.  The others
report a family of results or read extra inputs.  Every derived
field lives on its manifold (an α-connection on its model's α spec), so the
checks of one run share it.

Per manifest, :func:`manifest.parse_manifest` keeps the parsed blocks: charts,
component grids, a model's potential.  Per call, :func:`run_suite` builds one
fresh context from them (:func:`manifest.build_context`, which parses
nothing), and with it fresh fields, stores and Fisher metric, so no numeric
result of one run serves another and two runs give the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import time

from . import geometry as geo
from . import product as prod
from . import submersion as sub
from .expfam import exp_para_structures
from .geometry import STATUS_ERROR
from .manifest import Manifest, ManifestError, build_context
from .report import CheckOutcome, VerificationReport


def _float(value):
    return None if value is None else float(value)


def _outcome(name, result, points_used, data=None) -> CheckOutcome:
    """A :class:`geometry.CheckResult` as a report row; an absent field stays ``None``."""
    return CheckOutcome(
        name=name,
        status=result.status,
        residual=_float(result.residual),
        raw_residual=_float(result.raw_residual),
        tolerance=_float(result.tolerance),
        worst_point=None if result.worst_point is None else [float(x) for x in result.worst_point],
        points_used=points_used,
        reason=result.reason,
        data=dict(data or {}, **{k: float(v) for k, v in result.details.items()}),
    )


def _summary(cert) -> geo.CheckResult:
    """A para-Kähler-like certification cut to a summary row: its residual and ∇P = 0's."""
    return dataclasses.replace(cert, raw_residual=None, worst_point=None, details={
        "parallelism_residual": cert.details["parallelism_residual"]})


# --------------------------------------------------------------------------
# Subjects
# --------------------------------------------------------------------------

def _manifold(ctx):
    if ctx.manifold is None:
        raise ManifestError("this check needs a 'metric' block in the manifest")
    return ctx.manifold


def _require_product(ctx):
    if ctx.manifold is None or ctx.manifold.product is None:
        raise ManifestError("this check needs a 'product' block in the manifest")
    return ctx.manifold


def _product_structure(ctx):
    return _require_product(ctx).product


def _require_model(ctx):
    if ctx.model is None:
        raise ManifestError("this check needs a 'model' block in the manifest")
    return ctx.model


def _require_submersion(ctx):
    if ctx.submersion is None:
        raise ManifestError("this check needs a 'submersion' block in the manifest")
    return ctx.submersion


# --------------------------------------------------------------------------
# Checks with one result
# --------------------------------------------------------------------------

# check -> (its subject in the context, the module and name of the function of
# (subject, points, tol) whose CheckResult it reports).  The function is looked
# up when the check runs, so a wrapper installed in the module is called too.
_RESULT_CHECKS = {
    "statistical_structure": (_manifold, geo, "check_statistical_structure"),
    "conjugate_involution": (_manifold, geo, "check_conjugate_involution"),
    "levi_civita_average": (_manifold, geo, "check_levi_civita_average"),
    "dual_curvature_identity": (_manifold, geo, "check_dual_curvature_identity"),
    "flatness": (_manifold, geo, "curvature_residual"),
    "kurose_constant_curvature": (_manifold, geo, "fit_kurose_constant"),
    "almost_product": (_product_structure, prod, "check_almost_product"),
    "pairing_identities": (_require_product, prod, "check_pairing_identities"),
    "product_parallelism": (_require_product, prod, "check_product_parallelism"),
    "para_kahler_like": (_require_product, prod, "check_para_kahler_like"),
    "conjugate_parallelism": (_require_product, prod, "conjugate_parallelism_check"),
    "flatness_theorem": (_require_product, prod, "verify_flatness_theorem"),
    "semi_riemannian_submersion": (_require_submersion, sub, "check_semi_riemannian_submersion"),
    "statistical_submersion": (_require_submersion, sub, "check_statistical_submersion"),
    "para_holomorphic": (_require_submersion, sub, "check_para_holomorphic"),
    "isometric_fibers": (_require_submersion, sub, "isometric_fibers_residual"),
    "oneill_identities": (_require_submersion, sub, "check_fundamental_tensor_identities"),
}


def _result_check(name, subject, module, function, ctx, pts, tol):
    result = getattr(module, function)(subject(ctx), pts, tol)
    return [_outcome(name, result, len(pts))]


# --------------------------------------------------------------------------
# Checks with a family of results or extra inputs
# --------------------------------------------------------------------------

def _check_space_form(ctx, pts, tol):
    m = _require_product(ctx)
    constant = ctx.space_form_c
    if constant is None:
        constant = prod.fit_space_form_constant(m, pts)
    result = prod.check_space_form(m, constant, pts, tol)
    return [_outcome("space_form", result, len(pts), data={"constant": constant})]


def _check_alpha_family(ctx, pts, tol):
    model = _require_model(ctx)
    outcomes = []
    for alpha in ctx.alphas:
        m = model.alpha_manifold(alpha)
        stat = geo.check_statistical_structure(m, pts, tol)
        outcomes.append(_outcome(f"alpha_family[{alpha:g}].statistical_structure", stat, len(pts)))
        reflected = model.alpha_manifold(-alpha).connection.values(pts)
        duality = geo.residual_check(geo.max_abs(m.conjugate.values(pts) - reflected),
                                     geo.scale_of(m.connection.values(pts)), pts, tol)
        outcomes.append(_outcome(f"alpha_family[{alpha:g}].conjugate_duality", duality, len(pts)))
    m = model.alpha_manifold(0.0)
    gamma, lc = m.connection.values(pts), m.levi_civita_connection.values(pts)
    match = geo.residual_check(geo.max_abs(gamma - lc), geo.scale_of(lc), pts, tol)
    outcomes.append(_outcome("alpha_family.levi_civita_match", match, len(pts)))
    flat = geo.curvature_residual(model.alpha_manifold(1.0), pts, tol)
    outcomes.append(_outcome("alpha_family.exponential_flatness", flat, len(pts)))
    return outcomes


def _check_exp_para_certifications(ctx, pts, tol):
    model = _require_model(ctx)
    if ctx.involution is None:
        raise ManifestError("exp_para_certifications needs an 'involution' matrix in the model block")
    structure_one, structure_minus = exp_para_structures(model, ctx.involution)
    outcomes = []
    for label, alpha, structure in (
        ("exponential", 1.0, structure_one),
        ("mixture", -1.0, structure_minus),
    ):
        spec = dataclasses.replace(model.alpha_manifold(alpha), product=structure)
        cert = prod.check_para_kahler_like(spec, pts, tol)
        outcomes.append(_outcome(f"exp_para_certifications.{label}", _summary(cert), len(pts)))
    return outcomes


def _check_fiber_para_kahler_like(ctx, pts, tol):
    fiber = sub.induced_fiber_manifold(_require_submersion(ctx), tol=tol)
    fiber_points = geo.sample_points(fiber.chart, len(pts))
    cert = prod.check_para_kahler_like(fiber, fiber_points, tol)
    return [_outcome("fiber_para_kahler_like", _summary(cert), len(fiber_points))]


def _check_submersion_theorems(ctx, pts, tol):
    items = sub.verify_submersion_theorems(_require_submersion(ctx), pts, tol)
    return [_outcome(f"submersion_theorems.{name}", item, len(pts)) for name, item in items.items()]


# --------------------------------------------------------------------------
# Registry and runner
# --------------------------------------------------------------------------

CHECKS = {
    **{name: functools.partial(_result_check, name, *row) for name, row in _RESULT_CHECKS.items()},
    "space_form": _check_space_form,
    "alpha_family": _check_alpha_family,
    "exp_para_certifications": _check_exp_para_certifications,
    "fiber_para_kahler_like": _check_fiber_para_kahler_like,
    "submersion_theorems": _check_submersion_theorems,
}

DEFAULT_TOLERANCES = {
    "statistical_structure": 1e-8,
    "conjugate_involution": 1e-10,
    "levi_civita_average": 1e-9,
    "dual_curvature_identity": 1e-8,
    "flatness": 1e-9,
    "kurose_constant_curvature": 1e-8,
    "almost_product": 1e-10,
    "pairing_identities": 1e-10,
    "product_parallelism": 1e-9,
    "para_kahler_like": 1e-8,
    "conjugate_parallelism": 1e-8,
    "space_form": 1e-8,
    "flatness_theorem": 1e-9,
    "alpha_family": 1e-9,
    "exp_para_certifications": 1e-8,
    "semi_riemannian_submersion": 1e-8,
    "statistical_submersion": 1e-8,
    "para_holomorphic": 1e-8,
    "isometric_fibers": 1e-9,
    "oneill_identities": 1e-8,
    "fiber_para_kahler_like": 1e-8,
    "submersion_theorems": 1e-8,
}


def _error_outcome(name: str, err: Exception) -> CheckOutcome:
    return CheckOutcome(name=name, status=STATUS_ERROR, reason=f"{type(err).__name__}: {err}")


def run_suite(manifest: Manifest, seed=None, points=None, tol=None) -> VerificationReport:
    """Execute the manifest's checks in declaration order and assemble the report."""
    start = time.perf_counter()
    effective_seed = int(seed) if seed is not None else manifest.seed
    effective_points = int(points) if points is not None else manifest.points
    outcomes: list[CheckOutcome] = []
    try:
        ctx = build_context(manifest, seed=effective_seed)
        pts = geo.sample_points(ctx.chart, effective_points)
        if ctx.manifold is not None:
            geo.validate_metric_on_chart(ctx.manifold.metric, ctx.chart, pts)
        if ctx.submersion is not None:
            base_pts = pts[:, :ctx.submersion.base_dim]
            geo.validate_metric_on_chart(ctx.submersion.base.metric,
                                         ctx.submersion.base.chart, base_pts)
    except Exception as err:  # noqa: BLE001 - every failure must land in the report
        outcomes = [_error_outcome(name, err) for name in manifest.checks]
        return VerificationReport(
            fixture=manifest.name, seed=effective_seed, points=effective_points,
            checks=tuple(outcomes), wall_time_s=time.perf_counter() - start,
        )

    for name in manifest.checks:
        check_tol = tol if tol is not None else manifest.tolerances.get(
            name, DEFAULT_TOLERANCES.get(name, geo.DEFAULT_TOLERANCE)
        )
        try:
            outcomes.extend(CHECKS[name](ctx, pts, float(check_tol)))
        except Exception as err:  # noqa: BLE001
            outcomes.append(_error_outcome(name, err))
    return VerificationReport(
        fixture=manifest.name,
        seed=effective_seed,
        points=effective_points,
        checks=tuple(outcomes),
        wall_time_s=time.perf_counter() - start,
    )
