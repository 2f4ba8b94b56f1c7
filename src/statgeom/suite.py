"""Suite execution: the check registry and the manifest-driven runner.

First the runner forms, in one block loop over the run's points
(:func:`geometry.block_rows`), the rows of each declared check that reads R
or R* (``_CURVATURE_PLAN``; the space-form fit runs before the loop), so R
and R* are formed once per block.  Then the checks run in declaration order,
each one :func:`geometry.residual_check` of its rows (the last worst point
wins ties), so a fixed seed yields byte-identical reports.  A check that
raises is recorded as ERROR and the run continues; a reducer that raised in
the loop raises again in each check that reads it.

One table names every check with its default tolerance and how it runs.
A check reads its subject from the context (the manifold, its model or its
submersion, by the manifest block it needs) and hands it to the library
function that certifies it.  Every library function returns
:class:`geometry.CheckResult` (a theorem returns one per item), and it is the
report row: :func:`_outcome` names it and records its point count, and
:mod:`report` alone makes JSON values of it.  Most checks report one result,
and their row is a (block, module, function name) triple.  The others report
a family of results or read extra inputs, and their row is an adapter.
Every derived field lives on its manifold (an α-connection on its model's α
spec), so the checks of one run share it.

Per manifest, :func:`manifest.parse_manifest` keeps the parsed blocks: charts,
component grids (:class:`geometry.ComponentGrid`, which keeps its walk plan
from its first batch on), a model with its potential and Fisher grid.  Per call,
:func:`run_suite` builds one fresh context from them
(:func:`manifest.build_context`, which parses, differentiates and plans
nothing), and with it fresh fields, each a new store over a kept grid, a
model's Fisher metric among them, so no numeric result of one run serves
another and two runs give the same bytes.  A metric that fails its
validation on the run's points (a Fisher metric must be positive definite)
ERRORs every check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time

import numpy as np

from . import geometry as geo
from . import product as prod
from . import submersion as sub
from .expfam import exp_para_structures
from .geometry import STATUS_ERROR
from .manifest import Manifest, ManifestError, build_context
from .report import VerificationReport


def _outcome(name, result, points_used) -> geo.CheckResult:
    """A :class:`geometry.CheckResult` as a report row: named, with its point count."""
    return dataclasses.replace(result, name=name, points_used=points_used)


def _summary(cert) -> geo.CheckResult:
    """A para-Kähler-like certification cut to a summary row: its residual and ∇P = 0's."""
    return dataclasses.replace(cert, raw_residual=None, worst_point=None, details={
        "parallelism_residual": cert.details["parallelism_residual"]})


# --------------------------------------------------------------------------
# Subjects
# --------------------------------------------------------------------------

def _subject(ctx, block):
    """What a check of the ``block`` block reads: the manifold, its model or its submersion.

    A 'metric' or 'product' check reads the manifold, which for 'product' must carry P.
    """
    subject = {"model": ctx.model, "submersion": ctx.submersion}.get(block, ctx.manifold)
    if subject is None or (block == "product" and subject.product is None):
        raise ManifestError(f"this check needs a '{block}' block in the manifest")
    return subject


def _result_check(name, block, module, function, ctx, pts, tol):
    """A check with one result: ``module.function(subject, pts, tol)``, looked up as it runs.

    So a wrapper installed in the module is called too.  almost_product certifies P itself.
    """
    subject = _subject(ctx, block)
    subject = subject.product if name == "almost_product" else subject
    return [_outcome(name, getattr(module, function)(subject, pts, tol), len(pts))]


# --------------------------------------------------------------------------
# Checks with a family of results or extra inputs
# --------------------------------------------------------------------------

def _space_form_constant(ctx, pts):
    m = _subject(ctx, "product")
    return m, ctx.space_form_c if ctx.space_form_c is not None else prod.fit_space_form_constant(m, pts)


def _check_space_form(ctx, pts, tol):
    result = prod.check_space_form(*_space_form_constant(ctx, pts), pts, tol)
    return [_outcome("space_form", result, len(pts))]


def _check_alpha_family(ctx, pts, tol):
    model = _subject(ctx, "model")
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
    model = _subject(ctx, "model")
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
    spec = _subject(ctx, "submersion")
    _subject(ctx, "product")  # the fiber's P is the total space's, restricted
    fiber_points = geo.sample_points(spec.fiber.chart, len(pts))
    fiber = sub.induced_fiber_manifold(spec, fiber_points, tol=tol)
    cert = prod.check_para_kahler_like(fiber, fiber_points, tol)
    return [_outcome("fiber_para_kahler_like", _summary(cert), len(fiber_points))]


def _check_submersion_theorems(ctx, pts, tol):
    items = sub.verify_submersion_theorems(_subject(ctx, "submersion"), pts, tol)
    return [_outcome(f"submersion_theorems.{name}", item, len(pts)) for name, item in items.items()]


# --------------------------------------------------------------------------
# The check table and the runner
# --------------------------------------------------------------------------

# check -> (default tolerance, how it runs): a (block, module, function name) row
# for a check with one result, or an adapter of (ctx, points, tol).
_TABLE = {
    "statistical_structure": (1e-8, ("metric", geo, "check_statistical_structure")),
    "conjugate_involution": (1e-10, ("metric", geo, "check_conjugate_involution")),
    "levi_civita_average": (1e-9, ("metric", geo, "check_levi_civita_average")),
    "dual_curvature_identity": (1e-8, ("metric", geo, "check_dual_curvature_identity")),
    "flatness": (1e-9, ("metric", geo, "curvature_residual")),
    "kurose_constant_curvature": (1e-8, ("metric", geo, "fit_kurose_constant")),
    "almost_product": (1e-10, ("product", prod, "check_almost_product")),
    "pairing_identities": (1e-10, ("product", prod, "check_pairing_identities")),
    "product_parallelism": (1e-9, ("product", prod, "check_product_parallelism")),
    "para_kahler_like": (1e-8, ("product", prod, "check_para_kahler_like")),
    "conjugate_parallelism": (1e-8, ("product", prod, "conjugate_parallelism_check")),
    "space_form": (1e-8, _check_space_form),
    "flatness_theorem": (1e-9, ("product", prod, "verify_flatness_theorem")),
    "alpha_family": (1e-9, _check_alpha_family),
    "exp_para_certifications": (1e-8, _check_exp_para_certifications),
    "semi_riemannian_submersion": (1e-8, ("submersion", sub, "check_semi_riemannian_submersion")),
    "statistical_submersion": (1e-8, ("submersion", sub, "check_statistical_submersion")),
    "para_holomorphic": (1e-8, ("submersion", sub, "check_para_holomorphic")),
    "isometric_fibers": (1e-9, ("submersion", sub, "isometric_fibers_residual")),
    "oneill_identities": (1e-8, ("submersion", sub, "check_fundamental_tensor_identities")),
    "fiber_para_kahler_like": (1e-8, _check_fiber_para_kahler_like),
    "submersion_theorems": (1e-8, _check_submersion_theorems),
}

CHECKS = {name: run if callable(run) else functools.partial(_result_check, name, *run)
          for name, (_, run) in _TABLE.items()}
DEFAULT_TOLERANCES = {name: default for name, (default, _) in _TABLE.items()}


# check -> its reducers that read R or R* at (ctx, points): run_suite forms those of all declared
# checks in one block loop before any check runs; every other reducer, in its own loop when read.
_CURVATURE_PLAN = {
    "dual_curvature_identity": lambda ctx, pts: [(geo._dual_curvature_rows, _subject(ctx, "metric"))],
    "flatness": lambda ctx, pts: [(geo._flatness_rows, _subject(ctx, "metric"))],
    "kurose_constant_curvature": lambda ctx, pts: [(geo._kurose_rows, _subject(ctx, "metric"))],
    "flatness_theorem": lambda ctx, pts: prod._flatness_theorem_reducers(_subject(ctx, "product")),
    "space_form": lambda ctx, pts: [(prod._space_form_rows, *_space_form_constant(ctx, pts))],
    "submersion_theorems": lambda ctx, pts: [  # the total space's rows, at the fitted constant
        (prod._space_form_rows, ctx.manifold, prod.fit_space_form_constant(ctx.manifold, pts))],
}


def _error_outcome(name: str, err: Exception) -> geo.CheckResult:
    return geo.CheckResult(STATUS_ERROR, reason=f"{type(err).__name__}: {err}", name=name)


def run_suite(manifest: Manifest, seed=None, points=None, tol=None) -> VerificationReport:
    """Execute the manifest's checks in declaration order and assemble the report.

    Arithmetic that overflows warns nothing on stderr: its rows carry the inf or NaN.
    """
    start = time.perf_counter()
    effective_seed = int(seed) if seed is not None else manifest.seed
    effective_points = int(points) if points is not None else manifest.points
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            ctx = build_context(manifest, seed=effective_seed)
            pts = geo.sample_points(ctx.chart, effective_points)
            if ctx.manifold is not None:
                geo.validate_metric_on_chart(ctx.manifold.metric, ctx.chart, pts)
            if ctx.submersion is not None:
                base_pts = pts[:, :ctx.submersion.base_dim]
                geo.validate_metric_on_chart(ctx.submersion.base.metric,
                                             ctx.submersion.base.chart, base_pts)
            if ctx.model is not None:
                signature = geo.validate_metric_on_chart(ctx.model.fisher, ctx.chart, pts)
                if signature != (ctx.model.dim, 0):
                    raise geo.MetricError(f"Fisher metric of {ctx.model.name!r} is not positive "
                                          f"definite: signature {signature} at the box center")
        except Exception as err:  # noqa: BLE001 - every failure must land in the report
            outcomes = [_error_outcome(name, err) for name in manifest.checks]
        else:
            reducers = []
            for name in manifest.checks:
                with contextlib.suppress(Exception):  # the check raises it again when it runs
                    reducers += _CURVATURE_PLAN.get(name, lambda *_: [])(ctx, pts)
            with contextlib.suppress(Exception):  # as does each check that reads a failing reducer
                geo.block_rows(pts, *reducers)
            outcomes = []
            for name in manifest.checks:
                try:
                    if name not in CHECKS:  # a manifest parsed without known_checks
                        raise ManifestError(f"unknown check {name!r}")
                    check_tol = tol if tol is not None else manifest.tolerances.get(
                        name, DEFAULT_TOLERANCES[name])
                    outcomes.extend(CHECKS[name](ctx, pts, float(check_tol)))
                except Exception as err:  # noqa: BLE001
                    outcomes.append(_error_outcome(name, err))
    return VerificationReport(fixture=manifest.name, seed=effective_seed, points=effective_points,
                              checks=tuple(outcomes), wall_time_s=time.perf_counter() - start)
