"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines even on success.
"""

import numpy as np

from conftest import (
    curved_manifold,
    curved_submersion,
    fd_connection_jet,
    fd_curvature,
    fd_levi_civita,
    flat_manifold,
    relative_deviation,
)
from oracles import HorizontalLiftField, lie_bracket_at, oneill_tensors_at, projectors_at
from statgeom import build_context, parse_manifest
from statgeom.expr import fd_check
from statgeom.expfam import AlphaConnection, builtin_model, exp_para_structures
from statgeom.fixtures import (
    fixture_ids,
    flat_product_manifest,
    load_fixture,
    submersion_manifest,
)
from statgeom.geometry import (
    STATUS_PASS,
    ManifoldSpec,
    check_dual_curvature_identity,
    check_statistical_structure,
    conjugate_connection,
    curvature_tensor,
    fit_kurose_constant,
    levi_civita,
    sample_points,
)
from statgeom.product import (
    adjoint_structure,
    check_pairing_identities,
    _covariant_derivative_P,
    check_para_kahler_like,
    verify_flatness_theorem,
)
from statgeom.report import render_report
from statgeom.submersion import (
    check_fundamental_tensor_identities,
    check_para_holomorphic,
    check_semi_riemannian_submersion,
    check_statistical_submersion,
    induced_fiber_manifold,
    isometric_fibers_residual,
)
from statgeom.suite import run_suite

MODEL_SETUPS = [
    ("poisson", {}, None),
    ("normal", {}, [[0.0, 1.0], [1.0, 0.0]]),
    ("multinomial", {"categories": 3}, [[1.0, 0.0], [0.0, -1.0]]),
    ("dirichlet", {"dim": 2}, [[1.0, 0.0], [0.0, -1.0]]),
]


def _report(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status}")
    assert not failures, failures


def _manifold_bundles():
    """(name, metric, connection, product) for every fixture with a dual pair."""
    bundles = []
    for fixture_id in fixture_ids():
        ctx = build_context(load_fixture(fixture_id))
        if ctx.manifold is not None:
            m = ctx.manifold
            bundles.append((fixture_id, m.metric, m.resolved_connection, m.product))
        if ctx.model is not None:
            metric = ctx.model.fisher
            structure = None
            if ctx.involution is not None:
                structure, _ = exp_para_structures(ctx.model, ctx.involution)
            for alpha in ctx.alphas:
                bundles.append((f"{fixture_id}[alpha={alpha:g}]", metric,
                                AlphaConnection(metric, alpha), structure))
    return bundles


def test_criterion_1_flat_certification():
    """Flat pair fixtures certify with the stated adjoint coefficients and
    vanishing curvature for every size, scale and sign pattern."""
    failures = []
    for pairs, patterns in [(1, [(1.0,), (-1.0,)]), (2, [(1.0, 1.0), (1.0, -1.0)])]:
        for k in (1.0, 2.0, -3.0):
            for epsilons in patterns:
                tag = f"pairs={pairs} k={k} eps={epsilons}"
                m = flat_manifold(pairs=pairs, k=k, epsilons=epsilons, seed=1)
                pts = sample_points(m.chart, 25)
                if not check_para_kahler_like(m, pts).passed:
                    failures.append(f"{tag}: certification")
                expected = np.zeros((2 * pairs, 2 * pairs))
                for i in range(pairs):
                    expected[2 * i, 2 * i + 1] = 1.0 / k
                    expected[2 * i + 1, 2 * i] = k
                adjoint = adjoint_structure(m.metric, m.product)
                for p in pts[:5]:
                    if np.max(np.abs(adjoint.value(p) - expected)) > 1e-12:
                        failures.append(f"{tag}: adjoint coefficients")
                        break
                if max(np.max(np.abs(curvature_tensor(*m.connection.jet(p))))
                       for p in pts) > 1e-9:
                    failures.append(f"{tag}: curvature")
                fit = fit_kurose_constant(m, pts)
                if not fit.passed or abs(fit.details["constant"]) > 1e-9:
                    failures.append(f"{tag}: constant-curvature fit")
                if pairs >= 2:
                    outcome = verify_flatness_theorem(m, pts)
                    if outcome.status != STATUS_PASS:
                        failures.append(f"{tag}: flatness theorem {outcome.status}")
    _report(1, "flat para-product certification", failures)


def test_criterion_2_curved_certification():
    """Curved fixtures: statistical residuals, structure parallelism, the four
    conjugate coefficient families, and the adjoint coefficients."""
    failures = []
    for k, l in [(1.0, 1.0), (1.0, 2.0), (2.0, -1.0)]:
        tag = f"k={k} l={l}"
        m = curved_manifold(pairs=1, k=k, l=l, epsilons=(1.0,), seed=2)
        pts = sample_points(m.chart, 25)
        statistical = check_statistical_structure(m, pts)
        if statistical.details["torsion"] > 1e-10:
            failures.append(f"{tag}: torsion {statistical.details['torsion']:.2e}")
        if statistical.details["codazzi"] > 1e-9:
            failures.append(f"{tag}: codazzi {statistical.details['codazzi']:.2e}")
        parallel = max(np.max(np.abs(_covariant_derivative_P(m.connection.value(p),
                                                              *m.product.jet(p))))
                       for p in pts)
        if parallel > 1e-9:
            failures.append(f"{tag}: structure parallelism {parallel:.2e}")
        star = conjugate_connection(m.metric, m.connection)
        worst = 0.0
        for p in pts:
            y = p[1]
            expected = np.zeros((2, 2, 2))
            expected[1, 0, 0] = -2.0 * k * k / (l * (k + l) * y)
            expected[1, 1, 1] = -2.0 * l / ((k + l) * y)
            expected[0, 0, 1] = expected[0, 1, 0] = -2.0 * l / ((k + l) * y)
            worst = max(worst, float(np.max(np.abs(star.value(p) - expected))))
        if worst > 1e-9:
            failures.append(f"{tag}: conjugate coefficients {worst:.2e}")
        adjoint = adjoint_structure(m.metric, m.product)
        expected = np.array([[0.0, l / k], [k / l, 0.0]])
        for p in pts[:5]:
            if np.max(np.abs(adjoint.value(p) - expected)) > 1e-12:
                failures.append(f"{tag}: adjoint coefficients")
                break
    _report(2, "curved statistical certification", failures)


def test_criterion_3_duality_suite():
    """Conjugation is an involution, averages to the metric connection, obeys
    the dual curvature pairing, and the adjoint identities hold, on every
    fixture in the registry."""
    failures = []
    for name, metric, connection, structure in _manifold_bundles():
        chart_pts = None
        for fixture_id in fixture_ids():
            if name.startswith(fixture_id):
                ctx = build_context(load_fixture(fixture_id))
                chart_pts = sample_points(ctx.chart, 15)
                break
        pts = chart_pts
        star = conjugate_connection(metric, connection)
        double = conjugate_connection(metric, star)
        mid = levi_civita(metric)
        involution = max(float(np.max(np.abs(double.value(p) - connection.value(p))))
                         for p in pts)
        if involution > 1e-10:
            failures.append(f"{name}: involution {involution:.2e}")
        average = max(float(np.max(np.abs(
            connection.value(p) + star.value(p) - 2.0 * mid.value(p))))
            for p in pts)
        if average > 1e-9:
            failures.append(f"{name}: metric-connection average {average:.2e}")
        dual_curv = check_dual_curvature_identity(ManifoldSpec(ctx.chart, metric, connection), pts,
                                                  tol=1e-8)
        if not dual_curv.passed:
            failures.append(f"{name}: dual curvature {dual_curv.residual:.2e}")
        if structure is not None:
            pairing = check_pairing_identities(ManifoldSpec(ctx.chart, metric, product=structure),
                                               pts, tol=1e-10)
            worst = max(pairing.details.values())
            if worst > 1e-10:
                failures.append(f"{name}: adjoint identities {worst:.2e}")
    _report(3, "duality suite over all fixtures", failures)


def test_criterion_4_alpha_connection_suite():
    """Every built-in model: statistical structure, α ↔ −α conjugacy, the
    metric connection at α = 0, and flatness at α = 1."""
    failures = []
    for name, hyper, _ in MODEL_SETUPS:
        model = builtin_model(name, **hyper)
        metric = model.fisher
        pts = sample_points(model.chart, 25)
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
            tag = f"{name} alpha={alpha:g}"
            connection = AlphaConnection(metric, alpha)
            if not check_statistical_structure(ManifoldSpec(model.chart, metric, connection),
                                               pts).passed:
                failures.append(f"{tag}: statistical structure")
            star = conjugate_connection(metric, connection)
            mirror = AlphaConnection(metric, -alpha)
            duality = max(float(np.max(np.abs(star.value(p) - mirror.value(p))))
                          for p in pts)
            if duality > 1e-9:
                failures.append(f"{tag}: conjugate duality {duality:.2e}")
        mid = levi_civita(metric)
        zero = AlphaConnection(metric, 0.0)
        match = max(float(np.max(np.abs(zero.value(p) - mid.value(p))))
                    for p in pts)
        if match > 1e-9:
            failures.append(f"{name}: zero-alpha metric connection {match:.2e}")
        one = AlphaConnection(metric, 1.0)
        flatness = max(float(np.max(np.abs(curvature_tensor(*one.jet(p))))) for p in pts)
        if flatness > 1e-9:
            failures.append(f"{name}: exponential flatness {flatness:.2e}")
    _report(4, "alpha-connection suite", failures)


def test_criterion_5_model_structure_suite():
    """Both companion structures of each two-dimensional model certify."""
    failures = []
    for name, hyper, involution in MODEL_SETUPS:
        if involution is None:
            continue
        model = builtin_model(name, **hyper)
        metric = model.fisher
        constant, twisted = exp_para_structures(model, involution)
        pts = sample_points(model.chart, 25)
        exponential = check_para_kahler_like(
            ManifoldSpec(model.chart, metric, AlphaConnection(metric, 1.0), constant), pts, tol=1e-8)
        mixture = check_para_kahler_like(
            ManifoldSpec(model.chart, metric, AlphaConnection(metric, -1.0), twisted), pts, tol=1e-8)
        if not exponential.passed:
            failures.append(f"{name}: exponential certification")
        if not mixture.passed:
            failures.append(f"{name}: mixture certification")
    _report(5, "exponential-family structure suite", failures)


def test_criterion_6_submersion_suite():
    """The two-pair-over-one-pair projection: submersion axioms, isometric
    fibers, fundamental tensor identities, fiber certification, and the
    integrability consequences at k = l."""
    failures = []
    for k, l in [(1.0, 1.0), (1.0, 2.0)]:
        tag = f"k={k} l={l}"
        spec = curved_submersion(k=k, l=l, seed=6)
        pts = sample_points(spec.total.chart, 25)
        for label, check in (
            ("scalar products", check_semi_riemannian_submersion),
            ("connection pushforward", check_statistical_submersion),
            ("structure intertwining", check_para_holomorphic),
        ):
            result = check(spec, pts, 1e-8)
            if not result.passed:
                failures.append(f"{tag}: {label} {result.residual:.2e}")
        isometric = isometric_fibers_residual(spec, pts, tol=1e-9)
        if not isometric.passed:
            failures.append(f"{tag}: isometric fibers {isometric.residual:.2e}")
        identities = check_fundamental_tensor_identities(spec, pts, tol=1e-8)
        for item in ("symmetry_t", "alternation_a", "skew_exchange", "pairing_t", "pairing_a"):
            if identities.details[item] > 1e-8:
                failures.append(f"{tag}: identity {item} {identities.details[item]:.2e}")
        fiber_pts = sample_points(spec.fiber.chart, 25)
        fiber = induced_fiber_manifold(spec, fiber_pts)
        if not check_para_kahler_like(fiber, fiber_pts).passed:
            failures.append(f"{tag}: fiber certification")
        if k == l:
            lifts = [HorizontalLiftField(spec, np.eye(2)[a]) for a in range(2)]
            worst_a = 0.0
            worst_bracket = 0.0
            for p in pts:
                v, _ = projectors_at(spec, p)
                for x in lifts:
                    for y in lifts:
                        tensors = oneill_tensors_at(spec, x, y, p)
                        worst_a = max(worst_a, float(np.max(np.abs(tensors.a))),
                                      float(np.max(np.abs(tensors.a_star))))
                        worst_bracket = max(worst_bracket, float(np.max(np.abs(
                            v @ lie_bracket_at(x, y, p)))))
            if worst_a > 1e-8:
                failures.append(f"{tag}: horizontal tensor {worst_a:.2e}")
            if worst_bracket > 1e-10:
                failures.append(f"{tag}: basic-lift brackets {worst_bracket:.2e}")
    _report(6, "statistical submersion suite", failures)


def test_criterion_7_oracle_agreement():
    """Metric Hessians, connection coefficients, and the coefficient jets
    entering curvature all agree with the central finite-difference oracle."""
    failures = []
    for name, metric, connection, _ in _manifold_bundles():
        if "alpha" in name and "alpha=1" not in name and "alpha=-1" not in name:
            continue  # one curved and one flat representative per model family
        for fixture_id in fixture_ids():
            if name.startswith(fixture_id):
                ctx = build_context(load_fixture(fixture_id))
                pts = sample_points(ctx.chart, 10)
                break
        n = metric.dim
        for p in pts:
            for i in range(n):
                for j in range(i, n):
                    if fd_check(metric.component(i, j), p).residual > 1e-5:
                        failures.append(f"{name}: metric Hessian at {p.tolist()}")
            mid = levi_civita(metric)
            if relative_deviation(mid.value(p), fd_levi_civita(metric, p)) > 1e-5:
                failures.append(f"{name}: metric connection vs oracle")
            gamma, dgamma = connection.jet(p)
            if relative_deviation(dgamma, fd_connection_jet(connection, p)) > 1e-5:
                failures.append(f"{name}: coefficient jet vs oracle")
            exact = curvature_tensor(*connection.jet(p))
            if relative_deviation(exact, fd_curvature(connection, p)) > 1e-5:
                failures.append(f"{name}: curvature vs oracle")
            star = conjugate_connection(metric, connection)
            if relative_deviation(star.jet(p)[1],
                                  fd_connection_jet(star, p)) > 1e-5:
                failures.append(f"{name}: conjugate jet vs oracle")
    _report(7, "finite-difference oracle agreement", failures)


def test_criterion_8_negative_controls():
    """Each constructed counterexample fails loudly (residual > 10x tolerance)."""
    failures = []

    torsion = flat_product_manifest(1, 1.0, (1.0,), seed=8)
    torsion["connection"][0][0][1] = "1"
    m = build_context(parse_manifest(torsion)).manifold
    result = check_statistical_structure(m, sample_points(m.chart, 10))
    if result.passed or result.residual <= 10.0 * result.tolerance:
        failures.append("torsion injection not detected")

    bumped = flat_product_manifest(1, 1.0, (1.0,), seed=8)
    bumped["connection"][1][0][0] = "0.1*y1"
    m = build_context(parse_manifest(bumped)).manifold
    fit = fit_kurose_constant(m, sample_points(m.chart, 10))
    if fit.passed or fit.residual <= 10.0 * fit.tolerance:
        failures.append("curvature bump not detected")

    scaled = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0), seed=8)
    scaled["submersion"]["base"]["metric"] = [
        [entry if entry == "0" else f"2*({entry})" for entry in row]
        for row in scaled["submersion"]["base"]["metric"]
    ]
    spec = build_context(parse_manifest(scaled)).submersion
    result = check_semi_riemannian_submersion(spec, sample_points(spec.total.chart, 10))
    if result.passed or result.residual <= 10.0 * result.tolerance:
        failures.append("scaled base metric not detected")

    negated = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0), seed=8)
    negated["submersion"]["base"]["product"] = [
        [entry if entry == "0" else f"-({entry})" for entry in row]
        for row in negated["submersion"]["base"]["product"]
    ]
    spec = build_context(parse_manifest(negated)).submersion
    result = check_para_holomorphic(spec, sample_points(spec.total.chart, 10))
    if result.passed or result.residual <= 10.0 * result.tolerance:
        failures.append("negated base structure not detected")

    _report(8, "negative controls are detected", failures)


def test_criterion_9_determinism(tmp_path):
    """Identical seeds give byte-identical reports, in memory and on disk."""
    failures = []
    for fixture_id in ("example_5_3_k1_l2", "example_5_5_dirichlet", "example_5_6_k1_l2"):
        manifest = load_fixture(fixture_id)
        first = run_suite(manifest)
        second = run_suite(manifest)
        if render_report(first) != render_report(second):
            failures.append(f"{fixture_id}: in-memory reports differ")
        path_a = tmp_path / f"{fixture_id}_a.json"
        path_b = tmp_path / f"{fixture_id}_b.json"
        path_a.write_text(render_report(first), encoding="utf-8", newline="\n")
        path_b.write_text(render_report(run_suite(manifest)), encoding="utf-8", newline="\n")
        if path_a.read_bytes() != path_b.read_bytes():
            failures.append(f"{fixture_id}: report files differ")
    _report(9, "end-to-end determinism", failures)
