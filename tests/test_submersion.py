"""Projectors, lifts, fundamental tensors, fiber geometry, and the
structure-transfer report for coordinate-projection submersions."""

import dataclasses
import math
import types

import numpy as np
import pytest

from conftest import NaNConnection, curved_submersion, dense_submersion
from oracles import (
    CoordinateBasisField,
    ExpressionVectorField,
    HorizontalLiftField,
    StructureImageField,
    eval2,
    horizontal_lift_at,
    lie_bracket_at,
    oneill_tensors_at,
    projectors_at,
)
from statgeom import CHECKS, build_context, load_fixture, parse_manifest, run_suite
from statgeom import expr as ex
from statgeom.expr import eval_points, parse_expression
from statgeom.fixtures import fixture_ids, flat_product_manifest, submersion_manifest
from statgeom.geometry import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    AdjointStructure,
    ExpressionField,
    PointJets,
    curvature_tensor,
    sample_points,
)
from statgeom.product import check_almost_product, check_para_kahler_like
from statgeom.submersion import (
    FiberRestriction,
    SubmersionError,
    SubmersionSpec,
    VerticalPart,
    check_fundamental_tensor_identities,
    check_para_holomorphic,
    check_semi_riemannian_submersion,
    check_statistical_submersion,
    induced_fiber_manifold,
    isometric_fibers_residual,
    verify_submersion_theorems,
)


def _fiber_block(jet, nb):
    """Every axis of ``jet`` but the point axis cut to the fiber coordinates."""
    return jet[(slice(None),) + (slice(nb, None),) * (jet.ndim - 1)]


def _submersion_from(data):
    return build_context(parse_manifest(data)).submersion


class Unevaluated(PointJets):
    """A connection of dimension ``dim`` that fails the test when it is evaluated."""

    def __init__(self, dim):
        self.dim = dim

    def _batch_jets(self, points, full):
        raise AssertionError("a connection was evaluated")


def _without_connections(spec):
    """``spec`` with an :class:`Unevaluated` connection on the total space and on the base."""
    return SubmersionSpec(dataclasses.replace(spec.total, connection=Unevaluated(spec.total_dim)),
                          dataclasses.replace(spec.base, connection=Unevaluated(spec.base_dim)))


def warped_submersion():
    """dim-2 over dim-1 with fiber metric exp(2b): curved fibers, T ≠ 0."""
    return _submersion_from({
        "chart": {"coords": ["b", "u"], "box": [[-1.0, 1.0], [-1.0, 1.0]], "seed": 17},
        "metric": [["1", "0"], ["0", "exp(2*b)"]],
        "submersion": {"base": {
            "chart": {"coords": ["b"], "box": [[-1.0, 1.0]]},
            "metric": [["1"]],
        }},
        "checks": ["semi_riemannian_submersion"],
    })


def flat_submersion(k=1.0):
    """Trivial product of flat pair fixtures with the pair-swap structures."""
    total = flat_product_manifest(2, k, (1.0, 1.0), seed=19)
    base = flat_product_manifest(1, k, (1.0,), seed=19)
    data = {key: total[key] for key in ("chart", "params", "metric", "connection", "product")}
    data["submersion"] = {"base": {
        key: base[key] for key in ("chart", "params", "metric", "connection", "product")
    }}
    data["checks"] = ["semi_riemannian_submersion"]
    return _submersion_from(data)


class TestProjectors:
    def test_block_metric_gives_coordinate_projectors(self):
        spec = curved_submersion(k=1.0, l=2.0)
        p = sample_points(spec.total.chart, 1)[0]
        v, h = projectors_at(spec, p)
        np.testing.assert_allclose(v, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(h, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_base_must_be_strictly_smaller(self):
        spec = curved_submersion()
        with pytest.raises(ValueError, match="smaller"):
            SubmersionSpec(total=spec.total, base=spec.total)

    def test_base_needs_at_least_one_coordinate(self):
        from statgeom.geometry import ChartError, ChartSpec

        with pytest.raises(ChartError, match="at least one"):
            ChartSpec((), ())

    def test_perturbed_metric_keeps_projector_algebra(self):
        spec = _submersion_from({
            "chart": {"coords": ["b", "u"], "box": [[-1.0, 1.0], [-1.0, 1.0]], "seed": 3},
            "metric": [["1", "0.2"], ["0.2", "-1"]],
            "submersion": {"base": {
                "chart": {"coords": ["b"], "box": [[-1.0, 1.0]]},
                "metric": [["1"]],
            }},
            "checks": ["semi_riemannian_submersion"],
        })
        for p in sample_points(spec.total.chart, 10):
            v, h = projectors_at(spec, p)
            assert abs(v[1, 0] + 0.2) <= 1e-14  # not a coordinate projector
            assert np.max(np.abs(v @ v - v)) <= 1e-12
            assert np.max(np.abs(v @ h)) <= 1e-12
            g = spec.total.metric.value(p)
            assert np.max(np.abs(h.T @ g @ v)) <= 1e-12

    def test_degenerate_fiber_metric_rejected(self):
        spec = _submersion_from({
            "chart": {"coords": ["b", "u1", "u2"], "box": [[-1.0, 1.0]] * 3, "seed": 3},
            "metric": [["1", "0", "0"], ["0", "1e-12", "0"], ["0", "0", "1e-12"]],
            "submersion": {"base": {
                "chart": {"coords": ["b"], "box": [[-1.0, 1.0]]},
                "metric": [["1"]],
            }},
            "checks": ["semi_riemannian_submersion"],
        })
        with pytest.raises(SubmersionError, match="degenerate"):
            projectors_at(spec, np.zeros(3))


class TestHorizontalLifts:
    def test_block_case_lift_is_coordinate_field(self):
        spec = curved_submersion(k=1.0, l=1.0)
        p = sample_points(spec.total.chart, 1)[0]
        np.testing.assert_allclose(horizontal_lift_at(spec, [1.0, 0.0], p),
                                   [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_linearity(self):
        spec = _submersion_from({
            "chart": {"coords": ["b", "u"], "box": [[-1.0, 1.0], [-1.0, 1.0]], "seed": 3},
            "metric": [["1", "0.3"], ["0.3", "2"]],
            "submersion": {"base": {
                "chart": {"coords": ["b"], "box": [[-1.0, 1.0]]},
                "metric": [["1"]],
            }},
            "checks": ["semi_riemannian_submersion"],
        })
        p = sample_points(spec.total.chart, 1)[0]
        left = horizontal_lift_at(spec, [2.0], p) + horizontal_lift_at(spec, [-0.5], p)
        right = horizontal_lift_at(spec, [1.5], p)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_lift_preserves_scalar_products(self):
        spec = curved_submersion(k=1.0, l=2.0)
        assert check_semi_riemannian_submersion(spec, sample_points(spec.total.chart, 25)).passed
        for p in sample_points(spec.total.chart, 5):
            g = spec.total.metric.value(p)
            base_g = spec.base.metric.value(p[:spec.base_dim])
            for a in range(2):
                for b in range(2):
                    lift_a = horizontal_lift_at(spec, np.eye(2)[a], p)
                    lift_b = horizontal_lift_at(spec, np.eye(2)[b], p)
                    assert abs(lift_a @ g @ lift_b - base_g[a, b]) <= 1e-9

    def test_ill_conditioned_solve_rejected(self):
        spec = _submersion_from({
            "chart": {"coords": ["b", "u1", "u2"], "box": [[-1.0, 1.0]] * 3, "seed": 3},
            "metric": [["1", "0", "0"], ["0", "1e4", "0"], ["0", "0", "1e-5"]],
            "submersion": {"base": {
                "chart": {"coords": ["b"], "box": [[-1.0, 1.0]]},
                "metric": [["1"]],
            }},
            "checks": ["semi_riemannian_submersion"],
        })
        with pytest.raises(SubmersionError, match="ill-conditioned"):
            horizontal_lift_at(spec, [1.0], np.zeros(3))
        with pytest.raises(SubmersionError, match="ill-conditioned"):
            check_semi_riemannian_submersion(spec, [np.full(3, 0.5), np.zeros(3)])


class TestSubmersionChecks:
    def test_curved_submersion_passes_all(self):
        for k, l in [(1.0, 1.0), (1.0, 2.0)]:
            spec = curved_submersion(k=k, l=l)
            pts = sample_points(spec.total.chart, 25)
            assert check_semi_riemannian_submersion(spec, pts).passed
            assert check_statistical_submersion(spec, pts).passed
            assert check_para_holomorphic(spec, pts).passed

    def test_scaled_base_metric_fails(self):
        data = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0), seed=23)
        base_metric = data["submersion"]["base"]["metric"]
        data["submersion"]["base"]["metric"] = [
            [entry if entry == "0" else f"2*({entry})" for entry in row] for row in base_metric
        ]
        spec = _submersion_from(data)
        result = check_semi_riemannian_submersion(spec, sample_points(spec.total.chart, 25))
        assert not result.passed
        assert result.residual > 10.0 * result.tolerance

    @staticmethod
    def _sheared_submersion(base_metric):
        """g = [[a + f², f], [f, 1]] with a = 2 + x², f = sin x: the horizontal lift of ∂x is
        ∂x − f ∂y, and g of it with itself is a."""
        return _submersion_from({
            "chart": {"coords": ["x", "y"], "box": [[-1.0, 1.0], [-1.0, 1.0]], "seed": 29},
            "metric": [["2 + x*x + sin(x)*sin(x)", "sin(x)"], ["sin(x)", "1"]],
            "submersion": {"base": {
                "chart": {"coords": ["x"], "box": [[-1.0, 1.0]]},
                "metric": [[base_metric]],
            }},
            "checks": ["semi_riemannian_submersion"],
        })

    def test_off_diagonal_metric_lifts_through_the_splitting(self):
        spec = self._sheared_submersion("2 + x*x")
        pts = sample_points(spec.total.chart, 25)
        lifts = spec.lifts.values(pts)[:, :, 0]
        np.testing.assert_allclose(lifts, np.stack([np.ones(25), -np.sin(pts[:, 0])], axis=1),
                                   rtol=0, atol=1e-15)
        assert check_semi_riemannian_submersion(spec, pts).passed
        perturbed = self._sheared_submersion("2.001 + x*x")
        assert check_semi_riemannian_submersion(perturbed, pts).status == STATUS_FAIL

    def test_metric_check_evaluates_no_connection(self):
        """g(X̃, Ỹ) = g'(X', Y')∘π reads g, the base metric and the basic lifts, and no connection."""
        data = submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5)
        spec = _without_connections(_submersion_from(data))
        result = check_semi_riemannian_submersion(spec, sample_points(spec.total.chart, 25))
        assert result.status == STATUS_PASS

    def test_dualized_base_connection_fails_when_parameters_differ(self):
        """Giving the base the conjugate coefficient family is only harmless at
        k = l; for k ≠ l the pushforward comparison must fail."""
        k, l = 1.0, 2.0
        data = submersion_manifest(2, 1, k, l, (1.0, 1.0), seed=23)
        star_y = "-2*k*k/(l*(k+l)*y1)"
        star_other = "-2*l/((k+l)*y1)"
        connection = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
        connection[1][0][0] = star_y
        connection[1][1][1] = star_other
        connection[0][0][1] = star_other
        connection[0][1][0] = star_other
        data["submersion"]["base"]["connection"] = connection
        spec = _submersion_from(data)
        result = check_statistical_submersion(spec, sample_points(spec.total.chart, 25))
        assert not result.passed

    def test_trivial_flat_product_passes(self):
        spec = flat_submersion(k=2.0)
        pts = sample_points(spec.total.chart, 10)
        assert check_semi_riemannian_submersion(spec, pts).passed
        assert check_statistical_submersion(spec, pts).passed
        assert check_para_holomorphic(spec, pts).passed

    def test_negated_base_structure_fails(self):
        data = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0), seed=23)
        product = data["submersion"]["base"]["product"]
        data["submersion"]["base"]["product"] = [
            [entry if entry == "0" else f"-({entry})" for entry in row] for row in product
        ]
        spec = _submersion_from(data)
        result = check_para_holomorphic(spec, sample_points(spec.total.chart, 25))
        assert not result.passed
        assert result.residual > 10.0 * result.tolerance

    def test_vertical_invariance_consequence(self):
        spec = curved_submersion(k=1.0, l=2.0)
        for p in sample_points(spec.total.chart, 10):
            v, h = projectors_at(spec, p)
            m = spec.total.product.value(p)
            assert np.max(np.abs(h @ m @ v)) <= 1e-10


class TestFundamentalTensors:
    def test_isometric_fibers(self):
        spec = curved_submersion(k=1.0, l=2.0)
        result = isometric_fibers_residual(spec, sample_points(spec.total.chart, 25))
        assert result.passed
        assert result.residual <= 1e-9

    def test_horizontal_tensor_vanishes_on_block_fixture(self):
        spec = curved_submersion(k=1.0, l=1.0)
        lifts = [HorizontalLiftField(spec, np.eye(2)[a]) for a in range(2)]
        for p in sample_points(spec.total.chart, 5):
            for x in lifts:
                for y in lifts:
                    tensors = oneill_tensors_at(spec, x, y, p)
                    assert np.max(np.abs(tensors.a)) <= 1e-9
                    assert np.max(np.abs(tensors.a_star)) <= 1e-9

    def test_flat_product_all_tensors_vanish(self):
        spec = flat_submersion()
        fields = [CoordinateBasisField(4, i) for i in range(4)]
        p = sample_points(spec.total.chart, 1)[0]
        for e in fields:
            for f in fields:
                tensors = oneill_tensors_at(spec, e, f, p)
                for arr in (tensors.t, tensors.a, tensors.t_star, tensors.a_star):
                    assert np.max(np.abs(arr)) <= 1e-14

    def test_warped_fixture_has_second_fundamental_form(self):
        """T(∂u, ∂u) = −e^{2b} ∂b for the warped fiber metric e^{2b} du²."""
        spec = warped_submersion()
        u = CoordinateBasisField(2, 1)
        point = np.array([0.0, 0.3])
        tensors = oneill_tensors_at(spec, u, u, point)
        np.testing.assert_allclose(tensors.t, [-1.0, 0.0], atol=1e-12)

    def test_tensoriality_in_both_slots(self):
        """Rescaling a field by 1 + (b − b(p)) leaves T and A at p unchanged."""
        spec = warped_submersion()
        point = np.array([0.2, -0.4])
        u = CoordinateBasisField(2, 1)
        x = CoordinateBasisField(2, 0)
        factor_components = ["0", "(1 + (b - c))"]
        scaled_u = ExpressionVectorField([
            parse_expression(text, ("b", "u"), {"c": point[0]}) for text in factor_components
        ])
        baseline = oneill_tensors_at(spec, u, u, point)
        for e_field, f_field in [(scaled_u, u), (u, scaled_u), (scaled_u, scaled_u)]:
            varied = oneill_tensors_at(spec, e_field, f_field, point)
            assert np.max(np.abs(varied.t - baseline.t)) <= 1e-8
            assert np.max(np.abs(varied.a - baseline.a)) <= 1e-8

    def test_expression_vector_field_jet_equals_eval2(self):
        coords = ("b", "u")
        field = ExpressionVectorField([parse_expression(text, coords)
                                       for text in ("b*u + exp(u)", "log(1 + b*b) - u/b")])
        points = sample_points(warped_submersion().total.chart, 5)
        for point in points:
            values, jacobian = field.jet(point)
            for k in range(2):
                reference = eval2(field.component(k), point)
                assert values[k] == reference.value
                assert np.array_equal(jacobian[:, k], reference.grad)
        fresh = ExpressionVectorField(field.grid)
        for point in points:
            assert list(fresh.vector(point)) == [eval_points(f, [point])[0] for f in field.grid.read]

    def test_identities_hold_on_fixtures(self):
        for spec in (curved_submersion(k=1.0, l=2.0), flat_submersion(), warped_submersion()):
            pts = sample_points(spec.total.chart, 10)
            result = check_fundamental_tensor_identities(spec, pts)
            assert result.passed, result.details

    def test_mismatched_dual_breaks_pairings(self):
        """With anything but the true conjugate as ∇*, the duality pairing
        g(T_U V, X) = −g(V, T*_U X) fails on the warped fixture."""
        spec = warped_submersion()
        pts = sample_points(spec.total.chart, 10)
        vars(spec.total)["conjugate"] = ExpressionField.constant(np.zeros((2, 2, 2)), ("b", "u"))
        result = check_fundamental_tensor_identities(spec, pts)
        assert not result.passed
        assert result.details["pairing_t"] > 10.0 * result.tolerance

    def test_residual_is_reduced_point_by_point(self):
        """The residual is the max over points of each point's own worst item over
        its own scale, and the raw residual is the worst point's own worst item."""
        spec = curved_submersion(seed=61)
        pts = sample_points(spec.total.chart, 25)
        alone = [check_fundamental_tensor_identities(spec, p[None]) for p in pts]
        result = check_fundamental_tensor_identities(spec, pts)
        worst = max(range(len(pts)), key=lambda i: (alone[i].residual, i))
        assert result.residual == alone[worst].residual
        assert result.raw_residual == alone[worst].raw_residual
        np.testing.assert_array_equal(result.worst_point, pts[worst])

    def test_structure_twisted_vertical_tensor(self):
        """T(U, P̂V) = P T(U, V) on the certified curved submersion."""
        spec = curved_submersion(k=1.0, l=2.0)
        verticals = [CoordinateBasisField(4, i) for i in (2, 3)]
        for p in sample_points(spec.total.chart, 5):
            m = spec.total.product.value(p)
            for u in verticals:
                for w in verticals:
                    plain = oneill_tensors_at(spec, u, w, p).t
                    twisted = oneill_tensors_at(
                        spec, u, StructureImageField(spec.total.product, w), p).t
                    assert np.max(np.abs(twisted - m @ plain)) <= 1e-8

    def test_basic_lift_brackets_vanish_in_block_case(self):
        spec = curved_submersion(k=1.0, l=2.0)
        lifts = [HorizontalLiftField(spec, np.eye(2)[a]) for a in range(2)]
        for p in sample_points(spec.total.chart, 5):
            v, _ = projectors_at(spec, p)
            for x in lifts:
                for y in lifts:
                    assert np.max(np.abs(v @ lie_bracket_at(x, y, p))) <= 1e-12

    def test_expression_field_bracket(self):
        # [x ∂y, ∂x] = −∂y
        x_dy = ExpressionVectorField([
            parse_expression("0", ("x", "y")), parse_expression("x", ("x", "y"))])
        dx = CoordinateBasisField(2, 0)
        np.testing.assert_allclose(lie_bracket_at(x_dy, dx, np.array([0.7, -0.1])),
                                   [0.0, -1.0], atol=1e-15)


ORACLE_SPECS = {
    "curved_k_eq_l": lambda: curved_submersion(k=1.0, l=1.0),
    "curved_k_ne_l": lambda: curved_submersion(k=1.0, l=2.0),
    "flat": flat_submersion,
    "warped": warped_submersion,
    "curved_3_to_1": lambda: curved_submersion(total_pairs=3, base_pairs=1, k=1.0, l=2.0,
                                               epsilons=(1.0, 1.0, 1.0)),
}


ORACLE_ATOL = 1e-12
TENSOR_NAMES = ("t", "a", "t_star", "a_star")


def _arrays(spec, pts):
    """The spec's projectors, basic lifts (L, dL) and fundamental tensors at ``pts``, by name."""
    v = spec.vertical.jets(pts)[0]
    lifts, dlifts = spec.lifts.jets(pts)
    return types.SimpleNamespace(v=v, h=np.eye(spec.total_dim) - v, L=lifts, dL=dlifts,
                                 **{name: tensor.values(pts) for name, tensor in spec.tensors.items()})


def _assert_matches_oracle(arrays, index, oracle, contract=lambda arr: arr):
    for name in TENSOR_NAMES:
        np.testing.assert_allclose(contract(getattr(arrays, name)[index]), getattr(oracle, name),
                                   rtol=0.0, atol=ORACLE_ATOL, err_msg=name)


class TestOneillTensorsAgainstFieldPairs:
    """The batched coordinate arrays of the spec's fields agree with the independent field-pair path."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_coordinate_pairs(self, name):
        spec = ORACLE_SPECS[name]()
        pts = sample_points(spec.total.chart, 3)
        arrays = _arrays(spec, pts)
        n = spec.total_dim
        for index, p in enumerate(pts):
            v, h = projectors_at(spec, p)
            np.testing.assert_allclose(arrays.v[index], v, rtol=0.0, atol=ORACLE_ATOL)
            np.testing.assert_allclose(arrays.h[index], h, rtol=0.0, atol=ORACLE_ATOL)
            for i in range(n):
                for j in range(n):
                    oracle = oneill_tensors_at(
                        spec, CoordinateBasisField(n, i), CoordinateBasisField(n, j), p)
                    _assert_matches_oracle(arrays, (index, slice(None), i, j), oracle)

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_basic_lift_pairs(self, name):
        spec = ORACLE_SPECS[name]()
        pts = sample_points(spec.total.chart, 3)
        arrays = _arrays(spec, pts)
        nb = spec.base_dim
        lifts = [HorizontalLiftField(spec, np.eye(nb)[a]) for a in range(nb)]
        for index, p in enumerate(pts):
            lift_matrix = arrays.L[index]
            for a, x in enumerate(lifts):
                values, jacobian = x.jet(p)
                np.testing.assert_allclose(lift_matrix[:, a], values, rtol=0.0, atol=ORACLE_ATOL)
                np.testing.assert_allclose(arrays.dL[index, :, :, a], jacobian,
                                           rtol=0.0, atol=ORACLE_ATOL)
                for b, y in enumerate(lifts):
                    oracle = oneill_tensors_at(spec, x, y, p)
                    _assert_matches_oracle(
                        arrays, index, oracle,
                        lambda arr, a=a, b=b: arr @ lift_matrix[:, b] @ lift_matrix[:, a])

    def test_structure_image_pair(self):
        spec = curved_submersion(k=1.0, l=2.0)
        p = sample_points(spec.total.chart, 1)[0]
        arrays = _arrays(spec, [p])
        m = spec.total.product.value(p)
        u, w = 2, 3
        oracle = oneill_tensors_at(
            spec,
            StructureImageField(spec.total.product, CoordinateBasisField(4, u)),
            StructureImageField(spec.total.product, CoordinateBasisField(4, w)),
            p,
        )
        _assert_matches_oracle(arrays, 0, oracle, lambda arr: arr @ m[:, w] @ m[:, u])

    def test_dual_connection_override(self):
        """A ∇* injected into the total space before first use is the one T* and A* use."""
        spec = warped_submersion()
        vars(spec.total)["conjugate"] = ExpressionField.constant(np.zeros((2, 2, 2)), ("b", "u"))
        pts = sample_points(spec.total.chart, 3)
        arrays = _arrays(spec, pts)
        default = _arrays(warped_submersion(), pts)
        assert np.max(np.abs(arrays.t_star - default.t_star)) > 1e-3
        for index, p in enumerate(pts):
            for i in range(2):
                for j in range(2):
                    oracle = oneill_tensors_at(spec, CoordinateBasisField(2, i),
                                               CoordinateBasisField(2, j), p)
                    _assert_matches_oracle(arrays, (index, slice(None), i, j), oracle)

    def test_arrays_are_read_only_and_served_from_the_store(self):
        spec = curved_submersion(k=1.0, l=2.0)
        pts = sample_points(spec.total.chart, 4)

        def read(points):
            return {"vertical": spec.vertical.jets(points), "lifts": spec.lifts.jets(points),
                    **{name: (tensor.values(points),) for name, tensor in spec.tensors.items()}}

        arrays = read(pts)
        for name, parts in arrays.items():
            for part in parts:
                assert not part.flags.writeable, name
                with pytest.raises(ValueError):
                    part[...] = 0.0
        again = read(pts.copy())
        assert all(part is stored for name in arrays
                   for part, stored in zip(again[name], arrays[name], strict=True))

    @pytest.mark.parametrize("fiber, match", [(("1e-12", "1e-12"), "degenerate"),
                                              (("1e4", "1e-5"), "ill-conditioned")])
    def test_bad_fiber_metric_rejected(self, fiber, match):
        spec = _submersion_from({
            "chart": {"coords": ["b", "u1", "u2"], "box": [[-1.0, 1.0]] * 3, "seed": 3},
            "metric": [["1", "0", "0"], ["0", fiber[0], "0"], ["0", "0", fiber[1]]],
            "submersion": {"base": {
                "chart": {"coords": ["b"], "box": [[-1.0, 1.0]]},
                "metric": [["1"]],
            }},
            "checks": ["semi_riemannian_submersion"],
        })
        pts = [np.full(3, 0.5), np.zeros(3)]
        for field in (spec.lifts, *spec.tensors.values()):
            with pytest.raises(SubmersionError, match=match):
                field.values(pts)
        with pytest.raises(SubmersionError, match=match):
            spec.fiber.connection.values(sample_points(spec.fiber.chart, 5))

        unevaluated = _without_connections(spec)
        for check in (check_semi_riemannian_submersion, check_statistical_submersion,
                      isometric_fibers_residual, check_fundamental_tensor_identities):
            with pytest.raises(SubmersionError, match=match):
                check(unevaluated, pts)


class TestInducedFiber:
    def test_curved_fiber_certifies(self):
        spec = curved_submersion(k=1.0, l=2.0)
        pts = sample_points(spec.fiber.chart, 25)
        fiber = induced_fiber_manifold(spec, pts)
        assert check_para_kahler_like(fiber, pts).passed

    def test_fiber_metric_matches_standalone_fixture(self):
        """The fiber over any base point is the one-pair curved fixture itself."""
        from conftest import curved_manifold

        spec = curved_submersion(k=1.0, l=2.0)
        pts = sample_points(spec.fiber.chart, 10)
        fiber = induced_fiber_manifold(spec, pts)
        standalone = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        for p in pts:
            np.testing.assert_allclose(fiber.metric.value(p), standalone.metric.value(p),
                                       atol=1e-14)
            np.testing.assert_allclose(fiber.connection.value(p),
                                       standalone.connection.value(p), atol=1e-12)

    def test_induced_connections_are_conjugate(self):
        spec = curved_submersion(k=1.0, l=2.0)
        pts = sample_points(spec.fiber.chart, 10)
        fiber = induced_fiber_manifold(spec, pts)
        induced_dual = FiberRestriction(VerticalPart(spec.vertical, spec.total.conjugate),
                                        spec.base.chart.center)
        dual = fiber.conjugate
        for p in pts:
            defect = dual.value(p) - induced_dual.value(p)
            assert np.max(np.abs(defect)) <= 1e-9

    def test_flat_product_fiber_is_flat(self):
        spec = flat_submersion(k=2.0)
        pts = sample_points(spec.fiber.chart, 5)
        fiber = induced_fiber_manifold(spec, pts)
        for p in pts:
            assert np.max(np.abs(fiber.connection.value(p))) <= 1e-14
            assert np.max(np.abs(curvature_tensor(*fiber.connection.jet(p)))) <= 1e-12

    def test_pair_crossing_structure_rejected(self):
        """A structure swapping the two pairs moves vertical vectors out of the
        fiber and must be flagged."""
        data = flat_product_manifest(2, 1.0, (1.0, 1.0), seed=19)
        crossing = [["0"] * 4 for _ in range(4)]
        crossing[0][2] = crossing[2][0] = "1"
        crossing[1][3] = crossing[3][1] = "1"
        data["product"] = crossing
        base = flat_product_manifest(1, 1.0, (1.0,), seed=19)
        data["submersion"] = {"base": {
            key: base[key] for key in ("chart", "params", "metric", "connection", "product")
        }}
        spec = _submersion_from(data)
        with pytest.raises(SubmersionError, match="vertical"):
            induced_fiber_manifold(spec, sample_points(spec.fiber.chart, 25))

    @pytest.fixture
    def plan_sizes(self, monkeypatch):
        """The number of roots of every expr.Plan made while the test runs."""
        sizes = []

        class CountingPlan(ex.Plan):
            def __init__(self, roots):
                sizes.append(len(roots))
                super().__init__(roots)

        monkeypatch.setattr(ex, "Plan", CountingPlan)
        return sizes

    def test_fiber_fields_read_the_total_jets(self, plan_sizes):
        """ĝ and P̂ are the total jets at the embedded points, cut to the fiber and laid out
        as a fresh field's; they walk only the total fields' plans."""
        spec = build_context(load_fixture("example_5_6_k1_l1")).submersion
        nb = spec.base_dim
        points = sample_points(spec.fiber.chart, 7)
        embedded = np.hstack([np.broadcast_to(spec.base.chart.center, (7, nb)), points])
        plan_sizes.clear()
        for total, restricted in ((spec.total.metric, spec.fiber.metric),
                                  (spec.total.product, spec.fiber.product)):
            for part, whole in zip(restricted.jets(points), total.jets(embedded), strict=True):
                assert np.array_equal(part, _fiber_block(whole, nb))
                assert part.flags.c_contiguous
        # the varying entries of the total metric's upper triangle; P is all constant
        assert plan_sizes == [4]

    def test_plans_per_run(self, plan_sizes):
        """One walk plan per parsed grid with a varying component, made on the first run and
        kept on the grid, so the second run makes none; none for the fiber's fields."""
        manifest = load_fixture("example_5_6_k1_l1", known_checks=set(CHECKS))
        plans = []
        for _ in range(2):
            plan_sizes.clear()
            report = run_suite(manifest)
            assert all(check.status != STATUS_ERROR for check in report.checks)
            plans.append(len(plan_sizes))
        # total g, ∇ and base g, ∇; P and the base's P are all constant, and ĝ and
        # P̂ read the total g and P
        assert plans == [4, 0]

    def test_derived_structure_is_restricted(self):
        """P̂ of an adjoint structure is the fiber block of P* at the embedded points."""
        spec = curved_submersion(k=1.0, l=2.0)
        derived = AdjointStructure(spec.total.metric, spec.total.product)
        derived_spec = SubmersionSpec(total=dataclasses.replace(spec.total, product=derived),
                                      base=spec.base)
        nb = derived_spec.base_dim
        points = sample_points(derived_spec.fiber.chart, 10)
        fiber = induced_fiber_manifold(derived_spec, points)
        embedded = np.hstack([np.broadcast_to(spec.base.chart.center, (10, nb)), points])
        reference = AdjointStructure(spec.total.metric, spec.total.product).jets(embedded)
        for part, whole in zip(fiber.product.jets(points), reference, strict=True):
            assert np.array_equal(part, _fiber_block(whole, nb))
        assert check_almost_product(fiber.product, points).passed

    @pytest.mark.parametrize("build", [
        lambda: build_context(load_fixture("example_5_6_k1_l1")).submersion,
        lambda: build_context(load_fixture("example_5_6_k1_l2")).submersion,
        lambda: curved_submersion(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0)),
        lambda: curved_submersion(4, 2, 1.0, 2.0, (1.0, 1.0, 1.0, 1.0)),
        dense_submersion,
    ], ids=["example_5_6_k1_l1", "example_5_6_k1_l2", "curved_3to1", "curved_4to2", "dense_1plus3"])
    @pytest.mark.parametrize("values_first", [False, True], ids=["jets", "values_then_jets"])
    def test_induced_connections_are_the_vertical_part_on_the_fiber(self, build, values_first):
        """∇̂ and the induced dual are, bit for bit, the fiber rows S of v times the fiber
        block of Γ (or Γ*) at the embedded points, with ∂Γ̂ = ∂S Γ + S ∂Γ on fiber indices."""
        spec = build()
        nb, count, center = spec.base_dim, 40, spec.base.chart.center
        points = sample_points(spec.fiber.chart, count)
        embedded = np.hstack([np.broadcast_to(center, (count, nb)), points])
        induced_dual = FiberRestriction(VerticalPart(spec.vertical, spec.total.conjugate), center)
        induced = [(spec.total.resolved_connection, spec.fiber.connection),
                   (spec.total.conjugate, induced_dual)]
        for connection, hat in induced:
            if values_first:
                hat.values(points)
            v, dv = spec.vertical.jets(embedded)
            gamma, dgamma = connection.jets(embedded)
            rows, block = v[:, nb:], gamma[:, :, nb:, nb:]
            expected = (np.einsum("pck,pkab->pcab", rows, block),
                        np.einsum("pdck,pkab->pdcab", dv[:, nb:, nb:], block)
                        + np.einsum("pck,pdkab->pdcab", rows, dgamma[:, nb:, :, nb:, nb:]))
            for part, reference in zip(hat.jets(points), expected, strict=True):
                assert np.array_equal(part, reference)
                assert np.array_equal(np.signbit(part), np.signbit(reference))

    @pytest.mark.parametrize("fixture", fixture_ids())
    def test_every_stored_batch_has_the_runs_row_count(self, monkeypatch, fixture):
        """A 10-point run stores 10-row batches only, besides the box centers validation reads.

        The leak of P out of the vertical space was tested on a private
        25-point batch, which stayed in the total structure's store.
        """
        manifest = load_fixture(fixture, known_checks=set(CHECKS))
        ctx = build_context(manifest)
        charts = [ctx.chart] + ([ctx.submersion.base.chart] if ctx.submersion else [])
        centers = {chart.center[None].tobytes() for chart in charts}
        rows = []
        lookup = PointJets._lookup

        def record(self, pts, full):
            if pts.tobytes() not in centers:
                rows.append(len(pts))
            return lookup(self, pts, full)

        monkeypatch.setattr(PointJets, "_lookup", record)
        report = run_suite(manifest, points=10)
        assert all(check.status != STATUS_ERROR for check in report.checks)
        assert set(rows) == {10}


class TestTheoremReport:
    def test_equal_parameters_report(self):
        """Regression pins for k = l: every transfer item passes and the flat
        decomposition stays NOT-APPLICABLE (the total space is curved)."""
        spec = curved_submersion(k=1.0, l=1.0)
        items = verify_submersion_theorems(spec, sample_points(spec.total.chart, 15))
        for name in ("fiber_structure", "base_and_fiber_certified", "vertical_symmetry",
                     "horizontal_vanishing", "horizontal_integrability"):
            assert items[name].status == STATUS_PASS, name
        assert items["flat_decomposition"].status == STATUS_NOT_APPLICABLE
        assert all(item.status != STATUS_FAIL for item in items.values())

    def test_distinct_parameters_report(self):
        """Regression pins for k ≠ l: rank(P̂ + P̂*) stays full so the horizontal
        tensors must vanish, while self-adjointness (and with it the
        integrability shortcut) is lost."""
        spec = curved_submersion(k=1.0, l=2.0)
        items = verify_submersion_theorems(spec, sample_points(spec.total.chart, 15))
        assert items["horizontal_vanishing"].status == STATUS_PASS
        assert items["horizontal_vanishing"].details["rank"] == 2.0
        assert items["horizontal_integrability"].status == STATUS_NOT_APPLICABLE
        assert items["vertical_symmetry"].status == STATUS_PASS

    def test_vertical_symmetry_matches_field_pair_oracle(self):
        """On the warped fixture with P = diag(5, 2), T(P̂U, P̂V) − T(U, V) is
        not zero, and its residual is scaled by the whole structure matrix."""
        spec = _submersion_from({
            "chart": {"coords": ["b", "u"], "box": [[-1.0, 1.0], [-1.0, 1.0]], "seed": 17},
            "metric": [["1", "0"], ["0", "exp(2*b)"]],
            "connection": [[["0", "0"], ["0", "-exp(2*b)"]], [["0", "1"], ["1", "0"]]],
            "product": [["5", "0"], ["0", "2"]],
            "submersion": {"base": {
                "chart": {"coords": ["b"], "box": [[-1.0, 1.0]]},
                "metric": [["1"]],
                "connection": [[["0"]]],
                "product": [["5"]],
            }},
            "checks": ["semi_riemannian_submersion"],
        })
        pts = sample_points(spec.total.chart, 5)
        u = CoordinateBasisField(2, 1)
        twisted_u = StructureImageField(spec.total.product, u)
        expected = max(
            np.max(np.abs(oneill_tensors_at(spec, twisted_u, twisted_u, p).t
                          - oneill_tensors_at(spec, u, u, p).t))
            / (1.0 + np.max(np.abs(spec.total.product.value(p))))
            for p in pts
        )
        items = verify_submersion_theorems(spec, pts)
        assert items["vertical_symmetry"].status == "FAIL"
        assert items["vertical_symmetry"].residual == pytest.approx(expected, rel=1e-12)

    def test_nan_base_curvature_fails_flat_decomposition(self):
        """An infinite base curvature residual FAILs, even under an infinite tolerance."""
        spec = flat_submersion()
        spec = SubmersionSpec(spec.total, dataclasses.replace(spec.base, connection=NaNConnection(2)))
        items = verify_submersion_theorems(spec, sample_points(spec.total.chart, 5), math.inf)
        assert items["flat_decomposition"].status == STATUS_FAIL
        assert items["flat_decomposition"].residual == math.inf

    def test_flat_product_report_all_pass(self):
        spec = flat_submersion(k=1.0)
        items = verify_submersion_theorems(spec, sample_points(spec.total.chart, 15))
        for name, item in items.items():
            assert item.status == STATUS_PASS, (name, item.reason)
        assert items["flat_decomposition"].details["space_form_constant"] == pytest.approx(
            0.0, abs=1e-12)
