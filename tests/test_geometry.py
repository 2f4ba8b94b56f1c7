"""Charts, metrics, connections, conjugation, and curvature checks."""

import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import (
    curved_manifold,
    curved_submersion,
    dense_submersion,
    fd_curvature,
    fd_levi_civita,
    flat_manifold,
    relative_deviation,
)
from statgeom.geometry import (
    AdjointStructure,
    ChartError,
    ChartSpec,
    ConjugateConnection,
    DegeneratePlaneError,
    ExpressionField,
    LeviCivitaConnection,
    ManifoldSpec,
    MetricError,
    MetricField,
    check_dual_curvature_identity,
    check_statistical_structure,
    curvature_tensor,
    fit_kurose_constant,
    metric_signature,
    residual_check,
    sample_points,
    sectional_curvature,
    statistical_curvature_at,
    validate_metric_on_chart,
)
from statgeom import build_context, parse_manifest, run_suite
from statgeom import expr as ex
from statgeom.expfam import AlphaConnection, builtin_model, exp_para_structures
from statgeom.expr import Const, ScalarField, eval2_points, parse_expression
from statgeom.fixtures import curved_product_manifest, fixture_ids, load_fixture
from statgeom.submersion import FiberRestriction, VerticalPart, _fiber_blocks


class TestSampling:
    def test_deterministic_and_interior(self):
        chart = ChartSpec(("x",), ((0.0, 1.0),), seed=42)
        pts = sample_points(chart, 3)
        assert pts.shape == (3, 1)
        assert np.all(pts > 0.01) and np.all(pts < 0.99)
        np.testing.assert_array_equal(pts, sample_points(chart, 3))

    def test_two_dimensional_box(self):
        chart = ChartSpec(("a", "b"), ((0.5, 2.0), (0.5, 2.0)), seed=7)
        p = sample_points(chart, 1)[0]
        assert p.shape == (2,)
        assert np.all(p > 0.5) and np.all(p < 2.0)

    def test_same_inputs_bitwise_identical(self):
        chart = ChartSpec(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), seed=123)
        first = sample_points(chart, 50)
        second = sample_points(chart, 50)
        assert first.tobytes() == second.tobytes()

    def test_empty_box_rejected(self):
        with pytest.raises(ChartError, match="empty"):
            ChartSpec(("x",), ((1.0, 1.0),))

    @pytest.mark.parametrize("bound", [(-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_box_rejected(self, bound):
        with pytest.raises(ChartError, match="non-finite"):
            ChartSpec(("x",), (bound,))

    def test_overflowing_box_rejected(self):
        """Finite bounds whose width overflows would make ``sample_points`` raise at run time."""
        with pytest.raises(ChartError, match=r"\[-1e\+308, 1e\+308\] for coordinate 'x' is too wide"):
            ChartSpec(("x",), ((-1e308, 1e308),))
        assert sample_points(ChartSpec(("x",), ((-1e307, 1e307),)), 3).shape == (3, 1)

    def test_count_must_be_positive(self):
        chart = ChartSpec(("x",), ((0.0, 1.0),))
        with pytest.raises(ValueError):
            sample_points(chart, 0)


class TestMetric:
    def test_flat_pair_matrix(self):
        # metric eps*(k dx² − dy²) with k = 2, eps = 1
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        g = m.metric.value([0.3, -0.2])
        np.testing.assert_allclose(g, np.diag([2.0, -1.0]), atol=0)

    def test_curved_pair_matrix_at_unit_height(self):
        m = curved_manifold(pairs=1, k=1.0, l=1.0, epsilons=(1.0,))
        g = m.metric.value([0.0, 1.0])
        np.testing.assert_allclose(g, np.diag([1.0, -1.0]), atol=0)

    def test_singular_metric_rejected(self):
        g = MetricField.from_strings(("x", "y"), [["1", "1"], ["1", "1"]])
        with pytest.raises(MetricError, match="singular"):
            LeviCivitaConnection(g).value([0.0, 0.0])

    # each field derived through G⁻¹, built over the metric g
    @pytest.mark.parametrize("derive", [
        LeviCivitaConnection,
        lambda g: ConjugateConnection(g, ExpressionField.constant(np.zeros((2, 2, 2)), ("x", "y"))),
        lambda g: AdjointStructure(g, ExpressionField.constant([[0, 1], [1, 0]], ("x", "y"))),
        lambda g: AlphaConnection(g, 0.5),
    ], ids=["levi_civita", "conjugate", "adjoint", "alpha"])
    @pytest.mark.parametrize("x", [0.0, 1e-300], ids=["det_0", "det_1e-300"])
    def test_every_inverse_rejects_a_singular_metric(self, derive, x):
        """g = diag(x, 1): a det of 0 or 1e-300 raises MetricError naming it, never inf or LinAlgError."""
        field = derive(MetricField.from_strings(("x", "y"), [["x", "0"], ["0", "1"]]))
        with pytest.raises(MetricError, match=re.escape(f"singular metric (det {x:.3e})")):
            field.values([x, 0.5])
        with pytest.raises(MetricError, match="singular metric"):
            derive(MetricField.from_strings(("x", "y"), [["x", "0"], ["0", "1"]])).jets([x, 0.5])

    def test_well_conditioned_metric_of_dimension_12_is_not_singular(self):
        """det ≈ 0.066 with cond(G) ≈ 21 at a sample: a cutoff scaled by max |g|ⁿ (here about
        0.1) refused it; one relative to the largest singular value does not."""
        manifest = parse_manifest(curved_product_manifest(6, 1.0, 2.0, [1.0] * 6, seed=3))
        report = run_suite(manifest, points=100)
        assert report.checks
        assert [check.reason for check in report.checks if check.status == "ERROR"] == []

    @pytest.mark.parametrize("n, c", [(8, 20.0), (12, 3.0)])
    def test_dense_well_conditioned_metric_is_not_singular(self, n, c):
        """G = I + c·11ᵀ has det = cond(G) = 1 + nc (161 and 37): a cutoff scaled by a product of
        row norms, which grows up to n^(n/2) times faster than det, refused both."""
        g = np.eye(n) + c
        metric = MetricField.constant(g, [f"x{i}" for i in range(n)])
        chart = ChartSpec(tuple(f"x{i}" for i in range(n)), ((-1.0, 1.0),) * n, seed=3)
        assert validate_metric_on_chart(metric, chart) == (n, 0)
        np.testing.assert_array_equal(metric.inverse.values(np.zeros(n))[0], np.linalg.inv(g))
        gvv, _ = _fiber_blocks(g[None], 1)
        assert gvv.shape == (1, n - 1, n - 1)

    def test_signature(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, -1.0))
        assert metric_signature(m.metric, sample_points(m.chart, 1)[0]) == (2, 2)

    def test_signature_must_be_constant(self):
        g = MetricField.from_strings(("x",), [["x"]])
        chart = ChartSpec(("x",), ((-1.0, 1.0),), seed=3)
        with pytest.raises(MetricError):
            validate_metric_on_chart(g, chart)

    @pytest.mark.parametrize("points, message", [
        ([[2.0], [0.0], [-0.5]], "singular metric (det 0.000e+00) at point [0.0]"),
        ([[2.0], [-0.5], [-1.0]], "metric signature (0, 1) at [-0.5] differs from (1, 0)"),
        ([[2.0], [-0.5], [0.0]], "metric signature (0, 1) at [-0.5] differs from (1, 0)"),
    ])
    def test_validation_names_first_failing_point(self, points, message):
        g = MetricField.from_strings(("x",), [["x"]])
        chart = ChartSpec(("x",), ((-1.0, 3.0),))
        with pytest.raises(MetricError) as err:
            validate_metric_on_chart(g, chart, points)
        assert message in str(err.value)

    def test_symmetric_storage(self):
        g = MetricField.from_strings(("x", "y"), [["1", "x"], ["x", "1"]])
        assert g.component(0, 1) is g.component(1, 0)


def _xy(text):
    return parse_expression(text, ("x", "y"))


class TestExpressionField:
    @pytest.mark.parametrize("build", [
        lambda: MetricField([[_xy("1"), _xy("x")]]),
        lambda: ExpressionField([[_xy("1"), _xy("0")], [_xy("0"), _xy("1")],
                                 [_xy("0"), _xy("0")]]),
        lambda: ExpressionField([[[_xy("x"), _xy("0")], [_xy("0"), _xy("y")]],
                                 [[_xy("x"), _xy("0")], [_xy("0")]]]),
        lambda: MetricField([[_xy("1"), _xy("0")], [_xy("0"), parse_expression("x", ("x",))]]),
        lambda: ExpressionField([[[_xy("x")]]]),
        lambda: ExpressionField.constant(np.zeros((2, 3)), ("x", "y")),
    ], ids=["non_square_metric", "non_square_product", "ragged_connection_plane",
            "mixed_arity", "arity_differs_from_dimension", "non_square_constant"])
    def test_malformed_grid_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_symmetric_grid_reads_the_upper_triangle(self):
        g = MetricField([[_xy("1"), _xy("x*y")], [_xy("7"), _xy("2")]])
        assert g.component(1, 0) is g.component(0, 1)
        np.testing.assert_array_equal(g.value([2.0, 3.0]), [[1.0, 6.0], [6.0, 2.0]])

    @pytest.mark.parametrize("values", [[[0, 1], [1, 0]], np.arange(8.0).reshape(2, 2, 2)],
                             ids=["rank_2", "rank_3"])
    def test_constant_grid_of_any_rank(self, values):
        field = ExpressionField.constant(values, ("x", "y"))
        value, derivative = field.jets([[0.3, -0.4], [1.5, 2.0]])
        assert value.tolist() == [np.asarray(values, dtype=float).tolist()] * 2
        assert derivative.shape == (2, 2) + np.shape(values) and not derivative.any()

    def test_constant_grid_keeps_negative_zeros(self):
        values = np.array([[-0.0, 0.0], [1.0, -0.0]])
        field = ExpressionField.constant(values, ("x", "y"))
        assert np.signbit(field.values([[0.3, -0.4], [1.5, 2.0]])).tolist() == [
            np.signbit(values).tolist()] * 2


def _expression_fields():
    """(label, field, points) for every grid of the shipped fixtures (a submersion's base and
    a model's involution among them) and of the 4-pair curved product, and for two larger
    Fisher metrics."""
    manifests = [(fixture_id, load_fixture(fixture_id)) for fixture_id in fixture_ids()]
    manifests.append(("curved_product_4pair",
                      parse_manifest(curved_product_manifest(4, 1.0, 2.0, [1.0] * 4))))
    for label, manifest in manifests:
        ctx = build_context(manifest)
        if ctx.model is not None:
            points = sample_points(ctx.chart, 6)
            yield label, ctx.model.fisher, points
            if ctx.involution is not None:
                yield label, exp_para_structures(ctx.model, ctx.involution)[0], points
            continue
        specs = (ctx.manifold,) if ctx.submersion is None else (ctx.manifold, ctx.submersion.base)
        for spec in specs:
            points = sample_points(spec.chart, 6)
            for field in (spec.metric, spec.connection, spec.product):
                if isinstance(field, ExpressionField):
                    yield label, field, points
    for name, hyper in (("dirichlet", {"dim": 4}), ("multinomial", {"categories": 5})):
        model = builtin_model(name, **hyper)
        yield name, model.fisher, sample_points(model.chart, 6)


def _assembled_alone(field, points, order):
    """The jets of ``field`` up to ``order``, filled slot by slot: each component walked
    alone through :func:`expr.eval_fields`, a structural zero written as 0.0."""
    count, n = points.shape
    parts = tuple(np.empty((count,) + (n,) * derivatives + field.grid.shape)
                  for derivatives in range(order + 1))
    for index in np.ndindex(field.grid.shape):
        def write(_, jets, index=index):
            for part, jet in zip(parts, jets):
                part[(...,) + index] = 0.0 if jet is None else jet

        ex.eval_fields([field.component(*index)], points, order, write)
    return parts


class TestGridWalk:
    """A grid's components go through one walk; each equals its own evaluation bit for bit."""

    def test_jets_equal_the_grid_filled_slot_by_slot(self):
        """The template of the constant components and the zero-filled derivative arrays
        change no bit, sign bits included, of any grid's jets or values."""
        labels, constants = set(), 0
        for label, field, points in _expression_fields():
            constants += sum(isinstance(f.root, Const) for f in field.grid.read)
            for full, order in ((True, field.order), (False, 0)):
                fresh = type(field)(field.grid)
                parts = fresh.jets(points) if full else (fresh.values(points),)
                for part, expected in zip(parts, _assembled_alone(field, points, order),
                                          strict=True):
                    assert np.array_equal(part, expected), label
                    assert np.array_equal(np.signbit(part), np.signbit(expected)), label
                    assert part.flags.c_contiguous, label
            labels.add(label)
        assert set(fixture_ids()) | {"curved_product_4pair"} < labels
        assert constants > 0

    def test_jets_equal_each_component_alone(self):
        labels = set()
        for label, field, points in _expression_fields():
            jets = field.jets(points)
            assert len(jets) == field.order + 1
            for index in np.ndindex(field.grid.shape):
                alone = eval2_points(field.component(*index), points)
                for part, expected in zip(jets, alone):
                    assert np.ascontiguousarray(part[(...,) + index]).tobytes() == expected.tobytes()
            values = type(field)(field.grid).values(points)  # fresh store: the values-only walk
            assert values.tobytes() == jets[0].tobytes()
            labels.add(label)
        assert {"example_5_5_dirichlet", "dirichlet", "multinomial"} < labels

    def test_each_distinct_psi_subtree_is_evaluated_once(self, monkeypatch):
        """The dirichlet(4) Fisher metric holds 28 Psi nodes but 5 distinct subtrees,
        trigamma of each coordinate and of their sum; each takes orders 1-3 once per point."""
        model = builtin_model("dirichlet", dim=4)
        metric = model.fisher
        points = sample_points(model.chart, 7)
        calls = []
        real = ex.polygamma
        monkeypatch.setattr(ex, "polygamma", lambda order, x: calls.append(order) or real(order, x))
        metric._batch_jets(points, True)
        assert sorted(calls) == sorted([1, 2, 3] * 5 * len(points))

    def test_values_call_polygamma_at_the_value_order_only(self, monkeypatch):
        """The dirichlet(4) Fisher metric's values form no derivative factor: one trigamma
        per distinct Psi subtree and point, and no ψ₂ or ψ₃."""
        model = builtin_model("dirichlet", dim=4)
        metric = model.fisher
        points = sample_points(model.chart, 7)
        calls = []
        real = ex.polygamma
        monkeypatch.setattr(ex, "polygamma", lambda order, x: calls.append(order) or real(order, x))
        metric.values(points)
        assert calls == [1] * 5 * len(points)

    def test_signed_zeros_stay_apart(self):
        zero, negative = (ScalarField(Const(v), 2, ("x", "y")) for v in (0.0, -0.0))
        g = MetricField([[zero, negative], [negative, zero]])
        with np.errstate(divide="ignore"):
            np.testing.assert_array_equal(np.sign(1.0 / g.value([1.0, 2.0])), [[1.0, -1.0], [-1.0, 1.0]])

    @pytest.mark.parametrize("entries, points, method, message", [
        # the second component, log(x), fails at the third point; the third at the fourth
        ([["1", "log(x)"], ["log(x)", "1/(y - 1)"]],
         [[1.0, 2.0], [2.0, 2.0], [-1.0, 2.0], [1.0, 1.0]], "jets",
         "log of non-positive value -1.0 at point [-1.0, 2.0]"),
        ([["1", "log(x)"], ["log(x)", "1/(y - 1)"]],
         [[1.0, 2.0], [2.0, 2.0], [-1.0, 2.0], [1.0, 1.0]], "values",
         "log of non-positive value -1.0 at point [-1.0, 2.0]"),
        # the walk meets the third component, non-finite at the second point, inside
        # the second first; the message is still the second component's
        ([["1", "1/(exp(y)*1e308) + log(x)"], ["1/(exp(y)*1e308) + log(x)", "exp(y)*1e308"]],
         [[1.0, -1.0], [2.0, 1.0], [-1.0, -1.0]], "values",
         "log of non-positive value -1.0 at point [-1.0, -1.0]"),
        ([["1", "1/(exp(y)*1e308) + log(x)"], ["1/(exp(y)*1e308) + log(x)", "exp(y)*1e308"]],
         [[1.0, -1.0], [2.0, 1.0], [-1.0, -1.0]], "jets",
         "non-finite derivative data at point [2.0, 1.0]"),
    ])
    def test_failure_names_the_first_failing_component(self, entries, points, method, message):
        g = MetricField.from_strings(("x", "y"), entries)
        with pytest.raises(ex.EvaluationError) as err:
            getattr(g, method)(np.array(points))
        assert str(err.value) == message

    def test_non_finite_constant_names_its_point(self):
        """A connection component 1e309 parses to Const(inf), which the template holds; the
        checked walk over every component still names the failure and its point."""
        data = {"chart": {"coords": ["x", "y"], "box": [[0.5, 2.0], [0.5, 2.0]]},
                "metric": [["1", "0"], ["0", "1"]],
                "connection": [[["1e309", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
                "checks": ["statistical_structure"]}
        [check] = run_suite(parse_manifest(data)).checks
        assert check.status == "ERROR"
        assert re.fullmatch(r"EvaluationError: non-finite value at point \[[^\]]+\]",
                            check.reason), check.reason

    def test_grid_of_constants_makes_no_plan(self, monkeypatch):
        plans = []

        class Recorded(ex.Plan):
            def __init__(self, roots):
                plans.append(len(roots))
                super().__init__(roots)

        monkeypatch.setattr(ex, "Plan", Recorded)
        ExpressionField.constant(np.arange(8.0).reshape(2, 2, 2), ("x", "y")).jets([[1.0, 2.0]])
        MetricField.from_strings(("x", "y"), [["2", "0"], ["0", "1"]]).jets([[1.0, 2.0]])
        assert plans == []

    def test_plan_is_made_at_the_first_batch_and_kept(self, monkeypatch):
        g = MetricField.from_strings(("x", "y"), [["1/y", "x*y"], ["x*y", "y*y"]])
        plans = []

        class Recorded(ex.Plan):
            def __init__(self, roots):
                plans.append(len(roots))
                super().__init__(roots)

        monkeypatch.setattr(ex, "Plan", Recorded)
        g.values([[1.0, 2.0]])
        g.jets([[0.5, 1.0], [2.0, 3.0]])
        g.jets([[1.5, 1.0]])
        assert plans == [3]  # the upper triangle, once for all three batches

    def test_first_order_fields_walk_gradients_only(self, monkeypatch):
        """A connection component x^1.5 has an unbounded second derivative at x = 0, which
        an order-1 field never forms; its Γ and ∂Γ are finite there."""
        conn = ExpressionField.from_strings(("x",), [[["x^1.5"]]])
        gamma, dgamma = conn.jets([[0.0], [1.0]])
        assert gamma[:, 0, 0, 0].tolist() == [0.0, 1.0]
        assert dgamma[:, 0, 0, 0, 0].tolist() == [0.0, 1.5]
        structure = ExpressionField.from_strings(("x", "y"), [["trigamma(x)", "0"],
                                                              ["0", "1"]])
        orders = []
        real = ex.polygamma
        monkeypatch.setattr(ex, "polygamma",
                            lambda order, x: orders.append(order) or real(order, x))
        structure.jets([[1.0, 2.0], [3.0, 0.5]])
        assert sorted(orders) == [1, 1, 2, 2]  # ψ₁ and its derivative ψ₂; no ψ₃
        orders.clear()
        MetricField(structure.grid).jets([[1.0, 2.0], [3.0, 0.5]])
        assert sorted(orders) == [1, 1, 2, 2, 3, 3]

    def test_deep_grid_needs_no_recursion(self):
        deep = _xy(" + ".join(["x*y"] * 3000))
        g = MetricField([[deep, _xy("x")], [_xy("x"), deep.differentiate(0)]])
        value, d_value, _ = g.jets([[1.5, 2.0], [-0.5, 3.0]])
        np.testing.assert_array_equal(value[:, 0, 0], [9000.0, -4500.0])
        np.testing.assert_array_equal(value[:, 1, 1], [6000.0, 9000.0])
        np.testing.assert_array_equal(d_value[:, 1, 0, 0], [4500.0, -1500.0])


class TestLeviCivita:
    def test_constant_metric_is_flat(self):
        m = flat_manifold(pairs=2, k=-3.0, epsilons=(1.0, -1.0))
        gamma = LeviCivitaConnection(m.metric).value(sample_points(m.chart, 1)[0])
        np.testing.assert_array_equal(gamma, np.zeros((4, 4, 4)))

    def test_one_dimensional_inverse_square(self):
        # g = 1/y² has Christoffel coefficient −1/y
        g = MetricField.from_strings(("y",), [["1/(y*y)"]])
        gamma = LeviCivitaConnection(g).value([2.0])
        assert gamma[0, 0, 0] == pytest.approx(-0.5, rel=1e-14)

    def test_average_of_dual_pair(self):
        """Γ + Γ* = 2 Γ⁰ on the curved statistical fixture."""
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        dual = ConjugateConnection(m.metric, m.connection)
        mid = LeviCivitaConnection(m.metric)
        for p in sample_points(m.chart, 25):
            defect = m.connection.value(p) + dual.value(p) - 2.0 * mid.value(p)
            assert np.max(np.abs(defect)) <= 1e-9

    def test_self_dual(self):
        m = curved_manifold(pairs=1, k=2.0, l=-1.0, epsilons=(1.0,))
        mid = LeviCivitaConnection(m.metric)
        star = ConjugateConnection(m.metric, mid)
        for p in sample_points(m.chart, 10):
            np.testing.assert_allclose(star.value(p), mid.value(p), atol=1e-12)


class TestConjugateConnection:
    def test_flat_fixture_conjugate_is_flat(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        star = ConjugateConnection(m.metric, m.connection)
        for p in sample_points(m.chart, 10):
            np.testing.assert_array_equal(star.value(p), np.zeros((2, 2, 2)))

    def test_curved_coefficient_value(self):
        # Γ*^y_xx = −2k²/(l(k+l)y) = −1/3 at k=1, l=2, y=1
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        star = ConjugateConnection(m.metric, m.connection)
        assert star.value([0.0, 1.0])[1, 0, 0] == pytest.approx(-1.0 / 3.0, rel=1e-13)

    def test_involution(self):
        for kl in [(1.0, 1.0), (1.0, 2.0), (2.0, -1.0)]:
            m = curved_manifold(pairs=1, k=kl[0], l=kl[1], epsilons=(1.0,))
            back = ConjugateConnection(m.metric, ConjugateConnection(m.metric, m.connection))
            for p in sample_points(m.chart, 10):
                defect = back.value(p) - m.connection.value(p)
                assert np.max(np.abs(defect)) <= 1e-10


class TestStatisticalStructure:
    def test_curved_fixture_passes(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, -1.0))
        result = check_statistical_structure(m, sample_points(m.chart, 25))
        assert result.passed

    def test_levi_civita_always_passes(self):
        m = curved_manifold(pairs=1, k=2.0, l=-1.0, epsilons=(1.0,))
        mid = dataclasses.replace(m, connection=LeviCivitaConnection(m.metric))
        result = check_statistical_structure(mid, sample_points(m.chart, 25))
        assert result.passed

    def test_torsion_injection_fails(self):
        g = MetricField.from_strings(("x", "y"), [["1", "0"], ["0", "1"]])
        coefficients = [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
        torsion = ExpressionField.from_strings(("x", "y"), coefficients)
        chart = ChartSpec(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), seed=1)
        result = check_statistical_structure(ManifoldSpec(chart, g, torsion), sample_points(chart, 5))
        assert not result.passed
        assert result.details["torsion"] == 1.0


def _sequential_residual(raw, scale, points):
    """The reference reduction: a running ``>=`` scan from 0, non-finite counting as inf."""
    residual, raw_residual, worst_point = 0.0, 0.0, None
    for value, factor, point in zip(raw, scale, points):
        scaled = value / factor
        if not (math.isfinite(scaled) and math.isfinite(factor)):
            scaled = math.inf
        if scaled >= residual:
            residual, raw_residual, worst_point = scaled, value, point
    return residual, raw_residual, worst_point


class TestResidualTracker:
    """The cases of the sequential tracker that ``residual_check`` replaced, kept under
    their names, plus the tracker's scan itself as the reference."""

    @pytest.mark.parametrize("raw, scale", [(float("nan"), 1.0), (float("inf"), float("inf")),
                                            (float("inf"), 1.0), (1.0, float("nan")),
                                            (1.0, float("inf"))])
    def test_non_finite_residual_fails_at_its_point(self, raw, scale):
        result = residual_check([1e-12, raw, 1e-12], [1.0, scale, 1.0],
                                [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], 1e-8)
        assert not result.passed
        assert result.residual == float("inf")
        np.testing.assert_array_equal(result.worst_point, [0.5, 0.5])

    @pytest.mark.parametrize("raw, scale", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_residual_fails_an_infinite_tolerance(self, raw, scale):
        assert not residual_check(np.array([raw]), np.array([scale]), np.zeros((1, 1)),
                                  math.inf).passed

    def test_finite_residuals_keep_the_last_worst_point(self):
        result = residual_check([2.0, 3.0, 0.5], [2.0, 3.0, 1.0], [[0.0], [1.0], [2.0]], 10.0)
        assert result.passed
        assert result.residual == 1.0
        np.testing.assert_array_equal(result.worst_point, [1.0])

    def test_matches_the_sequential_scan(self):
        """Random raw/scale arrays with ties, NaN and inf reduce as the sequential scan does."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        raws = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-300, math.inf, math.nan])
        scales = st.sampled_from([1.0, 2.0, 4.0, 1e300, math.inf, math.nan])
        rows = st.lists(st.tuples(raws, scales), min_size=1, max_size=12)

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(rows, st.floats(0.0, 3.0))
        def check(pairs, tol):
            raw, scale = [r for r, _ in pairs], [s for _, s in pairs]
            points = [[float(i)] for i in range(len(pairs))]
            residual, raw_residual, worst_point = _sequential_residual(raw, scale, points)
            result = residual_check(raw, scale, points, tol)
            assert result.residual == residual
            assert result.passed == (residual <= tol)
            np.testing.assert_array_equal(result.raw_residual, raw_residual)
            np.testing.assert_array_equal(result.worst_point, worst_point)

        check()


class TestCurvature:
    def test_flat_connection_zero(self):
        m = flat_manifold(pairs=1, k=1.0, epsilons=(1.0,))
        r = curvature_tensor(*m.connection.jet(sample_points(m.chart, 1)[0]))
        np.testing.assert_array_equal(r, np.zeros((2, 2, 2, 2)))

    def test_flat_fixture_zero(self):
        m = flat_manifold(pairs=2, k=-3.0, epsilons=(1.0, -1.0))
        for p in sample_points(m.chart, 10):
            assert np.max(np.abs(curvature_tensor(*m.connection.jet(p)))) == 0.0

    def test_antisymmetry_exact(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, 1.0))
        for p in sample_points(m.chart, 5):
            r = curvature_tensor(*m.connection.jet(p))
            assert (r == -np.einsum("lijk->ljik", r)).all()

    def test_known_component(self):
        # R^y_xyx = −d/dy(−2k/((k+l)y)) = −2k/((k+l)y²); k=l=1, y=1 gives −1
        m = curved_manifold(pairs=1, k=1.0, l=1.0, epsilons=(1.0,))
        r = curvature_tensor(*m.connection.jet([0.0, 1.0]))
        assert r[1, 0, 1, 0] == pytest.approx(-1.0, rel=1e-14)

    def test_matches_fd_oracle(self):
        for kl in [(1.0, 2.0), (2.0, -1.0)]:
            m = curved_manifold(pairs=1, k=kl[0], l=kl[1], epsilons=(1.0,))
            for p in sample_points(m.chart, 10):
                exact = curvature_tensor(*m.connection.jet(p))
                assert relative_deviation(exact, fd_curvature(m.connection, p)) <= 1e-5

    def test_levi_civita_jets_match_fd(self):
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        mid = LeviCivitaConnection(m.metric)
        for p in sample_points(m.chart, 10):
            assert relative_deviation(mid.value(p), fd_levi_civita(m.metric, p)) <= 1e-5


class TestStatisticalCurvature:
    def test_self_dual_average_is_curvature(self):
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        mid = LeviCivitaConnection(m.metric)
        for p in sample_points(m.chart, 5):
            s = statistical_curvature_at(dataclasses.replace(m, connection=mid), p)
            np.testing.assert_allclose(s, curvature_tensor(*mid.jet(p)), atol=1e-12)

    def test_flat_dual_pair_vanishes(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        for p in sample_points(m.chart, 5):
            assert np.max(np.abs(statistical_curvature_at(m, p))) == 0.0

    def test_riemann_like_properties(self):
        """S is skew in the first pair (exactly), satisfies the cyclic identity,
        and is g-skew in the last pair on statistical fixtures."""
        for m in [curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,)),
                  curved_manifold(pairs=2, k=2.0, l=-1.0, epsilons=(1.0, -1.0))]:
            for p in sample_points(m.chart, 10):
                s = statistical_curvature_at(m, p)
                assert (s == -np.einsum("lijk->ljik", s)).all()
                cyclic = s + np.einsum("ljki->lijk", s) + np.einsum("lkij->lijk", s)
                assert np.max(np.abs(cyclic)) <= 1e-8
                g = m.metric.value(p)
                s_cov = np.einsum("lm,mijk->ijkl", g, s)
                skew = s_cov + np.einsum("ijlk->ijkl", s_cov)
                assert np.max(np.abs(skew)) <= 1e-8


class TestSectionalCurvature:
    def test_flat_plane_zero(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        p = sample_points(m.chart, 1)[0]
        value = sectional_curvature(m, p, [1.0, 0.2], [0.1, 1.0])
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_argument_swap_invariance(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, 1.0))
        p = sample_points(m.chart, 1)[0]
        v = np.array([1.0, 0.1, -0.2, 0.4])
        w = np.array([0.3, 1.0, 0.5, -0.1])
        forward = sectional_curvature(m, p, v, w)
        assert forward == pytest.approx(
            sectional_curvature(m, p, w, v), rel=1e-12)

    def test_scaling_invariance(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, 1.0))
        p = sample_points(m.chart, 1)[0]
        v = np.array([1.0, 0.1, -0.2, 0.4])
        w = np.array([0.3, 1.0, 0.5, -0.1])
        forward = sectional_curvature(m, p, v, w)
        assert forward == pytest.approx(
            sectional_curvature(m, p, 2.0 * v, w), rel=1e-12)

    def test_degenerate_plane_rejected(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        p = sample_points(m.chart, 1)[0]
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(m, p, [1.0, 0.5], [2.0, 1.0])


class TestConstantCurvature:
    def test_flat_fixture_constant_zero(self):
        m = flat_manifold(pairs=1, k=1.0, epsilons=(1.0,))
        fit = fit_kurose_constant(m, sample_points(m.chart, 25))
        assert fit.passed
        assert fit.details["constant"] == pytest.approx(0.0, abs=1e-12)
        assert fit.residual <= 1e-9

    def test_curved_pair_equal_parameters_is_constant(self):
        """Regression pin: the dim-2, k = l fixture has constant-curvature
        connection with constant 2/(eps (k + l))."""
        for k, eps in [(1.0, 1.0), (2.0, 1.0), (1.0, -1.0)]:
            m = curved_manifold(pairs=1, k=k, l=k, epsilons=(eps,))
            fit = fit_kurose_constant(m, sample_points(m.chart, 25))
            assert fit.passed, (k, eps)
            assert fit.details["constant"] == pytest.approx(2.0 / (eps * 2.0 * k), rel=1e-10)

    def test_curved_pair_distinct_parameters_not_constant(self):
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        fit = fit_kurose_constant(m, sample_points(m.chart, 25))
        assert not fit.passed

    def test_two_pairs_never_constant(self):
        """Regression pin: with two pairs the curvature is block-diagonal and
        cannot match the constant form even at k = l."""
        m = curved_manifold(pairs=2, k=1.0, l=1.0, epsilons=(1.0, 1.0))
        fit = fit_kurose_constant(m, sample_points(m.chart, 25))
        assert not fit.passed

    def test_perturbed_flat_connection_fails(self):
        """A coordinate-dependent bump on one coefficient must be detected."""
        from statgeom.fixtures import flat_product_manifest
        from statgeom import build_context, parse_manifest

        data = flat_product_manifest(1, 1.0, (1.0,), seed=5)
        data["connection"][1][0][0] = "0.1*y1"
        m = build_context(parse_manifest(data)).manifold
        fit = fit_kurose_constant(m, sample_points(m.chart, 25))
        assert not fit.passed
        assert fit.residual > 10.0 * fit.tolerance

    def test_sectional_curvature_matches_fitted_constant(self):
        """Where the constant-curvature fit passes, every nondegenerate plane
        reports the same sectional curvature."""
        m = curved_manifold(pairs=1, k=1.0, l=1.0, epsilons=(1.0,))
        pts = sample_points(m.chart, 25)
        fit = fit_kurose_constant(m, pts)
        assert fit.passed
        rng = np.random.default_rng(101)
        found = 0
        while found < 20:
            p = pts[int(rng.integers(len(pts)))]
            v = rng.uniform(-1.0, 1.0, size=2)
            w = rng.uniform(-1.0, 1.0, size=2)
            try:
                value = sectional_curvature(m, p, v, w)
            except DegeneratePlaneError:
                continue
            assert value == pytest.approx(fit.details["constant"], abs=1e-6)
            found += 1


class TestDuality:
    def test_dual_curvature_identity_levi_civita(self):
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        mid = dataclasses.replace(m, connection=LeviCivitaConnection(m.metric))
        result = check_dual_curvature_identity(mid, sample_points(m.chart, 25), tol=1e-9)
        assert result.passed

    def test_dual_curvature_identity_statistical(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, -1.0))
        result = check_dual_curvature_identity(m,
                                               sample_points(m.chart, 25))
        assert result.passed

    def test_flat_pair_identity_trivial(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        result = check_dual_curvature_identity(m,
                                               sample_points(m.chart, 10))
        assert result.raw_residual == 0.0

    def test_difference_tensor_self_dual(self):
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        mid = LeviCivitaConnection(m.metric)
        p = sample_points(m.chart, 1)[0]
        star = ConjugateConnection(m.metric, mid)
        np.testing.assert_allclose(mid.value(p) - star.value(p),
                                   np.zeros((2, 2, 2)), atol=1e-12)

    def test_difference_tensor_values(self):
        # K^y_xx = Γ − Γ* = 0 at k = l = 1 and −1/3 at k = 1, l = 2 (y = 1)
        point = np.array([0.0, 1.0])
        equal = curved_manifold(pairs=1, k=1.0, l=1.0, epsilons=(1.0,))
        k_equal = (equal.connection.value(point)
                   - ConjugateConnection(equal.metric, equal.connection).value(point))
        assert k_equal[1, 0, 0] == pytest.approx(0.0, abs=1e-14)
        skew = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        k_skew = (skew.connection.value(point)
                  - ConjugateConnection(skew.metric, skew.connection).value(point))
        assert k_skew[1, 0, 0] == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_difference_tensor_symmetry(self):
        m = curved_manifold(pairs=2, k=2.0, l=-1.0, epsilons=(1.0, 1.0))
        star = ConjugateConnection(m.metric, m.connection)
        for p in sample_points(m.chart, 10):
            k = m.connection.value(p) - star.value(p)
            assert np.max(np.abs(k - np.einsum("kij->kji", k))) <= 1e-12

    def test_koszul_formula_with_difference_tensor(self):
        """2 g(∇_i ∂_j, ∂_k) = g(K_ij, ∂_k) + ∂_i g_jk + ∂_j g_ki − ∂_k g_ij."""
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        star = ConjugateConnection(m.metric, m.connection)
        for p in sample_points(m.chart, 25):
            g, dg, _ = m.metric.jet(p)
            gamma = m.connection.value(p)
            kdiff = m.connection.value(p) - star.value(p)
            lhs = 2.0 * np.einsum("mij,mk->ijk", gamma, g)
            rhs = (np.einsum("mij,mk->ijk", kdiff, g)
                   + dg
                   + np.einsum("jki->ijk", dg)
                   - np.einsum("kij->ijk", dg))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8


def _model_metric():
    return builtin_model("dirichlet", dim=3, seed=4).fisher


# (label, builder of fresh base objects, field from those objects, chart of the samples)
_DERIVED_CASES = [
    ("levi_civita", lambda: curved_manifold(pairs=2, epsilons=(1.0, -1.0)),
     lambda m: LeviCivitaConnection(m.metric), lambda m: m.chart),
    ("conjugate", lambda: curved_manifold(pairs=2, epsilons=(1.0, -1.0)),
     lambda m: ConjugateConnection(m.metric, m.connection), lambda m: m.chart),
    ("double_conjugate", lambda: curved_manifold(pairs=1, l=2.0),
     lambda m: ConjugateConnection(m.metric, ConjugateConnection(m.metric, m.connection)),
     lambda m: m.chart),
    ("adjoint", lambda: curved_manifold(pairs=2, epsilons=(1.0, -1.0)),
     lambda m: AdjointStructure(m.metric, m.product), lambda m: m.chart),
    ("alpha", lambda: builtin_model("dirichlet", dim=3, seed=4),
     lambda model: AlphaConnection(model.fisher, 0.5), lambda model: model.chart),
    ("twisted", lambda: builtin_model("multinomial", categories=3, seed=4),
     lambda model: exp_para_structures(model, [[1.0, 0.0], [0.0, -1.0]])[1],
     lambda model: model.chart),
    ("fiber", curved_submersion, lambda spec: spec.fiber.connection,
     lambda spec: spec.total.chart),
    ("fiber_dual", curved_submersion,
     lambda spec: FiberRestriction(VerticalPart(spec.vertical, spec.total.conjugate),
                                   spec.base.chart.center),
     lambda spec: spec.total.chart),
    ("lifts", dense_submersion, lambda spec: spec.lifts, lambda spec: spec.total.chart),
]

# Fields that have values only: the O'Neill tensors.
_DERIVED_VALUE_CASES = [(name, dense_submersion, lambda spec, name=name: spec.tensors[name],
                         lambda spec: spec.total.chart) for name in ("t", "a", "t_star", "a_star")]


class TestPointJets:
    @pytest.mark.parametrize("label, build, make, chart", _DERIVED_CASES,
                             ids=[case[0] for case in _DERIVED_CASES])
    def test_derived_batch_equals_per_point_jets(self, label, build, make, chart):
        source = build()
        field = make(source)
        points = sample_points(chart(source), 12)[:, -field.dim:]
        batch = field.jets(points)
        single = make(build())  # fresh bases, so every row is computed alone
        for row, point in enumerate(points):
            for part, reference in zip(batch, single.jet(point)):
                assert np.array_equal(part[row], reference)
        values_only = make(build())
        assert np.array_equal(values_only.values(points), batch[0])
        assert np.array_equal(values_only.jets(points)[1], batch[1])

    @pytest.mark.parametrize("label, build, make, chart", _DERIVED_VALUE_CASES,
                             ids=[case[0] for case in _DERIVED_VALUE_CASES])
    def test_derived_batch_equals_per_point_values(self, label, build, make, chart):
        source = build()
        points = sample_points(chart(source), 12)
        batch = make(source).values(points)
        single = make(build())  # fresh bases, so every row is computed alone
        for row, point in enumerate(points):
            assert np.array_equal(batch[row], single.value(point))

    def test_batch_rows_are_read_only_views(self):
        m = curved_manifold(pairs=2, epsilons=(1.0, 1.0))
        points = sample_points(m.chart, 5)
        g, dg, d2g = m.metric.jets(points)
        row = m.metric.jet(points[3])
        assert np.array_equal(row[0], g[3])
        assert not row[0].flags.writeable
        assert m.metric.jets(points)[0] is g

    def test_repeated_point_is_served_from_the_store(self, monkeypatch):
        m = curved_manifold(pairs=1)
        p = sample_points(m.chart, 1)[0]
        first = m.metric.jets(p)
        calls = []
        monkeypatch.setattr(ex, "eval2_points", lambda *args: calls.append(args))
        assert m.metric.jets(p) is first
        assert np.array_equal(m.metric.jet(p)[1], first[1][0])
        assert not calls

    def test_partly_covered_batch(self):
        m = curved_manifold(pairs=1)
        points = sample_points(m.chart, 6)
        first = m.connection.jets(points[:4])
        both = m.connection.jets(points[2:])
        assert np.array_equal(both[0][:2], first[0][2:])
        fresh = curved_manifold(pairs=1).connection.jets(points)
        assert np.array_equal(both[1], fresh[1][2:])

    def test_deep_sum_metric_evaluates_through_jets(self):
        chart = ChartSpec(("x", "y"), ((0.5, 1.0), (0.5, 1.0)), seed=2)
        g = MetricField([[parse_expression(" + ".join(["x*x"] * 3000), chart.coord_names),
                          parse_expression("0", chart.coord_names)],
                         [parse_expression("0", chart.coord_names),
                          parse_expression("y", chart.coord_names)]])
        points = sample_points(chart, 4)
        matrices, grads, _ = g.jets(points)
        np.testing.assert_allclose(matrices[:, 0, 0], 3000.0 * points[:, 0] ** 2, rtol=1e-12)
        np.testing.assert_allclose(grads[:, 0, 0, 0], 6000.0 * points[:, 0], rtol=1e-12)

    def test_one_levi_civita_connection_per_manifold(self):
        m = flat_manifold()
        bare = type(m)(chart=m.chart, metric=m.metric)
        assert bare.resolved_connection is bare.resolved_connection
        assert bare.resolved_connection is bare.levi_civita_connection
        assert m.resolved_connection is m.connection
