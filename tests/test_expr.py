"""Parser, evaluator, forward-mode derivatives, and the finite-difference oracle."""

import math

import numpy as np
import pytest

from oracles import eval2
from statgeom import build_context, parse_manifest, run_suite, sample_points
from statgeom import expr as ex
from statgeom.expr import (
    Binary,
    Const,
    EvaluationError,
    ParseError,
    Power,
    Psi,
    ScalarField,
    Unary,
    Var,
    eval2_points,
    eval_points,
    fd_check,
    format_expression,
    parse_expression,
)
from statgeom.fixtures import (
    curved_product_manifest,
    fixture_ids,
    load_fixture,
    model_manifest,
    submersion_manifest,
)


class TestParsing:
    def test_polynomial_arithmetic(self):
        f = parse_expression("x^2 + y", ("x", "y"))
        assert eval_points(f, [(1.0, 2.0)])[0] == 3.0

    def test_parameter_substitution(self):
        f = parse_expression("k/(y*y)", ("y",), {"k": 2.0})
        assert eval_points(f, [(1.0,)])[0] == 2.0

    def test_connection_coefficient_value(self):
        # -2k/((k+l)y) with k = l = 1 at y = 2
        f = parse_expression("-2*k/((k+l)*y)", ("y",), {"k": 1.0, "l": 1.0})
        assert eval_points(f, [(2.0,)])[0] == -0.5

    def test_unary_minus_binds_below_power(self):
        f = parse_expression("-x^2", ("x",))
        assert eval_points(f, [(3.0,)])[0] == -9.0

    def test_power_right_associative(self):
        f = parse_expression("2^3^2", ("x",))
        assert eval_points(f, [(0.0,)])[0] == 512.0

    def test_negative_constant_exponent(self):
        f = parse_expression("x^-2", ("x",))
        assert eval_points(f, [(2.0,)])[0] == 0.25

    def test_nonconstant_exponent_rewritten(self):
        f = parse_expression("x^y", ("x", "y"))
        assert eval_points(f, [(2.0, 3.0)])[0] == pytest.approx(8.0, rel=1e-15)

    def test_scientific_notation(self):
        f = parse_expression("1.5e-2*x + .5", ("x",))
        assert eval_points(f, [(2.0,)])[0] == 0.53

    def test_function_calls(self):
        f = parse_expression("exp(log(sqrt(x)))", ("x",))
        assert eval_points(f, [(4.0,)])[0] == pytest.approx(2.0, rel=1e-15)

    def test_unknown_identifier_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + zebra", ("x",))
        assert "zebra" in str(err.value)
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expression("tanh(x)", ("x",))

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + * y", ("x", "y"))
        assert err.value.offset == 4

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_expression("x + $", ("x",))

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expression("x 3", ("x",))

    def test_two_argument_call_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("exp(x, y)", ("x", "y"))

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_expression("(" * 2000 + "x" + ")" * 2000, ("x",))

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_expression("x", ("x", "x"))

    @pytest.mark.parametrize("text", [
        "2^(log(0-1))", "x^(1/0)", "x^(10^400)", "x^1e400", "x^(sin(1e308*10))",
    ])
    def test_undefined_constant_exponent(self, text):
        with pytest.raises(ParseError, match="constant exponent is undefined") as err:
            parse_expression(text, ("x",))
        assert err.value.offset == text.index("^")

    def test_exponent_with_a_coordinate_is_not_evaluated(self):
        """Whatever the operand order, the undefined factor fails only at evaluation."""
        for text in ("2^(log(0-1)*x)", "2^(x*log(0-1))"):
            f = parse_expression(text, ("x",))
            assert isinstance(f.root, Unary) and f.root.op == "exp"
            with pytest.raises(EvaluationError, match="log of non-positive value -1.0"):
                eval_points(f, [(1.0,)])[0]


class TestEval2:
    def test_exp_at_zero(self):
        d = eval2(parse_expression("exp(t)", ("t",)), (0.0,))
        assert d.value == 1.0
        assert d.grad[0] == 1.0
        assert d.hess[0, 0] == 1.0

    def test_bilinear_form(self):
        d = eval2(parse_expression("x*y", ("x", "y")), (2.0, 3.0))
        np.testing.assert_array_equal(d.grad, [3.0, 2.0])
        assert d.hess[0, 1] == 1.0
        assert d.hess[1, 0] == 1.0

    def test_inverse_square(self):
        # d/dy y^-2 = -2 y^-3 and d²/dy² = 6 y^-4; cross-checked by fd_check below
        d = eval2(parse_expression("1/(y*y)", ("y",)), (2.0,))
        assert d.grad[0] == -0.25
        assert d.hess[0, 0] == 0.375
        assert fd_check(parse_expression("1/(y*y)", ("y",)), (2.0,)).residual <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(EvaluationError, match="log"):
            eval2(parse_expression("log(x)", ("x",)), (0.0,))
        with pytest.raises(EvaluationError, match="zero"):
            eval2(parse_expression("1/x", ("x",)), (0.0,))
        with pytest.raises(EvaluationError, match="sqrt"):
            eval2(parse_expression("sqrt(x)", ("x",)), (-1.0,))
        with pytest.raises(EvaluationError):
            eval2(parse_expression("x^0.5", ("x",)), (-2.0,))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            eval2(parse_expression("x", ("x",)), (1.0, 2.0))

    def test_hessian_symmetric_exactly(self):
        """Hessians are symmetric bit-for-bit, not up to tolerance."""
        expressions = [
            "x*y + y*z*x", "exp(x*y)/(1+z*z)", "sin(x)*cos(y)+sqrt(z+2)",
            "log(x+3)*y^2 - z/x", "lgamma(x+2)*y", "(x+y)^3/(z+4)",
        ]
        rng = np.random.default_rng(5)
        for text in expressions:
            f = parse_expression(text, ("x", "y", "z"))
            for _ in range(10):
                p = rng.uniform(0.2, 1.5, size=3)
                h = eval2(f, p).hess
                assert (h == h.T).all()

    def test_constant_field_derivatives_vanish(self):
        d = eval2(parse_expression("3.5", ("x", "y")), (0.3, -0.4))
        assert np.all(d.grad == 0.0) and np.all(d.hess == 0.0)

    @pytest.mark.parametrize("text, message", [("lgamma(x)", "lgamma overflow"),
                                               ("digamma(x)", "polygamma overflow")])
    def test_derivative_overflow_is_an_evaluation_error(self, text, message):
        """The value is finite at 1.5e200 but a derivative factor overflows, as in the package."""
        f = parse_expression(text, ("x",))
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            eval2(f, (1.5e200,))
        with pytest.raises(EvaluationError, match=rf"^{message} at point \[1.5e\+200\]$"):
            eval2_points(f, [[1.5e200]])


class TestDifferentiate:
    def test_cubic(self):
        f = parse_expression("x^3", ("x",))
        assert eval_points(f.differentiate(0), [(2.0,)])[0] == 12.0
        assert eval_points(f.differentiate(0).differentiate(0), [(2.0,)])[0] == 12.0

    def test_lgamma_chain(self):
        f = parse_expression("lgamma(x)", ("x",))
        second = f.differentiate(0).differentiate(0)
        # trigamma(1) = pi^2 / 6
        assert eval_points(second, [(1.0,)])[0] == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_matches_eval2_gradient(self):
        f = parse_expression("exp(x*y)/(1+y*y)", ("x", "y"))
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.uniform(-0.8, 0.8, size=2)
            d = eval2(f, p)
            for i in range(2):
                assert eval_points(f.differentiate(i), [p])[0] == pytest.approx(d.grad[i], rel=1e-13, abs=1e-13)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            parse_expression("x", ("x",)).differentiate(1)


class TestFdCheck:
    def test_constant_is_exact(self):
        assert fd_check(parse_expression("4.2", ("x",)), (0.1,)).residual == 0.0

    def test_cubic_truncation(self):
        assert fd_check(parse_expression("x^3", ("x",)), (1.0,), h=1e-4).residual <= 1e-6

    def test_log(self):
        assert fd_check(parse_expression("log(y)", ("y",)), (0.5,), h=1e-4).residual <= 1e-6

    def test_domain_margin_violation(self):
        with pytest.raises(EvaluationError, match="stencil"):
            fd_check(parse_expression("log(y)", ("y",)), (5e-5,), h=1e-4)

    def test_overflow_is_an_evaluation_error(self):
        """The exact jet overflows in polygamma: named with its point, as eval2_points names it."""
        with pytest.raises(EvaluationError, match=r"polygamma overflow at point \[1\.5e\+200\]"):
            fd_check(parse_expression("trigamma(x)", ("x",)), [1.5e200])

    def test_random_fields_meet_oracle(self):
        """100 seeded points across a mix of fields stay within 1e-5 of the oracle."""
        fields = [
            parse_expression("e/(y*y)*(k - l)", ("x", "y"), {"e": 1.0, "k": 2.0, "l": -1.0}),
            parse_expression("exp(x)*sin(y) + cos(x*y)", ("x", "y")),
            parse_expression("lgamma(x+1) - lgamma(x+y+1)", ("x", "y")),
            parse_expression("sqrt(x+2)^3/(y+3)", ("x", "y")),
        ]
        rng = np.random.default_rng(17)
        points = rng.uniform(0.3, 1.7, size=(100, 2))
        for f in fields:
            for p in points:
                assert fd_check(f, p).residual <= 1e-5


class TestRoundTrip:
    EXPRESSIONS = [
        "x^2 + y", "-2*k/((k+l)*y)", "-x^2", "x - (y - 1)", "x/(y/(x+3))",
        "2^3^2 + x", "exp(x*y)/(1+y*y)", "lgamma(x+2) - lgamma(y+2)",
        "sin(x)*cos(y) - sqrt(x+4)", "x^-0.5 + (x+y)^2",
    ]

    def test_reparse_matches_bitwise(self):
        """Pretty-printed text reparses to a field with bitwise-equal evaluation."""
        rng = np.random.default_rng(29)
        points = rng.uniform(0.4, 1.6, size=(20, 2))
        params = {"k": 1.0, "l": 2.0}
        for text in self.EXPRESSIONS:
            original = parse_expression(text, ("x", "y"), params)
            printed = format_expression(original)
            reparsed = parse_expression(printed, ("x", "y"))
            for p in points:
                assert eval_points(original, [p])[0] == eval_points(reparsed, [p])[0]

    def test_derivative_trees_round_trip(self):
        rng = np.random.default_rng(31)
        points = rng.uniform(0.4, 1.6, size=(20, 2))
        f = parse_expression("lgamma(x + y)/(x*x)", ("x", "y"))
        for index in (0, 1):
            derived = f.differentiate(index)
            reparsed = parse_expression(format_expression(derived), ("x", "y"))
            for p in points:
                assert eval_points(derived, [p])[0] == eval_points(reparsed, [p])[0]


def _manifold_fields(manifold):
    n = manifold.metric.dim
    fields = [manifold.metric.component(i, j) for i in range(n) for j in range(i, n)]
    for field in (manifold.connection, manifold.product):
        if field is not None:
            fields += list(field.grid.flat)
    return fields


def _component_cases():
    """(label, field, points) for every expression component the suite evaluates."""
    manifests = {fixture_id: load_fixture(fixture_id) for fixture_id in fixture_ids()}
    for pairs in (1, 2, 3, 4):
        manifests[f"curvature_{pairs}"] = parse_manifest(
            curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs))
    manifests["submersion_3to1"] = parse_manifest(
        submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=5))
    for name, hyper in (("poisson", {}), ("multinomial", {"categories": 5}),
                        ("dirichlet", {"dim": 4})):
        manifests[f"model_{name}"] = parse_manifest(model_manifest(name, hyper, seed=3))
    for label, manifest in manifests.items():
        ctx = build_context(manifest)
        points = sample_points(ctx.chart, 6)
        if ctx.model is not None:
            metric = ctx.model.fisher
            n = metric.dim
            for i in range(n):
                for j in range(i, n):
                    yield label, metric.component(i, j), points
            continue
        for field in _manifold_fields(ctx.manifold):
            yield label, field, points
        if ctx.submersion is not None:
            base_points = points[:, :ctx.submersion.base_dim]
            for field in _manifold_fields(ctx.submersion.base):
                yield label, field, base_points


def _assert_rows_equal_eval2(field, points):
    """Rows of ``eval2_points`` equal ``eval2``, and entries of ``eval_points`` its value."""
    values, grads, hessians = eval2_points(field, points)
    plain = eval_points(field, points)
    assert values.shape == plain.shape == (len(points),)
    assert grads.shape == (len(points), field.arity)
    assert hessians.shape == (len(points), field.arity, field.arity)
    for row, point in enumerate(points):
        reference = eval2(field, point)
        assert values[row] == reference.value
        assert np.all(grads[row] == reference.grad)
        assert np.all(hessians[row] == reference.hess)
        assert plain[row] == reference.value


class TestEval2Points:
    def test_rows_equal_eval2_on_every_suite_component(self):
        count = 0
        for _, field, points in _component_cases():
            _assert_rows_equal_eval2(field, points)
            count += 1
        assert count > 1000

    def test_every_function(self):
        f = parse_expression(
            "exp(x)*sin(y) - cos(x*y)/sqrt(1 + x*x) + log(1 + y)^1.5 + lgamma(y)"
            " + digamma(x + y) + polygamma2(y) + x^-2 + 3^x", ("x", "y"))
        _assert_rows_equal_eval2(f, [[0.3, 1.2], [1.7, 0.4], [-0.9, 2.5]])

    def test_constant_and_linear_fields(self):
        _assert_rows_equal_eval2(parse_expression("2*k - 1", ("x",), {"k": 3.0}), [[0.0], [1.0]])
        _assert_rows_equal_eval2(parse_expression("3*x - y/2 + 1", ("x", "y")), [[1.0, 2.0]])

    @pytest.mark.parametrize("text", ["2*x + 3*y", "x*y"])
    def test_every_part_is_c_contiguous(self, text):
        """A part that broadcasts over the point axis (the constant gradient of 2x + 3y, the
        constant Hessian of xy) is still laid out point by point."""
        f = parse_expression(text, ("x", "y", "z"))
        points = np.arange(15.0).reshape(5, 3) / 4 + 0.5
        for part in eval2_points(f, points) + (eval_points(f, points),):
            assert part.flags.c_contiguous, part.strides

    def test_shared_subtrees_evaluate_once_and_match(self):
        psi = parse_expression("lgamma(x) + lgamma(y) - lgamma(x + y)", ("x", "y"))
        third = psi.differentiate(0).differentiate(1).differentiate(0)
        _assert_rows_equal_eval2(third, [[0.7, 1.1], [2.5, 0.6]])

    def test_deep_sum_needs_no_recursion(self):
        f = parse_expression(" + ".join(["x"] * 3000), ("x",))
        values, grads, hessians = eval2_points(f, [[1.0], [2.0]])
        assert values.tolist() == [3000.0, 6000.0]
        assert grads.tolist() == [[3000.0], [3000.0]]
        assert not hessians.any()

    @pytest.mark.parametrize("text", ["sqrt(0) + x", "0^0.5 + x"])
    def test_constant_argument_draws_no_derivative_factor(self, text):
        """sqrt′ and the ^0.5 rule fail at 0, but a constant argument never needs them.

        The oracle has no structural zeros and raises here, so the rows are
        compared with the exact jets.
        """
        values, grads, hessians = eval2_points(parse_expression(text, ("x",)), [[1.0]])
        assert (values.tolist(), grads.tolist(), hessians.tolist()) == ([1.0], [[1.0]], [[[0.0]]])

    def test_constant_argument_calls_no_polygamma(self, monkeypatch):
        calls = []
        real = ex.polygamma
        monkeypatch.setattr(ex, "polygamma", lambda order, x: calls.append(order) or real(order, x))
        _, grads, hessians = eval2_points(parse_expression("lgamma(2) + x", ("x",)), [[1.0]])
        assert (grads.tolist(), hessians.tolist(), calls) == ([[1.0]], [[[0.0]]], [])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            eval2_points(parse_expression("x", ("x", "y")), [[1.0]])
        with pytest.raises(ValueError, match="arity"):
            eval_points(parse_expression("x", ("x", "y")), [[1.0]])

    def test_values_alone_ignore_singular_derivatives(self):
        for text in ("sqrt(x*x)", "x^1.5"):
            f = parse_expression(text, ("x",))
            with pytest.raises(EvaluationError, match=r"at point \[0.0\]"):
                eval2_points(f, [[1.0], [0.0]])
            assert eval_points(f, [[1.0], [0.0]])[1] == eval_points(f, [[0.0]])[0] == 0.0

    def test_exp_overflow_reads_alike_at_every_order(self):
        """Values, jets and a constant exponent fail through the one rule, with one text."""
        f = parse_expression("exp(x)", ("x",))
        for evaluate in (eval_points, eval2_points):
            with pytest.raises(EvaluationError) as err:
                evaluate(f, [[1.0], [800.0]])
            assert str(err.value) == "exp overflow at point [800.0]"
        with pytest.raises(ParseError) as err:
            parse_expression("2^(exp(1000))", ("x",))
        assert str(err.value) == "constant exponent is undefined: exp overflow (at offset 1)"

    def test_values_form_no_derivative_factor(self, monkeypatch):
        """At order 0 lgamma calls no polygamma, and x^0.5 at 0 skips the check of 0.5·x^(−0.5)."""
        calls = []
        real = ex.polygamma
        monkeypatch.setattr(ex, "polygamma", lambda order, x: calls.append(order) or real(order, x))
        values = eval_points(parse_expression("lgamma(x)", ("x",)), [[0.5], [2.0], [3.0]])
        assert values.tolist() == pytest.approx([math.lgamma(0.5), 0.0, math.log(2.0)], rel=1e-13)
        assert calls == []
        f = parse_expression("x^0.5", ("x",))
        assert eval_points(f, [[0.0]]).tolist() == [0.0]
        with pytest.raises(EvaluationError, match=r"pow domain failure.* at point \[0\.0\]"):
            ex.eval_fields([f], [[0.0]], 1, lambda i, parts: None)

    def test_deep_sum_values_need_no_recursion(self):
        f = parse_expression(" + ".join(["x"] * 3000), ("x",))
        assert eval_points(f, [[1.0], [2.0]]).tolist() == [3000.0, 6000.0]

    @pytest.mark.parametrize("text, points, bad_row, message", [
        ("log(x)", [[1.0], [-1.0], [-2.0]], 1, "log of non-positive value -1.0"),
        ("1/x", [[1.0], [2.0], [0.0]], 2, "division by zero"),
        ("x^-0.5", [[1.0], [0.0]], 1, "pow domain failure"),
        ("exp(x)*1e308", [[0.0], [1.0]], 1, "non-finite value"),
        ("sin(x*1e308*10)", [[0.0], [1.0]], 1, "math domain error"),
        ("exp(x)", [[1.0], [800.0]], 1, "exp overflow"),
    ])
    def test_value_failure_names_first_failing_point(self, text, points, bad_row, message):
        f = parse_expression(text, ("x",))
        with pytest.raises(EvaluationError) as err:
            eval_points(f, points)
        assert message in str(err.value)
        assert f"at point {points[bad_row]}" in str(err.value)
        with pytest.raises(EvaluationError):
            eval_points(f, [points[bad_row]])[0]

    @pytest.mark.parametrize("text, points, bad_row, message", [
        ("log(x)", [[1.0], [-1.0], [-2.0]], 1, "log of non-positive value -1.0"),
        ("1/x", [[1.0], [2.0], [0.0]], 2, "division by zero"),
        ("exp(x)", [[1.0], [800.0]], 1, "exp overflow"),
        ("exp(x)*1e308", [[0.0], [1.0]], 1, "non-finite derivative data"),
        # point 1 fails in the division, point 2 earlier in the walk, in the log
        ("log(x) + 1/y", [[1.0, 1.0], [1.0, 0.0], [-1.0, 1.0]], 1, "division by zero"),
        # at x = 0 only the derivative overflows; at x = 1 sin meets inf itself
        ("sin(x*1e308*10)", [[1.0], [0.0]], 0, "math domain error"),
    ])
    def test_domain_failure_names_first_failing_point(self, text, points, bad_row, message):
        f = parse_expression(text, ("x", "y")[:len(points[0])])
        with pytest.raises(EvaluationError) as err:
            eval2_points(f, points)
        assert message in str(err.value)
        assert f"at point {points[bad_row]}" in str(err.value)
        with pytest.raises(EvaluationError), np.errstate(all="ignore"):
            eval2(f, points[bad_row])

    @pytest.mark.parametrize("evaluate", [eval_points, eval2_points])
    def test_overflow_names_first_failing_point(self, evaluate):
        """trigamma's x**2 overflows far above 1e154; the failure is an EvaluationError with a point."""
        f = parse_expression("trigamma(x)", ("x",))
        with pytest.raises(EvaluationError, match=r"^polygamma overflow at point \[1.5e\+200\]$"):
            evaluate(f, [[1.0], [1.5e200], [2e200]])

    def test_overflow_errors_the_checks_with_a_point(self):
        data = {"chart": {"coords": ["x"], "box": [[1e200, 2e200]]},
                "metric": [["trigamma(x)"]], "checks": ["statistical_structure", "flatness"]}
        for outcome in run_suite(parse_manifest(data)).checks:
            assert outcome.status == "ERROR"
            assert outcome.reason.startswith("EvaluationError: polygamma overflow at point [")


def _collect(fields, points, order=2):
    """{index: parts} from one ``eval_fields`` walk, each index emitted exactly once."""
    emitted = {}

    def emit(i, parts):
        assert i not in emitted
        emitted[i] = parts

    ex.eval_fields(fields, points, order, emit)
    assert sorted(emitted) == list(range(len(fields)))
    return emitted


class TestSharedWalk:
    """Several roots in one walk: equal subtrees share a result, every root is emitted."""

    def test_parts_equal_the_single_field_evaluation(self):
        psi = parse_expression("lgamma(x) + lgamma(y) - lgamma(x + y)", ("x", "y"))
        fields = [psi.differentiate(0).differentiate(i) for i in (0, 1)]
        fields += [psi, fields[0], parse_expression("x", ("x", "y")), parse_expression("2", ("x", "y"))]
        points = np.array([[0.7, 1.1], [2.5, 0.6], [3.0, 4.0]])
        for order, single in ((2, eval2_points), (0, lambda f, p: (eval_points(f, p),))):
            emitted = _collect(fields, points, order)
            for i, field in enumerate(fields):
                count, n = points.shape
                shapes = ((count,), (count, n), (count, n, n))
                for part, expected, shape in zip(emitted[i], single(field, points), shapes):
                    filled = np.zeros(shape) if part is None else np.broadcast_to(part, shape)
                    assert filled.tobytes() == expected.tobytes()

    def test_first_order_walk_and_a_kept_plan_give_the_same_bits(self):
        """Order 1 emits (value, gradient) equal to the full walk's; a plan serves two batches."""
        fields = [parse_expression(text, ("x", "y")) for text in
                  ("x^2.5 * y", "sqrt(x) / y", "lgamma(x*y) - log(y)", "3", "sin(x) * cos(y)")]
        plan = ex.Plan([field.root for field in fields])
        for points in ([[0.7, 1.1], [2.5, 0.6]], [[3.0, 4.0]]):
            full = _collect(fields, points)
            first = {}
            ex.eval_fields(fields, points, 1, lambda i, parts: first.__setitem__(i, parts), plan)
            for i in range(len(fields)):
                assert len(first[i]) == 2
                for part, expected in zip(first[i], full[i]):
                    if part is None or expected is None:
                        assert part is None and expected is None
                    else:
                        assert np.asarray(part).tobytes() == np.asarray(expected).tobytes()

    def test_signed_zeros_stay_apart(self):
        x = Var(0)
        roots = [Const(0.0), Const(-0.0), Binary("mul", x, Const(0.0)), Binary("mul", x, Const(-0.0))]
        fields = [ScalarField(root, 1, ("x",)) for root in roots]
        emitted = _collect(fields, [[1.0], [2.0]])
        with np.errstate(divide="ignore"):
            signs = [np.sign(1.0 / np.broadcast_to(emitted[i][0], (2,))).tolist() for i in range(4)]
        assert signs == [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]]

    def test_equal_subtrees_built_apart_are_walked_once(self, monkeypatch):
        calls = []
        real = ex.polygamma
        monkeypatch.setattr(ex, "polygamma", lambda order, x: calls.append(order) or real(order, x))
        # two separately parsed, structurally equal trees: no shared objects
        fields = [parse_expression("trigamma(x + y) * x", ("x", "y")),
                  parse_expression("trigamma(x + y) * y", ("x", "y"))]
        _collect(fields, [[1.0, 2.0], [3.0, 0.5]])
        assert sorted(calls) == [1, 1, 2, 2, 3, 3]

    def test_shape_mismatch(self):
        fields = [parse_expression("x", ("x",)), parse_expression("x", ("x", "y"))]
        with pytest.raises(ValueError, match="arity 2"):
            ex.eval_fields(fields, [[1.0]], 2, lambda i, parts: None)


class TestDeepTrees:
    """The tree transforms take the 3,000-term sum that the evaluators take."""

    POINTS = [[1.5, 2.0], [-0.5, 3.0]]

    def field(self):
        return parse_expression(" + ".join(["x*y"] * 3000), ("x", "y"))

    def test_differentiate(self):
        f = self.field()
        assert eval_points(f.differentiate(0), self.POINTS).tolist() == [6000.0, 9000.0]
        assert eval_points(f.differentiate(1), self.POINTS).tolist() == [4500.0, -1500.0]
        mixed = f.differentiate(0).differentiate(1)
        assert eval_points(mixed, self.POINTS).tolist() == [3000.0, 3000.0]

    def test_format_expression(self):
        f = self.field()
        text = format_expression(f)
        assert text == "+".join(["x*y"] * 3000)
        reparsed = parse_expression(text, ("x", "y"))
        assert eval_points(reparsed, self.POINTS).tolist() == [9000.0, -4500.0]

    def test_submersion_with_a_deep_total_metric(self):
        """A fiber restricted from a 2,000-term metric component gives the shipped form's statuses."""
        shipped = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0))
        deep = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0))
        deep["metric"][2][2] = " + ".join(["e2*k/(2000*y2*y2)"] * 2000)
        shipped_statuses, deep_statuses = (
            [(check.name, check.status) for check in run_suite(parse_manifest(data)).checks]
            for data in (shipped, deep))
        assert deep_statuses == shipped_statuses
        assert "ERROR" not in {status for _, status in deep_statuses}


def _random_trees():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    leaves = st.one_of(
        st.sampled_from(["x", "y", "z"]),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(repr),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]}) / (1.5 + ({t[1]})^2)"),
            st.tuples(st.sampled_from(["sin", "cos", "-"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda t: f"exp(sin({t}))"),
            inner.map(lambda t: f"log(1 + ({t})^2)"),
            inner.map(lambda t: f"sqrt(2 + cos({t}))"),
            inner.map(lambda t: f"lgamma(2 + sin({t}))"),
            st.tuples(inner, st.sampled_from([2.0, 3.0, -1.0, 0.5])).map(
                lambda t: f"(1.25 + sin({t[0]}))^{t[1]}"),
        )

    return hypothesis, st.recursive(leaves, extend, max_leaves=12)


def test_eval2_points_matches_eval2_on_random_trees():
    hypothesis, trees = _random_trees()
    st = hypothesis.strategies
    coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    points = st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=5)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(trees, points)
    def check(text, pts):
        field = parse_expression(text, ("x", "y", "z"))
        _assert_rows_equal_eval2(field, np.array(pts))

    check()


def test_fd_check_meets_eval2_on_random_trees():
    """Every random tree is defined on all of R³, so the stencil never leaves the domain."""
    hypothesis, trees = _random_trees()
    st = hypothesis.strategies
    coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(trees, st.tuples(coordinate, coordinate, coordinate))
    def check(text, point):
        assert fd_check(parse_expression(text, ("x", "y", "z")), point).residual <= 1e-5

    check()


# The recursive transforms that the walk rules replaced, kept as the reference.

def _reference_derivative(node, index):
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.index == index else 0.0)
    if isinstance(node, Binary):
        da = _reference_derivative(node.left, index)
        db = _reference_derivative(node.right, index)
        if node.op == "add":
            return ex._add(da, db)
        if node.op == "sub":
            return ex._sub(da, db)
        if node.op == "mul":
            return ex._add(ex._mul(da, node.right), ex._mul(node.left, db))
        return ex._sub(ex._div(da, node.right),
                       ex._div(ex._mul(node.left, db), ex._mul(node.right, node.right)))
    if isinstance(node, Power):
        du = _reference_derivative(node.base, index)
        scale = ex._mul(Const(node.exponent), ex._pow(node.base, node.exponent - 1.0))
        return ex._mul(scale, du)
    if isinstance(node, Unary):
        du = _reference_derivative(node.arg, index)
        if node.op == "neg":
            return Unary("neg", du) if not ex._is_zero(du) else du
        if node.op == "exp":
            return ex._mul(node, du)
        if node.op == "log":
            return ex._div(du, node.arg)
        if node.op == "sqrt":
            return ex._div(du, ex._mul(Const(2.0), node))
        if node.op == "sin":
            return ex._mul(Unary("cos", node.arg), du)
        if node.op == "cos":
            return Unary("neg", ex._mul(Unary("sin", node.arg), du)) if not ex._is_zero(du) else du
        return ex._mul(Psi(0, node.arg), du)  # lgamma
    du = _reference_derivative(node.arg, index)
    return ex._mul(Psi(node.order + 1, node.arg), du)


def _reference_render(node, names):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return names[node.index]
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _reference_render(node.arg, names)
            if ex._precedence(node.arg) < ex._PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({_reference_render(node.arg, names)})"
    if isinstance(node, Psi):
        name = {0: "digamma", 1: "trigamma"}.get(node.order, f"polygamma{node.order}")
        return f"{name}({_reference_render(node.arg, names)})"
    if isinstance(node, Power):
        base = _reference_render(node.base, names)
        if ex._precedence(node.base) < ex._PREC_ATOM:
            base = f"({base})"
        return f"{base}^{repr(node.exponent)}"
    symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
    prec = ex._precedence(node)
    left = _reference_render(node.left, names)
    if ex._precedence(node.left) < prec:
        left = f"({left})"
    right = _reference_render(node.right, names)
    if ex._precedence(node.right) <= prec:
        right = f"({right})"
    return f"{left}{symbol}{right}"


def test_transforms_match_the_recursive_reference_on_random_trees():
    hypothesis, trees = _random_trees()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(trees)
    def check(text):
        field = parse_expression(text, ("x", "y", "z"))
        for index in range(3):
            derived = field.differentiate(index)
            assert derived.root == _reference_derivative(field.root, index)
            assert format_expression(derived) == _reference_render(derived.root, field.coord_names)
        assert format_expression(field) == _reference_render(field.root, field.coord_names)

    check()


def test_format_round_trip_is_bitwise_on_random_trees():
    """``parse(format(f))`` gives the ``eval2_points`` bytes of ``f``, for f and its derivatives."""
    hypothesis, trees = _random_trees()
    st = hypothesis.strategies
    coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    points = st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=5)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(trees, points)
    def check(text, pts):
        field = parse_expression(text, ("x", "y", "z"))
        for f in (field, *(field.differentiate(index) for index in range(3))):
            reparsed = parse_expression(format_expression(f), f.coord_names)
            for part, again in zip(eval2_points(f, pts), eval2_points(reparsed, pts)):
                assert part.tobytes() == again.tobytes()

    check()
