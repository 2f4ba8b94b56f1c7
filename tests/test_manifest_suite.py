"""Manifest validation, fixture registry, suite execution, reports, and the CLI."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import statgeom
from conftest import CURVATURE_CHECKS
from statgeom import cli, expfam, geometry, manifest as manifest_module, product, submersion, suite
from statgeom import expr as ex
from statgeom.cli import main
from statgeom.fixtures import (
    curved_product_manifest,
    fixture_ids,
    flat_product_manifest,
    load_fixture,
    model_manifest,
    submersion_manifest,
)
from statgeom.geometry import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    CheckResult,
    sample_points,
)
from statgeom.manifest import ManifestError, build_context, load_manifest, parse_manifest
from statgeom.report import (
    VerificationReport,
    canonical_json,
    emit_report,
    render_report,
    report_to_mapping,
)
from statgeom.suite import CHECKS, run_suite


class TestManifestValidation:
    def test_minimal_metric_manifest(self):
        manifest = parse_manifest({
            "chart": {"coords": ["x"], "box": [[0.5, 2.0]], "seed": 4},
            "metric": [["1/(x*x)"]],
            "checks": ["statistical_structure"],
        })
        assert manifest.points == 25
        assert manifest.seed == 4

    def test_metric_and_model_both_rejected(self):
        with pytest.raises(ManifestError, match="exactly one"):
            parse_manifest({
                "chart": {"coords": ["x"], "box": [[0.5, 2.0]]},
                "metric": [["1"]],
                "model": {"name": "poisson"},
                "checks": ["statistical_structure"],
            })

    def test_neither_metric_nor_model_rejected(self):
        with pytest.raises(ManifestError, match="exactly one"):
            parse_manifest({"checks": ["statistical_structure"]})

    def test_undeclared_coordinate_is_named(self):
        with pytest.raises(ManifestError, match="'z'"):
            parse_manifest({
                "chart": {"coords": ["x"], "box": [[0.5, 2.0]]},
                "metric": [["1 + z"]],
                "checks": ["statistical_structure"],
            })

    def test_unknown_check_rejected(self):
        with pytest.raises(ManifestError, match="unknown checks"):
            parse_manifest({
                "chart": {"coords": ["x"], "box": [[0.5, 2.0]]},
                "metric": [["1"]],
                "checks": ["not_a_check"],
            }, known_checks=set(CHECKS))

    def test_tolerance_for_undeclared_check_rejected(self):
        with pytest.raises(ManifestError, match="undeclared"):
            parse_manifest({
                "chart": {"coords": ["x"], "box": [[0.5, 2.0]]},
                "metric": [["1"]],
                "checks": ["statistical_structure"],
                "tolerances": {"flatness": 1e-9},
            })

    def test_model_manifest_must_not_carry_chart(self):
        with pytest.raises(ManifestError, match="must not carry"):
            parse_manifest({
                "chart": {"coords": ["x"], "box": [[0.5, 2.0]]},
                "model": {"name": "poisson"},
                "checks": ["alpha_family"],
            })

    def test_metric_grid_shape_enforced(self):
        with pytest.raises(ManifestError, match="expected 2 entries"):
            parse_manifest({
                "chart": {"coords": ["x", "y"], "box": [[0.5, 2.0], [0.5, 2.0]]},
                "metric": [["1", "0"]],
                "checks": ["statistical_structure"],
            })

    @pytest.mark.parametrize("block, grid, message", [
        ("metric", [["1", "0"]], "manifest.metric: expected 2 entries"),
        ("metric", [["1", "0"], ["0"]], "manifest.metric[1]: expected 2 entries"),
        ("metric", [["1", 0], ["0", "1"]],
         "manifest.metric[0][1]: expected an expression string, got 0"),
        ("metric", [["1", "0"], ["0", "1 +"]],
         "manifest.metric[1][1]: unexpected end of input (at offset 3)"),
        ("connection", "0", "manifest.connection: expected 2 entries"),
        ("connection", [[["0", "0"], ["0", "0"]]], "manifest.connection: expected 2 entries"),
        ("connection", [[["0", "0"], ["0", "0"]], [["0", "0"]]],
         "manifest.connection[1]: expected 2 entries"),
        ("connection", [[["0", "0"], ["0", "0"]], [["0"], ["0", "0"]]],
         "manifest.connection[1][0]: expected 2 entries"),
        ("connection", [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", None]]],
         "manifest.connection[1][1][1]: expected an expression string, got None"),
        ("connection", [[["0", "0"], ["0", "z"]], [["0", "0"], ["0", "0"]]],
         "manifest.connection[0][1][1]: unknown identifier 'z' (at offset 0)"),
        # depth first: every entry of a row is read before the next row's length
        ("metric", [["1", None], ["0"]],
         "manifest.metric[0][1]: expected an expression string, got None"),
        ("connection", [[["0", "0"], ["0"]], [["0"], ["0", "0"]]],
         "manifest.connection[0][1]: expected 2 entries"),
    ], ids=["metric_top", "metric_row", "metric_leaf_type", "metric_leaf_parse",
            "connection_not_a_list", "connection_top", "connection_plane", "connection_row",
            "connection_leaf_type", "connection_leaf_parse", "metric_depth_first",
            "connection_depth_first"])
    def test_grid_messages(self, block, grid, message):
        data = {"chart": {"coords": ["x", "y"], "box": [[0.5, 2.0], [0.5, 2.0]]},
                "metric": [["1", "0"], ["0", "1"]], "checks": ["flatness"], block: grid}
        with pytest.raises(ManifestError) as err:
            parse_manifest(data)
        assert str(err.value) == message

    def test_submersion_base_must_be_smaller(self):
        data = flat_product_manifest(1, 1.0, (1.0,))
        data["submersion"] = {"base": {
            "chart": data["chart"], "params": data["params"], "metric": data["metric"],
        }}
        with pytest.raises(ManifestError, match="smaller"):
            parse_manifest(data)

    def test_load_manifest_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"checks": [,]}', encoding="utf-8")
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(path)

    def test_integer_too_long_to_convert_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_flat()).replace('"points": 25', '"points": ' + "9" * 5000),
                        encoding="utf-8")
        with pytest.raises(ManifestError, match="cannot be read: Exceeds the limit"):
            load_manifest(path)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_load_manifest_from_file(self, tmp_path):
        path = tmp_path / "own.json"
        path.write_text(json.dumps(flat_product_manifest(1, 2.0, (1.0,))), encoding="utf-8")
        manifest = load_manifest(path, known_checks=set(CHECKS))
        assert len(manifest.checks) == 4


def _flat(**changes):
    data = flat_product_manifest(1, 2.0, (1.0,))
    data.update(changes)
    return data


def _model(**block):
    data = model_manifest("multinomial", {"categories": 3})
    data["model"].update(block)
    return data


def _with_chart(**chart):
    data = _flat()
    data["chart"].update(chart)
    return data


def _with_base_chart(**chart):
    data = submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0))
    data["submersion"]["base"]["chart"].update(chart)
    return data


# Manifests that once crashed with a traceback, ERRORed every check, or were
# accepted silently.
MALFORMED = {
    "top_level_list": lambda: [_flat()],
    "null_box_bound": lambda: _with_chart(box=[[None, 1.0], [0.5, 2.0]]),
    "infinite_box_bound": lambda: _with_chart(box=[[-1.0, float("inf")], [0.5, 2.0]]),
    "overflowing_box": lambda: _with_chart(box=[[-1e308, 1e308], [0.5, 2.0]]),
    "duplicate_coordinates": lambda: _with_chart(coords=["x1", "x1"]),
    "hyperparams_not_an_object": lambda: _model(hyperparams=[3]),
    "hyperparams_with_a_seed": lambda: _model(hyperparams={"categories": 3, "seed": 1}),
    "categories_a_list": lambda: _model(hyperparams={"categories": [3]}),
    "categories_not_an_integer": lambda: _model(hyperparams={"categories": 3.7}),
    "boolean_alpha": lambda: _model(alpha=[True]),
    "nan_alpha": lambda: _model(alpha=[float("nan")]),
    "non_numeric_involution": lambda: _model(involution=[["a", 0], [0, 1]]),
    "parameter_named_like_a_coordinate": lambda: _flat(params={"k": 2.0, "e1": 1.0, "x1": 1.0}),
    "repeated_check": lambda: _flat(checks=["flatness", "almost_product", "flatness"]),
    "repeated_alpha": lambda: _model(alpha=[0.5, -1.0, 0.5]),
    "alpha_labels_that_coincide": lambda: _model(alpha=[0.1, 0.1000001]),
    "chart_above_the_dimension_limit": lambda: _with_chart(coords=[f"x{i}" for i in range(13)],
                                                           box=[[0.5, 2.0]] * 13),
    "model_dim_above_the_limit": lambda: model_manifest("dirichlet", {"dim": 13}),
    "categories_above_the_limit": lambda: model_manifest("multinomial", {"categories": 14}),
    "points_above_the_limit": lambda: _flat(points=1001),
}


def _verify_exit_code(tmp_path, data) -> int:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return main(["verify", str(path)])


class TestManifestRobustness:
    """Malformed manifests raise ManifestError, and ``verify`` exits 2 on them, never 1."""

    def test_limits_lie_above_the_benchmark_sizes(self):
        assert manifest_module.LIMITS["dimension"] > 8 and manifest_module.LIMITS["points"] > 400

    def test_work_at_the_limits_is_accepted(self):
        """Parsed, not run: a chart and models of the largest dimension, at the most points."""
        top = manifest_module.LIMITS["dimension"]
        pairs = top // 2
        data = curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs)
        data["points"] = manifest_module.LIMITS["points"]
        assert parse_manifest(data).points == manifest_module.LIMITS["points"]
        for family, hyper in (("dirichlet", {"dim": top}), ("multinomial", {"categories": top + 1})):
            assert build_context(parse_manifest(model_manifest(family, hyper))).model.dim == top

    def test_huge_model_dimension_is_refused_before_the_model_is_built(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("builtin_model called")

        monkeypatch.setattr(manifest_module, "builtin_model", build)
        with pytest.raises(ManifestError, match="above the limit of 12"):
            parse_manifest(model_manifest("dirichlet", {"dim": 10**30}))

    def _rejects(self, tmp_path, data, match):
        with pytest.raises(ManifestError, match=match):
            parse_manifest(data)
        assert _verify_exit_code(tmp_path, data) == 2

    def test_non_numeric_parameter(self, tmp_path):
        data = _flat()
        data["params"]["k"] = "two"
        self._rejects(tmp_path, data, "parameter 'k' must be a finite number")

    def test_non_numeric_chart_seed(self, tmp_path):
        data = _flat()
        data["chart"]["seed"] = "seven"
        self._rejects(tmp_path, data, "'seed' must be an integer")

    def test_boolean_tolerance(self, tmp_path):
        data = _flat(checks=["almost_product"], tolerances={"almost_product": True})
        self._rejects(tmp_path, data, "tolerance for 'almost_product' must be a finite number")

    def test_boolean_point_count(self, tmp_path):
        self._rejects(tmp_path, _flat(points=True), "'points' must be an integer")

    def test_asymmetric_metric(self, tmp_path):
        data = _flat()
        data["metric"][0][1] = "0.5"
        self._rejects(tmp_path, data, r"metric must be symmetric: \[0\]\[1\]")

    def test_lower_triangle_undefined_where_upper_is_defined(self, tmp_path):
        data = _flat()
        data["metric"][1][0] = "0*log(x1)"
        self._rejects(tmp_path, data, r"metric must be symmetric: \[0\]\[1\]")

    def test_symmetric_metric_written_differently_is_accepted(self, tmp_path):
        data = _flat(checks=["flatness"])
        data["metric"][0][1] = "k*x1*y1/4"
        data["metric"][1][0] = "y1*(x1*k)/4"
        assert parse_manifest(data).checks == ("flatness",)
        assert _verify_exit_code(tmp_path, data) == 0

    @pytest.mark.parametrize("block", ["manifest", "submersion.base"])
    def test_parameter_named_like_a_coordinate(self, tmp_path, block):
        """A coordinate wins over a parameter of its name in an expression, so the
        parameter's value would be dropped unread; the manifest is refused instead."""
        data = submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0))
        target = data if block == "manifest" else data["submersion"]["base"]
        target["params"]["y1"] = 1.0
        self._rejects(tmp_path, data, rf"^{block}: parameter 'y1' has the name of a coordinate$")

    def test_overflowing_box(self, tmp_path, capsys):
        """A box of finite bounds whose width overflows is refused, not ERRORed check by check."""
        self._rejects(tmp_path, _with_chart(box=[[-1e308, 1e308], [0.5, 2.0]]),
                      r"^manifest: sampling interval \[-1e\+308, 1e\+308\] "
                      r"for coordinate 'x1' is too wide$")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("data, match", [
        (_flat(seed="banana"), r"^a metric manifest's 'seed' goes in its 'chart' block$"),
        ({**_model(), "params": {"k": "banana"}}, r"^model manifests must not carry 'params'$"),
        (_with_chart(sed=7), r"^manifest: unknown chart keys: \['sed'\]$"),
        (_with_chart(sed=7, points=5), r"^manifest: unknown chart keys: \['points', 'sed'\]$"),
        (_with_base_chart(sed=7), r"^submersion\.base: unknown chart keys: \['sed'\]$"),
    ], ids=["top_level_seed_beside_a_chart", "params_in_a_model_manifest", "misspelled_chart_seed",
            "two_unknown_chart_keys", "misspelled_base_chart_seed"])
    def test_key_the_parse_would_not_read(self, tmp_path, capsys, data, match):
        """A key that no run reads is refused, not accepted unread."""
        self._rejects(tmp_path, data, match)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_deeply_nested_expression(self, tmp_path):
        data = _flat()
        data["metric"][0][0] = "(" * 2000 + "e1*k" + ")" * 2000
        self._rejects(tmp_path, data, "nests too deeply")

    def test_undefined_constant_exponent(self, tmp_path, capsys):
        data = _flat()
        data["metric"][0][0] = "2^(log(0-1))"
        self._rejects(tmp_path, data, r"manifest\.metric\[0\]\[0\]: constant exponent is undefined")
        err = capsys.readouterr().err
        assert "error: manifest.metric[0][0]: constant exponent is undefined" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("where", ["chart", "base chart", "model"])
    def test_negative_seed_fails_at_load(self, tmp_path, capsys, where):
        """A negative seed is refused while loading, not by every check at run time."""
        if where == "model":
            data = _model()
            data["seed"] = -3
        else:
            data = submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0))
            chart = data["chart"] if where == "chart" else data["submersion"]["base"]["chart"]
            chart["seed"] = -3
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ManifestError, match="seed must be a non-negative integer, got -3"):
            load_manifest(path)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_manifest_exits_two_without_traceback(self, tmp_path, capsys, case):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(MALFORMED[case]()), encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(path)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestExpressionLimits:
    """Whole manifests whose expressions strain the evaluator, run through the suite."""

    def test_deep_metric_component(self, tmp_path):
        data = _flat(checks=["statistical_structure", "conjugate_involution",
                             "levi_civita_average", "dual_curvature_identity", "flatness",
                             "kurose_constant_curvature", "almost_product",
                             "pairing_identities", "space_form"])
        del data["connection"]
        data["metric"][0][0] = " + ".join(["x1*x1/1000"] * 3000) + " + e1*k"
        report = run_suite(parse_manifest(data))
        assert {check.status for check in report.checks} == {"PASS"}
        assert _verify_exit_code(tmp_path, data) == 0

    def test_values_read_past_singular_derivatives(self):
        # the metric's derivatives blow up at the box center, the structure's everywhere
        data = _flat(checks=["almost_product", "pairing_identities", "para_kahler_like"])
        data["metric"][0][0] = "e1*k + sqrt(x1*x1)"
        data["product"][0][1] = "1 + sqrt(y1*y1 - y1*y1)"
        statuses = {check.name: check.status for check in run_suite(parse_manifest(data)).checks}
        assert statuses == {"almost_product": "PASS", "pairing_identities": "PASS",
                            "para_kahler_like": STATUS_ERROR}

    def test_metric_derivatives_failing_at_the_samples_error_every_check(self):
        """The metric is validated on its jets at the run's points, before any check runs."""
        data = _flat(checks=["almost_product", "pairing_identities"])
        data["metric"][0][0] = "2 + sqrt(x1*x1 - x1*x1)"
        report = run_suite(parse_manifest(data))
        assert [(check.name, check.status) for check in report.checks] == [
            ("almost_product", STATUS_ERROR), ("pairing_identities", STATUS_ERROR)]
        assert all(check.reason.startswith("EvaluationError: ") for check in report.checks)


class TestFixtureRegistry:
    def test_required_fixtures_present(self):
        ids = fixture_ids()
        for required in ("example_5_2_n1", "example_5_2_n2", "example_5_3_k1_l1",
                         "example_5_3_k1_l2", "example_5_5_normal", "example_5_5_multinomial",
                         "example_5_5_dirichlet", "example_5_6_k1_l1", "example_5_6_k1_l2"):
            assert required in ids

    def test_every_fixture_loads_and_validates(self):
        for fixture_id in fixture_ids():
            manifest = load_fixture(fixture_id, known_checks=set(CHECKS))
            assert manifest.checks

    def test_flat_fixture_declares_four_checks(self):
        manifest = load_fixture("example_5_2_n2")
        assert len(manifest.checks) == 4

    def test_unknown_fixture(self, capsys):
        with pytest.raises(ManifestError, match="unknown fixture"):
            load_fixture("example_9_9")
        for command in ("describe", "verify"):
            assert main([command, "example_9_9"]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: unknown fixture 'example_9_9'")


def _without_product(check, submersion=False):
    if submersion:
        data = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0), checks=[check])
    else:
        data = curved_product_manifest(1, 1.0, 1.0, (1.0,), checks=[check])
    del data["product"]
    return data


class TestSuite:
    def test_flat_fixture_all_pass(self):
        report = run_suite(load_fixture("example_5_2_n2"))
        statuses = {check.name: check.status for check in report.checks}
        assert statuses["para_kahler_like"] == "PASS"
        assert statuses["flatness"] == "PASS"
        assert statuses["kurose_constant_curvature"] == "PASS"
        assert statuses["flatness_theorem"] == "PASS"
        assert report.exit_code() == 0

    def test_curved_fixture_all_pass(self):
        report = run_suite(load_fixture("example_5_3_k1_l2"))
        assert [check.status for check in report.checks] == ["PASS"] * 4
        assert [check.name for check in report.checks] == [
            "statistical_structure", "almost_product", "product_parallelism",
            "pairing_identities",
        ]

    def test_submersion_fixture_passes(self):
        report = run_suite(load_fixture("example_5_6_k1_l1"), points=10)
        assert report.exit_code() == 0
        failing = [check.name for check in report.checks if check.status == STATUS_FAIL]
        assert failing == []

    def test_model_fixture_passes(self):
        report = run_suite(load_fixture("example_5_5_multinomial"))
        assert report.exit_code() == 0

    def test_checks_run_in_declaration_order(self):
        data = flat_product_manifest(1, 2.0, (1.0,),
                                     checks=["flatness", "almost_product"])
        report = run_suite(parse_manifest(data))
        assert [check.name for check in report.checks] == ["flatness", "almost_product"]

    def test_failing_check_gives_exit_one(self):
        data = flat_product_manifest(1, 2.0, (1.0,), checks=["flatness"])
        data["connection"][1][0][0] = "0.1*y1"
        report = run_suite(parse_manifest(data))
        assert report.checks[0].status == STATUS_FAIL
        assert report.checks[0].residual > report.checks[0].tolerance
        assert report.exit_code() == 1

    def test_metric_failure_marks_all_checks_error(self):
        data = flat_product_manifest(1, 2.0, (1.0,))
        data["metric"][0][0] = "x1"  # sign change across the box
        report = run_suite(parse_manifest(data))
        assert all(check.status == STATUS_ERROR for check in report.checks)
        assert report.exit_code() == 2

    def test_na_outcomes_carry_reasons(self):
        report = run_suite(load_fixture("example_5_2_n1"))
        for check in report.checks:
            if check.status == "NOT-APPLICABLE":
                assert check.reason

    def test_seed_override_changes_samples(self):
        manifest = load_fixture("example_5_3_k1_l1")
        default = run_suite(manifest)
        reseeded = run_suite(manifest, seed=99)
        assert default.seed == 31 and reseeded.seed == 99
        assert render_report(default) != render_report(reseeded)

    @pytest.mark.parametrize("data, block", [
        (model_manifest("poisson", checks=["flatness"]), "metric"),
        (_without_product("almost_product"), "product"),
        (_without_product("space_form"), "product"),
        (_without_product("flatness_theorem"), "product"),
        (curved_product_manifest(1, 1.0, 1.0, (1.0,), checks=["alpha_family"]), "model"),
        (curved_product_manifest(1, 1.0, 1.0, (1.0,), checks=["oneill_identities"]), "submersion"),
        (_without_product("fiber_para_kahler_like", submersion=True), "product"),
    ], ids=lambda value: value if isinstance(value, str) else value["checks"][0])
    def test_missing_block_errors_name_it(self, data, block):
        report = run_suite(parse_manifest(data, known_checks=set(CHECKS)))
        assert [(check.name, check.status, check.reason) for check in report.checks] == [
            (data["checks"][0], STATUS_ERROR,
             f"ManifestError: this check needs a '{block}' block in the manifest")]

    def test_unknown_check_errors_its_row_when_parsed_without_known_checks(self):
        data = flat_product_manifest(1, 2.0, (1.0,), checks=["flatness", "no_such"])
        report = run_suite(parse_manifest(data))
        assert [(check.name, check.status, check.reason) for check in report.checks] == [
            ("flatness", "PASS", None),
            ("no_such", STATUS_ERROR, "ManifestError: unknown check 'no_such'")]

    def test_tolerance_override_applies(self):
        data = flat_product_manifest(1, 2.0, (1.0,), checks=["flatness"])
        data["tolerances"] = {"flatness": 0.5}
        report = run_suite(parse_manifest(data))
        assert report.checks[0].tolerance == 0.5


class TestDerivedFieldOwnership:
    """A manifold owns its derived fields: a run builds each once, and none keeps its owner alive."""

    @staticmethod
    def _record_builds(monkeypatch, cls):
        built = []
        init = cls.__init__

        def record(self, *args, **kwargs):
            built.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", record)
        return built

    @pytest.mark.parametrize("data, max_conjugates, submersions, metrics", [
        (curved_product_manifest(2, 1.0, 2.0, [1.0, 1.0], seed=3, checks=CURVATURE_CHECKS),
         2, 0, 1),
        (submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5), 1, 1, 3),
        (model_manifest("normal", involution=[[0.0, 1.0], [1.0, 0.0]], seed=5), 3, 0, 1),
    ], ids=["curvature", "submersion", "model"])
    def test_one_build_per_run_and_none_outlives_it(self, monkeypatch, data, max_conjugates,
                                                    submersions, metrics):
        """∇* once per connection (and ∇** for the involution check), one fiber, one set of
        basic lifts and four fundamental tensors per submersion, at most one inverse per metric
        (total, base and fiber); all freed without the cyclic GC, run after run."""
        manifest = parse_manifest(data, known_checks=set(CHECKS))
        conjugates = self._record_builds(monkeypatch, geometry.ConjugateConnection)
        vertical_parts = self._record_builds(monkeypatch, submersion.VerticalPart)
        tensors = self._record_builds(monkeypatch, submersion.FundamentalTensor)
        lifts = self._record_builds(monkeypatch, submersion.BasicLifts)
        inverses = self._record_builds(monkeypatch, geometry.InverseMetric)
        fields = self._record_builds(monkeypatch, geometry.ExpressionField)
        gc.disable()
        try:
            for _ in range(2):
                for built in (conjugates, vertical_parts, tensors, lifts, inverses, fields):
                    built.clear()
                report = run_suite(manifest, points=10)
                assert all(check.status != STATUS_ERROR for check in report.checks)
                assert 1 <= len(conjugates) <= max_conjugates
                assert len(vertical_parts) == submersions
                assert len(tensors) == 4 * submersions
                assert len(lifts) == submersions
                assert 1 <= len(inverses) <= metrics
                assert fields
                assert all(ref() is None for ref in
                           conjugates + vertical_parts + tensors + lifts + inverses + fields)
        finally:
            gc.enable()

    @staticmethod
    def _count_inversions(monkeypatch):
        """Counts of ``np.linalg.inv`` calls and ∂(G⁻¹) contractions while the test runs."""
        counts = {"inv": 0, "dginv": 0}
        inv, contract = np.linalg.inv, geometry._contract

        def count_inv(a):
            counts["inv"] += 1
            return inv(a)

        def count_contract(subscripts, *operands):
            counts["dginv"] += subscripts == "pia,pkab,pbj->pkij"
            return contract(subscripts, *operands)

        monkeypatch.setattr(np.linalg, "inv", count_inv)
        monkeypatch.setattr(geometry, "_contract", count_contract)
        return counts

    def test_one_inverse_per_block_for_every_derived_field(self, monkeypatch):
        """Levi-Civita, ∇*, ∇** and P* of a dimension-8 run share G⁻¹ and ∂(G⁻¹): exactly one
        inversion per block, the jets reusing the G⁻¹ of the values, and one ∂(G⁻¹) contraction
        per block."""
        manifest = parse_manifest(curved_product_manifest(4, 1.0, 2.0, [1.0] * 4, seed=3,
                                                          checks=CURVATURE_CHECKS),
                                  known_checks=set(CHECKS))
        counts = self._count_inversions(monkeypatch)
        report = run_suite(manifest, points=100)
        assert all(check.status != STATUS_ERROR for check in report.checks)
        blocks = -(-100 // max(1, geometry._BLOCK_ENTRIES // 8 ** 4))
        assert counts["inv"] == blocks
        assert 0 < counts["dginv"] <= blocks

    def test_one_conjugate_per_block_for_every_conjugate_field(self, monkeypatch):
        """∇* and ∇** of a dimension-8 run form Γ* once per block: one ``_derive`` call per
        block each, for the jets of ∇* (R*, in the curvature loop, reads it first) and for
        the values of ∇**, and every later read of ∇* reads the stored Γ*."""
        manifest = parse_manifest(curved_product_manifest(4, 1.0, 2.0, [1.0] * 4, seed=3,
                                                          checks=CURVATURE_CHECKS),
                                  known_checks=set(CHECKS))
        derives, formed = {}, {"star": 0}
        derive, einsum = geometry.ConjugateConnection._derive, np.einsum

        def count_derive(self, full, *batches):
            double = isinstance(self._bases[2], geometry.ConjugateConnection)
            derives.setdefault("∇**" if double else "∇*", []).append(full)
            return derive(self, full, *batches)

        def count_einsum(subscripts, *operands, **kwargs):
            formed["star"] += subscripts == "ptk,pkij->ptij"
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(geometry.ConjugateConnection, "_derive", count_derive)
        monkeypatch.setattr(np, "einsum", count_einsum)
        report = run_suite(manifest, points=100)
        assert all(check.status != STATUS_ERROR for check in report.checks)
        blocks = -(-100 // max(1, geometry._BLOCK_ENTRIES // 8 ** 4))
        assert derives == {"∇*": [True] * blocks, "∇**": [False] * blocks}
        assert formed["star"] == 2 * blocks

    # Each case but the first fails without one entry of suite._CURVATURE_PLAN: R and R* are
    # formed again in the loop of a check that was left out of the plan.  On the flat product
    # both of the theorem's hypotheses hold, so it reads the Kurose rows and the flatness rows.
    @pytest.mark.parametrize("flat, checks, per_block, at_fit", [
        (False, CURVATURE_CHECKS, 2, 1),
        (False, ["dual_curvature_identity", "space_form"], 2, 1),
        (False, ["flatness", "kurose_constant_curvature"], 1, 0),
        (True, ["dual_curvature_identity", "flatness_theorem"], 2, 0),
    ], ids=["curvature_checks", "dual_and_space_form", "flatness_and_kurose",
            "flat_dual_and_flatness_theorem"])
    def test_one_curvature_per_connection_and_block(self, monkeypatch, flat, checks, per_block,
                                                    at_fit):
        """A dimension-8 run forms R, and R* where a check reads it, once per block for every
        check that reads them: per_block × blocks ΓΓ contractions, plus one at the space-form
        fit's point.  The space-form bracket is built at most 3 × blocks + 1 times: the fit's
        weights, P and P* per block, and the fit's point."""
        data = (flat_product_manifest(4, 1.0, [1.0] * 4, seed=3, checks=checks) if flat else
                curved_product_manifest(4, 1.0, 2.0, [1.0] * 4, seed=3, checks=checks))
        manifest = parse_manifest(data, known_checks=set(CHECKS))
        counts = {"curvature": 0, "bracket": 0}
        contract, bracket = geometry._contract, product._space_form_model

        def count_contract(subscripts, *operands):
            counts["curvature"] += subscripts == "pmjk,plim->plijk"
            return contract(subscripts, *operands)

        def count_bracket(*args):
            counts["bracket"] += 1
            return bracket(*args)

        monkeypatch.setattr(geometry, "_contract", count_contract)
        monkeypatch.setattr(product, "_space_form_model", count_bracket)
        report = run_suite(manifest, points=100)
        assert all(check.status != STATUS_ERROR for check in report.checks)
        blocks = -(-100 // max(1, geometry._BLOCK_ENTRIES // 8 ** 4))
        assert counts["curvature"] == per_block * blocks + at_fit
        assert counts["bracket"] <= 3 * blocks + 1

    def test_flatness_theorem_alone_forms_curvature_once_per_block(self, monkeypatch):
        """Called alone on the dimension-8 flat product, where both hypotheses hold, the
        flatness theorem forms R once per block for its Kurose fit and its flatness rows."""
        spec = build_context(parse_manifest(flat_product_manifest(4, 1.0, [1.0] * 4, seed=3))).manifold
        pts = geometry.sample_points(spec.chart, 100)
        calls, contract = [], geometry._contract

        def count_contract(subscripts, *operands):
            calls.append(subscripts == "pmjk,plim->plijk")
            return contract(subscripts, *operands)

        monkeypatch.setattr(geometry, "_contract", count_contract)
        assert product.verify_flatness_theorem(spec, pts).passed
        assert sum(calls) == -(-100 // max(1, geometry._BLOCK_ENTRIES // 8 ** 4))

    def test_exponential_connection_reads_no_inverse(self, monkeypatch):
        """The shipped 5.5 models at 25 points and three generated ones at 100 make 3 ∂(G⁻¹)
        contractions, one per mixture-side P* whose jets a certification reads; the α = 1
        connection has Γ = 0 and asks for none."""
        manifests = [load_fixture(f"example_5_5_{name}", known_checks=set(CHECKS))
                     for name in ("normal", "multinomial", "dirichlet")]
        for name, hyperparams in (("poisson", {}), ("multinomial", {"categories": 5}),
                                  ("dirichlet", {"dim": 4})):
            data = model_manifest(name, hyperparams, seed=1)
            data["points"] = 100
            manifests.append(parse_manifest(data, known_checks=set(CHECKS)))
        counts = self._count_inversions(monkeypatch)
        for manifest in manifests:
            report = run_suite(manifest)
            assert all(check.status != STATUS_ERROR for check in report.checks)
        assert counts["dginv"] <= 3

    def test_model_builds_each_alpha_connection_once(self, monkeypatch):
        """α = −1, 0, 1: the α-family and both certifications read three specs, ∇^(−α) included."""
        manifest = load_fixture("example_5_5_normal", known_checks=set(CHECKS))
        assert manifest.checks == ("alpha_family", "exp_para_certifications")
        connections = self._record_builds(monkeypatch, expfam.AlphaConnection)
        for _ in range(2):
            connections.clear()
            report = run_suite(manifest)
            assert all(check.status != STATUS_ERROR for check in report.checks)
            assert len(connections) == 3
            assert all(ref() is None for ref in connections)

    def test_alpha_specs_do_not_refer_to_their_model(self):
        model = build_context(load_fixture("example_5_5_normal")).model
        specs = [model.alpha_manifold(alpha) for alpha in (-1.0, 0.0, 1.0)]
        assert model.alpha_manifold(1.0) is specs[2]
        assert model.alpha_manifold(-0.0) is specs[1]
        refs = [weakref.ref(model)] + [weakref.ref(spec) for spec in specs]
        gc.disable()
        try:
            del model, specs
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_one_splitting_batch_per_run(self, monkeypatch):
        """The four checks that contract O'Neill tensors read one batch: T, A, T*, A* are built once."""
        manifest = parse_manifest(submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5),
                                  known_checks=set(CHECKS))
        readers = {"statistical_submersion", "isometric_fibers", "oneill_identities",
                   "submersion_theorems"}
        assert readers <= set(manifest.checks)
        derive, derived = submersion.FundamentalTensor._derive, []

        def record(self, *args):
            derived.append(self)
            return derive(self, *args)

        monkeypatch.setattr(submersion.FundamentalTensor, "_derive", record)
        report = run_suite(manifest, points=10)
        assert all(check.status != STATUS_ERROR for check in report.checks)
        assert len(derived) == len(set(map(id, derived))) == 4  # T, A by ∇ and T*, A* by ∇*

    @pytest.mark.parametrize("data", [
        load_fixture("example_5_6_k1_l1"),
        load_fixture("example_5_6_k1_l2"),
        parse_manifest(submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0))),
    ], ids=["k1_l1", "k1_l2", "3_to_1"])
    def test_each_fiber_block_is_decided_once(self, monkeypatch, data):
        """Two fiber-block decisions per run, the sample batch and the embedded fiber batch, and
        four inverses: no reader asks the projector for jets after its values."""
        counts = {"blocks": 0, "inv": 0}
        fiber_blocks, inv = submersion._fiber_blocks, np.linalg.inv

        def count_blocks(*args):
            counts["blocks"] += 1
            return fiber_blocks(*args)

        def count_inv(a):
            counts["inv"] += 1
            return inv(a)

        monkeypatch.setattr(submersion, "_fiber_blocks", count_blocks)
        monkeypatch.setattr(np.linalg, "inv", count_inv)
        for _ in range(2):
            counts.update(blocks=0, inv=0)
            report = run_suite(data)
            assert all(check.status != STATUS_ERROR for check in report.checks)
            assert counts == {"blocks": 2, "inv": 4}

    def test_derived_fields_do_not_refer_to_their_owner(self):
        ctx = build_context(parse_manifest(submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5)))
        pts = sample_points(ctx.chart, 5)
        for name in ("dual_curvature_identity", "fiber_para_kahler_like", "submersion_theorems"):
            assert all(outcome.status != STATUS_ERROR for outcome in CHECKS[name](ctx, pts, 1e-8))
        refs = [weakref.ref(ctx.manifold), weakref.ref(ctx.submersion),
                weakref.ref(ctx.manifold.conjugate), weakref.ref(ctx.submersion.fiber.connection),
                weakref.ref(ctx.submersion.lifts)]
        refs += [weakref.ref(tensor) for tensor in ctx.submersion.tensors.values()]
        assert not any(isinstance(value, (submersion.SubmersionSpec, geometry.ManifoldSpec))
                       for field in (ctx.submersion.lifts, *ctx.submersion.tensors.values())
                       for value in vars(field).values())
        gc.disable()
        try:
            del ctx
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestRunsAreIndependent:
    """A manifest keeps its parse; each run builds its own context and computes everything again."""

    @staticmethod
    def _count_calls(monkeypatch, holder, name):
        calls = []
        real = getattr(holder, name)

        def record(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(holder, name, record)
        return calls

    @pytest.mark.parametrize("data, parse_derivatives", [
        # ψ's three first derivatives and the six entries of the Hessian's upper triangle
        (model_manifest("dirichlet", {"dim": 3}, involution=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                                             [0.0, 0.0, 1.0]], seed=4), 9),
        (submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=5), 0),
        (curved_product_manifest(2, 1.0, 2.0, (1.0, -1.0), checks=CURVATURE_CHECKS), 0),
    ], ids=["model", "submersion", "curved_product"])
    def test_two_runs_of_one_manifest(self, monkeypatch, data, parse_derivatives):
        """Parsing differentiates a model's ψ once; a run parses and differentiates nothing,
        and only the first run makes the walk plans, which the parsed grids keep."""
        derivatives = self._count_calls(monkeypatch, ex.ScalarField, "differentiate")
        manifest = parse_manifest(data, known_checks=set(CHECKS))
        assert len(derivatives) == parse_derivatives
        derivatives.clear()
        parses = self._count_calls(monkeypatch, ex, "parse_expression")
        batches = self._count_calls(monkeypatch, geometry.ExpressionField, "_batch_jets")
        plans = self._count_calls(monkeypatch, ex, "Plan")
        reports, counts = [], []
        for _ in range(2):
            reports.append(render_report(run_suite(manifest, points=10)))
            counts.append((len(parses), len(batches), len(derivatives), len(plans)))
            for calls in (parses, batches, derivatives, plans):
                calls.clear()
        assert "ERROR" not in reports[0]
        assert reports[1] == reports[0]
        walks, first_plans = counts[0][1], counts[0][3]
        assert walks > 0 and first_plans > 0
        assert counts == [(0, walks, 0, first_plans), (0, walks, 0, 0)]
        if manifest.model is not None:  # each run reseeded a copy; the kept model holds no field
            assert vars(manifest.model).keys() == {"name", "psi", "chart", "hessian"}

    def test_no_metric_batch_is_walked_twice(self, monkeypatch):
        """Validation reads the metric's jets, which every later check reads too."""
        batches = []
        real = geometry.MetricField._batch_jets

        def record(field, points, full):
            batches.append((id(field), points.tobytes(), full))
            return real(field, points, full)

        monkeypatch.setattr(geometry.MetricField, "_batch_jets", record)
        for data in (submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=5),
                     curved_product_manifest(2, 1.0, 2.0, (1.0, -1.0), checks=CURVATURE_CHECKS),
                     model_manifest("normal", involution=[[0.0, 1.0], [1.0, 0.0]])):
            batches.clear()
            report = run_suite(parse_manifest(data, known_checks=set(CHECKS)), points=10)
            assert all(check.status != STATUS_ERROR for check in report.checks)
            walked = [(field, points) for field, points, _ in batches]
            assert len(walked) == len(set(walked)), data["name"]

    def test_one_context_per_run_and_none_at_load(self, monkeypatch):
        builds = self._count_calls(monkeypatch, manifest_module, "build_context")
        runs = self._count_calls(monkeypatch, suite, "build_context")
        manifest = parse_manifest(submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5))
        assert builds == [] and runs == []
        run_suite(manifest, points=5)
        run_suite(manifest, points=5)
        assert builds == [] and len(runs) == 2

    def test_the_manifest_keeps_no_field_and_no_array(self):
        """After a run, the manifest's parse reaches trees, charts and numbers, nothing computed."""
        manifest = load_fixture("example_5_6_k1_l1")
        run_suite(manifest, points=5)
        pending, seen = [manifest], set()
        while pending:
            item = pending.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            assert not isinstance(item, (geometry.PointJets, geometry.ManifoldSpec, np.ndarray))
            if isinstance(item, (list, tuple)):
                pending.extend(item)
            elif hasattr(item, "__dict__"):
                pending.extend(vars(item).values())
        assert len(seen) > 100


class TestReports:
    def test_reports_are_byte_identical(self, tmp_path):
        manifest = load_fixture("example_5_3_k1_l2")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        emit_report(run_suite(manifest), first)
        emit_report(run_suite(manifest), second)
        assert first.read_bytes() == second.read_bytes()

    def test_report_is_valid_json_with_lf_endings(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report(run_suite(load_fixture("example_5_2_n1")), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        parsed = json.loads(raw)
        assert parsed["fixture"] == "example_5_2_n1"
        assert {check["status"] for check in parsed["checks"]} <= {
            "PASS", "FAIL", "NOT-APPLICABLE", "ERROR"}

    def test_floats_use_fixed_format(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report(run_suite(load_fixture("example_5_2_n1")), path)
        assert "1.000000000000e-08" in path.read_text(encoding="utf-8")

    def test_non_finite_floats_render_as_strings(self):
        text = canonical_json({"values": [float("inf"), float("-inf"), float("nan"), 1.5]})
        assert text == '{"values": ["inf", "-inf", "nan", 1.500000000000e+00]}'
        assert json.loads(text) == {"values": ["inf", "-inf", "nan", 1.5]}

    def test_numpy_values_and_tuples_render_as_python_ones(self):
        value = {"a": (np.int64(3), np.float32(0.5)), "b": np.array([[1.0, np.inf]]),
                 2: np.float64(-2.0), "c": np.array([True, False])}
        assert canonical_json(value) == (
            '{"2": -2.000000000000e+00, "a": [3, 5.000000000000e-01], '
            '"b": [[1.000000000000e+00, "inf"]], "c": [true, false]}')

    @pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, 1j], ids=["np_bool", "set", "complex"])
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json({"value": [value]})

    def test_report_with_non_finite_residual_stays_valid_json(self):
        outcome = CheckResult(STATUS_FAIL, residual=float("inf"), raw_residual=float("nan"),
                              tolerance=1e-8, name="flatness")
        report = VerificationReport(fixture="f", seed=0, points=1, checks=(outcome,))
        parsed = json.loads(render_report(report))
        assert parsed["checks"][0]["residual"] == "inf"
        assert parsed["checks"][0]["raw_residual"] == "nan"

    def test_unknown_status_is_refused(self):
        with pytest.raises(ValueError, match="unknown status 'SKIPPED'"):
            CheckResult("SKIPPED", name="flatness")

    def test_not_applicable_needs_a_reason(self):
        with pytest.raises(ValueError, match="NOT-APPLICABLE outcomes need a reason"):
            CheckResult(STATUS_NOT_APPLICABLE, tolerance=1e-8, name="flatness_theorem")
        assert CheckResult(STATUS_NOT_APPLICABLE, reason="dimension 2").reason == "dimension 2"

    def test_wall_time_not_serialized(self):
        report = run_suite(load_fixture("example_5_2_n1"))
        assert report.wall_time_s > 0.0
        assert "wall" not in render_report(report)


def _failing_para_kahler_like():
    data = flat_product_manifest(1, 2.0, (1.0,), seed=13, checks=["para_kahler_like"])
    data["connection"][0][0][0] = "0.1"  # breaks ∇P = 0 only
    return data


def _curved_flatness_theorem():
    return curved_product_manifest(2, 1.0, 2.0, [1, 1],
                                   checks=["para_kahler_like", "flatness_theorem"])


def _submersion_without_products():
    data = submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0), checks=["submersion_theorems"])
    del data["product"], data["submersion"]["base"]["product"]
    return data


def _ill_conditioned_fiber_block():
    """A fiber block of cond 1e9: every check that reads the vertical projector ERRORs."""
    return {
        "chart": {"coords": ["b", "u1", "u2"], "box": [[-1.0, 1.0]] * 3, "seed": 3},
        "points": 5,
        "metric": [["1", "0", "0"], ["0", "1e4", "0"], ["0", "0", "1e-5"]],
        "product": [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
        "submersion": {"base": {"chart": {"coords": ["b"], "box": [[-1.0, 1.0]]}, "metric": [["1"]]}},
        "checks": ["oneill_identities", "fiber_para_kahler_like"],
    }


_ILL_CONDITIONED = ('{"data": {}, "name": "%s", "points_used": null, "raw_residual": null, '
                    '"reason": "SubmersionError: horizontal solve is ill-conditioned (cond 1.000e+09)", '
                    '"residual": null, "status": "ERROR", "tolerance": null, "worst_point": null}')


_NO_PRODUCTS = ('{"data": {}, "name": "submersion_theorems.%s", "points_used": 25, '
                '"raw_residual": null, "reason": "total and base product structures are required", '
                '"residual": null, "status": "NOT-APPLICABLE", "tolerance": 1.000000000000e-08, '
                '"worst_point": null}')


class TestRowsBeyondTheGoldens:
    """Report rows that no golden report holds, pinned byte for byte."""

    @pytest.mark.parametrize("build, expected", [
        (_failing_para_kahler_like, [
            '{"data": {"almost_product_residual": 0.000000000000e+00, '
            '"parallelism_residual": 5.000000000000e-02, '
            '"statistical_residual": 0.000000000000e+00}, "name": "para_kahler_like", '
            '"points_used": 25, "raw_residual": 1.000000000000e-01, "reason": null, '
            '"residual": 5.000000000000e-02, "status": "FAIL", "tolerance": 1.000000000000e-08, '
            '"worst_point": [1.010721064771e-01, 8.398433788806e-01]}',
        ]),
        (_curved_flatness_theorem, [
            '{"data": {"almost_product_residual": 0.000000000000e+00, '
            '"parallelism_residual": 0.000000000000e+00, '
            '"statistical_residual": 1.145944804759e-16}, "name": "para_kahler_like", '
            '"points_used": 25, "raw_residual": 2.664535259100e-15, "reason": null, '
            '"residual": 1.145944804759e-16, "status": "PASS", "tolerance": 1.000000000000e-08, '
            '"worst_point": [-6.884225360243e-01, 1.944764356320e+00, 7.642736892122e-01, '
            '1.723889526488e+00]}',
            '{"data": {"constant": 3.333333333333e-01, "fit_residual": 2.937650121614e-01}, '
            '"name": "flatness_theorem", "points_used": 25, "raw_residual": null, '
            '"reason": "curvature is not of constant-curvature form", "residual": null, '
            '"status": "NOT-APPLICABLE", "tolerance": 1.000000000000e-09, "worst_point": null}',
        ]),
        (_submersion_without_products, [_NO_PRODUCTS % name for name in (
            "fiber_structure", "base_and_fiber_certified", "vertical_symmetry",
            "horizontal_vanishing", "horizontal_integrability", "flat_decomposition")]),
        (_ill_conditioned_fiber_block, [_ILL_CONDITIONED % name
                                        for name in ("oneill_identities", "fiber_para_kahler_like")]),
    ], ids=["failing_para_kahler_like", "curved_flatness_theorem", "submersion_without_products",
            "ill_conditioned_fiber_block"])
    def test_rows(self, build, expected):
        report = run_suite(parse_manifest(build()))
        assert [canonical_json(row) for row in report_to_mapping(report)["checks"]] == expected


class TestCli:
    def test_list_fixtures(self, capsys):
        assert main(["list-fixtures"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "example_5_6_k1_l2" in out

    def test_describe(self, capsys):
        assert main(["describe", "example_5_3_k1_l1"]) == 0
        assert '"checks"' in capsys.readouterr().out

    def test_describe_unknown(self, capsys):
        assert main(["describe", "nope"]) == 2

    def test_verify_fixture_with_report(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["verify", "example_5_2_n1", "--report", str(path)]) == 0
        assert path.exists()
        assert "PASS" in capsys.readouterr().out

    def test_verify_file_path(self, tmp_path):
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(flat_product_manifest(1, 2.0, (1.0,))),
                                 encoding="utf-8")
        assert main(["verify", str(manifest_path)]) == 0

    def test_verify_unknown_reference(self, capsys):
        assert main(["verify", "no_such_fixture"]) == 2

    def test_verify_option_overrides(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["verify", "example_5_3_k1_l1", "--seed", "5", "--points", "7",
              "--report", str(first)])
        main(["verify", "example_5_3_k1_l1", "--seed", "5", "--points", "7",
              "--report", str(second)])
        assert first.read_bytes() == second.read_bytes()
        parsed = json.loads(first.read_text(encoding="utf-8"))
        assert parsed["seed"] == 5 and parsed["points"] == 7

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1e400", "tight"])
    def test_malformed_tolerance_exits_two(self, tol, capsys):
        """--tol follows the rule of manifest tolerances: a finite positive number."""
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "example_5_2_n1", "--tol", tol])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --tol: must be a finite positive number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, value, rule", [
        ("--seed", "-1", "non-negative"), ("--seed", "-7", "non-negative"),
        ("--points", "0", "positive"), ("--points", "-3", "positive"),
    ])
    def test_out_of_range_seed_or_points_exits_two(self, option, value, rule, capsys):
        """--seed and --points follow the manifest rules: a non-negative seed, a positive count."""
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "example_5_2_n1", option, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"statgeom verify: error: argument {option}: "
                          f"must be a {rule} integer, got {value!r}"]
        assert "Traceback" not in err

    def test_points_above_the_limit_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "example_5_2_n1", "--points", "1001"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["statgeom verify: error: argument --points: must be at most 1000, got '1001'"]

    def test_unexpected_error_exits_two(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_suite", broken)
        assert main(["verify", "example_5_2_n1"]) == 2
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_closed_stdout_exits_two_without_traceback(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe:
            """A stdout whose reader has gone away."""

            def __init__(self, fd):
                self.fd = fd

            def fileno(self):
                return self.fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            assert main(["verify", "example_5_2_n1"]) == 2
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_closed_pipe_exits_quietly(self):
        src = str(Path(statgeom.__file__).resolve().parents[1])
        process = subprocess.Popen([sys.executable, "-m", "statgeom", "list-fixtures"],
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                   env={**os.environ, "PYTHONPATH": src})
        process.stdout.close()  # before the interpreter has started, so every write fails
        _, err = process.communicate(timeout=120)
        assert process.returncode == 2
        assert err == b""

    def test_python_dash_m(self):
        src = str(Path(statgeom.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-m", "statgeom", "list-fixtures"],
                                capture_output=True, text=True, timeout=120,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert "example_5_6_k1_l2" in result.stdout.splitlines()
