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
from statgeom import cli, expfam, geometry, manifest as manifest_module, submersion, suite
from statgeom import expr as ex
from statgeom.cli import main
from statgeom.fixtures import (
    curved_product_manifest,
    fixture_ids,
    fixture_text,
    flat_product_manifest,
    load_fixture,
    model_manifest,
    registry_manifests,
    submersion_manifest,
)
from statgeom.geometry import STATUS_ERROR, STATUS_FAIL, sample_points
from statgeom.manifest import ManifestError, build_context, load_manifest, parse_manifest
from statgeom.report import (
    CheckOutcome,
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


# Manifests that once crashed with a traceback, ERRORed every check, or were
# accepted silently.
MALFORMED = {
    "top_level_list": lambda: [_flat()],
    "null_box_bound": lambda: _with_chart(box=[[None, 1.0], [0.5, 2.0]]),
    "infinite_box_bound": lambda: _with_chart(box=[[-1.0, float("inf")], [0.5, 2.0]]),
    "duplicate_coordinates": lambda: _with_chart(coords=["x1", "x1"]),
    "hyperparams_not_an_object": lambda: _model(hyperparams=[3]),
    "hyperparams_with_a_seed": lambda: _model(hyperparams={"categories": 3, "seed": 1}),
    "categories_a_list": lambda: _model(hyperparams={"categories": [3]}),
    "categories_not_an_integer": lambda: _model(hyperparams={"categories": 3.7}),
    "boolean_alpha": lambda: _model(alpha=[True]),
    "nan_alpha": lambda: _model(alpha=[float("nan")]),
    "non_numeric_involution": lambda: _model(involution=[["a", 0], [0, 1]]),
}


def _verify_exit_code(tmp_path, data) -> int:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return main(["verify", str(path)])


class TestManifestRobustness:
    """Malformed manifests raise ManifestError, and ``verify`` exits 2 on them, never 1."""

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


class TestFixtureRegistry:
    def test_required_fixtures_present(self):
        ids = fixture_ids()
        for required in ("example_5_2_n1", "example_5_2_n2", "example_5_3_k1_l1",
                         "example_5_3_k1_l2", "example_5_5_normal", "example_5_5_multinomial",
                         "example_5_5_dirichlet", "example_5_6_k1_l1", "example_5_6_k1_l2"):
            assert required in ids

    def test_shipped_files_match_builders(self):
        for fixture_id, expected in registry_manifests().items():
            assert json.loads(fixture_text(fixture_id)) == expected

    def test_every_fixture_loads_and_validates(self):
        for fixture_id in fixture_ids():
            manifest = load_fixture(fixture_id, known_checks=set(CHECKS))
            assert manifest.checks

    def test_flat_fixture_declares_four_checks(self):
        manifest = load_fixture("example_5_2_n2")
        assert len(manifest.checks) == 4

    def test_unknown_fixture(self):
        with pytest.raises(ManifestError, match="unknown fixture"):
            fixture_text("example_9_9")


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

    @pytest.mark.parametrize("data, max_conjugates, submersions", [
        (curved_product_manifest(2, 1.0, 2.0, [1.0, 1.0], seed=3, checks=CURVATURE_CHECKS), 2, 0),
        (submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5), 1, 1),
        (model_manifest("normal", involution=[[0.0, 1.0], [1.0, 0.0]], seed=5), 3, 0),
    ], ids=["curvature", "submersion", "model"])
    def test_one_build_per_run_and_none_outlives_it(self, monkeypatch, data, max_conjugates,
                                                    submersions):
        """∇* once per connection (and ∇** for the involution check), one fiber and one
        splitting per submersion; all freed without the cyclic GC, run after run."""
        manifest = parse_manifest(data, known_checks=set(CHECKS))
        conjugates = self._record_builds(monkeypatch, geometry.ConjugateConnection)
        fiber_connections = self._record_builds(monkeypatch, submersion.FiberConnection)
        splittings = self._record_builds(monkeypatch, submersion.OneillSplitting)
        fields = self._record_builds(monkeypatch, geometry.ExpressionField)
        gc.disable()
        try:
            for _ in range(2):
                for built in (conjugates, fiber_connections, splittings, fields):
                    built.clear()
                report = run_suite(manifest, points=10)
                assert all(check.status != STATUS_ERROR for check in report.checks)
                assert 1 <= len(conjugates) <= max_conjugates
                assert len(fiber_connections) == submersions
                assert len(splittings) == submersions
                assert fields
                assert all(ref() is None
                           for ref in conjugates + fiber_connections + splittings + fields)
        finally:
            gc.enable()

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
        split_tensors, pairs = submersion._split_tensors, []

        def record(*args):
            pairs.append(args)
            return split_tensors(*args)

        monkeypatch.setattr(submersion, "_split_tensors", record)
        report = run_suite(manifest, points=10)
        assert all(check.status != STATUS_ERROR for check in report.checks)
        assert len(pairs) == 2  # (T, A) for ∇ and (T*, A*) for ∇*

    def test_derived_fields_do_not_refer_to_their_owner(self):
        ctx = build_context(parse_manifest(submersion_manifest(2, 1, 1.0, 2.0, (1.0, 1.0), seed=5)))
        pts = sample_points(ctx.chart, 5)
        for name in ("dual_curvature_identity", "fiber_para_kahler_like", "submersion_theorems"):
            assert all(outcome.status != STATUS_ERROR for outcome in CHECKS[name](ctx, pts, 1e-8))
        refs = [weakref.ref(ctx.manifold), weakref.ref(ctx.submersion),
                weakref.ref(ctx.manifold.conjugate), weakref.ref(ctx.submersion.fiber.connection),
                weakref.ref(ctx.submersion.splitting)]
        assert not any(isinstance(value, (submersion.SubmersionSpec, geometry.ManifoldSpec))
                       for value in vars(ctx.submersion.splitting).values())
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

    @pytest.mark.parametrize("data, fisher_builds", [
        (model_manifest("dirichlet", {"dim": 3}, involution=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                                             [0.0, 0.0, 1.0]], seed=4), 1),
        (submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=5), 0),
    ], ids=["model", "submersion"])
    def test_two_runs_of_one_manifest(self, monkeypatch, data, fisher_builds):
        manifest = parse_manifest(data, known_checks=set(CHECKS))
        parses = self._count_calls(monkeypatch, ex, "parse_expression")
        batches = self._count_calls(monkeypatch, geometry.ExpressionField, "_batch_jets")
        fishers = self._count_calls(monkeypatch, expfam, "fisher_metric")
        reports, counts = [], []
        for _ in range(2):
            reports.append(render_report(run_suite(manifest, points=10)))
            counts.append((len(parses), len(batches), len(fishers)))
            for calls in (parses, batches, fishers):
                calls.clear()
        assert "ERROR" not in reports[0]
        assert reports[1] == reports[0]
        assert counts[0][1] > 0
        assert counts[1] == counts[0] == (0, counts[0][1], fisher_builds)

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
        pending, seen = [manifest.parsed], set()
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

    def test_report_with_non_finite_residual_stays_valid_json(self):
        outcome = CheckOutcome(name="flatness", status=STATUS_FAIL, residual=float("inf"),
                               raw_residual=float("nan"), tolerance=1e-8)
        report = VerificationReport(fixture="f", seed=0, points=1, checks=(outcome,))
        parsed = json.loads(render_report(report))
        assert parsed["checks"][0]["residual"] == "inf"
        assert parsed["checks"][0]["raw_residual"] == "nan"

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
    ], ids=["failing_para_kahler_like", "curved_flatness_theorem", "submersion_without_products"])
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
