"""Exponential families: potentials, Fisher metrics, α-connections, and
their companion product structures."""

import dataclasses
import json
import math

import numpy as np
import pytest

from oracles import eval2
from statgeom.expfam import (
    AlphaConnection,
    builtin_model,
    exp_para_structures,
)
from statgeom.expr import eval_points, fd_check, parse_expression
from statgeom.geometry import (
    AdjointStructure,
    ConjugateConnection,
    LeviCivitaConnection,
    ManifoldSpec,
    check_statistical_structure,
    curvature_tensor,
    sample_points,
)
from statgeom.product import check_almost_product, check_para_kahler_like
from statgeom.special import trigamma

ALL_MODELS = [
    ("poisson", {}),
    ("normal", {}),
    ("multinomial", {"categories": 3}),
    ("dirichlet", {"dim": 2}),
]


def _models():
    return [builtin_model(name, **kw) for name, kw in ALL_MODELS]


class TestBuiltinModels:
    def test_poisson_values(self):
        model = builtin_model("poisson")
        assert eval_points(model.psi, [[0.0]])[0] == 1.0
        assert model.fisher.value([0.0])[0, 0] == 1.0

    def test_binary_multinomial_values(self):
        model = builtin_model("multinomial", categories=2, trials=1)
        assert eval_points(model.psi, [[0.0]])[0] == pytest.approx(math.log(2.0), rel=1e-15)
        # logistic second derivative: e^0 / (1 + e^0)² = 1/4
        assert model.fisher.value([0.0])[0, 0] == pytest.approx(0.25, rel=1e-14)

    def test_dirichlet_metric_formula(self):
        """g_ij = δ_ij trigamma(ξ_i) − trigamma(Σξ); at (1, 1) the recurrence
        trigamma(1) − trigamma(2) = 1 pins the diagonal."""
        model = builtin_model("dirichlet", dim=2)
        g = model.fisher.value([1.0, 1.0])
        assert g[0, 0] == pytest.approx(1.0, abs=1e-12)
        for p in sample_points(model.chart, 10):
            expected = np.diag([trigamma(p[0]), trigamma(p[1])]) - trigamma(p[0] + p[1])
            np.testing.assert_allclose(model.fisher.value(p), expected, atol=1e-11)

    def test_normal_metric_against_fd(self):
        model = builtin_model("normal")
        for p in sample_points(model.chart, 10):
            assert fd_check(model.psi, p).residual <= 1e-6
        # at (0, −1/2), i.e. unit variance centered: g11 = −1/(2 ξ²) = 1
        g = model.fisher.value([0.0, -0.5])
        assert g[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_metric_is_psi_hessian(self):
        for model in _models():
            metric = model.fisher
            for p in sample_points(model.chart, 5):
                np.testing.assert_allclose(metric.value(p), eval2(model.psi, p).hess,
                                           rtol=1e-12, atol=1e-12)

    def test_fisher_metric_built_once_per_model_run(self, monkeypatch):
        from statgeom import expfam, load_fixture, run_suite

        builds = []

        class CountedMetric(expfam.MetricField):
            def __init__(self, components):
                builds.append(components.shape[0])
                super().__init__(components)

        monkeypatch.setattr(expfam, "MetricField", CountedMetric)
        report = run_suite(load_fixture("example_5_5_normal"))
        assert {check.name.split(".")[0].split("[")[0] for check in report.checks} == {
            "alpha_family", "exp_para_certifications"}
        assert builds == [2]

    def test_concave_potential_errors_every_check(self):
        """ψ = −exp(t1) has the Fisher metric −exp(t1) < 0: every check of a run ERRORs."""
        from statgeom import model_manifest, parse_manifest, run_suite

        manifest = parse_manifest(model_manifest(
            "poisson", checks=["alpha_family", "exp_para_certifications"]))
        psi = parse_expression("-exp(t1)", ("t1",))
        concave = dataclasses.replace(manifest.model, name="concave", psi=psi,
                                      hessian=((psi.differentiate(0).differentiate(0),),))
        report = run_suite(dataclasses.replace(manifest, model=concave))
        reason = ("MetricError: Fisher metric of 'concave' is not positive definite: "
                  "signature (0, 1) at the box center")
        assert [(check.name, check.status, check.reason) for check in report.checks] == [
            ("alpha_family", "ERROR", reason), ("exp_para_certifications", "ERROR", reason)]

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            builtin_model("cauchy")
        with pytest.raises(ValueError, match="categories"):
            builtin_model("multinomial", categories=1)
        with pytest.raises(ValueError, match="trial"):
            builtin_model("multinomial", categories=3, trials=0)
        with pytest.raises(ValueError, match="dimension"):
            builtin_model("dirichlet", dim=1)
        with pytest.raises(ValueError, match="unexpected"):
            builtin_model("poisson", rate=2.0)


class TestAlphaConnections:
    def test_exponential_connection_vanishes(self):
        for model in _models():
            connection = AlphaConnection(model.fisher, 1.0)
            p = sample_points(model.chart, 1)[0]
            np.testing.assert_array_equal(connection.value(p),
                                          np.zeros((model.dim,) * 3))

    def test_zero_alpha_is_levi_civita(self):
        for model in _models():
            metric = model.fisher
            zero = AlphaConnection(metric, 0.0)
            mid = LeviCivitaConnection(metric)
            for p in sample_points(model.chart, 10):
                defect = zero.value(p) - mid.value(p)
                assert np.max(np.abs(defect)) <= 1e-9

    def test_poisson_mixture_coefficient(self):
        # Γ¹₁₁ = (1 − (−1))/2 · ψ'''/ψ'' = e^ξ/e^ξ = 1
        connection = AlphaConnection(builtin_model("poisson").fisher, -1.0)
        assert connection.value([0.37])[0, 0, 0] == pytest.approx(1.0, rel=1e-13)

    def test_statistical_structure_and_duality(self):
        for model in _models():
            metric = model.fisher
            pts = sample_points(model.chart, 15)
            for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
                connection = AlphaConnection(metric, alpha)
                manifold = ManifoldSpec(model.chart, metric, connection)
                assert check_statistical_structure(manifold, pts).passed, (model.name, alpha)
                dual = ConjugateConnection(metric, connection)
                mirror = AlphaConnection(metric, -alpha)
                for p in pts:
                    defect = dual.value(p) - mirror.value(p)
                    assert np.max(np.abs(defect)) <= 1e-9, (model.name, alpha)

    def test_exponential_family_is_one_flat(self):
        for model in _models():
            connection = AlphaConnection(model.fisher, 1.0)
            for p in sample_points(model.chart, 10):
                assert np.max(np.abs(curvature_tensor(*connection.jet(p)))) <= 1e-12

    def test_alpha_must_be_finite(self):
        with pytest.raises(ValueError):
            AlphaConnection(builtin_model("poisson").fisher, float("nan"))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, True, False])
    def test_alpha_must_be_a_finite_number(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            AlphaConnection(builtin_model("poisson").fisher, alpha)

    def test_overflowing_connection_errors_the_family(self, tmp_path, capsys):
        """α = 1e308 is finite but its Γ^(α) overflows: alpha_family ERRORs, naming α,
        where its rows would FAIL with residual inf, and the run exits 2."""
        from statgeom.cli import main

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"model": {"name": "dirichlet", "hyperparams": {"dim": 2},
                                              "alpha": [1e308]},
                                    "checks": ["alpha_family"]}), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert ("ERROR  alpha_family  (EvaluationError: "
                "the alpha-connection is not finite at alpha = 1e+308)") in out
        assert "FAIL" not in out and "Traceback" not in err


class TestCompanionStructures:
    INVOLUTIONS = {
        "normal": [[0.0, 1.0], [1.0, 0.0]],
        "multinomial": [[1.0, 0.0], [0.0, -1.0]],
        "dirichlet": [[1.0, 0.0], [0.0, -1.0]],
    }

    def _model(self, name):
        kw = dict(ALL_MODELS)[name]
        return builtin_model(name, **kw)

    def test_invalid_involutions_rejected(self):
        model = self._model("normal")
        with pytest.raises(ValueError, match="involution"):
            exp_para_structures(model, [[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="identity"):
            exp_para_structures(model, np.eye(2))
        with pytest.raises(ValueError, match="identity"):
            exp_para_structures(model, -np.eye(2))

    def test_dimension_one_has_no_admissible_involution(self):
        with pytest.raises(ValueError, match="dimension 1"):
            exp_para_structures(builtin_model("poisson"), [[1.0]])

    @pytest.mark.parametrize("name", ["normal", "multinomial", "dirichlet"])
    def test_both_certifications_pass(self, name):
        model = self._model(name)
        constant, twisted = exp_para_structures(model, self.INVOLUTIONS[name])
        metric = model.fisher
        pts = sample_points(model.chart, 25)
        assert check_almost_product(constant, pts).passed
        assert check_almost_product(twisted, pts).passed
        exponential = check_para_kahler_like(
            ManifoldSpec(model.chart, metric, AlphaConnection(metric, 1.0), constant), pts)
        mixture = check_para_kahler_like(
            ManifoldSpec(model.chart, metric, AlphaConnection(metric, -1.0), twisted), pts)
        assert exponential.passed and mixture.passed
        assert exponential.details["parallelism_residual"] <= 1e-8
        assert mixture.details["parallelism_residual"] <= 1e-8

    @pytest.mark.parametrize("name", ["normal", "multinomial", "dirichlet"])
    def test_twisted_structure_matches_adjoint(self, name):
        """Regression pin: the metric-twisted companion coincides with the
        negative adjoint of the constant structure (same sign, not a flip)."""
        model = self._model(name)
        constant, twisted = exp_para_structures(model, self.INVOLUTIONS[name])
        adjoint = AdjointStructure(model.fisher, constant)
        for p in sample_points(model.chart, 10):
            np.testing.assert_allclose(twisted.value(p), adjoint.value(p), atol=1e-12)
