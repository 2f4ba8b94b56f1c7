"""Almost product structures, adjoints, certifications, and the flatness result."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import NaNConnection, curved_manifold, flat_manifold
from statgeom import build_context, parse_manifest
from statgeom.fixtures import flat_product_manifest
from statgeom.geometry import (
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    ExpressionField,
    PointJets,
    curvature_tensor,
    levi_civita,
    sample_points,
)
from statgeom.product import (
    _covariant_derivative_P,
    adjoint_structure,
    check_almost_product,
    check_pairing_identities,
    check_para_kahler_like,
    check_space_form,
    conjugate_parallelism_check,
    fit_space_form_constant,
    verify_flatness_theorem,
)


class TestAdjointStructure:
    def test_flat_fixture_coefficients(self):
        """P*(∂x) = k ∂y and P*(∂y) = (1/k) ∂x on the flat pair fixture."""
        for k in (1.0, 2.0, -3.0):
            m = flat_manifold(pairs=1, k=k, epsilons=(1.0,))
            star = adjoint_structure(m.metric, m.product).value([0.1, 0.2])
            expected = np.array([[0.0, 1.0 / k], [k, 0.0]])
            np.testing.assert_allclose(star, expected, atol=1e-13)

    def test_curved_fixture_coefficients(self):
        """P*(∂x) = (k/l) ∂y and P*(∂y) = (l/k) ∂x on the curved fixture."""
        m = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        star = adjoint_structure(m.metric, m.product).value([0.3, 1.4])
        np.testing.assert_allclose(star, [[0.0, 2.0], [0.5, 0.0]], atol=1e-13)

    def test_self_adjoint_para_hermitian_case(self):
        """With the neutral metric diag(1, −1) the swap satisfies g(PX, PY) = −g(X, Y)
        and is its own negative adjoint."""
        m = flat_manifold(pairs=1, k=1.0, epsilons=(1.0,))
        p = sample_points(m.chart, 1)[0]
        star = adjoint_structure(m.metric, m.product).value(p)
        np.testing.assert_allclose(star, m.product.value(p), atol=1e-15)

    def test_involution(self):
        for m in (flat_manifold(pairs=2, k=-3.0, epsilons=(1.0, -1.0)),
                  curved_manifold(pairs=1, k=2.0, l=-1.0, epsilons=(1.0,))):
            double = adjoint_structure(m.metric, adjoint_structure(m.metric, m.product))
            for p in sample_points(m.chart, 10):
                defect = double.value(p) - m.product.value(p)
                assert np.max(np.abs(defect)) <= 1e-10

    def test_swap_structure_trace_zero(self):
        m = flat_manifold(pairs=2, k=2.0, epsilons=(1.0, 1.0))
        assert np.trace(m.product.value(sample_points(m.chart, 1)[0])) == 0.0


class TestAlmostProduct:
    def test_swap_passes(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        assert check_almost_product(m.product, sample_points(m.chart, 10)).passed

    def test_identity_rejected(self):
        identity = ExpressionField.constant(np.eye(2), ("x", "y"))
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        result = check_almost_product(identity, sample_points(m.chart, 10))
        assert not result.passed
        assert "witness_missing" in result.details

    def test_reflection_passes(self):
        reflection = ExpressionField.constant(np.diag([1.0, -1.0]), ("x", "y"))
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        assert check_almost_product(reflection, sample_points(m.chart, 10)).passed


class TestPairingIdentities:
    def test_flat_and_curved_fixtures(self):
        for m in (flat_manifold(pairs=1, k=2.0, epsilons=(1.0,)),
                  flat_manifold(pairs=2, k=-3.0, epsilons=(1.0, -1.0)),
                  curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))):
            result = check_pairing_identities(m, sample_points(m.chart, 25))
            assert result.passed
            assert result.details["pairing"] <= 1e-10

    def test_self_adjoint_double_adjoint_is_tight(self):
        m = flat_manifold(pairs=1, k=1.0, epsilons=(1.0,))
        result = check_pairing_identities(m, sample_points(m.chart, 10))
        assert result.details["double_adjoint"] <= 1e-12


class TestParallelism:
    def test_constant_structure_flat_connection(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        p = sample_points(m.chart, 1)[0]
        d = _covariant_derivative_P(m.connection.value(p), *m.product.jet(p))
        np.testing.assert_array_equal(d, np.zeros((2, 2, 2)))

    def test_curved_fixture_parallel(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, 1.0))
        for p in sample_points(m.chart, 25):
            d = _covariant_derivative_P(m.connection.value(p), *m.product.jet(p))
            assert np.max(np.abs(d)) <= 1e-9

    def test_reflection_not_parallel_for_curved_connection(self):
        """Swapping P for diag(1, −1) breaks parallelism: the x-direction derivative
        picks up (∇_x P)^y_x = 2 Γ^y_xx = −4k/((k+l)y)."""
        m = curved_manifold(pairs=1, k=1.0, l=1.0, epsilons=(1.0,))
        reflection = ExpressionField.constant(np.diag([1.0, -1.0]), ("x1", "y1"))
        point = np.array([0.0, 1.0])
        d = _covariant_derivative_P(m.connection.value(point), *reflection.jet(point))
        assert d[0, 1, 0] == pytest.approx(-2.0, rel=1e-13)


class TestCertification:
    def test_flat_fixture_certifies(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        assert check_para_kahler_like(m, sample_points(m.chart, 25)).passed

    def test_curved_fixture_certifies(self):
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, -1.0))
        assert check_para_kahler_like(m, sample_points(m.chart, 25)).passed

    def test_levi_civita_replacement_regression(self):
        """Regression pins: with the Levi-Civita connection instead of the declared
        one, the curved fixture certifies exactly when k = l (the declared
        connection is then self-dual and metric)."""
        equal = curved_manifold(pairs=1, k=1.0, l=1.0, epsilons=(1.0,))
        pts = sample_points(equal.chart, 25)
        assert check_para_kahler_like(dataclasses.replace(equal, connection=levi_civita(equal.metric)),
                                      pts).passed
        skew = curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))
        pts = sample_points(skew.chart, 25)
        cert = check_para_kahler_like(dataclasses.replace(skew, connection=levi_civita(skew.metric)),
                                      pts)
        assert not cert.passed
        assert cert.details["parallelism_residual"] > cert.tolerance

    def test_structure_commutes_with_curvature(self):
        """R(∂_i, ∂_j) P = P R(∂_i, ∂_j) on certified fixtures."""
        m = curved_manifold(pairs=2, k=1.0, l=2.0, epsilons=(1.0, 1.0))
        for p in sample_points(m.chart, 10):
            r = curvature_tensor(*m.connection.jet(p))
            mat = m.product.value(p)
            left = np.einsum("lijm,mk->lijk", r, mat)
            right = np.einsum("lm,mijk->lijk", mat, r)
            assert np.max(np.abs(left - right)) <= 1e-8


class TestConjugateParallelism:
    def test_fixtures_vanish_together(self):
        for m in (flat_manifold(pairs=1, k=2.0, epsilons=(1.0,)),
                  curved_manifold(pairs=1, k=1.0, l=2.0, epsilons=(1.0,))):
            result = conjugate_parallelism_check(m, sample_points(m.chart, 25))
            assert result.passed
            assert result.details["primal"] <= 1e-9
            assert result.details["dual"] <= 1e-9

    def test_perturbed_connection_breaks_both(self):
        """A constant bump on one coefficient makes both ∇P and ∇*P* nonzero."""
        data = flat_product_manifest(1, 2.0, (1.0,), seed=13)
        data["connection"][0][0][0] = "0.1"
        m = build_context(parse_manifest(data)).manifold
        result = conjugate_parallelism_check(m, sample_points(m.chart, 25))
        assert result.details["primal"] > result.tolerance
        assert result.details["dual"] > result.tolerance
        assert result.passed  # the equivalence itself still holds

    def test_nan_connection_fails(self):
        """NaN coefficients make both residuals infinite, which must FAIL, not count as nonzero."""
        class NaNConnection(PointJets):
            dim = 2

            def _batch_jets(self, points, full):
                gamma = np.full((len(points), 2, 2, 2), np.nan)
                return (gamma, np.full((len(points), 2, 2, 2, 2), np.nan)) if full else (gamma,)

        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        result = conjugate_parallelism_check(dataclasses.replace(m, connection=NaNConnection()),
                                             sample_points(m.chart, 5))
        assert result.residual == float("inf")
        assert not result.passed


    def test_nan_connection_fails_an_infinite_tolerance(self):
        """Infinite residuals on both sides are not both zero, whatever the tolerance."""
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        result = conjugate_parallelism_check(dataclasses.replace(m, connection=NaNConnection(2)),
                                             sample_points(m.chart, 5), math.inf)
        assert not result.passed


class TestSpaceForm:
    def test_flat_fixture_zero_constant(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        pts = sample_points(m.chart, 25)
        result = check_space_form(m, 0.0, pts)
        assert result.passed
        assert result.details["dual"] <= 1e-10

    def test_flat_fixture_nonzero_constant_fails(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        pts = sample_points(m.chart, 25)
        assert not check_space_form(m, 1.0, pts).passed

    def test_fitted_constant_for_flat_fixture(self):
        m = flat_manifold(pairs=2, k=-3.0, epsilons=(1.0, 1.0))
        pts = sample_points(m.chart, 10)
        assert fit_space_form_constant(m, pts) == pytest.approx(
            0.0, abs=1e-12)


class TestFlatnessTheorem:
    def test_flat_four_dimensional_passes(self):
        m = flat_manifold(pairs=2, k=2.0, epsilons=(1.0, 1.0))
        outcome = verify_flatness_theorem(m, sample_points(m.chart, 25))
        assert outcome.status == STATUS_PASS
        assert outcome.details["constant"] == pytest.approx(0.0, abs=1e-9)

    def test_dimension_two_not_applicable(self):
        m = flat_manifold(pairs=1, k=2.0, epsilons=(1.0,))
        outcome = verify_flatness_theorem(m, sample_points(m.chart, 25))
        assert outcome.status == STATUS_NOT_APPLICABLE
        assert "dimension" in outcome.reason

    def test_curved_four_dimensional_not_applicable(self):
        """Regression pin: the two-pair curved fixture certifies but is not of
        constant curvature, so the flatness implication does not fire."""
        m = curved_manifold(pairs=2, k=1.0, l=1.0, epsilons=(1.0, 1.0))
        outcome = verify_flatness_theorem(m, sample_points(m.chart, 25))
        assert outcome.status == STATUS_NOT_APPLICABLE
        assert "constant-curvature" in outcome.reason
