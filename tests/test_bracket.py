"""The planned constant-curvature models against the dense ``np.einsum`` formula, bit for bit.

The space-form bracket g_jk δ^l_i − g_ik δ^l_j + q_kj P^l_i − q_ki P^l_j +
(q_ij − q_ji) P^l_k with q = gP, and Kurose's model, its first two terms, are
formed from the kept terms of a plan made once from g's and P's structural
patterns (``geometry._bracket``).  Here they are compared, as int64 views, with
the five (or two) outer products of ``np.einsum`` added left to right: on
random patterns, on the curvature workload's manifests for P and P*, for a
batch and for one point, and where gP overflows, which must hand back to the
dense formula so that 0 · inf stays NaN.
"""

import numpy as np
import pytest

from conftest import CURVATURE_CHECKS
from statgeom import geometry, product
from statgeom.fixtures import curved_product_manifest
from statgeom.geometry import _bracket, _bracket_plan, _pack, sample_points
from statgeom.manifest import build_context, parse_manifest
from statgeom.suite import CHECKS, run_suite
from test_refutations import bracket_overflow_manifest


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.int64)


def dense_bracket(gm, m=None):
    """The bracket's outer products by np.einsum, added left to right; Kurose's two without m."""
    eye = np.eye(gm.shape[-1])
    out = np.einsum("...jk,li->...lijk", gm, eye)
    out -= np.einsum("...ik,lj->...lijk", gm, eye)
    if m is None:
        return out
    q = gm @ m
    return (out + np.einsum("...kj,...li->...lijk", q, m)
            - np.einsum("...ki,...lj->...lijk", q, m)
            + np.einsum("...ij,...lk->...lijk", q - np.swapaxes(q, -1, -2), m))


def _draw(rng, count, pattern):
    """Values on ``pattern`` over ``count`` points, a tenth of them 0.0 or −0.0, and ±0.0 off it."""
    arr = rng.standard_normal((count,) + pattern.shape)
    zero = ~pattern | (rng.random(arr.shape) < 0.1)
    arr[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    return arr


def _pattern(rng, n, symmetric):
    pattern = rng.random((n, n)) < rng.choice([0.15, 0.4, 1.0])
    return pattern | pattern.T if symmetric else pattern


def _assert_planned_matches_dense(gm, m, metric_pattern, structure_pattern):
    """Both models, planned from the patterns, against np.einsum, for the batch and each point."""
    n = gm.shape[-1]
    for terms, structure in ((2, None), (5, m)):
        plan = _bracket_plan(n, metric_pattern, structure_pattern if terms == 5 else None, terms)
        np.testing.assert_array_equal(_bits(_bracket(plan, gm, structure)), _bits(dense_bracket(gm, structure)))
        for row in range(len(gm)):
            one = None if structure is None else structure[row]
            np.testing.assert_array_equal(_bits(_bracket(plan, gm[row], one)), _bits(dense_bracket(gm[row], one)),
                                          err_msg=f"terms {terms}, point {row}")


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_symmetric"])
def test_planned_bracket_matches_einsum_on_random_patterns(symmetric):
    rng = np.random.default_rng(35 + symmetric)
    for n in range(1, 9):
        for count in (1, 7, 25):
            g_pattern, m_pattern = _pattern(rng, n, symmetric), _pattern(rng, n, False)
            gm, m = _draw(rng, count, g_pattern), _draw(rng, count, m_pattern)
            _assert_planned_matches_dense(gm, m, _pack(g_pattern), _pack(m_pattern))
            _assert_planned_matches_dense(gm, m, None, None)  # unknown patterns: every term kept


def _curvature_specs():
    for pairs in (1, 2, 3, 4):
        data = curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs, checks=CURVATURE_CHECKS)
        spec = build_context(parse_manifest(data, known_checks=set(CHECKS))).manifold
        yield spec, sample_points(spec.chart, 100)


def test_planned_bracket_matches_einsum_on_the_curvature_manifests():
    """P and P* of each manifest, for the whole batch and for each point, and Kurose's model."""
    for spec, points in _curvature_specs():
        gm = spec.metric.values(points)
        for structure in (spec.product, spec.adjoint):
            m = structure.values(points)
            np.testing.assert_array_equal(_bits(product._space_form_model(spec, structure, gm, m)),
                                          _bits(dense_bracket(gm, m)))
            for row in range(0, len(points), 9):
                np.testing.assert_array_equal(
                    _bits(product._space_form_model(spec, structure, gm[row], m[row])),
                    _bits(dense_bracket(gm[row], m[row])))
        plan = geometry._kept_bracket(spec, spec.metric)
        np.testing.assert_array_equal(_bits(_bracket(plan, gm)), _bits(dense_bracket(gm)))


def test_overflowing_gp_keeps_the_nan_of_einsum():
    """g and P are finite, but q = gP has q_01 = 1e200 · 1e200 = inf.  The dense formula forms
    q_01 P^0_0 = inf · 0 as NaN at [0, 0, 1, 0], where P's pattern drops every term, so no kept
    term reaches that slot; the finiteness test of q hands the bracket back, so it keeps
    np.einsum's bits, for the batch and for one point."""
    spec = build_context(parse_manifest(bracket_overflow_manifest(), known_checks=set(CHECKS))).manifold
    points = sample_points(spec.chart, 5)
    gm, m = spec.metric.values(points), spec.product.values(points)
    with np.errstate(all="ignore"):
        expected = dense_bracket(gm, m)
        got = product._space_form_model(spec, spec.product, gm, m)
        one = product._space_form_model(spec, spec.product, gm[0], m[0])
    slot = np.ravel_multi_index((0, 0, 1, 0), (2,) * 4)
    assert np.isnan(expected[:, 0, 0, 1, 0]).all()
    assert slot not in geometry._kept_bracket(spec, spec.metric, spec.product)[2]
    np.testing.assert_array_equal(_bits(got), _bits(expected))
    np.testing.assert_array_equal(_bits(one), _bits(expected[0]))


def test_curvature_pass_forms_no_dense_bracket(monkeypatch):
    """A curvature pass builds every bracket and Kurose model from its plan: no np.einsum outer
    product over [l,i,j,k] runs, and nothing is handed back, because every operand is finite."""
    dense, handed_back, einsum = [], [], np.einsum
    original = geometry._dense_bracket

    def spy_einsum(subscripts, *operands, **kwargs):
        if isinstance(subscripts, str) and subscripts.endswith("->...lijk"):
            dense.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    def spy_dense(*args):
        handed_back.append(len(args))
        return original(*args)

    monkeypatch.setattr(np, "einsum", spy_einsum)
    monkeypatch.setattr(geometry, "_dense_bracket", spy_dense)
    for data in (curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs, checks=CURVATURE_CHECKS)
                 for pairs in (1, 2, 3, 4)):
        report = run_suite(parse_manifest(data, known_checks=set(CHECKS)), points=100)
        assert "ERROR" not in {check.status for check in report.checks}
    assert dense == [] and handed_back == []


def test_second_curvature_pass_makes_no_new_bracket_plan():
    """One plan per (metric pattern, structure pattern) pair, kept: the first pass of the four
    curvature manifests makes two for each, one that P and P* share (their patterns are equal
    there) and Kurose's model, and a second pass none."""
    manifests = [parse_manifest(curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs,
                                                        checks=CURVATURE_CHECKS), known_checks=set(CHECKS))
                 for pairs in (1, 2, 3, 4)]
    geometry._bracket_plan.cache_clear()
    geometry._bracket_union.cache_clear()
    for manifest in manifests:
        run_suite(manifest, points=100)
    made = geometry._bracket_plan.cache_info().misses
    assert made == 8
    for manifest in manifests:
        run_suite(manifest, points=100)
    assert geometry._bracket_plan.cache_info().misses == made


def test_bracket_plans_hold_index_arrays_only():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        plan = _bracket_plan(n, _pack(_pattern(rng, n, True)), _pack(_pattern(rng, n, False)), 5)
        assert len(plan) == 3
        for index in plan:
            assert index.dtype.kind == "i" and not index.flags.writeable and len(index) == len(plan[2])
