"""R on its structural pattern against the dense ``np.einsum`` formula, bit for bit.

A block forms R only on the live slots of its connection's pattern
(``geometry._packed_curvature``), and every R reader works on those entries:
flatness, Kurose's constant-curvature form, the dual-curvature identity and
the space form.  Here R unpacked (+0.0 off the pattern) and each reader's rows
are compared, as int64 views, with R and the rows of the dense formulas over
every slot, on the shipped fixtures, the α-connections of both model
goldens, ``nonconstant_involution``, the curvature workload's manifests and
the submersion total spaces.  A non-finite operand hands the block back to
the dense formulas, so each 0 · inf stays NaN; a finite curvature pass forms
no dense R, no dense bracket and, from dimension 4 on, no array of n⁴ entries
per point in its R-reader loop.
"""

import numpy as np
import pytest

from conftest import CURVATURE_CHECKS, nonconstant_involution_manifest
from statgeom import geometry, plans, product
from statgeom.fixtures import curved_product_manifest, fixture_ids, load_fixture, submersion_manifest
from statgeom.geometry import max_abs, sample_points, scale_of
from statgeom.manifest import build_context, parse_manifest
from statgeom.suite import CHECKS, run_suite
from test_bracket import dense_bracket
from test_golden import MODEL_GOLDENS, model_golden_manifest
from test_refutations import overflow_manifest


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.int64)


def dense_curvature(gamma, dgamma):
    """R over a leading point axis, every slot formed by np.einsum."""
    b = np.einsum("piljk->plijk", dgamma) + np.einsum("pmjk,plim->plijk", gamma, gamma)
    return b - np.einsum("plijk->pljik", b)


def _curvature_manifests():
    return [parse_manifest(curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs,
                                                   checks=CURVATURE_CHECKS), known_checks=set(CHECKS))
            for pairs in (1, 2, 3, 4)]


def _manifests():
    known = set(CHECKS)
    named = [(name, load_fixture(name, known_checks=known)) for name in fixture_ids()]
    named += [(name, model_golden_manifest(name)) for name in sorted(MODEL_GOLDENS)]
    named.append(("nonconstant_involution",
                  parse_manifest(nonconstant_involution_manifest(), known_checks=known)))
    named += [(f"curved_product_{pairs}pair", manifest)
              for pairs, manifest in zip((1, 2, 3, 4), _curvature_manifests())]
    named.append(("curved_submersion_3to1", parse_manifest(
        submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=3), known_checks=known)))
    return named


def _specs(manifest):
    """Each spec a run of ``manifest`` reads R of (a submersion's total space is its manifold),
    with its golden points."""
    ctx = build_context(manifest)
    points = sample_points(ctx.chart, manifest.points)
    if ctx.manifold is not None:
        yield ctx.manifold, points
    if ctx.submersion is not None:
        yield ctx.submersion.base, points[:, :ctx.submersion.base_dim]
    if ctx.model is not None:
        for alpha in sorted({1.0, -1.0, 0.0, *ctx.alphas}):
            yield ctx.model.alpha_manifold(alpha), points


MANIFESTS = _manifests()


@pytest.mark.parametrize("name, manifest", MANIFESTS, ids=[name for name, _ in MANIFESTS])
def test_packed_curvature_is_the_dense_formula(name, manifest):
    """R and R* on their patterns, unpacked, have the bits of the dense formula, which is +0.0
    off the pattern; so have the one-point reads."""
    packed = 0
    for spec, points in _specs(manifest):
        for connection in (spec.resolved_connection, spec.conjugate):
            gamma, dgamma = connection.jets(points)
            expected = dense_curvature(gamma, dgamma)
            r = geometry._curvature_of(connection, gamma, dgamma)
            pattern = geometry._kept_curvature(connection).pattern
            assert r.pattern == pattern  # nothing handed back: every operand is finite
            np.testing.assert_array_equal(_bits(geometry._unpacked(r, spec.metric.dim)), _bits(expected))
            if pattern is not None:
                packed += 1
                off = ~plans._unpack(pattern)
                assert not _bits(expected)[:, off].any(), "the dense formula is +0.0 off the pattern"
            for row in range(0, len(points), 7):
                one = geometry._curvature_at(connection, gamma[row], dgamma[row])
                np.testing.assert_array_equal(_bits(one), _bits(expected[row]), err_msg=f"point {row}")
    assert packed or not name.startswith("curved_"), "the workload's R is packed"


def _dense_rows(reader, spec, points, c=None):
    """The rows of ``reader`` by the dense formulas over every slot."""
    gm = spec.metric.values(points)
    r = dense_curvature(*spec.resolved_connection.jets(points))
    if reader is geometry._flatness_rows:
        return max_abs(r), scale_of(gm)
    if reader is geometry._kurose_rows:
        i, j, disc = geometry._best_coordinate_plane(gm[0])
        k = float(np.einsum("l,lm->m", r[0][:, i, j, j], gm[0])[i]) / disc
        return max_abs(k * dense_bracket(gm) - r), scale_of(r, gm), np.full(len(gm), k)
    r_star = dense_curvature(*spec.conjugate.jets(points))
    if reader is geometry._dual_curvature_rows:
        r_cov, rs_cov = (np.einsum("plm,pmijk->pijkl", gm, x) for x in (r, r_star))
        return max_abs(r_cov + np.einsum("pijlk->pijkl", rs_cov)), scale_of(r_cov, rs_cov)
    m, ms = spec.product.values(points), spec.adjoint.values(points)
    return (max_abs(c / 4.0 * dense_bracket(gm, m) - r), max_abs(c / 4.0 * dense_bracket(gm, ms) - r_star),
            scale_of(r, r_star, gm, m))


def _reader_cases():
    for name, manifest in MANIFESTS:
        for spec, points in _specs(manifest):
            yield name, spec, points, (geometry._flatness_rows,)
            yield name, spec, points, (geometry._dual_curvature_rows,)
            if spec.metric.dim > 1:
                yield name, spec, points, (geometry._kurose_rows,)
            if spec.product is not None:
                yield name, spec, points, (product._space_form_rows, 0.7)


@pytest.mark.parametrize("name", sorted({name for name, _ in MANIFESTS}))
def test_every_reader_has_the_dense_rows(name):
    """Flatness, Kurose's form, the dual-curvature identity and the space form, each from R on
    its pattern, give the rows of the dense formulas bit for bit, in one block or in many."""
    cases = [case for case in _reader_cases() if case[0] == name]
    assert cases
    for _, spec, points, (reader, *args) in cases:
        try:
            expected = _dense_rows(reader, spec, points, *args)
        except geometry.DegeneratePlaneError:
            with pytest.raises(geometry.DegeneratePlaneError):
                geometry.block_rows(points, (reader, spec, *args))
            continue
        for rows in (geometry.block_rows(points, (reader, spec, *args))[0],
                     geometry._block_loop(points, [(reader, spec, *args)], width=geometry._BLOCK_ENTRIES)[0]):
            assert len(rows) == len(expected)
            for got, want in zip(rows, expected):
                np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=reader.__name__)


def test_overflow_hands_its_block_back(monkeypatch):
    """With g = diag(1e200, 1e200) and Γ⁰₀₀ = 1e200, Γ* is non-finite: R* is handed back to the
    dense formula on every slot, where the NaN of each 0 · inf reaches slots off R*'s pattern, and
    the lowering of R, whose ΓΓ overflows, goes to np.einsum; both keep their dense bits, and
    dual_curvature_identity still FAILs with residual inf."""
    handed_back, dense = [], geometry._dense_curvature

    def spy(*args):
        handed_back.append(len(args))
        return dense(*args)

    monkeypatch.setattr(geometry, "_dense_curvature", spy)
    spec = build_context(parse_manifest(overflow_manifest(), known_checks=set(CHECKS))).manifold
    points = sample_points(spec.chart, 5)
    with np.errstate(all="ignore"):
        r_star = geometry._curvature_of(spec.conjugate, *spec.conjugate.jets(points))
        expected = dense_curvature(*spec.conjugate.jets(points))
        assert r_star.pattern is None and handed_back == [2]
        off = ~plans._unpack(geometry._kept_curvature(spec.conjugate).pattern).reshape(-1)
        assert np.isnan(expected.reshape(len(points), -1)[:, off]).any()
        np.testing.assert_array_equal(_bits(geometry._unpacked(r_star, 2)), _bits(expected))
        r = geometry._curvature_of(spec.connection, *spec.connection.jets(points))
        assert r.pattern is not None and not np.isfinite(r.values).all()
        rows = geometry.block_rows(points, (geometry._dual_curvature_rows, spec))[0]
        for got, want in zip(rows, _dense_rows(geometry._dual_curvature_rows, spec, points)):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        row = {check.name: check for check in run_suite(
            parse_manifest(overflow_manifest(), known_checks=set(CHECKS))).checks}["dual_curvature_identity"]
    assert (row.status, row.residual) == ("FAIL", np.inf)


def test_non_finite_r_is_lowered_by_einsum():
    """An infinite entry of R meets the structural zeros of a diagonal g: np.einsum forms each
    0 · inf of g·R as NaN, which the lowering's plan would skip; a non-finite R is lowered by
    np.einsum over every slot, so the rows keep the NaN."""
    spec = build_context(_curvature_manifests()[1]).manifold
    points = sample_points(spec.chart, 5)
    block, unpacked = geometry.Block(points, slice(0, 5), {}), []
    for connection, value in ((spec.resolved_connection, np.inf), (spec.conjugate, None)):
        r = geometry._curvature_of(connection, *connection.jets(points))
        if value is not None:
            r = geometry.Packed(r.values.copy(), r.pattern)
            r.values[:, 0] = value
        block._curvatures[connection] = r
        unpacked.append(geometry._unpacked(r, spec.metric.dim))
    gm = spec.metric.values(points)
    with np.errstate(all="ignore"):
        r_cov, rs_cov = (np.einsum("plm,pmijk->pijkl", gm, r) for r in unpacked)
        expected = max_abs(r_cov + np.einsum("pijlk->pijkl", rs_cov)), scale_of(r_cov, rs_cov)
        got = geometry._dual_curvature_rows(block, spec)
    assert np.isnan(expected[0]).all()
    for rows, want in zip(got, expected):
        np.testing.assert_array_equal(_bits(rows), _bits(want))


def test_finite_curvature_pass_forms_nothing_dense(monkeypatch):
    """A curvature pass forms R without the dense formula and every bracket from its plan; from
    dimension 4 on, its R-reader loop, apart from the stores it reads, forms no array of n⁴
    entries per point of a block, and the dimension-8 manifest runs that loop in one block.  (In
    dimension 2 neither ΓΓ nor g·R keeps a plan, and np.einsum forms them on all 16 slots.)"""
    dense, wide, loops, state = [], [], [], {"reading": 0, "threshold": None}
    block_loop, lookup = geometry._block_loop, geometry.PointJets._lookup

    def spy_dense(name):
        original = getattr(geometry, name)

        def spy(*args, **kwargs):
            dense.append(name)
            return original(*args, **kwargs)
        return spy

    def spy_loop(points, reducers, isolate=False, width=None):
        if state["reading"] or not all(hasattr(fn, "width") for fn, *_ in reducers):  # no R-reader loop
            return block_loop(points, reducers, isolate, width)
        step = max(1, geometry._BLOCK_ENTRIES // max(1, width))
        loops.append(-(-len(points) // step))
        state["threshold"] = min(len(points), step) * points.shape[1] ** 4
        try:
            return block_loop(points, reducers, isolate, width)
        finally:
            state["threshold"] = None

    def spy_lookup(field, *args):
        state["reading"] += 1
        try:
            return lookup(field, *args)
        finally:
            state["reading"] -= 1

    def spy_numpy(name):
        original = getattr(np, name)

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            if state["threshold"] is not None and not state["reading"] and out.size >= state["threshold"]:
                wide.append((name, out.shape))
            return out
        return spy

    for name in ("_dense_curvature", "_dense_bracket"):
        monkeypatch.setattr(geometry, name, spy_dense(name))
    monkeypatch.setattr(geometry, "_block_loop", spy_loop)
    monkeypatch.setattr(geometry.PointJets, "_lookup", spy_lookup)
    for name in ("einsum", "bincount", "zeros", "empty", "concatenate"):
        monkeypatch.setattr(np, name, spy_numpy(name))
    for pairs, manifest in zip((1, 2, 3, 4), _curvature_manifests()):
        loops.clear()
        wide.clear()
        report = run_suite(manifest, points=100)
        assert "ERROR" not in {check.status for check in report.checks}
        assert len(loops) == 1, "the R readers share one loop"
        if pairs > 1:
            assert wide == [], (2 * pairs, wide)
        if pairs == 4:
            assert loops == [1]
    assert dense == []
