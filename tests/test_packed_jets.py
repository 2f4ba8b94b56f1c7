"""Jet stores on their structural pattern against the dense stores, bit for bit.

A derivative part with four per-point indices whose structural pattern keeps
at most ``plans._SPARSE_SHARE`` of its entries is stored as (points, live)
columns (``PointJets.layouts``): ∂²g of a metric, ∂Γ of an expression
connection, and ∂Γ of the Levi-Civita and conjugate connections, formed with
their intermediates ``da`` and ``drhs`` by plans that gather from packed
operands.  Here every stored part, unpacked, is compared as an int64 view (so
the sign of a zero counts) with the dense part of the formulas over every slot:
the slot-by-slot fill of an expression field and the ``np.einsum`` formulas of
the derived connections.  A block whose operands overflow is handed back and
stored dense, so each 0 · inf stays NaN.
"""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import CURVATURE_CHECKS, nonconstant_involution_manifest
from statgeom import expr as ex
from statgeom import cli, geometry, plans
from statgeom.fixtures import curved_product_manifest, fixture_ids, load_fixture, submersion_manifest
from statgeom.geometry import ConjugateConnection, ExpressionField, LeviCivitaConnection, sample_points
from statgeom.manifest import build_context, parse_manifest
from statgeom.suite import CHECKS, run_suite
from test_golden import MODEL_GOLDENS, model_golden_manifest
from test_refutations import bracket_overflow_manifest, overflow_manifest

DIMENSION_12_DIGEST = Path(__file__).parent / "golden" / "curved_product_6pair.sha256"


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.int64)


def _curvature_manifest(pairs):
    return parse_manifest(curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs,
                                                  checks=CURVATURE_CHECKS), known_checks=set(CHECKS))


def _manifests():
    known = set(CHECKS)
    named = [(name, load_fixture(name, known_checks=known)) for name in fixture_ids()]
    named += [(name, model_golden_manifest(name)) for name in sorted(MODEL_GOLDENS)]
    named.append(("nonconstant_involution",
                  parse_manifest(nonconstant_involution_manifest(), known_checks=known)))
    named += [(f"curved_product_{pairs}pair", _curvature_manifest(pairs)) for pairs in (1, 2, 3, 4)]
    named.append(("curved_submersion_3to1", parse_manifest(
        submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=3), known_checks=known)))
    return named


MANIFESTS = _manifests()


def _specs(manifest):
    """Each manifold spec a run of ``manifest`` reads, with its points: a submersion's total
    space, base and fiber, and a model's α-connections."""
    ctx = build_context(manifest)
    points = sample_points(ctx.chart, manifest.points)
    if ctx.manifold is not None:
        yield ctx.manifold, points
    if ctx.submersion is not None:
        yield ctx.submersion.base, points[:, :ctx.submersion.base_dim]
        yield ctx.submersion.fiber, points[:, ctx.submersion.base_dim:]
    if ctx.model is not None:
        for alpha in sorted({1.0, -1.0, 0.0, *ctx.alphas}):
            yield ctx.model.alpha_manifold(alpha), points


def dense_jets(field, points):
    """The jets of ``field`` with every part dense: an expression field filled slot by slot, the
    Levi-Civita and conjugate connections by their np.einsum formulas over dense operands, and
    any other field as it is stored (none of those packs a part)."""
    if isinstance(field, ExpressionField):
        grid, count = field.grid, len(points)
        parts = [np.broadcast_to(field._template, (count,) + grid.shape).copy()]
        parts += [np.zeros((count,) + (field.dim,) * k + grid.shape) for k in range(1, field.order + 1)]

        def write(i, jets):
            for target in grid.slots[i]:
                for part, jet in zip(parts, jets):
                    if jet is not None:
                        part[target] = jet
        if grid.varying:
            ex.eval_fields(grid.varying, points, field.order, write, grid.plan, check_finite=False)
        return tuple(parts)
    if isinstance(field, LeviCivitaConnection):
        (_, dg, d2g), (ginv, dginv) = dense_jets(field._bases[0], points), field._bases[1].jets(points)
        a = np.einsum("pimj->pmij", dg) + np.einsum("pjmi->pmij", dg) - dg
        return 0.5 * np.einsum("pkm,pmij->pkij", ginv, a), 0.5 * (
            np.einsum("plkm,pmij->plkij", dginv, a) + np.einsum("pkm,plmij->plkij", ginv, dense_da(d2g)))
    if isinstance(field, ConjugateConnection):
        (g, dg, d2g), (ginv, dginv) = dense_jets(field._bases[0], points), field._bases[1].jets(points)
        gamma, dgamma = dense_jets(field._bases[2], points)
        rhs = np.einsum("pikj->pkij", dg) - np.einsum("pmik,pmj->pkij", gamma, g)
        return np.einsum("ptk,pkij->ptij", ginv, rhs), (
            np.einsum("pltk,pkij->pltij", dginv, rhs)
            + np.einsum("ptk,plkij->pltij", ginv, dense_drhs(g, dg, d2g, gamma, dgamma)))
    assert not any(field.layouts), type(field).__name__
    return field.jets(points)


def dense_da(d2g):
    return np.einsum("plimj->plmij", d2g) + np.einsum("pljmi->plmij", d2g) - np.einsum("plmij->plmij", d2g)


def dense_drhs(g, dg, d2g, gamma, dgamma):
    return (np.einsum("plikj->plkij", d2g) - np.einsum("plmik,pmj->plkij", dgamma, g)
            - np.einsum("pmik,plmj->plkij", gamma, dg))


def _fields(spec):
    fields = [spec.metric, spec.resolved_connection, spec.levi_civita_connection, spec.conjugate,
              ConjugateConnection(spec.metric, spec.conjugate)]
    return fields + ([spec.product, spec.adjoint] if spec.product is not None else [])


def _assert_parts_match(field, points, expected):
    stored = field._lookup(points, True)
    assert len(stored) == len(expected)
    for k, (part, layout, want) in enumerate(zip(stored, field.layouts, expected)):
        assert (part.ndim == 2) == (layout is not None), (type(field).__name__, k)
        if layout is not None:
            assert part.shape == (len(points), len(plans._live(layout)))
            assert not _bits(want)[:, ~plans._unpack(layout)].any(), "the dense part is +0.0 off the pattern"
        np.testing.assert_array_equal(_bits(geometry._full(part, layout)), _bits(want),
                                      err_msg=f"{type(field).__name__} part {k}")
    for got, want in zip(field.jets(points), expected):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("name, manifest", MANIFESTS, ids=[name for name, _ in MANIFESTS])
def test_every_packed_part_is_the_dense_part(name, manifest):
    """Each stored part, unpacked, has the bits of the dense part, which is +0.0 off the pattern;
    so have ``jets``; in one block and in blocks of one point."""
    packed = 0
    for spec, points in _specs(manifest):
        for field in _fields(spec):
            expected = dense_jets(field, points)
            _assert_parts_match(field, points, expected)
            packed += sum(layout is not None for layout in field.layouts)
            if isinstance(field, geometry.DerivedJets) and any(field.layouts):
                blocks = geometry._block_loop(points, [(field._on_block, True)], width=geometry._BLOCK_ENTRIES)[0]
                for part, layout, want in zip(blocks, field.layouts, expected):
                    np.testing.assert_array_equal(_bits(geometry._full(part, layout)), _bits(want))
    if name.startswith("curved_") and name != "curved_product_1pair":
        assert packed, "the workload's stores are packed"


@pytest.mark.parametrize("name, manifest", MANIFESTS, ids=[name for name, _ in MANIFESTS])
def test_da_and_drhs_are_formed_on_their_patterns(name, manifest):
    """The intermediates da (Levi-Civita) and drhs (conjugate), formed by their fields' plans
    from the packed store, unpacked, have the bits of the dense formulas."""
    for spec, points in _specs(manifest):
        g, dg, d2g = spec.metric._lookup(points, True)
        for field in (spec.levi_civita_connection, spec.conjugate):
            rule_plans, layouts = field._structure[1], plans._apply(
                field._rules, field._names, tuple(base.patterns for base in field._bases))[2]
            dense_metric = dense_jets(spec.metric, points)
            if isinstance(field, LeviCivitaConnection):
                name_, got = "da", (geometry._transpose("plimj->plmij", d2g, rule_plans)
                                    + geometry._transpose("pljmi->plmij", d2g, rule_plans)
                                    - geometry._transpose("plmij->plmij", d2g, rule_plans))
                want = dense_da(dense_metric[2])
            else:
                base = field._bases[2]
                gamma, dgamma = base._lookup(points, True)
                name_ = "drhs"
                got = (geometry._transpose("plikj->plkij", d2g, rule_plans)
                       - geometry._contract("plmik,pmj->plkij", dgamma, g, plans=rule_plans)
                       - geometry._contract("pmik,plmj->plkij", gamma, dg, plans=rule_plans))
                want = dense_drhs(*dense_metric, *dense_jets(base, points))
            assert (got.ndim == 2) == (layouts[name_] is not None)
            np.testing.assert_array_equal(_bits(geometry._full(got, layouts[name_])), _bits(want), err_msg=name_)


def test_the_curvature_workloads_stores_are_packed():
    """From dimension 4 on, ∂²g, ∂Γ, ∂Γ* and the Levi-Civita ∂Γ are stored packed, da and drhs
    formed packed, and every plan of their derivatives keeps its terms (no np.einsum)."""
    for pairs in (2, 3, 4):
        spec = build_context(_curvature_manifest(pairs)).manifold
        n = spec.metric.dim
        assert spec.metric.layouts[2] is not None and spec.connection.layouts[1] is not None
        for field in (spec.levi_civita_connection, spec.conjugate):
            rule_plans = field._structure[1]
            assert field.layouts[1] is not None and rule_plans.width < n ** 4
            assert not any(isinstance(plan, plans._Unpacked) for plan in rule_plans.values())
            layouts = plans._apply(field._rules, field._names, tuple(base.patterns for base in field._bases))[2]
            assert layouts["da" if isinstance(field, LeviCivitaConnection) else "drhs"] is not None


def _column_mixing_manifest():
    """g = diag(1e200, 1e200) and Γ⁰₀₀ = 2e108 x⁴: Γ^0_00 g_00 overflows where x⁴ > 0.9 only."""
    return {"chart": {"coords": ["x", "y"], "box": [[0.0, 1.0], [0.0, 1.0]], "seed": 1},
            "metric": [["1e200", "0"], ["0", "1e200"]],
            "connection": [[["2e108*x^4", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            "checks": ["dual_curvature_identity"], "points": 5}


@pytest.mark.parametrize("single", [True, False], ids=["one-block", "blocks-of-one"])
def test_a_handed_back_block_stores_the_batch_dense(monkeypatch, single):
    """Where Γ g overflows at some points only, those blocks of ∇* are handed back to np.einsum
    and form ∂Γ* dense with the NaN of each 0 · inf off its pattern; the whole batch is then
    stored dense, the bits of the dense formula, in one block or in blocks of one point."""
    if not single:
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 1)
    spec = build_context(parse_manifest(_column_mixing_manifest(), known_checks=set(CHECKS))).manifold
    points = np.array([[0.1, 0.5], [0.99, 0.5], [0.5, 0.2], [0.995, 0.1]])
    with np.errstate(all="ignore"):
        expected = dense_jets(spec.conjugate, points)
        stored = spec.conjugate._lookup(points, True)
    assert spec.conjugate.layouts[1] is not None and stored[1].ndim == 5
    off = ~plans._unpack(spec.conjugate.layouts[1])
    assert np.isnan(expected[1][:, off]).any() and np.isfinite(expected[1][0]).all()
    for got, want in zip(stored, expected):
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("manifest, rows", [
    (overflow_manifest, {"statistical_structure", "conjugate_involution", "levi_civita_average",
                         "dual_curvature_identity"}),
    (bracket_overflow_manifest, {"space_form"})])
def test_overflow_manifests_hand_back_and_fail(manifest, rows):
    """Both overflow manifests still FAIL their rows with residual inf; on the first, ∇*'s
    non-finite block is handed back, so its ∂Γ* is stored dense and keeps the dense bits."""
    parsed = parse_manifest(manifest(), known_checks=set(CHECKS))
    report = run_suite(parsed)
    failing = {check.name for check in report.checks if (check.status, check.residual) == ("FAIL", math.inf)}
    assert rows <= failing
    if manifest is overflow_manifest:
        spec = build_context(parsed).manifold
        points = sample_points(spec.chart, parsed.points)
        with np.errstate(all="ignore"):
            expected = dense_jets(spec.conjugate, points)
            assert spec.conjugate.layouts[1] is not None and spec.conjugate._lookup(points, True)[1].ndim == 5
            for got, want in zip(spec.conjugate._lookup(points, True), expected):
                np.testing.assert_array_equal(_bits(got), _bits(want))


def _second_run_stores(monkeypatch, pairs, points=100):
    """Every batch a second run of the dimension-2·``pairs`` curvature manifest stores, with its field."""
    manifest = _curvature_manifest(pairs)
    run_suite(manifest, points=points)
    stored, lookup = [], geometry.PointJets._lookup

    def spy(field, pts, full):
        hit = lookup(field, pts, full)
        stored.append((field, hit))
        return hit

    monkeypatch.setattr(geometry.PointJets, "_lookup", spy)
    run_suite(manifest, points=points)
    monkeypatch.undo()
    return manifest, stored


def test_dimension_8_stores_are_packed_and_small(monkeypatch):
    """At dimension 8 and 100 points every stored four-index part has shape (100, live) with
    live ≤ 16, and a second run's traced peak stays below 6 MB (12.71 MB with dense stores)."""
    manifest, stored = _second_run_stores(monkeypatch, 4)
    assert [(type(field).__name__, part.shape) for field, parts in stored for part in parts if part.ndim == 5] == []
    packed = {(id(field), part.shape) for field, parts in stored
              for part, layout in zip(parts, field.layouts) if layout is not None}
    assert packed and all(shape[0] == 100 and shape[1] <= 16 for _, shape in packed)
    tracemalloc.start()
    try:
        run_suite(manifest, points=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak / 1e6


def test_curvature_pass_forms_no_n4_array_for_its_stores(monkeypatch):
    """From dimension 4 on, forming the stores of a second curvature run (∂²g, ∂Γ, ∂Γ*, and da
    and drhs on the way) makes no array of n⁴ entries or more per point."""
    wide, state = [], {"forming": 0, "n": None}

    def spy_numpy(name):
        original = getattr(np, name)

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            if state["forming"] and isinstance(out, np.ndarray) and out.ndim > 1 \
                    and math.prod(out.shape[1:]) >= state["n"] ** 4:
                wide.append((name, out.shape))
            return out
        return spy

    def forming(method):
        def spy(field, *args):
            state["forming"] += 1
            try:
                return method(field, *args)
            finally:
                state["forming"] -= 1
        return spy

    for cls in (ExpressionField, geometry.DerivedJets):
        monkeypatch.setattr(cls, "_batch_jets", forming(cls._batch_jets))
    monkeypatch.setattr(geometry.DerivedJets, "_jets_after_values", forming(geometry.DerivedJets._jets_after_values))
    for name in ("zeros", "empty", "einsum", "concatenate", "bincount", "full", "stack"):
        monkeypatch.setattr(np, name, spy_numpy(name))
    for pairs in (2, 3, 4):
        manifest = _curvature_manifest(pairs)
        state["n"] = 2 * pairs
        report = run_suite(manifest, points=100)
        assert "ERROR" not in {check.status for check in report.checks}
        wide.clear()
        run_suite(manifest, points=100)
        assert wide == [], (2 * pairs, wide)


# Calls a second run makes of the plan caches, at the parent of packed stores (counted there by
# wrapping the functions): every structure and plan a run reads is kept with its field or grid.
SECOND_RUN_CALLS = {"example_5_5_normal": {"_apply": 16, "_contraction_plan": 0, "_layout": 0},
                    "curved_product_4pair": {"_apply": 8, "_contraction_plan": 0, "_layout": 0}}


@pytest.mark.parametrize("name", sorted(SECOND_RUN_CALLS))
def test_second_run_looks_up_no_more_plans(monkeypatch, name):
    manifest = (load_fixture(name, known_checks=set(CHECKS)) if name.startswith("example")
                else _curvature_manifest(4))
    run_suite(manifest, points=None if name.startswith("example") else 100)
    calls = dict.fromkeys(SECOND_RUN_CALLS[name], 0)
    for module in (plans, geometry):
        for function in calls:
            if hasattr(module, function):
                original = getattr(module, function)

                def spy(*args, _original=original, _function=function, **kwargs):
                    calls[_function] += 1
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, function, spy)
    run_suite(manifest, points=None if name.startswith("example") else 100)
    assert all(calls[function] <= limit for function, limit in SECOND_RUN_CALLS[name].items()), calls


def test_column_maps_are_made_at_the_first_batch():
    """A grid lays out no column map at parse; its first batch of jets makes them, once."""
    spec = build_context(_curvature_manifest(4)).manifold
    grid = spec.connection.grid
    assert "_columns" not in grid.__dict__
    spec.connection.jets(sample_points(spec.chart, 3))
    maps = grid.columns(1)
    spec.connection.jets(sample_points(spec.chart, 4))
    assert grid.columns(1) is maps and maps[0] is None and maps[1][0] == 16


def test_dimension_12_report_keeps_its_bytes(tmp_path, capsys):
    """The well-conditioned dimension-12 metric, which no other test covers, writes through the
    console script's path the report bytes it had with dense stores (CI runs the script too)."""
    manifest, report = tmp_path / "curved_product_6pair.json", tmp_path / "report.json"
    manifest.write_text(json.dumps(curved_product_manifest(6, 1.0, 2.0, [1.0] * 6, seed=3)))
    assert cli.main(["verify", str(manifest), "--points", "100", "--report", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert f"{digest}  curved_product_6pair\n" == DIMENSION_12_DIGEST.read_text()
