"""``geometry._contract`` against ``np.einsum``, bit for bit, at every call site's subscripts.

The subscripts come from an ``ast`` scan of the package, so a new
``_contract`` call is covered without editing this file.  Each case draws
operands in layouts that include those the call sites pass: each label spans
the chart dimension n, the base dimension nb or the fiber dimension n − nb,
at random, and an operand narrower than n on an axis is a slice of a wider
array from either end (such as ``h[:, :, :nb]`` or ``a_star[..., nb:]``).
Entries are zeroed at random, half of the zeros as −0.0.  Each case also
checks, from the operands' zero patterns, whether ``_contract`` keeps the
terms: when no more than ``_SPARSE_SHARE`` of them have no zero factor and no
output adds more than two of them.

The batched ``curvature_tensor`` is compared row by row with its one-point
calls and with a one-point formula made of ``np.einsum`` calls alone.  One
pass of the curvature checks is shown to fit in the caches of plans and
pattern rules and to read no operand value for its plans, every call outside
``submersion`` to bring the plans of its structural patterns, and every
pattern to hold each nonzero of its jets at the golden points.
"""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from conftest import CURVATURE_CHECKS, curved_manifold
from statgeom import geometry, plans, product
from statgeom.expfam import exp_para_structures
from statgeom.fixtures import curved_product_manifest, fixture_ids, load_fixture, submersion_manifest
from statgeom.geometry import _contract, curvature_tensor, sample_points
from statgeom.manifest import build_context, parse_manifest
from statgeom.suite import CHECKS, run_suite
from test_golden import MODEL_GOLDENS, model_golden_manifest

PACKAGE = pathlib.Path(geometry.__file__).parent
DENSITIES = (1.0, 0.5, 0.25, 0.1)
POINT_COUNTS = (1, 2, 7, 25, 100)


def _calls(function: str):
    """(file:line, first argument, argument count) of every call of ``function`` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and node.args and function in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                yield f"{path.name}:{node.lineno}", node.args[0], len(node.args)


def _literal(arg) -> str | None:
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else None


def _routed() -> list[str]:
    found = set()
    for where, first, _ in _calls("_contract"):
        assert _literal(first), f"{where}: _contract needs literal subscripts to be checked"
        found.add(_literal(first))
    return sorted(found)


ROUTED = _routed()
# The contractions of three or more operands over the point axis left on np.einsum
HELD_OUT = sorted({_literal(first) for _, first, count in _calls("einsum")
                   if count >= 4 and (_literal(first) or "").startswith("p")})


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.int64)


def _draw(rng, shape, density):
    arr = rng.standard_normal(shape)
    zero = rng.random(shape) >= density
    arr[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    return arr


def _operands(rng, subscripts: str, n: int, count: int, density: float):
    """Operands for ``subscripts``: slices of (count, n, ..., n) arrays, one length per label."""
    inputs = subscripts.split("->")[0].split(",")
    nb = int(rng.integers(1, n)) if n > 1 else 1
    dims = {label: int(rng.choice([n, nb, max(1, n - nb)]))
            for label in sorted(set("".join(inputs)) - {"p"})}
    operands = []
    for labels in inputs:
        assert labels[0] == "p" and len(set(labels)) == len(labels)
        whole = _draw(rng, (count,) + (n,) * (len(labels) - 1), density)
        cut = tuple(slice(None, dims[label]) if rng.random() < 0.5 else slice(n - dims[label], None)
                    for label in labels[1:])
        operands.append(whole[(slice(None),) + cut])
    return operands


def _plan(subscripts: str, operands):
    """The plan ``_contract`` follows for these operands, or None when it calls np.einsum."""
    return plans._contraction_plan(subscripts, tuple(op.shape[1:] for op in operands),
                                      tuple((op != 0.0).any(axis=0).tobytes() for op in operands))[0]


def _kept(subscripts: str, patterns) -> tuple[bool, bool]:
    """(at most ``_SPARSE_SHARE`` of the terms are kept, no output adds more than two kept terms).

    ``patterns`` holds each operand's nonzero pattern over all points, without the point axis;
    a term is kept when none of its factors is zero in every point.
    """
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    per_output = np.einsum(",".join(labels[1:] for labels in inputs) + "->" + output[1:],
                           *(pattern.astype(np.int64) for pattern in patterns))
    lengths = {}
    for labels, pattern in zip(inputs, patterns):
        lengths.update(zip(labels[1:], pattern.shape))
    return (per_output.sum() <= plans._SPARSE_SHARE * math.prod(lengths.values()),
            per_output.max(initial=0) <= 2)


def _mismatches(subscripts: str, seed: int) -> tuple[int, int, int]:
    """(cases whose bits differ from np.einsum, cases that skip terms, cases).

    The cases run over n = 1..8, the point counts and the densities.  In each
    case a plan exists exactly when the zero patterns allow one.
    """
    rng = np.random.default_rng(seed)
    bad = skipping = cases = 0
    for n in range(1, 9):
        for count in POINT_COUNTS:
            if n >= 7 and count > 25:
                continue  # 8^6 terms per point
            for density in DENSITIES:
                operands = _operands(rng, subscripts, n, count, density)
                expected = np.einsum(subscripts, *operands)
                got = _contract(subscripts, *operands)
                assert got.shape == expected.shape and got.dtype == expected.dtype
                cases += 1
                planned = _plan(subscripts, operands) is not None
                assert planned == all(_kept(subscripts, [(op != 0.0).any(axis=0) for op in operands])), \
                    (subscripts, [op.shape for op in operands])
                skipping += planned
                bad += not np.array_equal(_bits(got), _bits(expected))
    return bad, skipping, cases


@pytest.fixture
def every_term_kept(monkeypatch):
    """Keep the terms of every contraction whose outputs add at most two, however dense."""
    monkeypatch.setattr(plans, "_SPARSE_SHARE", 1.0)
    plans._contraction_plan.cache_clear()
    plans._apply.cache_clear()
    yield
    plans._contraction_plan.cache_clear()
    plans._apply.cache_clear()


def test_the_scan_finds_the_call_sites():
    """No contraction of three or more operands over the point axis is left on np.einsum."""
    assert ROUTED, "no _contract call found in the package"
    assert HELD_OUT == []


@pytest.mark.parametrize("subscripts", ROUTED)
def test_contract_matches_einsum_bit_for_bit(subscripts):
    bad, skipping, cases = _mismatches(subscripts, seed=1)
    assert bad == 0, f"{bad} of {cases} cases differ from np.einsum"
    assert skipping > 0


@pytest.mark.parametrize("subscripts", ROUTED)
def test_contract_matches_einsum_with_every_term_kept(subscripts, every_term_kept):
    bad, skipping, cases = _mismatches(subscripts, seed=2)
    assert bad == 0, f"{bad} of {cases} cases differ from np.einsum"
    assert skipping > 0


def _transposed_operands(rng, subscripts: str, n: int, count: int):
    """Two operands for ``subscripts`` whose first is a transposed view, so numpy's inner loop
    runs along the summed label, and has at most two nonzeros along that label for each value
    of its other labels, so no output adds more than two kept terms."""
    first, second = subscripts.split("->")[0].split(",")
    (summed,) = set(first) - set(subscripts.split("->")[1])
    rank = len(first) - 1
    a = _draw(rng, (count,) + (n,) * rank, 1.0).transpose((0,) + tuple(range(rank, 0, -1)))
    axis = first.index(summed) - 1
    crowded = rng.random(a.shape[1:]).argsort(axis=axis).argsort(axis=axis) >= 2
    a[:, crowded] = np.where(rng.random((count, int(crowded.sum()))) < 0.5, -0.0, 0.0)
    return [a, _draw(rng, (count,) + (n,) * (len(second) - 1), 0.5)], axis


@pytest.mark.parametrize("subscripts", ["pji,pkj->pik", "pmjk,plim->plijk"])
def test_two_kept_terms_per_output_match_einsum_in_any_loop_order(subscripts, every_term_kept):
    """A sum of two terms rounds the same in either order, so a plan needs no loop order of
    numpy's; an output of three kept terms goes back to np.einsum."""
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        for count in (1, 2, 7, 25):
            operands, axis = _transposed_operands(rng, subscripts, n, count)
            assert _plan(subscripts, operands) is not None, (n, count)
            np.testing.assert_array_equal(_bits(_contract(subscripts, *operands)),
                                          _bits(np.einsum(subscripts, *operands)))
            if n < 3:
                continue
            a = operands[0]
            line = (slice(None),) + tuple(slice(None, 3) if i == axis else 0 for i in range(a.ndim - 1))
            a[line] = 1.0 + rng.random(a[line].shape)
            operands[1][...] = np.where(operands[1] == 0.0, 0.5, operands[1])
            assert _plan(subscripts, operands) is None, (n, count)
            np.testing.assert_array_equal(_bits(_contract(subscripts, *operands)),
                                          _bits(np.einsum(subscripts, *operands)))


def test_measured_traffic_adds_at_most_two_kept_terms_per_output(monkeypatch):
    """On the shipped fixtures and the benchmark's curvature and (3, 1) submersion manifests,
    no contraction within _SPARSE_SHARE goes back to np.einsum for an output of three kept terms."""
    plan, seen, crowded = plans._contraction_plan, set(), set()

    def spy(subscripts, shapes, masks):
        seen.add(subscripts)
        patterns = [np.frombuffer(mask, dtype=bool).reshape(shape) for mask, shape in zip(masks, shapes)]
        within_share, at_most_two = _kept(subscripts, patterns)
        if within_share and not at_most_two:
            crowded.add((subscripts, shapes))
        return plan(subscripts, shapes, masks)

    monkeypatch.setattr(plans, "_contraction_plan", spy)
    known = set(CHECKS)
    manifests = [load_fixture(fixture_id, known_checks=known) for fixture_id in fixture_ids()]
    manifests += [parse_manifest(curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs,
                                                         checks=CURVATURE_CHECKS), known_checks=known)
                  for pairs in (1, 2, 3, 4)]
    manifests.append(parse_manifest(submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=3),
                                    known_checks=known))
    for manifest in manifests:
        run_suite(manifest, points=25)
    assert seen and not crowded, crowded


@pytest.mark.parametrize("subscripts", ROUTED)
@pytest.mark.parametrize("bad_value", [np.inf, -np.inf, np.nan])
def test_non_finite_entry_next_to_a_zero_gives_einsums_nan_pattern(subscripts, bad_value):
    rng = np.random.default_rng(4)
    operands = [op.copy() for op in _operands(rng, subscripts, 4, 3, 0.3)]
    operands[0].flat[0] = bad_value
    for op in operands[1:]:
        op[...] = np.where(rng.random(op.shape) < 0.5, 0.0, op)
    expected = np.einsum(subscripts, *operands)
    got = _contract(subscripts, *operands)
    assert np.isnan(expected).any() or np.isinf(expected).any()
    np.testing.assert_array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("subscripts", ROUTED)
def test_all_zero_operand_gives_positive_zero(subscripts):
    rng = np.random.default_rng(5)
    operands = _operands(rng, subscripts, 3, 4, 0.5)
    operands[-1] = np.full_like(operands[-1], -0.0)
    got = _contract(subscripts, *operands)
    assert not got.any() and not np.signbit(got).any()
    np.testing.assert_array_equal(_bits(got), _bits(np.einsum(subscripts, *operands)))


@pytest.mark.parametrize("subscripts", ROUTED)
def test_one_point(subscripts, every_term_kept):
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        operands = _operands(rng, subscripts, n, 1, 0.3)
        np.testing.assert_array_equal(_bits(_contract(subscripts, *operands)),
                                      _bits(np.einsum(subscripts, *operands)))


def test_plans_hold_index_arrays_only():
    rng = np.random.default_rng(7)
    for subscripts in ROUTED:
        plan = _plan(subscripts, _operands(rng, subscripts, 6, 5, 0.1))
        if plan is None:  # an output adds three kept terms, or too many terms are kept
            continue
        gathers, targets, shape = plan
        for index in gathers + (targets,):
            assert index.dtype.kind == "i" and not index.flags.writeable
        assert all(isinstance(size, int) for size in shape)


def _einsum_curvature(gamma, dgamma):
    """R at one point, each product formed by np.einsum alone."""
    b = np.einsum("iljk->lijk", dgamma) + np.einsum("mjk,lim->lijk", gamma, gamma)
    return b - np.einsum("lijk->ljik", b)


def _assert_rows_match_one_point_calls(gamma, dgamma):
    batched = curvature_tensor(gamma, dgamma)
    for row, (g, dg) in enumerate(zip(gamma, dgamma)):
        np.testing.assert_array_equal(_bits(batched[row]), _bits(curvature_tensor(g, dg)),
                                      err_msg=f"point {row}")
        np.testing.assert_array_equal(_bits(batched[row]), _bits(_einsum_curvature(g, dg)),
                                      err_msg=f"point {row}, against np.einsum")


def test_batched_curvature_matches_one_point_calls_on_random_connections():
    """The ΓΓ term goes through _contract, for a batch and for one point alike."""
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        for count in (1, 7, 25):
            for density in DENSITIES:
                _assert_rows_match_one_point_calls(_draw(rng, (count,) + (n,) * 3, density),
                                                   _draw(rng, (count,) + (n,) * 4, density))


@pytest.mark.parametrize("pairs", [1, 4])
def test_batched_curvature_matches_one_point_calls_on_curved_products(pairs):
    spec = curved_manifold(pairs=pairs, k=1.0, l=2.0, epsilons=[1.0] * pairs)
    for connection in (spec.connection, spec.conjugate):
        _assert_rows_match_one_point_calls(*connection.jets(sample_points(spec.chart, 25)))


def _curvature_manifests():
    return [parse_manifest(curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs,
                                                   checks=CURVATURE_CHECKS), known_checks=set(CHECKS))
            for pairs in (1, 2, 3, 4)]


def _submersion_manifests():
    return [load_fixture("example_5_6_k1_l1", known_checks=set(CHECKS)),
            load_fixture("example_5_6_k1_l2", known_checks=set(CHECKS)),
            parse_manifest(submersion_manifest(3, 1, 1.0, 2.0, (1.0, 1.0, 1.0), seed=3),
                           known_checks=set(CHECKS))]


# The caches of plans a run reads: contraction plans, rule sets, and the maps of R on its pattern.
PLAN_CACHES = ("_contraction_plan", "_apply", "_curvature_plan", "_live", "_bracket_union", "_dual_plan")


def test_second_curvature_pass_makes_no_new_plan():
    """The plans a run reads are fetched once per field or spec from caches: the plans by
    subscripts, shapes and patterns, the rule sets of the derived fields' patterns, and the maps
    of R on its live slots (R itself, the live slots of a pattern, the brackets on the union of
    their slots and R's, and the dual identity's lowerings and union).  One pass of the curvature
    workload's four manifests fills no more of any than it keeps (measured: 92 plans, handed-back
    ones included, 28 rule sets, 4 R plans, 7 live sets of R and the packed jet stores, 8 bracket
    unions and 4 dual plans; R and R* share their pattern there), so a second pass makes none; a cache that evicted would make
    them again every pass."""
    manifests = _curvature_manifests()
    caches = [getattr(plans, name) for name in PLAN_CACHES]
    for cache in caches:
        cache.cache_clear()
    for manifest in manifests:
        run_suite(manifest, points=100)
    made = [cache.cache_info().misses for cache in caches]
    assert 0 < min(made) and max(made) <= plans._PLAN_CACHE_SIZE
    for manifest in manifests:
        run_suite(manifest, points=100)
    assert [cache.cache_info().misses for cache in caches] == made


def test_curvature_pass_reads_no_operand_value_for_its_plans(monkeypatch):
    """Every contraction of a curvature pass comes with the plans of its operands' structural
    patterns: none is planned from a finiteness scan and a nonzero mask of operand values."""
    calls, contract = [], geometry._contract

    def spy(subscripts, *operands, plans=None):
        calls.append((subscripts, plans is None))
        return contract(subscripts, *operands, plans=plans)

    monkeypatch.setattr(geometry, "_contract", spy)
    monkeypatch.setattr(product, "_contract", spy)
    for manifest in _curvature_manifests():
        assert "ERROR" not in {check.status for check in run_suite(manifest, points=100).checks}
    assert calls and [subscripts for subscripts, scanned in calls if scanned] == []


def test_only_submersion_plans_from_operand_values():
    """Every ``_contract`` call outside ``submersion.py`` passes the plans of its patterns."""
    scanning = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_contract"
                    and not any(keyword.arg == "plans" for keyword in node.keywords)):
                scanning.append(path.name)
    assert scanning and set(scanning) == {"submersion.py"}


def _specs(manifest):
    """Each spec a run of ``manifest`` reads, with its golden points."""
    ctx = build_context(manifest)
    points = sample_points(ctx.chart, manifest.points)
    if ctx.manifold is not None:
        yield ctx.manifold, points
    if ctx.submersion is not None:
        yield ctx.submersion.base, points[:, :ctx.submersion.base_dim]
    if ctx.model is not None:
        structures = (None, None) if ctx.involution is None else exp_para_structures(ctx.model, ctx.involution)
        for alpha, structure in ((1.0, structures[0]), (-1.0, structures[1]), (0.0, None)):
            yield dataclasses.replace(ctx.model.alpha_manifold(alpha), product=structure), points


def _live_union(field, points, exact: bool) -> int:
    """Check that every known pattern of ``field`` holds the union of its jets' nonzeros over
    ``points``, or equals it when ``exact``; the live entries of the known patterns."""
    live = 0
    for k, (pattern, part) in enumerate(zip(field.patterns, field.jets(points))):
        if pattern is None:
            continue
        pattern, union = plans._unpack(pattern), (part != 0.0).any(axis=0)
        assert not (union & ~pattern).any(), (type(field).__name__, k)
        assert not exact or np.array_equal(union, pattern), (type(field).__name__, k)
        live += int(pattern.sum())
    return live


def _pattern_live(manifests, exact_grids: bool) -> int:
    live = 0
    for manifest in manifests:
        for spec, points in _specs(manifest):
            grids = [f for f in (spec.metric, spec.connection, spec.product)
                     if isinstance(f, geometry.ExpressionField)]
            derived = [spec.metric.inverse, spec.levi_civita_connection, spec.conjugate]
            derived += [f for f in (spec.product, spec.adjoint if spec.product is not None else None)
                        if isinstance(f, geometry.DerivedJets)]
            live += sum(_live_union(f, points, exact_grids) for f in grids)
            for field in derived:
                _live_union(field, points, False)
            for connection in (spec.resolved_connection, spec.conjugate):
                r = geometry._curvature_at(connection, *connection.jets(points))
                pattern = geometry._kept_curvature(connection).pattern
                assert pattern is None or not ((r != 0.0).any(axis=0) & ~plans._unpack(pattern)).any()
    return live


@pytest.mark.parametrize("name", fixture_ids() + sorted(MODEL_GOLDENS))
def test_patterns_hold_every_nonzero_at_the_golden_points(name):
    """Every grid's pattern is the union of its jets' nonzeros at the golden points, and every
    derived field's and R's holds it, so a dropped term is an exact zero."""
    manifest = (model_golden_manifest(name) if name in MODEL_GOLDENS
                else load_fixture(name, known_checks=set(CHECKS)))
    assert _pattern_live([manifest], exact_grids=True) > 0


def test_grid_patterns_are_the_nonzeros_of_the_benchmark_fields():
    """On the curvature and submersion workloads' manifests every grid's pattern is exactly the
    union of its jets' nonzeros (320 live entries over the parts of g, ∇ and P of the total and
    base specs), and every derived field's and R's holds it."""
    assert _pattern_live(_curvature_manifests() + _submersion_manifests(), exact_grids=True) == 320
