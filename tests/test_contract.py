"""``geometry._contract`` against ``np.einsum``, bit for bit, at every call site's subscripts.

The subscripts come from an ``ast`` scan of the package, so a new
``_contract`` call is covered without editing this file.  Each case draws
operands in layouts that include those the call sites pass: each label spans
the chart dimension n, the base dimension nb or the fiber dimension n − nb,
at random, and an operand narrower than n on an axis is a slice of a wider
array from either end (such as ``h[:, :, :nb]`` or ``a_star[..., nb:]``).
Entries are zeroed at random, half of the zeros as −0.0.

The batched ``curvature_tensor`` (through ``_contract``) is compared row by
row with its one-point form (through ``np.einsum``), and one pass of the
curvature checks is shown to fit in the plan cache.
"""

import ast
import pathlib

import numpy as np
import pytest

from conftest import CURVATURE_CHECKS, curved_manifold
from statgeom import geometry
from statgeom.fixtures import curved_product_manifest
from statgeom.geometry import _contract, curvature_tensor, sample_points
from statgeom.manifest import parse_manifest
from statgeom.suite import CHECKS, run_suite

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
    return geometry._contraction_plan(subscripts, tuple(op.shape for op in operands),
                                      tuple(op.strides for op in operands),
                                      tuple((op != 0.0).any(axis=0).tobytes() for op in operands))


def _mismatches(subscripts: str, seed: int) -> tuple[int, int, int]:
    """(cases whose bits differ from np.einsum, cases that skip terms, cases).

    The cases run over n = 1..8, the point counts and the densities.
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
                skipping += _plan(subscripts, operands) is not None
                bad += not np.array_equal(_bits(got), _bits(expected))
    return bad, skipping, cases


@pytest.fixture
def every_term_kept(monkeypatch):
    """Route every contraction through the kept-terms path, however dense."""
    monkeypatch.setattr(geometry, "_SPARSE_SHARE", 1.0)
    geometry._contraction_plan.cache_clear()
    yield
    geometry._contraction_plan.cache_clear()


def test_the_scan_finds_the_call_sites():
    """Every contraction of three or more operands left on np.einsum, if any, is one that
    _contract would hand back to it: with every label spanning the chart dimension, numpy's
    inner loop runs along a summed label."""
    assert ROUTED, "no _contract call found in the package"
    for subscripts in HELD_OUT:
        inputs, output = subscripts.split("->")
        inputs = inputs.split(",")
        for n in range(2, 9):
            operands = [np.empty((5,) + (n,) * (len(labels) - 1)) for labels in inputs]
            assert geometry._summation_order(inputs, output, tuple(op.shape for op in operands),
                                             tuple(op.strides for op in operands)) is None, subscripts


@pytest.mark.parametrize("subscripts", ROUTED)
def test_contract_matches_einsum_bit_for_bit(subscripts):
    bad, skipping, cases = _mismatches(subscripts, seed=1)
    assert bad == 0, f"{bad} of {cases} cases differ from np.einsum"
    assert skipping > 0


@pytest.mark.parametrize("subscripts", ROUTED)
def test_contract_matches_einsum_with_every_term_kept(subscripts, every_term_kept):
    bad, skipping, cases = _mismatches(subscripts, seed=2)
    assert bad == 0, f"{bad} of {cases} cases differ from np.einsum"
    assert skipping > cases // 2  # the rest are layouts whose inner loop sums


def test_summation_order_follows_the_operand_strides():
    """numpy sums l outside k here, against the alphabetical order, because plk strides l by more."""
    inputs, output = ["plb", "plk", "pkmu", "pma"], "pabu"
    operands = [np.empty(shape) for shape in ((5, 4, 2), (5, 4, 4), (5, 4, 4, 2), (5, 4, 2))]
    shapes, strides = tuple(op.shape for op in operands), tuple(op.strides for op in operands)
    assert geometry._summation_order(inputs, output, shapes, strides) == ["l", "k", "m"]


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
        if plan is None:  # numpy's inner loop sums in this layout
            continue
        gathers, targets, shape = plan
        for index in gathers + (targets,):
            assert index.dtype.kind == "i" and not index.flags.writeable
        assert all(isinstance(size, int) for size in shape)


def _assert_rows_match_one_point_calls(gamma, dgamma):
    batched = curvature_tensor(gamma, dgamma)
    for row, (g, dg) in enumerate(zip(gamma, dgamma)):
        np.testing.assert_array_equal(_bits(batched[row]), _bits(curvature_tensor(g, dg)),
                                      err_msg=f"point {row}")


def test_batched_curvature_matches_one_point_calls_on_random_connections():
    """The point-axis ΓΓ term goes through _contract, the one-point form through np.einsum."""
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


def test_second_curvature_pass_makes_no_new_plan():
    """The plans of one pass of the curvature workload's four manifests all stay cached."""
    manifests = [parse_manifest(curved_product_manifest(pairs, 1.0, 2.0, [1.0] * pairs, seed=pairs,
                                                        checks=CURVATURE_CHECKS),
                                known_checks=set(CHECKS))
                 for pairs in (1, 2, 3, 4)]
    for manifest in manifests:
        run_suite(manifest, points=100)
    misses = geometry._contraction_plan.cache_info().misses
    for manifest in manifests:
        run_suite(manifest, points=100)
    assert geometry._contraction_plan.cache_info().misses == misses
