"""Charts, metric and connection fields, conjugation, and curvature checks.

Conventions used throughout the package:

* metric jets: ``G[i, j]``, ``dG[k, i, j] = ∂_k g_ij``, ``d2G[k, l, i, j] = ∂_k ∂_l g_ij``
* connections: ``gamma[k, i, j]`` is the coefficient of ``∂_k`` in ``∇_{∂_i} ∂_j``,
  jets ``dgamma[l, k, i, j] = ∂_l Γ^k_ij``
* curvature: ``R[l, i, j, k]`` is the coefficient of ``∂_l`` in ``R(∂_i, ∂_j) ∂_k``
  with sign ``R(E,F)G = ∇_E ∇_F G − ∇_F ∇_E G − ∇_{[E,F]} G``

Residuals are reported twice: ``raw_residual`` is the plain max-norm of the
defect, ``residual`` is the raw value divided by one plus the largest
magnitude among the arrays entering the formula.  The scaled value is the one
compared against tolerances, which separates method error from conditioning.

Every field evaluates at all sample points at once (``jets(points)``, with a
leading point axis ``p`` on every array) and keeps the results, read-only, in
one store keyed by the whole batch (:class:`PointJets`).  A single point is a
batch of one: the per-point accessors ``value`` and ``jet`` return its
row 0, and the geometric definitions are written once, over stacks of
points.  Every field given by coordinate expressions is an
:class:`ExpressionField` over a :class:`ComponentGrid`, a connection or a
product structure directly; :class:`MetricField` adds order 2, symmetry and
the inverse.  A grid is laid out and planned once, so a parsed manifest's
grids serve every run, and each run's fields are only new stores over them.
Every check is a reducer and a finisher.  The reducer maps one
:class:`Block` of points to per-point rows, the defect (:func:`max_abs`),
the scale (:func:`scale_of`) and any detail; the finisher is one
:func:`residual_check` of the rows with the check's tolerance
(:func:`reduced_check`).  :func:`block_rows` runs the reducers a batch has
not kept yet in one loop over its blocks, forming R and R* once per block
for all of them (the suite hands it every R reader of a run), and keeps the
rows on the subject for the checks of the run.  R is formed only on the live
slots of its structural pattern (:class:`Packed`, :func:`plans._curvature_plan`),
and every R reader works on those entries, so the R readers' loop forms no
dense 4-index array and sizes its blocks by their packed widths; a
non-finite operand hands a block back to the dense formulas.  Derived
fields use the loop, in blocks sized for their dense 4-index arrays.  Every
plan is made from structural patterns alone in :mod:`plans`; this module
applies the plans to the numbers.

Every check, fit and theorem takes the :class:`ManifoldSpec` it certifies
and returns one :class:`CheckResult`.  The spec owns the fields derived from
its own ones (the resolved connection, its Levi-Civita connection, the
conjugate ∇* and the adjoint P*), each built once on first use, so their
stores serve every check of a run; no derived field refers back to the spec.
Every one of them reads G⁻¹ and ∂G⁻¹ from the metric's own
:class:`InverseMetric` (``metric.inverse``), the one place where a metric is
inverted, so one batch is inverted once for all of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .plans import (
    _BRACKET,
    _CurvaturePlan,
    _Unpacked,
    _apply,
    _bracket_plan,
    _bracket_union,
    _columns,
    _curvature_plan,
    _dual_plan,
    _layout,
    _live,
    _pack,
    _planned,
    _read_only,
)

DEFAULT_TOLERANCE = 1e-8
DEFAULT_POINT_COUNT = 25

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_NOT_APPLICABLE = "NOT-APPLICABLE"
STATUS_ERROR = "ERROR"

_DEGENERACY_CUTOFF = 1e-10
_INTERIOR_MARGIN = 0.01
# Entries per block of the widest per-point array a block loop forms: n⁴ for a dense 4-index tensor,
# the packed widths for the R readers (block_rows); sweep in BENCH_22.json.
_BLOCK_ENTRIES = 1 << 15


class ChartError(ValueError):
    """Invalid chart data (empty box, mismatched names, ...)."""


class MetricError(ArithmeticError):
    """Degenerate metric or non-constant signature."""


class DegeneratePlaneError(ArithmeticError):
    """The requested tangent plane is too close to null."""


# --------------------------------------------------------------------------
# Charts and sampling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartSpec:
    """A single coordinate chart with a sampling box and a sampling seed."""

    coord_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    seed: int = 0

    def __post_init__(self):
        if len(self.coord_names) != len(self.domain):
            raise ChartError(
                f"{len(self.coord_names)} coordinate names but {len(self.domain)} intervals"
            )
        if len(self.coord_names) == 0:
            raise ChartError("chart must have at least one coordinate")
        for name, (lo, hi) in zip(self.coord_names, self.domain):
            if not math.isfinite(lo) or not math.isfinite(hi):
                raise ChartError(f"non-finite sampling interval [{lo}, {hi}] for coordinate {name!r}")
            if not lo < hi:
                raise ChartError(f"empty sampling interval [{lo}, {hi}] for coordinate {name!r}")
            if not math.isfinite(hi - lo):
                raise ChartError(f"sampling interval [{lo}, {hi}] for coordinate {name!r} is too wide")
        if self.seed < 0:
            raise ChartError(f"sampling seed must be a non-negative integer, got {self.seed}")

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    @property
    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.domain])


def sample_points(chart: ChartSpec, count: int) -> np.ndarray:
    """Deterministic strictly-interior samples; same chart and seed give identical bits.

    Points stay 1% of the interval width away from each face of the box.
    Returns an array of shape ``(count, dim)``.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(int(chart.seed))
    lows = np.array([lo + _INTERIOR_MARGIN * (hi - lo) for lo, hi in chart.domain])
    highs = np.array([hi - _INTERIOR_MARGIN * (hi - lo) for lo, hi in chart.domain])
    return rng.uniform(lows, highs, size=(count, chart.dim))


def _as_points(pts) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(pts, dtype=float))
    if arr.shape[0] == 0:
        raise ValueError("need at least one sample point")
    return arr


# --------------------------------------------------------------------------
# Jets at sample points
# --------------------------------------------------------------------------


class PointJets:
    """A field whose jets are kept in one store, keyed by the whole batch of points.

    ``jets(points)`` computes the jets of a batch through ``_batch_jets``
    (arrays with a leading point axis, values first) and stores them,
    read-only, under the batch's shape and bytes, so the same batch asked
    again is served from the store.  A single point is a batch of one:
    ``value`` and ``jet`` return row 0 of it.

    ``values(points)`` asks for the values alone.  An expression field then
    evaluates no derivatives, so a derivative that is singular where the
    value is finite raises only when jets are asked for; a derived field
    skips its derivative arrays.  Either stores a one-array entry, which a
    later request for jets replaces through ``_jets_after_values``.  A racing
    recompute under threads stores the same values twice, so sharing a field
    stays safe.  ``patterns`` holds a structural pattern per jet part (:func:`_planned`).

    ``layouts`` holds, per jet part, its pattern where the store keeps the part
    packed (:func:`plans._layout`): a derivative part with four per-point
    indices that keeps at most ``plans._SPARSE_SHARE`` of its entries is stored
    as (points, live) columns, the live slots of its pattern in flat order, and
    readers with a plan gather from those columns.  ``jets`` and ``jet`` return
    every part unpacked, +0.0 off its pattern; a reader with no plan reads a
    stored part unpacked through :func:`_full`.  A derived field's batch whose
    operands are not finite is stored dense, so each 0 · inf stays NaN.
    """

    patterns = (None, None, None)
    layouts = (None, None, None)

    def jets(self, points) -> tuple[np.ndarray, ...]:
        """The jets at every point, as arrays with a leading point axis, each part unpacked (kept
        next to the store, so the same batch asked again is the same arrays)."""
        pts = _as_points(points)
        parts = self._lookup(pts, True)
        if not any(layout is not None and part.ndim == 2 for part, layout in zip(parts, self.layouts)):
            return parts
        held, key = self.__dict__.setdefault("_unpacked", {}), (pts.shape, pts.tobytes())
        if key not in held or held[key][0] is not parts:
            held[key] = parts, _read_only(tuple(_full(part, layout) for part, layout in zip(parts, self.layouts)))
        return held[key][1]

    def values(self, points) -> np.ndarray:
        """The values at every point, with a leading point axis."""
        return self._lookup(_as_points(points), False)[0]

    def _lookup(self, pts: np.ndarray, full: bool) -> tuple[np.ndarray, ...]:
        store = self.__dict__.setdefault("_batches", {})
        key = (pts.shape, pts.tobytes())
        hit = store.get(key)
        if hit is None:
            hit = store[key] = _read_only(self._batch_jets(pts, full))
        elif full and len(hit) == 1:
            hit = store[key] = _read_only(self._jets_after_values(pts, hit[0]))
        return hit

    def value(self, point) -> np.ndarray:
        """The value at one point."""
        return self.values(point)[0]

    def jet(self, point) -> tuple[np.ndarray, ...]:
        """The jet at one point: the value, then its derivatives."""
        return tuple(part[0] for part in self.jets(point))

    def _batch_jets(self, points: np.ndarray, full: bool) -> tuple[np.ndarray, ...]:
        """The jets at ``points``, or a one-tuple of the values when ``full`` is false."""
        raise NotImplementedError

    def _jets_after_values(self, points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """The jets at ``points``, whose ``values`` are stored already; by default computed anew."""
        return self._batch_jets(points, True)


class DerivedJets(PointJets):
    """A field whose jets follow from the jets of ``_bases`` at the same points.

    ``_derive(full, *batches)`` maps the bases' batches to this field's
    batch, or to its values alone when ``full`` is false.  For the values,
    a base flagged in ``_value_needs`` still supplies its jets; the others
    supply their values.  A batch is derived in blocks of points, so no
    5-index temporary spans all points.  Jets asked for after the values of
    the same batch come from ``_derive_after_values(values, *batches)``, which
    a field may override to read its stored values instead of recomputing them.
    ``_structure``: the ``patterns``, the plans and the ``layouts`` by :func:`_apply` of
    ``_rules`` over ``_names``.  A packed part (the derivative of a connection whose
    pattern is sparse, and the rule arrays ``da`` and ``drhs`` in between) is formed
    by plans that gather from packed operands and add into its columns, in blocks
    sized by the widest array those plans form per point; a block handed back to
    ``np.einsum`` forms its parts dense, and then every block of the batch does.
    """

    _bases: tuple = ()
    _value_needs: tuple = ()
    _names = _rules = ()

    @property
    def dim(self) -> int:
        return self._bases[0].dim

    @functools.cached_property
    def _structure(self) -> tuple[tuple, dict, tuple]:
        known, plans, layouts = _apply(self._rules, self._names, tuple(base.patterns for base in self._bases))
        return ((known.get("value"), known.get("derivative")), plans,
                (layouts.get("value"), layouts.get("derivative")))

    patterns = property(lambda self: self._structure[0])
    layouts = property(lambda self: self._structure[2] if self._rules else (None, None))

    def _derive(self, full: bool, *batches) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _derive_after_values(self, values, *batches) -> tuple[np.ndarray, ...]:
        return self._derive(True, *batches)

    def _on_block(self, block: Block, full: bool) -> tuple[np.ndarray, ...]:
        return self._derive(full, *(block.read(base, full or need)
                                    for base, need in zip(self._bases, self._value_needs, strict=True)))

    def _batch_jets(self, points, full):
        return self._stacked(points, self._on_block, full)

    def _jets_after_values(self, points, values):
        def derive(block):
            return self._derive_after_values(values[block.rows],
                                             *(block.read(base, True) for base in self._bases))
        return self._stacked(points, derive)

    def _stacked(self, points, fn, *args) -> tuple[np.ndarray, ...]:
        """The parts ``fn(block, *args)`` stacked over the blocks of ``points``; with a packed part,
        in blocks of the plans' width, and dense in every block once one block is handed back."""
        if not any(self.layouts):
            return _block_loop(points, [(fn, *args)])[0]
        width = self._structure[1].width
        try:
            return _block_loop(points, [(self._packed_block, False, fn, *args)], width=width)[0]
        except _HandedBack:
            return _block_loop(points, [(self._packed_block, True, fn, *args)], width=width)[0]

    def _packed_block(self, block: Block, dense: bool, fn, *args) -> tuple[np.ndarray, ...]:
        parts = fn(block, *args)
        if dense:
            return tuple(_full(part, layout) for part, layout in zip(parts, self.layouts))
        if not block._whole and any(layout is not None and part.ndim > 2
                                    for part, layout in zip(parts, self.layouts)):
            raise _HandedBack
        return parts


class _HandedBack(Exception):
    """A block of a batch with packed parts formed them dense: the batch is formed dense."""


class Block:
    """One block of a batch of sample points, as every reducer of one loop reads it.

    ``read`` slices a field's whole-batch store to the block's ``rows``
    (values, or jets with ``full``), and ``curvature`` forms R of a connection
    once per block for every reducer that reads it, on its live slots
    (:class:`Packed`).  ``loop`` holds what a reducer keeps from block to block
    (the Kurose constant, a field of its own).
    """

    def __init__(self, points: np.ndarray, rows: slice, loop: dict):
        self.rows, self.loop, self._points, self._curvatures = rows, loop, points, {}
        self._whole = rows.start == 0 and rows.stop >= len(points)

    def read(self, field, full: bool = False) -> tuple[np.ndarray, ...]:
        batch = field._lookup(self._points, full)
        return batch if self._whole else tuple(part[self.rows] for part in batch)

    def values(self, field) -> np.ndarray:
        return self.read(field)[0]

    def derived(self, field: DerivedJets) -> np.ndarray:
        """The values of a derived field on this block alone, kept in no store."""
        return field._on_block(self, False)[0]

    def curvature(self, connection) -> Packed:
        """R of ``connection`` on this block, on the live slots of its structural pattern
        (:func:`_curvature_of`), formed on first read."""
        if connection not in self._curvatures:
            self._curvatures[connection] = _curvature_of(connection, *self.read(connection, True))
        return self._curvatures[connection]


def _block_loop(points: np.ndarray, reducers, isolate: bool = False, width: int | None = None) -> list:
    """The rows of each reducer, in order, from one loop over the blocks of ``points``.

    A reducer ``(fn, *args)`` returns ``fn(block, *args)``, a tuple of arrays
    with a leading point axis, stacked over the blocks.  A block holds about
    ``_BLOCK_ENTRIES`` entries of the widest array formed per point, ``width``
    or by default a 4-index tensor in the chart dimension (at least one point),
    so no temporary spans all points, and every point is treated on its own,
    so the block size changes no bit.  An exception propagates, or with
    ``isolate`` takes the place of its reducer's rows and drops that reducer
    from the loop.
    """
    count, out, loop = len(points), [None] * len(reducers), {}
    step = max(1, _BLOCK_ENTRIES // max(1, points.shape[1] ** 4 if width is None else width))
    for start in range(0, count, step):
        block = Block(points, slice(start, start + step), loop)
        for i, (fn, *args) in enumerate(reducers):
            if isinstance(out[i], Exception):
                continue
            try:
                parts = fn(block, *args)
            except Exception as err:  # noqa: BLE001 - it fails only the checks that read it
                if not isolate:
                    raise
                out[i] = err
                continue
            if block._whole:  # one block: its parts are the rows, C-ordered as the stacked ones
                out[i] = tuple(np.ascontiguousarray(part, dtype=float) for part in parts)
                continue
            if start == 0:
                out[i] = tuple(np.empty((count,) + part.shape[1:]) for part in parts)
            for whole, part in zip(out[i], parts):
                whole[block.rows] = part
    return out


def _contract(subscripts: str, *operands: np.ndarray, plans: dict | None = None) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` bit for bit, forming only the terms without a zero factor.

    Every operand and the output lead with the point label, and no label
    repeats within one of them.  A term with an exact-zero factor is ±0.0,
    which leaves a sum started at +0.0 unchanged.  The kept terms are formed
    left to right, as ``np.einsum`` rounds each product, and added into each
    output from 0.0; no output adds more than two, and a sum of two rounds
    the same in either order.  ``plans`` maps subscripts to the plans a
    caller made once from its operands' structural patterns (:func:`plans._planned`);
    a None plan (more than two kept terms per output, or ``plans._SPARSE_SHARE``
    of all terms) or a failed finiteness test of the caller's (0 · inf is
    NaN; :func:`_if_finite`) leaves the call to ``np.einsum``.  Without
    ``plans`` (``submersion``, one-point callers) the operands are scanned.
    A plan may gather from a packed operand and add into a packed output (the
    live slots of a pattern, :class:`Packed` or a packed jet part); its shape is
    then the output's.  An :class:`plans._Unpacked` plan is ``np.einsum`` over
    packed operands unpacked.
    """
    if plans is None:  # from the operands' values
        _planned(plans := {}, subscripts, *(_pack((op != 0.0).any(axis=0)) for op in operands))
        plans = _if_finite(plans, *operands)
    plan = plans.get(subscripts)
    if plan is None:
        return np.einsum(subscripts, *operands)
    if isinstance(plan, _Unpacked):
        return _einsum_unpacked(subscripts, plan, *operands)
    gathers, targets, shape = plan
    count = len(operands[0])
    terms = operands[0].reshape(count, -1)[:, gathers[0]]
    for op, gather in zip(operands[1:], gathers[1:]):
        terms *= op.reshape(count, -1)[:, gather]
    size = math.prod(shape)
    slots = np.arange(count)[:, None] * size + targets  # size may be 0: nothing live
    sums = np.bincount(slots.ravel(), terms.ravel(), count * size)
    # np.bincount gives integer zeros when no term is kept
    return sums.astype(terms.dtype, copy=False).reshape((count,) + shape)


def _transpose(subscripts: str, operand: np.ndarray, plans: dict) -> np.ndarray:
    """``np.einsum(subscripts, operand)`` for one operand, bit for bit: with a plan of ``plans``
    (:func:`plans._gather`), a gather from its columns padded with +0.0, for a packed operand."""
    plan = plans.get(subscripts)
    if plan is None:
        return np.einsum(subscripts, operand)
    if isinstance(plan, _Unpacked):
        return _einsum_unpacked(subscripts, plan, operand)
    (index,), _, shape = plan
    count = len(operand)
    return np.concatenate((operand, np.zeros((count, 1))), axis=1)[:, index].reshape((count,) + shape)


def _einsum_unpacked(subscripts: str, plan: _Unpacked, *operands) -> np.ndarray:
    """``np.einsum`` over ``operands`` read unpacked, gathered on the live slots of a packed output."""
    out = np.einsum(subscripts, *map(_full, operands, plan.operands))
    return out if plan.output is None else out.reshape(len(out), -1)[:, _live(plan.output)]


def _if_finite(plans: dict, *arrays) -> dict:
    """``plans`` if all ``arrays`` are finite, else none, so ``np.einsum`` forms each 0 · inf as NaN:
    a rule set's ``handback`` (:class:`plans._RulePlans`), which reads packed operands unpacked."""
    if not any(plans.values()) or all(np.isfinite(a).all() for a in arrays):
        return plans
    return getattr(plans, "handback", {})


def _full(part: np.ndarray, layout) -> np.ndarray:
    """A jet part (with its point axis) read unpacked, +0.0 off the live slots of its ``layout``
    (:attr:`PointJets.layouts`); the part itself where it is stored dense."""
    if layout is None or part.ndim > 2:
        return part
    out = np.zeros((len(part), math.prod(layout[0])))
    out[:, _live(layout)] = part
    return out.reshape((len(part),) + layout[0])


def _unchecked(field, *arrays) -> tuple:
    """Those of ``arrays``, read from ``field``, that a finiteness test scans: none of an
    :class:`ExpressionField`'s, whose batches raise on a non-finite entry, all of a derived field's."""
    return () if isinstance(field, ExpressionField) else arrays


def _kept_plans(owner, key, rule: tuple, patterns: tuple) -> dict:
    """The plans of ``rule`` (:func:`_apply`) over operands a, b with ``patterns``, kept on ``owner``."""
    held = owner.__dict__.setdefault("_kept_plans", {})
    if key not in held:
        held[key] = _apply((rule,), ("a b",), (patterns,))[1]
    return held[key]


class Packed(NamedTuple):
    """Per-point [l,i,j,k] arrays on the live slots of a structural ``pattern`` (:func:`_pack`):
    ``values`` has a leading point axis and a column per slot of :func:`_live`, every slot for a
    None ``pattern``.  Off its slots an array is +0.0."""

    values: np.ndarray
    pattern: tuple | None


def _unpacked(r: Packed, n: int) -> np.ndarray:
    """The [l,i,j,k] arrays of ``r`` in dimension ``n``, over its point axis, +0.0 off its slots."""
    return r.values.reshape((len(r.values),) + (n,) * 4) if r.pattern is None else _full(r.values, r.pattern)


def _sized(width):
    """Marks an R reader that forms no dense 4-index array unless a block is handed back:
    ``width(*args)`` is the widest array it forms per point, by which :func:`block_rows` sizes blocks."""
    def mark(fn):
        fn.width = width
        return fn
    return mark


def _kept_bracket(owner, metric, structure=None, *union) -> tuple:
    """The :func:`_bracket_plan` of ``metric``'s and ``structure``'s patterns, kept on ``owner``;
    Kurose's two terms without a structure.  Given R's pattern in ``union``, its :func:`_bracket_union`."""
    held = owner.__dict__.setdefault("_kept_plans", {})
    key = ("bracket", metric, structure, *union)
    if key not in held:
        args = (metric.dim, metric.patterns[0], None if structure is None else structure.patterns[0],
                2 if structure is None else len(_BRACKET))
        held[key] = _bracket_union(*args, *union) if union else _bracket_plan(*args)
    return held[key]


def _bracket(plan: tuple, gm: np.ndarray, m: np.ndarray | None = None, unchecked: tuple = ()) -> np.ndarray:
    """The terms of ``plan`` (:func:`_bracket_plan`) at g = ``gm`` and P = ``m``, [l,i,j,k] over a
    leading point axis or at one point, with the bits of :func:`_dense_bracket`; the terms of a
    :func:`_bracket_union` plan as (points, the union's slots).

    Each kept term is one product, the terms are concatenated in term order, and one
    ``np.bincount`` adds each slot's terms from +0.0 in that order, as the dense formula adds them.
    A dropped term is ±0.0, which changes no nonzero sum, and neither formula ends at −0.0
    (``np.einsum`` gives +0.0 for a zero product).  When one of ``unchecked`` (:func:`_unchecked`),
    q = gP or q − qᵀ is non-finite, the dense formula is formed instead, so each 0 · inf stays NaN.
    """
    factors = (gm, -gm)
    if m is not None:
        q = gm @ m  # as the dense formula forms it: one point is not a stack of one to BLAS
        a = q - np.swapaxes(q, -1, -2)
        factors += (q, -q, a)
        unchecked += (q, a)
    if not all(np.isfinite(x).all() for x in unchecked):
        return _dense_bracket(gm, m)
    one, n = gm.ndim == 2, gm.shape[-1]
    count = 1 if one else len(gm)
    first, second, targets, *union = plan
    terms = np.concatenate([x.reshape(count, -1) for x in factors], axis=1)[:, first]
    if m is not None:  # the δ terms read the 1.0 after P, and x · 1.0 is x
        terms *= np.concatenate((m.reshape(count, -1), np.ones((count, 1))), axis=1)[:, second]
    size = union[0] if union else n ** 4
    slots = np.arange(count)[:, None] * size + targets
    # np.bincount gives integer zeros when no term is kept
    out = np.bincount(slots.ravel(), terms.ravel(), count * size).astype(float, copy=False)
    return out.reshape((count, size) if union else (n,) * 4 if one else (count,) + (n,) * 4)


def _model_defect(model: np.ndarray, plan: tuple, scale: float, r: Packed) -> np.ndarray:
    """Per point, max |scale · model − R| for the bracket ``model`` of a :func:`_bracket_union`
    ``plan``, scaled in place; a model handed back to the dense formula holds every slot."""
    at = plan[4]
    if model.ndim > 2:  # handed back (_bracket)
        model, at = model.reshape(len(model), -1), _live(r.pattern)
    model *= scale
    model[:, at] -= r.values
    return max_abs(model)


def _dense_bracket(gm: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
    """The bracket by ``np.einsum`` outer products over leading axes: Kurose's two terms without
    ``m``, all five with it; what :func:`_bracket` hands back to on a non-finite operand."""
    eye = np.eye(gm.shape[-1])
    out = np.einsum("...jk,li->...lijk", gm, eye) - np.einsum("...ik,lj->...lijk", gm, eye)
    if m is None:
        return out
    q = gm @ m  # q[i, j] = g(∂_i, P ∂_j)
    return (out + np.einsum("...kj,...li->...lijk", q, m)
            - np.einsum("...ki,...lj->...lijk", q, m)
            + np.einsum("...ij,...lk->...lijk", q - np.swapaxes(q, -1, -2), m))


# --------------------------------------------------------------------------
# Expression-backed fields
# --------------------------------------------------------------------------

class ComponentGrid:
    """A square grid of component fields, checked and laid out once, shared by every field over it.

    Every axis is as long as the chart dimension.  ``components`` holds the
    fields as nested tuples, a ``symmetric`` grid's mirrored from its upper
    triangle (i ≤ j); ``read`` lists the components read, in grid order.  Of
    these, the constants (an :class:`expr.Const` root) are kept as the flat
    indices and values of their slots other than +0.0 (``constants``), and the
    ``varying`` ones with the ``slots`` each fills.  ``plan``, the walk of the
    varying roots, is made at the first batch and kept, as are the ``patterns``,
    the ``layouts`` of the jet parts and the ``columns`` a packed part is written
    by.  A grid holds trees, numbers, bytes and index arrays, no result, so one
    parse serves every run.
    """

    def __init__(self, components, symmetric: bool = False):
        grid = np.array(components, dtype=object)
        if not all(isinstance(f, ex.ScalarField) for f in grid.flat):
            raise ValueError("component grid is ragged or holds non-field entries")
        if grid.size == 0 or len(set(grid.shape)) != 1:
            raise ValueError(f"component grid of shape {grid.shape} is not square")
        n = grid.shape[0]
        if any(f.arity != n for f in grid.flat):
            raise ValueError(f"components must all have chart arity {n}, the grid's dimension")
        if symmetric:
            grid = np.where(np.tri(n, dtype=bool), grid.T, grid)
        self.components = _nested(grid)
        self.shape, self.symmetric = grid.shape, symmetric
        self.read, self.varying, self.slots, indices, values = [], [], [], [], []
        # one pass in flat order, the flat index counted: no np.ndindex or np.ravel_multi_index per entry
        for flat, (index, component) in enumerate(zip(itertools.product(range(n), repeat=grid.ndim), grid.flat)):
            if symmetric and index[0] > index[1]:
                continue
            self.read.append(component)
            mirrored = symmetric and index[0] != index[1]
            if not isinstance(component.root, ex.Const):
                self.varying.append(component)
                self.slots.append(((...,) + index, (...,) + index[::-1]) if mirrored else ((...,) + index,))
            elif component.root.value or math.copysign(1.0, component.root.value) < 0:
                indices += (flat, sum(i * n ** axis for axis, i in enumerate(index))) if mirrored else (flat,)
                values += [component.root.value] * (1 + mirrored)
        self.read, self.varying, self.slots = tuple(self.read), tuple(self.varying), tuple(self.slots)
        self.constants = (tuple(indices), tuple(values))

    @functools.cached_property
    def plan(self) -> ex.Plan:
        return ex.Plan([f.root for f in self.varying])

    def patterns(self, order: int) -> tuple:
        """The pattern of each jet part up to ``order`` (:func:`_pack`), kept: the constants other
        than ±0.0, and each derivative of a varying component whose ``differentiate`` tree is not
        the constant 0, first walked over ``plan``, second over a plan of their own."""
        n, held = self.shape[0], self.__dict__.setdefault("_patterns", {})
        if order not in held:
            parts = [np.zeros((n,) * k + self.shape, dtype=bool) for k in range(order + 1)]
            parts[0].put(self.constants[0], [value != 0.0 for value in self.constants[1]])
            live, roots = [tuple(slot[1:] for slot in slots) for slots in self.slots], None  # their places
            for k, part in enumerate(parts):
                for places in live:
                    part[tuple(zip(*places))] = True
                if k < order and live:
                    plan = self.plan if roots is None else ex.Plan(roots)
                    trees = [(tuple((i,) + place for place in live[j]), tree) for i in range(n)
                             for j, tree in plan.run(ex._derivative, i)
                             if not (isinstance(tree, ex.Const) and tree.value == 0.0)]
                    live, roots = [places for places, _ in trees], [tree for _, tree in trees]
            held[order] = tuple(_pack(part) for part in parts)
        return held[order]

    def layouts(self, order: int) -> tuple:
        """Per jet part up to ``order``, its pattern where the part is stored packed
        (:func:`plans._layout`): a derivative part with four indices only; the values are dense."""
        held = self.__dict__.setdefault("_layouts", {})
        if order not in held:
            held[order] = tuple(_layout(self.patterns(order)[k]) if k and k + len(self.shape) == 4 else None
                                for k in range(order + 1))
        return held[order]

    def columns(self, order: int) -> tuple:
        """Per jet part up to ``order``, None where it is stored dense, else the column map a
        batch writes its varying components' jets by (:func:`plans._columns`)."""
        held = self.__dict__.setdefault("_columns", {})
        if order not in held:
            slots = tuple(tuple(slot[1:] for slot in component) for component in self.slots)
            held[order] = tuple(None if layout is None else _columns(self.shape, slots, layout)
                                for layout in self.layouts(order))
        return held[order]


def _nested(grid: np.ndarray) -> tuple:
    return tuple(_nested(row) for row in grid) if grid.ndim > 1 else tuple(grid)


class ExpressionField(PointJets):
    """A tensor field whose components are held in a :class:`ComponentGrid` of its value shape.

    Jets carry derivatives up to ``order``, the derivative indices right after
    the point axis: ``(X, dX, d2X)`` with ``dX[k, a...] = ∂_k X[a...]`` and
    ``d2X[k, l, a...] = ∂_k ∂_l X[a...]``.  A field is a store over its grid
    (nested lists of components are laid out into a grid of its own) plus its
    template, the grid's constants in an array of the value shape.  A batch
    copies the template over the point axis, starts every derivative array
    from zeros, and walks only the varying components with the grid's kept
    plan, each distinct subtree once, writing each one's jets into its slots
    as they arrive; a structural zero is not written.  A derivative part with
    four indices whose pattern is sparse (∂²g of a metric, ∂Γ of a connection;
    ``layouts``) is stored packed: a (points, live) array into whose columns
    each component's jet is written by the grid's column map
    (:meth:`ComponentGrid.columns`), its live entries only, with no n⁴ array
    per point.  Finiteness is checked once per assembled dense array and once
    per jet written into columns; on a non-finite entry all components,
    constants included, are walked again through :func:`expr.eval_fields`'
    checked path, which names the first failing component's failure and point.
    """

    order = 1
    symmetric = False

    def __init__(self, components):
        if isinstance(components, ComponentGrid) and components.symmetric != self.symmetric:
            components = components.components  # laid out again, as this class reads it
        if not isinstance(components, ComponentGrid):
            components = ComponentGrid(components, self.symmetric)
        self.grid = components
        self._template = np.zeros(components.shape)
        self._template.put(*components.constants)

    @classmethod
    def from_strings(
        cls,
        coords: Sequence[str],
        entries: Sequence,
        params: Mapping[str, float] | None = None,
    ) -> "ExpressionField":
        """The field whose components parse from the nested lists of strings ``entries``."""
        def parse(entry):
            if isinstance(entry, str):
                return ex.parse_expression(entry, coords, params)
            return [parse(item) for item in entry]

        return cls(parse(entries))

    @classmethod
    def constant(cls, values, coords: Sequence[str]) -> "ExpressionField":
        """The field whose components are the constants ``values``, a square array of any rank."""
        grid = np.empty(np.shape(values), dtype=object)
        grid.flat = [ex.constant_field(v, coords) for v in np.ravel(values)]
        return cls(grid)

    @property
    def dim(self) -> int:
        return self.grid.shape[0]

    def component(self, *index: int) -> ex.ScalarField:
        return functools.reduce(tuple.__getitem__, index, self.grid.components)

    patterns = property(lambda self: self.grid.patterns(self.order))
    layouts = property(lambda self: self.grid.layouts(self.order))

    def _batch_jets(self, points, full):
        grid, count, order = self.grid, points.shape[0], self.order if full else 0
        columns = grid.columns(order) if order else (None,)
        # ndarray.copy is C-ordered; np.array of the broadcast would put the point axis last
        parts = (np.broadcast_to(self._template, (count,) + grid.shape).copy(),
                 *(np.zeros((count,) + (self.dim,) * derivatives + grid.shape) if packed is None
                   else np.zeros((count, packed[0])) for derivatives, packed in enumerate(columns[1:], 1)))
        finite = True  # of the jets written into columns; the dense parts are tested whole

        def write(i, jets):  # a float broadcasts into its slots; a structural zero is there already
            nonlocal finite
            for k, (part, jet, packed) in enumerate(zip(parts, jets, columns)):
                if jet is None:
                    continue
                if packed is None:
                    for target in grid.slots[i]:
                        part[target] = jet
                    continue
                finite = finite and bool(np.isfinite(jet).all())
                where, derivative = packed[1][i]
                jet = np.asarray(jet) if np.ndim(jet) >= k else np.broadcast_to(jet, (self.dim,) * k)
                part[:, where] = jet.reshape(jet.shape[:jet.ndim - k] + (-1,))[..., derivative]

        if grid.varying:
            ex.eval_fields(grid.varying, points, order, write, grid.plan, check_finite=False)
        if not (finite and all(np.isfinite(part).all() for part, packed in zip(parts, columns) if packed is None)):
            # the checked walk raises with the first failing component's message and point
            ex.eval_fields(grid.read, points, order, lambda *_: None)
            raise ex.EvaluationError("non-finite derivative data" if order else "non-finite value")
        return parts


class MetricField(ExpressionField):
    """Symmetric grid of component fields g_ij.

    Jets are ``(G, dG, d2G)`` with ``dG[k,i,j] = ∂_k g_ij`` and
    ``d2G[k,l,i,j] = ∂_k ∂_l g_ij``.
    """

    order = 2
    symmetric = True

    @functools.cached_property
    def inverse(self) -> InverseMetric:
        """G⁻¹ and ∂G⁻¹, built on first use; every field derived from this metric reads them."""
        return InverseMetric(self)


def _singular(eigenvalues: np.ndarray) -> np.ndarray:
    """Whether each symmetric matrix, given by its eigenvalues on the last axis, counts as singular.

    The magnitudes of the eigenvalues are the singular values.  A matrix is
    singular when the smallest is at most ``_DEGENERACY_CUTOFF`` times the
    largest, raised to at least 1: a test of the condition number, whatever
    the dimension and the scale.
    """
    sigma = np.abs(eigenvalues)
    return sigma.min(axis=-1) <= _DEGENERACY_CUTOFF * np.maximum(1.0, sigma.max(axis=-1))


def _signatures(eigenvalues: np.ndarray) -> np.ndarray:
    """(positive, negative) counts of the eigenvalues on the last axis."""
    return np.stack([np.sum(eigenvalues > 0.0, axis=-1), np.sum(eigenvalues < 0.0, axis=-1)], -1)


def metric_signature(g: MetricField, point) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of G at a point."""
    positive, negative = _signatures(np.linalg.eigvalsh(g.value(point)))
    return int(positive), int(negative)


def validate_metric_on_chart(g: MetricField, chart: ChartSpec, pts=None) -> tuple[int, int]:
    """Check nondegeneracy at the samples and signature constancy against the box center.

    Raises :class:`MetricError` at the first failing sample, checking the
    singularity before the signature at each one.  It reads the samples' jets,
    which the checks read next, from the store, and the center's value alone.  Returns the signature.
    """
    points = _as_points(pts if pts is not None else sample_points(chart, DEFAULT_POINT_COUNT))
    reference = metric_signature(g, chart.center)
    matrices = g._lookup(points, True)[0]
    eigenvalues = np.linalg.eigvalsh(matrices)
    singular = _singular(eigenvalues)
    signatures = _signatures(eigenvalues)
    failing = np.flatnonzero(singular | (signatures != reference).any(axis=1))
    if failing.size:
        first = failing[0]
        p = points[first].tolist()
        if singular[first]:
            raise MetricError(f"singular metric (det {np.linalg.det(matrices[first]):.3e}) at point {p}")
        raise MetricError(
            f"metric signature {tuple(signatures[first].tolist())} at {p} differs from "
            f"{reference} at the box center"
        )
    return reference


# --------------------------------------------------------------------------
# Derived fields
# --------------------------------------------------------------------------

class InverseMetric(DerivedJets):
    """G⁻¹ of a metric, the one place where a metric is inverted (and tested for singularity).

    Jets are (G⁻¹, ∂G⁻¹) with ∂_k(G⁻¹) = −G⁻¹ (∂_k G) G⁻¹.  A G that is
    :func:`_singular` raises :class:`MetricError`.  Jets asked for after the
    values of the same batch read the stored G⁻¹, so each block is inverted once.
    The metric owns its inverse (:attr:`MetricField.inverse`), which holds the
    metric through a weak proxy: no cycle.
    """

    _names = ("g dg",)
    _rules = (("value", "closure g"), ("derivative", "pia,pkab,pbj->pkij value dg value"))

    def __init__(self, metric: MetricField):
        self._bases = (weakref.proxy(metric),)
        self._value_needs = (False,)

    def _derive(self, full, metric_jets):
        g = metric_jets[0]
        singular = _singular(np.linalg.eigvalsh(g))
        if singular.any():
            det = np.linalg.det(g[np.argmax(singular)])
            raise MetricError(f"singular metric (det {det:.3e}) has no inverse")
        ginv = np.linalg.inv(g)
        return self._derive_after_values(ginv, metric_jets) if full else (ginv,)

    def _derive_after_values(self, ginv, metric_jets):
        plans = _if_finite(self._structure[1], ginv)
        return ginv, -_contract("pia,pkab,pbj->pkij", ginv, metric_jets[1], ginv, plans=plans)


class LeviCivitaConnection(DerivedJets):
    """Metric connection Γ⁰^k_ij = ½ g^km (∂_i g_mj + ∂_j g_mi − ∂_m g_ij); jets are (Γ, ∂Γ)."""

    _names = ("g dg d2g", "ginv dginv")
    _rules = (("a", "pimj->pmij dg", "pjmi->pmij dg", "pmij->pmij dg"), ("value", "pkm,pmij->pkij ginv a"),
              ("da", "plimj->plmij d2g", "pljmi->plmij d2g", "plmij->plmij d2g"),
              ("derivative", "plkm,pmij->plkij dginv a", "pkm,plmij->plkij ginv da"))

    def __init__(self, metric: MetricField):
        self._bases = (metric, metric.inverse)
        self._value_needs = (True, False)

    def _derive(self, full, metric_jets, inverse_jets):
        dg, ginv = metric_jets[1], inverse_jets[0]
        # a[m,i,j] = ∂_i g_mj + ∂_j g_mi − ∂_m g_ij
        a = np.einsum("pimj->pmij", dg) + np.einsum("pjmi->pmij", dg) - dg
        plans = _if_finite(self._structure[1], ginv, a)
        gamma = 0.5 * _contract("pkm,pmij->pkij", ginv, a, plans=plans)
        if not full:
            return (gamma,)
        d2g, dginv = metric_jets[2], inverse_jets[1]
        # the transposes gather from packed columns (da is packed where d2g's pattern is sparse)
        da = (_transpose("plimj->plmij", d2g, plans) + _transpose("pljmi->plmij", d2g, plans)
              - _transpose("plmij->plmij", d2g, plans))
        plans = _if_finite(plans, dginv, da)
        dgamma = 0.5 * (_contract("plkm,pmij->plkij", dginv, a, plans=plans)
                        + _contract("pkm,plmij->plkij", ginv, da, plans=plans))
        return gamma, dgamma


class ConjugateConnection(DerivedJets):
    """Conjugate of a base connection: g(∂_k, ∇*_{∂_i} ∂_j) = ∂_i g_kj − Γ^m_ik g_mj.

    Conjugation is an involution: the conjugate of ∇* is ∇ again.  Jets are
    (Γ*, ∂Γ*).  Jets asked for after the values of the same batch read the
    stored Γ* and form again only rhs[k,i,j] = ∂_i g_kj − Γ^m_ik g_mj = g(∂_k, ∇*_i ∂_j).
    """

    _names = ("g dg d2g", "ginv dginv", "gamma dgamma")
    _rules = (("rhs", "pikj->pkij dg", "pmik,pmj->pkij gamma g"), ("value", "ptk,pkij->ptij ginv rhs"),
              ("drhs", "plikj->plkij d2g", "plmik,pmj->plkij dgamma g", "pmik,plmj->plkij gamma dg"),
              ("derivative", "pltk,pkij->pltij dginv rhs", "ptk,plkij->pltij ginv drhs"))

    def __init__(self, metric: MetricField, base):
        if metric.dim != base.dim:
            raise ValueError("metric and connection disagree on dimension")
        self._bases = (metric, metric.inverse, base)
        self._value_needs = (True, False, False)

    def _derive_after_values(self, star, *batches):
        return self._derive(True, *batches, star=star)

    def _derive(self, full, metric_jets, inverse_jets, base_jets, star=None):
        g, dg, ginv, gamma = metric_jets[0], metric_jets[1], inverse_jets[0], base_jets[0]
        base = self._bases[2]
        plans = _if_finite(self._structure[1], *_unchecked(base, gamma))
        rhs = np.einsum("pikj->pkij", dg) - _contract("pmik,pmj->pkij", gamma, g, plans=plans)
        plans = _if_finite(plans, ginv, rhs)
        star = _contract("ptk,pkij->ptij", ginv, rhs, plans=plans) if star is None else star
        if not full:
            return (star,)
        d2g, dginv, dgamma = metric_jets[2], inverse_jets[1], base_jets[1]
        plans = _if_finite(plans, dginv, *_unchecked(base, dgamma))
        drhs = (_transpose("plikj->plkij", d2g, plans)
                - _contract("plmik,pmj->plkij", dgamma, g, plans=plans)
                - _contract("pmik,plmj->plkij", gamma, dg, plans=plans))
        plans = _if_finite(plans, drhs)
        dstar = (_contract("pltk,pkij->pltij", dginv, rhs, plans=plans)
                 + _contract("ptk,plkij->pltij", ginv, drhs, plans=plans))
        return star, dstar


class AdjointStructure(DerivedJets):
    """Negative adjoint of a base structure: P* = −G⁻¹ Pᵀ G pointwise; jets are (P*, ∂P*).

    P* is the partner with g(PE, F) + g(E, P*F) = 0; an involution on fixtures.
    """

    _names = ("g dg", "ginv dginv", "m dm")
    _rules = (("mtg", "pcb,pcd->pbd m g"), ("gim", "pab,pcb->pac ginv m"), ("dmtg", "pkcb,pcd->pkbd dm g"),
              ("value", "pac,pcd->pad gim g"),
              ("derivative", "pkab,pbd->pkad dginv mtg", "pab,pkbd->pkad ginv dmtg", "pac,pkcd->pkad gim dg"))

    def __init__(self, metric: MetricField, base):
        if metric.dim != base.dim:
            raise ValueError("metric and structure disagree on dimension")
        self._bases = (metric, metric.inverse, base)
        self._value_needs = (False, False, False)

    def _derive(self, full, metric_jets, inverse_jets, base_jets):
        g, ginv, m = metric_jets[0], inverse_jets[0], base_jets[0]
        star = -ginv @ np.swapaxes(m, 1, 2) @ g
        if not full:
            return (star,)
        dg, dginv, dm = metric_jets[1], inverse_jets[1], base_jets[1]
        # ∂P* = −(∂G⁻¹ Pᵀ G + G⁻¹ ∂Pᵀ G + G⁻¹ Pᵀ ∂G) in two-factor products: O(n⁴) per point, not
        # a three-factor einsum's O(n⁵).  ∂P vanishes for a constant P; _contract then forms no term.
        base = self._bases[2]
        plans = _if_finite(self._structure[1], ginv, dginv, *_unchecked(base, m, dm))
        mtg = _contract("pcb,pcd->pbd", m, g, plans=plans)
        gim = _contract("pab,pcb->pac", ginv, m, plans=plans)
        dmtg = _contract("pkcb,pcd->pkbd", dm, g, plans=plans)
        plans = _if_finite(plans, mtg, gim, dmtg)
        dstar = -(_contract("pkab,pbd->pkad", dginv, mtg, plans=plans)
                  + _contract("pab,pkbd->pkad", ginv, dmtg, plans=plans)
                  + _contract("pac,pkcd->pkad", gim, dg, plans=plans))
        return star, dstar


# --------------------------------------------------------------------------
# Check plumbing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Outcome of a check, a certification or a theorem.

    ``residual`` is scaled by 1 + max |input component| and is what the
    tolerance applies to; ``raw_residual`` is the unscaled max-norm defect.
    A theorem whose hypothesis fails is NOT-APPLICABLE, with a ``reason``
    and no residual.  As a report row it also carries the ``name`` the suite
    gives it and the number of ``points_used``.
    """

    status: str
    residual: float | None = None
    raw_residual: float | None = None
    tolerance: float | None = None
    worst_point: np.ndarray | None = None
    reason: str | None = None
    details: dict = field(default_factory=dict)
    name: str = ""
    points_used: int | None = None

    def __post_init__(self):
        if self.status not in (STATUS_PASS, STATUS_FAIL, STATUS_NOT_APPLICABLE, STATUS_ERROR):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_NOT_APPLICABLE and not self.reason:
            raise ValueError("NOT-APPLICABLE outcomes need a reason")

    @property
    def passed(self) -> bool:
        return self.status == STATUS_PASS


def max_abs(arr: np.ndarray) -> np.ndarray:
    """Per-point max |component| of an array with a leading point axis; 0 without components."""
    return np.abs(arr).reshape(arr.shape[0], -1).max(axis=1, initial=0.0)


def scale_of(*arrays) -> np.ndarray:
    """Per point, 1 + the largest |component| over all ``arrays`` (each with a leading point axis)."""
    return 1.0 + np.maximum.reduce([max_abs(arr) for arr in arrays])


def residual_check(raw, scale, points, tol: float, details: dict | None = None) -> CheckResult:
    """The worst of the per-point defects ``raw`` (each ≥ 0) scaled by ``scale``.

    A NaN or infinite residual or scale counts as an infinite residual, which
    never passes, not even an infinite tolerance.  Among equal worst
    residuals the last point wins, the point a sequential ``>=`` scan would
    keep.
    """
    raw = np.asarray(raw, dtype=float)
    scale = np.asarray(scale, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = raw / scale
    scaled[~(np.isfinite(scaled) & np.isfinite(scale))] = math.inf
    worst = len(scaled) - 1 - int(np.argmax(scaled[::-1]))
    return CheckResult(
        STATUS_PASS if scaled[worst] < math.inf and scaled[worst] <= tol else STATUS_FAIL,
        residual=float(scaled[worst]),
        raw_residual=float(raw[worst]),
        tolerance=tol,
        worst_point=np.array(points[worst], dtype=float),
        details=details or {},
    )


def _kept_slot(batch: tuple, key) -> tuple[dict, tuple]:
    """Where ``key = (fn, subject, *args)`` is kept for ``batch``, the points' shape and bytes:
    a store on the subject."""
    return key[1].__dict__.setdefault("_kept", {}), (*batch, key[0], *key[2:])


def block_rows(pts, *reducers) -> list[tuple[np.ndarray, ...]]:
    """The per-point rows of each reducer ``(fn, subject, *args)`` at ``pts`` (see :class:`Block`).

    Rows are kept on the subject, keyed by the whole batch like a field's
    store, so a run forms them once for every check that reads them; those
    not kept yet are formed together in one block loop, its blocks sized by the
    widest array any of them forms per point (:func:`_width`).  A failing
    reducer is not kept, and the first failure among ``reducers`` is raised.
    """
    points = _as_points(pts)
    batch = (points.shape, points.tobytes())
    slots = [_kept_slot(batch, reducer) for reducer in reducers]
    todo = {}  # each missing slot once, by its store
    for reducer, (store, slot) in zip(reducers, slots):
        if slot not in store:
            todo.setdefault((id(store), slot), (reducer, store, slot))
    if todo:
        failures, reducers = {}, [reducer for reducer, _, _ in todo.values()]
        width = max(_width(reducer, points.shape[1]) for reducer in reducers)
        for key, (_, store, slot), rows in zip(todo, todo.values(), _block_loop(
                points, reducers, isolate=True, width=width)):
            if isinstance(rows, Exception):
                failures[key] = rows
            else:
                store[slot] = _read_only(rows)
        for store, slot in slots:
            if slot not in store:
                raise failures[id(store), slot]
    return [store[slot] for store, slot in slots]


def _width(reducer, n: int) -> int:
    """The widest array ``reducer`` forms per point: its reader's width (:func:`_sized`), or n⁴."""
    fn, *args = reducer
    if not hasattr(fn, "width"):
        return n ** 4
    try:
        return fn.width(*args)
    except Exception:  # noqa: BLE001 - the reducer raises it again in the loop
        return n ** 4


def reduced_check(pts, tol: float, *reducer, details=()) -> CheckResult:
    """The :func:`residual_check` of a reducer's rows: raw defect, scale, then one row per detail.

    A detail is reported as the largest value of its row.
    """
    points = _as_points(pts)
    raw, scale, *rows = block_rows(points, reducer)[0]
    return residual_check(raw, scale, points, tol,
                          {name: float(row.max()) for name, row in zip(details, rows)})


# --------------------------------------------------------------------------
# Statistical structure and curvature
# --------------------------------------------------------------------------

def _statistical_rows(b: Block, spec):
    gm, dg, _ = b.read(spec.metric, True)
    gamma = b.values(spec.resolved_connection)
    torsion = max_abs(gamma - np.einsum("pkij->pkji", gamma))
    plans = _if_finite(_kept_plans(spec, _statistical_rows, ("C", "pmij,pmk->pijk a b", "pmik,pjm->pijk a b"),
                                   (spec.resolved_connection.patterns[0], spec.metric.patterns[0])),
                       *_unchecked(spec.resolved_connection, gamma))
    # C[i,j,k] = (∇_{∂_i} g)(∂_j, ∂_k)
    cov = (dg - _contract("pmij,pmk->pijk", gamma, gm, plans=plans)
           - _contract("pmik,pjm->pijk", gamma, gm, plans=plans))
    codazzi = max_abs(cov - np.einsum("pijk->pjik", cov))
    return np.maximum(torsion, codazzi), scale_of(gamma, gm, dg), torsion, codazzi


def check_statistical_structure(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Torsion-freeness of the connection together with symmetry of ∇g (Codazzi)."""
    return reduced_check(pts, tol, _statistical_rows, spec, details=("torsion", "codazzi"))


def _involution_rows(b: Block, spec):
    gamma = b.values(spec.resolved_connection)
    double = b.loop.setdefault(("∇**", spec), ConjugateConnection(spec.metric, spec.conjugate))
    return max_abs(b.derived(double) - gamma), scale_of(gamma)


def check_conjugate_involution(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """(∇*)* = ∇ at the samples, scaled by 1 + max |Γ|."""
    return reduced_check(pts, tol, _involution_rows, spec)


def _average_rows(b: Block, spec):
    gamma = b.values(spec.resolved_connection)
    defect = gamma + b.values(spec.conjugate) - 2.0 * b.values(spec.levi_civita_connection)
    return max_abs(defect), scale_of(gamma)


def check_levi_civita_average(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """(∇ + ∇*)/2 is the Levi-Civita connection at the samples, scaled by 1 + max |Γ|."""
    return reduced_check(pts, tol, _average_rows, spec)


def _packed_curvature(plan: _CurvaturePlan, gamma: np.ndarray, dgamma: np.ndarray, checked: tuple) -> Packed:
    """R from the jets of a batch on the live slots of ``plan`` (:func:`_curvature_plan`).

    ∂Γ is gathered transposed (from its columns where it is stored packed), ΓΓ formed by the plan's kept terms added among the live slots (or
    by ``np.einsum`` on every slot and gathered, where it keeps no plan), and R = b − b(i↔j) is two
    gathers of b, so every slot has the bits of the dense formula (:func:`_dense_curvature`), which
    gives +0.0 off the pattern.  Where ``plan`` has no pattern, or one of ``checked`` is non-finite
    (0 · inf is NaN), the dense formula forms every slot.
    """
    count = len(gamma)
    if plan.pattern is None or not all(np.isfinite(a).all() for a in checked):
        return Packed(_dense_curvature(gamma, _full(dgamma, plan.layout)).reshape(count, -1), None)
    if dgamma.ndim == 2:  # stored packed: its columns, padded with +0.0 off its pattern
        b = np.concatenate((dgamma, np.zeros((count, 1))), axis=1)[:, plan.columns]
    else:
        b = dgamma.reshape(count, -1)[:, plan.transposed]
    products = _contract("pmjk,plim->plijk", gamma, gamma, plans=plan.products).reshape(count, -1)
    b += products[:, _live(plan.pattern)] if plan.products["pmjk,plim->plijk"] is None else products
    return Packed(b - b[:, plan.swapped], plan.pattern)


def _dense_curvature(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R over a leading point axis by ``np.einsum`` on every slot: for a full or unknown pattern,
    and where :func:`_packed_curvature` hands a non-finite block back, so each 0 · inf stays NaN."""
    b = np.einsum("piljk->plijk", dgamma) + np.einsum("pmjk,plim->plijk", gamma, gamma)
    return b - np.einsum("plijk->pljik", b)


def curvature_tensor(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R[l,i,j,k] = ∂_i Γ^l_jk − ∂_j Γ^l_ik + Γ^m_jk Γ^l_im − Γ^m_ik Γ^l_jm.

    Takes the jets of a batch, with a leading point axis, or of one point,
    without it.  Antisymmetry in (i, j) is exact.  R is formed on the live
    slots of the structural pattern of the jets' nonzeros
    (:func:`_packed_curvature`) and read unpacked, +0.0 off it, which is what
    the dense formula gives there.
    """
    if gamma.ndim == 3:
        return curvature_tensor(gamma[None], dgamma[None])[0]
    plan = _curvature_plan(gamma.shape[-1], tuple(_pack((jet != 0.0).any(axis=0)) for jet in (gamma, dgamma)))
    return _unpacked(_packed_curvature(plan, gamma, dgamma, (gamma, dgamma)), gamma.shape[-1])


def _kept_curvature(connection) -> _CurvaturePlan:
    """The :func:`_curvature_plan` of ``connection``'s patterns, kept on it."""
    if "_curvature" not in connection.__dict__:
        connection._curvature = _curvature_plan(connection.dim, connection.patterns)
    return connection._curvature


def _curvature_of(connection, gamma: np.ndarray, dgamma: np.ndarray) -> Packed:
    """R of ``connection`` from the jets of a batch, on the live slots of its pattern
    (:func:`_packed_curvature`); the jets of a derived connection are tested for finiteness."""
    checked = _unchecked(connection, gamma, dgamma)
    return _packed_curvature(_kept_curvature(connection), gamma, dgamma, checked)


def _curvature_at(connection, gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R of ``connection`` unpacked, +0.0 off its pattern: over a batch, or at one point without
    the point axis."""
    if gamma.ndim == 3:
        return _curvature_at(connection, gamma[None], dgamma[None])[0]
    return _unpacked(_curvature_of(connection, gamma, dgamma), gamma.shape[-1])


def _bracket_width(spec, structure, connection) -> int:
    """The widest array a bracket defect against R of ``connection`` forms per point."""
    r = _kept_curvature(connection)
    plan = _kept_bracket(spec, spec.metric, structure, r.pattern)
    return max(r.width, len(plan[0]), plan[3])


@_sized(lambda spec: _kept_curvature(spec.resolved_connection).width)
def _flatness_rows(b: Block, spec):
    gm = b.values(spec.metric)
    return max_abs(b.curvature(spec.resolved_connection).values), scale_of(gm)


def curvature_residual(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """R = 0 at the samples: max |R| scaled by 1 + max |g|."""
    return reduced_check(pts, tol, _flatness_rows, spec)


def statistical_curvature_at(spec: ManifoldSpec, point) -> np.ndarray:
    """S = ½ (R + R*), the curvature average of the dual pair."""
    r = _curvature_at(spec.resolved_connection, *spec.resolved_connection.jet(point))
    r_star = _curvature_at(spec.conjugate, *spec.conjugate.jet(point))
    return 0.5 * (r + r_star)


def sectional_curvature(spec: ManifoldSpec, point, v, w) -> float:
    """g(S(v,w)w, v) / (g(v,v) g(w,w) − g(v,w)²) for a nondegenerate plane span{v, w}."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    gm = spec.metric.value(point)
    gvv = float(v @ gm @ v)
    gww = float(w @ gm @ w)
    gvw = float(v @ gm @ w)
    disc = gvv * gww - gvw * gvw
    cutoff = _DEGENERACY_CUTOFF * (1.0 + abs(gvv * gww) + gvw * gvw)
    if abs(disc) <= cutoff:
        raise DegeneratePlaneError(
            f"plane discriminant {disc:.3e} below cutoff {cutoff:.3e} at {np.asarray(point).tolist()}"
        )
    s = statistical_curvature_at(spec, point)
    # one point and no point label: nothing for _contract to skip
    numerator = float(np.einsum("al,lijk,i,j,k,a->", gm, s, v, w, w, v))
    return numerator / disc


def _best_coordinate_plane(gm: np.ndarray) -> tuple[int, int, float]:
    """(i, j, g_ii g_jj − g_ij²) of the coordinate plane with the largest |discriminant|.

    A discriminant that overflows raises :class:`OverflowError` naming its plane, and one within
    the cutoff 1e-10 · (1 + max |g|²), inf when the square overflows, :class:`DegeneratePlaneError`.
    """
    n = gm.shape[0]
    best = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            for j in range(i + 1, n):
                disc = float(gm[i, i] * gm[j, j] - gm[i, j] ** 2)
                if not math.isfinite(disc):
                    raise OverflowError(f"plane discriminant g_ii g_jj − g_ij² overflows in the "
                                        f"coordinate plane ({i}, {j}) at the first sample point")
                if best is None or abs(disc) > abs(best[2]):
                    best = (i, j, disc)
        cutoff = _DEGENERACY_CUTOFF * (1.0 + np.max(np.abs(gm)) ** 2)
    if best is None or abs(best[2]) <= cutoff:
        raise DegeneratePlaneError("no nondegenerate coordinate plane at the first sample point")
    return best


@_sized(lambda spec: _bracket_width(spec, None, spec.resolved_connection))
def _kurose_rows(b: Block, spec):
    """Per point, max |k (g_jk δ^l_i − g_ik δ^l_j) − R|, the scale and k, with k fitted once per
    loop at its first point, from R unpacked; the model is formed from the terms that g's pattern
    keeps on the union of their slots and R's (:func:`_bracket_union`, kept on the spec), and
    scaled and compared in place."""
    gp, r = b.values(spec.metric), b.curvature(spec.resolved_connection)
    if ("kurose", spec) not in b.loop:  # from the first point's metric and R
        i, j, disc = _best_coordinate_plane(gp[0])
        rp = _unpacked(Packed(r.values[:1], r.pattern), gp.shape[-1])[0]
        # g(R(e_i, e_j) e_j, e_i) = k (g_jj g_ii − g_ij g_ij)
        b.loop["kurose", spec] = float(np.einsum("l,lm->m", rp[:, i, j, j], gp[0])[i]) / disc
    k_hat = b.loop["kurose", spec]
    plan = _kept_bracket(spec, spec.metric, None, r.pattern)
    defect = _model_defect(_bracket(plan, gp, unchecked=_unchecked(spec.metric, gp)), plan, k_hat, r)
    return defect, scale_of(r.values, gp), np.full(len(gp), k_hat)


def fit_kurose_constant(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Estimate the constant of the constant-curvature form of R and verify it globally.

    The constant is estimated at the first sample point, from the first
    block's R, in the coordinate plane with the largest |g_ii g_jj − g_ij²|
    (ties to the lowest indices) by contracting both sides of the
    constant-curvature form with the metric.  The result carries it as
    ``details["constant"]``.
    """
    return reduced_check(pts, tol, _kurose_rows, spec, details=("constant",))


def _dual_width(spec) -> int:
    """The widest array :func:`_dual_curvature_rows` forms per point, n⁴ without a :func:`_dual_plan`."""
    r, r_star = _kept_curvature(spec.resolved_connection), _kept_curvature(spec.conjugate)
    plan = _dual_plan(spec.metric.patterns[0], r.pattern, r_star.pattern)
    return max(r.width, r_star.width, spec.metric.dim ** 4 if plan is None else plan[-1])


@_sized(_dual_width)
def _dual_curvature_rows(b: Block, spec):
    """Per point, max |g(R(∂_i,∂_j)∂_k, ∂_l) + g(R*(∂_i,∂_j)∂_l, ∂_k)| and the scale, on the live
    slots of :func:`_dual_plan`; by ``np.einsum`` over R and R* unpacked where it has no plan or R
    or R* is non-finite, so each 0 · inf is NaN."""
    gm, n = b.values(spec.metric), spec.metric.dim
    r, r_star = b.curvature(spec.resolved_connection), b.curvature(spec.conjugate)
    plan = _dual_plan(spec.metric.patterns[0], r.pattern, r_star.pattern)
    if plan is None or not (np.isfinite(r.values).all() and np.isfinite(r_star.values).all()):
        r_cov, rs_cov = (np.einsum("plm,pmijk->pijkl", gm, _unpacked(x, n)) for x in (r, r_star))
        scale = scale_of(r_cov, rs_cov)
        r_cov += np.einsum("pijlk->pijkl", rs_cov)  # in place: no block-sized temporary
        return max_abs(r_cov), scale
    lowerings, size, at, at_star, _ = plan
    r_cov, rs_cov = (_contract("plm,pmijk->pijkl", gm, x.values, plans=lowering)
                     for x, lowering in zip((r, r_star), lowerings))
    total = np.zeros((len(gm), size))
    total[:, at] = r_cov
    total[:, at_star] += rs_cov
    return max_abs(total), scale_of(r_cov, rs_cov)


def check_dual_curvature_identity(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """g(R(∂_i,∂_j)∂_k, ∂_l) + g(R*(∂_i,∂_j)∂_l, ∂_k) = 0 at the samples."""
    return reduced_check(pts, tol, _dual_curvature_rows, spec)


# --------------------------------------------------------------------------
# Manifold bundle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldSpec:
    """A chart with its attached fields (g, ∇, P); the subject of every check.

    The fields derived from these are built on first use and kept on the
    spec, so every check of the spec reads the same stores; none of them
    refers back to the spec.
    """

    chart: ChartSpec
    metric: MetricField
    connection: object | None = None
    product: object | None = None

    @functools.cached_property
    def levi_civita_connection(self) -> LeviCivitaConnection:
        """The metric's Levi-Civita connection."""
        return LeviCivitaConnection(self.metric)

    @property
    def resolved_connection(self):
        """∇: the declared connection, or the Levi-Civita connection when none is declared."""
        return self.levi_civita_connection if self.connection is None else self.connection

    @functools.cached_property
    def conjugate(self) -> ConjugateConnection:
        """∇*, the conjugate of ∇ with respect to g."""
        return ConjugateConnection(self.metric, self.resolved_connection)

    @functools.cached_property
    def adjoint(self) -> AdjointStructure:
        """P*, the negative adjoint of P with respect to g."""
        return AdjointStructure(self.metric, self.product)
