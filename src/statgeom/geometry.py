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
rows on the subject for the checks of the run.  Derived fields use the loop.

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
import math
import weakref
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex

DEFAULT_TOLERANCE = 1e-8
DEFAULT_POINT_COUNT = 25

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_NOT_APPLICABLE = "NOT-APPLICABLE"
STATUS_ERROR = "ERROR"

_DEGENERACY_CUTOFF = 1e-10
_INTERIOR_MARGIN = 0.01
# Entries of one 4-index per-point tensor (such as R) per block of points; sweep in BENCH_22.json.
_BLOCK_ENTRIES = 1 << 15
# _contract hands a contraction to np.einsum when more than this share of its terms is kept.
_SPARSE_SHARE = 1 / 8
# Contraction plans kept, one per subscripts, per-point operand shapes and nonzero pattern.
# A plan holds an index array per operand and one for the output, each of at most
# _SPARSE_SHARE of the terms: 32,768 entries for the n^6 terms of ∂(G⁻¹) at n = 8.  One pass
# of the benchmark's curvature workload (dimensions 2-8, 100 points), one block loop per
# manifest, makes 36 plans and 213 lookups, and a second pass no new plan.
_PLAN_CACHE_SIZE = 64


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

def _read_only(arrays: tuple) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


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
    stays safe.
    """

    def jets(self, points) -> tuple[np.ndarray, ...]:
        """The jets at every point, as arrays with a leading point axis."""
        return self._lookup(_as_points(points), True)

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
    """

    _bases: tuple = ()
    _value_needs: tuple = ()

    @property
    def dim(self) -> int:
        return self._bases[0].dim

    def _derive(self, full: bool, *batches) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _derive_after_values(self, values, *batches) -> tuple[np.ndarray, ...]:
        return self._derive(True, *batches)

    def _on_block(self, block: Block, full: bool) -> tuple[np.ndarray, ...]:
        return self._derive(full, *(block.read(base, full or need)
                                    for base, need in zip(self._bases, self._value_needs, strict=True)))

    def _batch_jets(self, points, full):
        return _block_loop(points, [(self._on_block, full)])[0]

    def _jets_after_values(self, points, values):
        def derive(block):
            return self._derive_after_values(values[block.rows],
                                             *(block.read(base, True) for base in self._bases))
        return _block_loop(points, [(derive,)])[0]


class Block:
    """One block of a batch of sample points, as every reducer of one loop reads it.

    ``read`` slices a field's whole-batch store to the block's ``rows``
    (values, or jets with ``full``), and ``curvature`` forms R of a connection
    once per block for every reducer that reads it.  ``loop`` holds what a
    reducer keeps from block to block (the Kurose constant, a field of its own).
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

    def curvature(self, connection) -> np.ndarray:
        """R of ``connection`` on this block (:func:`curvature_tensor`), formed on first read."""
        if connection not in self._curvatures:
            self._curvatures[connection] = curvature_tensor(*self.read(connection, True))
        return self._curvatures[connection]


def _block_loop(points: np.ndarray, reducers, isolate: bool = False) -> list:
    """The rows of each reducer, in order, from one loop over the blocks of ``points``.

    A reducer ``(fn, *args)`` returns ``fn(block, *args)``, a tuple of arrays
    with a leading point axis, stacked over the blocks.  A block holds about
    ``_BLOCK_ENTRIES`` entries of a 4-index tensor in the chart dimension (at
    least one point), so no temporary spans all points, and every point is
    treated on its own, so the block size changes no bit.  An exception
    propagates, or with ``isolate`` takes the place of its reducer's rows and
    drops that reducer from the loop.
    """
    count, out, loop = len(points), [None] * len(reducers), {}
    step = max(1, _BLOCK_ENTRIES // points.shape[1] ** 4)
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


def _contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` bit for bit, forming only the terms without a zero factor.

    Every operand and the output lead with the point label, and no label
    repeats within one of them.  A term with an exact-zero factor is ±0.0,
    and a sum that starts at +0.0 stays the same when ±0.0 is added to it,
    so dropping those terms changes no bit.  The kept terms are formed left
    to right, as ``np.einsum`` rounds each product, and added into each
    output from 0.0 in a fixed order.  No output adds more than two kept
    terms, and a sum of two rounds the same in either order, so the order of
    ``np.einsum``'s own loop does not matter.  ``np.einsum`` gets the operands
    unchanged when one holds a non-finite entry (0 · inf is NaN), when an
    output would add three or more kept terms, or when more than
    ``_SPARSE_SHARE`` of the terms are kept.

    Its callers are the point-axis products of the derived fields and the
    curvature (∂(G⁻¹), ∂P*, ∂Γ, ∂Γ*, ∂(vΓ), the ΓΓ term of R, the lowered R)
    and of the O'Neill tensors, most of them O(n⁵) terms per point.  The O(n⁴)
    products of the checks and of the values (Codazzi, Γ*, Γ⁰, vΓ, ∇P, ...) stay
    on ``np.einsum``: there the fixed cost of a call here (the finiteness
    scan, the nonzero masks, the plan lookup) exceeds the dense product at
    small n, and routing them slowed the exponential-family models
    (ROADMAP, "Negative results").
    """
    if not all(np.isfinite(op).all() for op in operands):
        return np.einsum(subscripts, *operands)
    plan = _contraction_plan(subscripts, tuple(op.shape[1:] for op in operands),
                             tuple((op != 0.0).any(axis=0).tobytes() for op in operands))
    if plan is None:
        return np.einsum(subscripts, *operands)
    gathers, targets, shape = plan
    count = len(operands[0])
    terms = operands[0].reshape(count, -1)[:, gathers[0]]
    for op, gather in zip(operands[1:], gathers[1:]):
        terms *= op.reshape(count, -1)[:, gather]
    size = math.prod(shape)
    slots = np.arange(0, count * size, size)[:, None] + targets
    sums = np.bincount(slots.ravel(), terms.ravel(), count * size)
    # np.bincount gives integer zeros when no term is kept
    return sums.astype(terms.dtype, copy=False).reshape((count,) + shape)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _contraction_plan(subscripts: str, shapes: tuple, masks: tuple):
    """The kept terms of a contraction, or None when ``_contract`` hands it to ``np.einsum``.

    ``shapes`` and ``masks`` hold each operand's shape and nonzero pattern
    over all points, both without the point axis.  The plan is the flat
    index of every kept term's factor in each operand and of its output,
    ordered by the output labels and then the summed labels sorted, and the
    output shape without the point axis; it holds no operand value.
    """
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    space = output[1:] + "".join(sorted(set("".join(inputs)) - set(output)))
    patterns = [np.frombuffer(mask, dtype=bool).reshape(shape) for mask, shape in zip(masks, shapes)]
    live = np.einsum(",".join(labels[1:] for labels in inputs) + "->" + space, *patterns)
    coords = dict(zip(space, np.nonzero(live)))
    shape = live.shape[:len(output) - 1]
    targets = np.ravel_multi_index([coords[label] for label in output[1:]], shape)
    # Two terms add to the same bits in either order; three need np.einsum's own order.
    if len(targets) > _SPARSE_SHARE * live.size or np.bincount(targets, minlength=1).max() > 2:
        return None
    gathers = tuple(np.ravel_multi_index([coords[label] for label in labels[1:]], op_shape)
                    for labels, op_shape in zip(inputs, shapes))
    for index in gathers + (targets,):
        index.flags.writeable = False
    return gathers, targets, shape


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
    varying roots, is made at the first batch over the grid and kept.  A grid
    holds trees and numbers, no array and no result, so one parse serves every run.
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
        for index in np.ndindex(grid.shape):
            if symmetric and index[0] > index[1]:
                continue
            component = grid[index]
            slots = (index, index[::-1]) if symmetric and index[0] != index[1] else (index,)
            self.read.append(component)
            if not isinstance(component.root, ex.Const):
                self.varying.append(component)
                self.slots.append(tuple((...,) + slot for slot in slots))
            elif component.root.value or math.copysign(1.0, component.root.value) < 0:
                indices += [int(np.ravel_multi_index(slot, grid.shape)) for slot in slots]
                values += [component.root.value] * len(slots)
        self.read, self.varying, self.slots = tuple(self.read), tuple(self.varying), tuple(self.slots)
        self.constants = (tuple(indices), tuple(values))

    @functools.cached_property
    def plan(self) -> ex.Plan:
        return ex.Plan([f.root for f in self.varying])


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
    as they arrive; a structural zero is not written.  Finiteness is checked
    once per assembled array; on a non-finite entry all components,
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

    def _batch_jets(self, points, full):
        grid, count, order = self.grid, points.shape[0], self.order if full else 0
        # ndarray.copy is C-ordered; np.array of the broadcast would put the point axis last
        parts = (np.broadcast_to(self._template, (count,) + grid.shape).copy(),
                 *(np.zeros((count,) + (self.dim,) * derivatives + grid.shape)
                   for derivatives in range(1, order + 1)))

        def write(i, jets):  # a float broadcasts into its slots; a structural zero is there already
            for target in grid.slots[i]:
                for part, jet in zip(parts, jets):
                    if jet is not None:
                        part[target] = jet

        if grid.varying:
            ex.eval_fields(grid.varying, points, order, write, grid.plan, check_finite=False)
        if not all(np.isfinite(part).all() for part in parts):
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
    which the checks read next, and the center's value alone.  Returns the signature.
    """
    points = _as_points(pts if pts is not None else sample_points(chart, DEFAULT_POINT_COUNT))
    reference = metric_signature(g, chart.center)
    matrices = g.jets(points)[0]
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
        return ginv, -_contract("pia,pkab,pbj->pkij", ginv, metric_jets[1], ginv)


class LeviCivitaConnection(DerivedJets):
    """Metric connection Γ⁰^k_ij = ½ g^km (∂_i g_mj + ∂_j g_mi − ∂_m g_ij); jets are (Γ, ∂Γ)."""

    def __init__(self, metric: MetricField):
        self._bases = (metric, metric.inverse)
        self._value_needs = (True, False)

    def _derive(self, full, metric_jets, inverse_jets):
        dg, d2g, ginv = metric_jets[1], metric_jets[2], inverse_jets[0]
        # a[m,i,j] = ∂_i g_mj + ∂_j g_mi − ∂_m g_ij
        a = np.einsum("pimj->pmij", dg) + np.einsum("pjmi->pmij", dg) - dg
        gamma = 0.5 * np.einsum("pkm,pmij->pkij", ginv, a)
        if not full:
            return (gamma,)
        dginv = inverse_jets[1]
        da = (np.einsum("plimj->plmij", d2g) + np.einsum("pljmi->plmij", d2g)
              - np.einsum("plmij->plmij", d2g))
        dgamma = 0.5 * (_contract("plkm,pmij->plkij", dginv, a)
                        + _contract("pkm,plmij->plkij", ginv, da))
        return gamma, dgamma


class ConjugateConnection(DerivedJets):
    """Conjugate of a base connection: g(∂_k, ∇*_{∂_i} ∂_j) = ∂_i g_kj − Γ^m_ik g_mj.

    Conjugation is an involution: the conjugate of ∇* is ∇ again.  Jets are
    (Γ*, ∂Γ*).  Jets asked for after the values of the same batch read the
    stored Γ* and form again only the right-hand side, which ∂Γ* needs.
    """

    def __init__(self, metric: MetricField, base):
        if metric.dim != base.dim:
            raise ValueError("metric and connection disagree on dimension")
        self._bases = (metric, metric.inverse, base)
        self._value_needs = (True, False, False)

    @staticmethod
    def _rhs(metric_jets, base_jets):
        """rhs[k,i,j] = ∂_i g_kj − Γ^m_ik g_mj, which is g(∂_k, ∇*_{∂_i} ∂_j)."""
        g, dg = metric_jets[0], metric_jets[1]
        return np.einsum("pikj->pkij", dg) - np.einsum("pmik,pmj->pkij", base_jets[0], g)

    def _derive(self, full, metric_jets, inverse_jets, base_jets):
        star = np.einsum("ptk,pkij->ptij", inverse_jets[0], self._rhs(metric_jets, base_jets))
        return self._derive_after_values(star, metric_jets, inverse_jets, base_jets) if full else (star,)

    def _derive_after_values(self, star, metric_jets, inverse_jets, base_jets):
        g, dg, d2g = metric_jets
        ginv, dginv, gamma, dgamma = inverse_jets[0], inverse_jets[1], base_jets[0], base_jets[1]
        drhs = (np.einsum("plikj->plkij", d2g)
                - _contract("plmik,pmj->plkij", dgamma, g)
                - _contract("pmik,plmj->plkij", gamma, dg))
        dstar = (_contract("pltk,pkij->pltij", dginv, self._rhs(metric_jets, base_jets))
                 + _contract("ptk,plkij->pltij", ginv, drhs))
        return star, dstar


class AdjointStructure(DerivedJets):
    """Negative adjoint of a base structure: P* = −G⁻¹ Pᵀ G pointwise; jets are (P*, ∂P*).

    P* is the partner with g(PE, F) + g(E, P*F) = 0; an involution on fixtures.
    """

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
        mtg = np.einsum("pcb,pcd->pbd", m, g)
        gim = np.einsum("pab,pcb->pac", ginv, m)
        dmtg = _contract("pkcb,pcd->pkbd", dm, g)
        dstar = -(np.einsum("pkab,pbd->pkad", dginv, mtg)
                  + _contract("pab,pkbd->pkad", ginv, dmtg)
                  + np.einsum("pac,pkcd->pkad", gim, dg))
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
    not kept yet are formed together in one block loop.  A failing reducer is
    not kept, and the first failure among ``reducers`` is raised.
    """
    points = _as_points(pts)
    batch = (points.shape, points.tobytes())
    slots = [_kept_slot(batch, reducer) for reducer in reducers]
    todo = {}  # each missing slot once, by its store
    for reducer, (store, slot) in zip(reducers, slots):
        if slot not in store:
            todo.setdefault((id(store), slot), (reducer, store, slot))
    if todo:
        failures = {}
        for key, (_, store, slot), rows in zip(todo, todo.values(), _block_loop(
                points, [reducer for reducer, _, _ in todo.values()], isolate=True)):
            if isinstance(rows, Exception):
                failures[key] = rows
            else:
                store[slot] = _read_only(rows)
        for store, slot in slots:
            if slot not in store:
                raise failures[id(store), slot]
    return [store[slot] for store, slot in slots]


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
    # C[i,j,k] = (∇_{∂_i} g)(∂_j, ∂_k)
    cov = dg - np.einsum("pmij,pmk->pijk", gamma, gm) - np.einsum("pmik,pjm->pijk", gamma, gm)
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


def curvature_tensor(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R[l,i,j,k] = ∂_i Γ^l_jk − ∂_j Γ^l_ik + Γ^m_jk Γ^l_im − Γ^m_ik Γ^l_jm.

    Takes the jets of a batch, with a leading point axis, or of one point,
    without it.  Antisymmetry in (i, j) is exact.  The quadratic term skips
    its products with an exact-zero factor (:func:`_contract`).
    """
    if gamma.ndim == 3:
        return curvature_tensor(gamma[None], dgamma[None])[0]
    b = np.einsum("piljk->plijk", dgamma) + _contract("pmjk,plim->plijk", gamma, gamma)
    return b - np.einsum("plijk->pljik", b)


def _flatness_rows(b: Block, spec):
    gm = b.values(spec.metric)
    return max_abs(b.curvature(spec.resolved_connection)), scale_of(gm)


def curvature_residual(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """R = 0 at the samples: max |R| scaled by 1 + max |g|."""
    return reduced_check(pts, tol, _flatness_rows, spec)


def statistical_curvature_at(spec: ManifoldSpec, point) -> np.ndarray:
    """S = ½ (R + R*), the curvature average of the dual pair."""
    r = curvature_tensor(*spec.resolved_connection.jet(point))
    r_star = curvature_tensor(*spec.conjugate.jet(point))
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
    n = gm.shape[0]
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            disc = float(gm[i, i] * gm[j, j] - gm[i, j] ** 2)
            if best is None or abs(disc) > abs(best[2]):
                best = (i, j, disc)
    cutoff = _DEGENERACY_CUTOFF * (1.0 + float(np.max(np.abs(gm))) ** 2)
    if best is None or abs(best[2]) <= cutoff:
        raise DegeneratePlaneError("no nondegenerate coordinate plane at the first sample point")
    return best


def _kurose_rows(b: Block, spec):
    gp, rp = b.values(spec.metric), b.curvature(spec.resolved_connection)
    if ("kurose", spec) not in b.loop:  # from the first point's metric and R
        i, j, disc = _best_coordinate_plane(gp[0])
        # g(R(e_i, e_j) e_j, e_i) = k (g_jj g_ii − g_ij g_ij)
        b.loop["kurose", spec] = float(np.einsum("l,lm->m", rp[0][:, i, j, j], gp[0])[i]) / disc
    k_hat, eye = b.loop["kurose", spec], np.eye(spec.metric.dim)
    # k (g_jk δ^l_i − g_ik δ^l_j) − R, formed in place: one block-sized temporary, not four
    defect = np.einsum("pjk,li->plijk", gp, eye)
    defect -= np.einsum("pik,lj->plijk", gp, eye)
    defect *= k_hat
    defect -= rp
    return max_abs(defect), scale_of(rp, gp), np.full(len(gp), k_hat)


def fit_kurose_constant(spec: ManifoldSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Estimate the constant of the constant-curvature form of R and verify it globally.

    The constant is estimated at the first sample point, from the first
    block's R, in the coordinate plane with the largest |g_ii g_jj − g_ij²|
    (ties to the lowest indices) by contracting both sides of the
    constant-curvature form with the metric.  The result carries it as
    ``details["constant"]``.
    """
    return reduced_check(pts, tol, _kurose_rows, spec, details=("constant",))


def _dual_curvature_rows(b: Block, spec):
    gm, r, r_star = b.values(spec.metric), b.curvature(spec.resolved_connection), b.curvature(spec.conjugate)
    r_cov = _contract("plm,pmijk->pijkl", gm, r)
    rs_cov = _contract("plm,pmijk->pijkl", gm, r_star)
    scale = scale_of(r_cov, rs_cov)
    r_cov += np.einsum("pijlk->pijkl", rs_cov)  # in place: no block-sized temporary
    return max_abs(r_cov), scale


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
