"""Index plans from structural zero patterns: which terms of a product a pattern keeps.

A structural pattern (:func:`_pack`) says where an array without its point
axis can be nonzero, for every point of every batch.  The functions here map
patterns to index arrays, and hold no array value: the kept terms of a
contraction (:func:`_contraction_plan`), the patterns, layouts and plans of a
field's rule set (:func:`_apply`), the kept terms of the constant-curvature
brackets (:func:`_bracket_plan`, :func:`_bracket_union`), and the maps that
form R and its readers on R's live slots (:func:`_curvature_plan`,
:func:`_dual_plan`).  A jet part whose pattern is sparse is stored packed, as
the columns of its live slots (:func:`_layout`), and the plans that read or
form it gather from and add into those columns.  Each is cached by its
patterns, so a parsed manifest's runs plan once; ``geometry`` applies the
plans to the numbers.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# _contract hands a contraction to np.einsum when more than this share of its terms is kept.
_SPARSE_SHARE = 1 / 8
# Plans kept per cache: contractions by subscripts, operand shapes and patterns, rule sets (_apply,
# with the layouts and packed plans of the jet stores), bracket plans, and the maps of R on its pattern
# (R, live slots, bracket unions, the dual identity's).  A pass of the benchmark's curvature workload
# makes 92 plans, 28 rule sets, 8 bracket plans, 4 R plans, 7 live sets (R's and the packed stores'),
# 8 bracket unions and 4 dual plans, a second pass none.
_PLAN_CACHE_SIZE = 256


def _read_only(arrays: tuple) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _pack(array: np.ndarray) -> tuple:
    """A structural pattern, where a part (no point axis) can be nonzero, as bytes; None if unknown."""
    return array.shape, array.tobytes()


def _unpack(pattern) -> np.ndarray:
    return np.frombuffer(pattern[1], dtype=bool).reshape(pattern[0])


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _contraction_plan(subscripts: str, shapes: tuple, masks: tuple):
    """(The kept terms of a contraction, or None for ``np.einsum``; the output's pattern).

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
    pattern = _pack(live.reshape(shape + (-1,)).any(axis=-1))
    targets = np.ravel_multi_index([coords[label] for label in output[1:]], shape)
    # Two terms add to the same bits in either order; three need np.einsum's own order.
    if len(targets) > _SPARSE_SHARE * live.size or np.bincount(targets, minlength=1).max() > 2:
        return None, pattern
    gathers = tuple(np.ravel_multi_index([coords[label] for label in labels[1:]], op_shape)
                    for labels, op_shape in zip(inputs, shapes))
    for index in gathers + (targets,):
        index.flags.writeable = False
    return (gathers, targets, shape), pattern


def _planned(plans: dict, subscripts: str, *patterns):
    """The pattern of ``np.einsum(subscripts, ...)``, and of a product its plan, put in ``plans``;
    for "closure", that of G⁻¹, 0 between two components of G's graph (paths shorter than n)."""
    if any(pattern is None for pattern in patterns):
        return None
    if len(patterns) == 1:
        one, n = _unpack(patterns[0]), patterns[0][0][0]
        return _pack(np.linalg.matrix_power(one | np.eye(n, dtype=bool), n) if subscripts == "closure"
                     else np.einsum(subscripts.replace("p", ""), one))
    plans[subscripts], pattern = _contraction_plan(subscripts, *zip(*patterns))
    return pattern


def _layout(pattern):
    """``pattern`` if a part with it is stored packed, as (points, live) columns in the order of
    :func:`_live`: it has four per-point indices and keeps at most ``_SPARSE_SHARE`` of its
    entries; else None, for a part stored dense."""
    if pattern is None or len(pattern[0]) != 4:
        return None
    return pattern if _unpack(pattern).sum() <= _SPARSE_SHARE * math.prod(pattern[0]) else None


def _columns(shape: tuple, slots: tuple, layout) -> tuple:
    """How a grid of ``shape`` writes a packed part with ``layout`` (:func:`_layout`): the part's
    width and, per varying component with its grid ``slots``, the columns it fills and the flat
    derivative indices they take from its jet part, over its slots in turn.  Index arrays only."""
    live = _unpack(layout).reshape(-1, math.prod(shape))
    places = (np.cumsum(live) - 1).reshape(live.shape)
    maps = []
    for component in slots:
        flat = [int(np.ravel_multi_index(slot, shape)) for slot in component]
        taken = [np.flatnonzero(live[:, index]) for index in flat]
        maps.append(_read_only((np.concatenate([places[d, index] for d, index in zip(taken, flat)]),
                                np.concatenate(taken))))
    return int(live.sum()), tuple(maps)


class _Unpacked(NamedTuple):
    """A product that ``np.einsum`` forms over its operands read unpacked (``geometry._full``),
    where a packed operand or output meets no plan; its output is then gathered on the live
    slots of ``output``, or left dense for None."""

    operands: tuple  # per operand, its pattern when it is packed, else None
    output: tuple | None


class _RulePlans(dict):
    """The plans of a rule set by subscripts (:func:`_apply`), with ``handback``, what each
    product does when a block is handed back to ``np.einsum`` (0 · inf is NaN): a packed
    operand is read unpacked and every output is dense (the hand-back of a hand-back is
    itself).  ``width`` is the widest array a block forms per point where a rule array is
    packed and every product keeps a plan; None where a block forms dense 4-index arrays."""

    handback: dict
    width: int | None = None


def _gather(subscripts: str, pattern, layout, out_layout) -> tuple:
    """One operand's transpose ``subscripts`` as a gather: per output slot (the live ones of a
    packed ``out_layout``, else all), the operand's column, its ``layout``'s width for +0.0 where
    a packed operand is off its pattern; the plan form of ``geometry._transpose``, no targets."""
    source, target = (labels[1:] for labels in subscripts.split("->"))
    shape = tuple(dict(zip(source, pattern[0]))[label] for label in target)
    slots = np.arange(math.prod(shape)) if out_layout is None else _live(out_layout)
    coords = dict(zip(target, np.unravel_index(slots, shape)))
    index = np.ravel_multi_index([coords[label] for label in source], pattern[0])
    if layout is not None:
        live = _unpack(layout).reshape(-1)
        index = np.where(live[index], np.cumsum(live)[index] - 1, live.sum())
    return _read_only((index,)), None, shape if out_layout is None else (len(slots),)


def _placed(subscripts: str, plan, patterns: tuple, layouts: tuple, out_layout):
    """``plan`` of one term, a kept-term plan of :func:`_contraction_plan` or None, gathering from
    the columns of packed operands and adding into those of a packed output; for one operand
    a gather (:func:`_gather`), and :class:`_Unpacked` where a packed array meets no plan."""
    if out_layout is None and not any(layouts):
        return plan
    if len(patterns) == 1:
        return _gather(subscripts, patterns[0], layouts[0], out_layout)
    if plan is None:
        return _Unpacked(layouts, out_layout)
    gathers, targets, shape = plan
    gathers = tuple(index if layout is None else _places(_unpack(layout), index)[0]
                    for index, layout in zip(gathers, layouts))
    if out_layout is not None:
        (targets,), shape = _places(_unpack(out_layout), targets), (len(_live(out_layout)),)
    return gathers, _read_only((targets,))[0], shape


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _apply(rules, names: tuple, patterns: tuple) -> tuple[dict, _RulePlans, dict]:
    """The patterns of the bases' parts, by their ``names``, with those of ``rules``, their
    plans, and the layout of each (:func:`_layout`): a rule names an array and the terms of its
    sum, each subscripts and operand names (:func:`_planned`); a sum's pattern is an OR.  A
    term's plan reads its operands and forms its output in their layouts, a packed output
    being the rule's, so its terms add column by column in their order.  Kept for the next
    run, which reads the same."""
    known = {name: part for line, parts in zip(names, patterns) for name, part in zip(line.split(), parts)}
    layouts = {name: _layout(part) for name, part in known.items()}
    plans, terms_of = _RulePlans(), []
    for name, *terms in rules:
        terms = [(subscripts, [known.get(operand) for operand in operands],
                  [layouts.get(operand) for operand in operands]) for subscripts, *operands in map(str.split, terms)]
        parts = [_planned(plans, subscripts, *operand_patterns) for subscripts, operand_patterns, _ in terms]
        known[name] = None if None in parts else _pack(functools.reduce(np.logical_or, map(_unpack, parts)))
        layouts[name] = _layout(known[name])
        terms_of.append((name, terms))
    plans.handback = _RulePlans()
    plans.handback.handback = plans.handback
    packed, widths = False, []
    for name, terms in terms_of:
        out_layout = layouts[name]
        packed |= out_layout is not None
        widths.append(None if known[name] is None else
                      len(_live(out_layout)) if out_layout else math.prod(known[name][0]))
        for subscripts, operand_patterns, operand_layouts in terms:
            plan = plans[subscripts] = _placed(subscripts, plans.get(subscripts), tuple(operand_patterns),
                                               tuple(operand_layouts), out_layout)
            if any(operand_layouts):
                plans.handback[subscripts] = _Unpacked(tuple(operand_layouts), None)
            if plan is not None:  # np.einsum forms no more than the rule's array
                widths.append(None if isinstance(plan, _Unpacked) else len(plan[0][0]))
    if packed and None not in widths:
        plans.width = max(widths, default=1)
    return known, plans, layouts


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _live(pattern):
    """The flat indices of ``pattern``'s live entries, sorted and read-only; every slot for None."""
    return slice(None) if pattern is None else _read_only((np.flatnonzero(_unpack(pattern)),))[0]


def _places(live: np.ndarray, *slots) -> tuple:
    """Where each of ``slots``, flat indices of entries of the boolean array ``live`` that are
    True, sits among those entries in order, as read-only index arrays."""
    place = np.cumsum(live.reshape(-1)) - 1
    return _read_only(tuple(place[index] for index in slots))


# The terms of the para-Kähler space-form bracket over [l,i,j,k], in the order the dense formula adds
# them: g_jk δ^l_i − g_ik δ^l_j + q_kj P^l_i − q_ki P^l_j + (q_ij − q_ji) P^l_k with q = gP.  Each is
# (factor, its labels, second factor, its labels), "-g" and "-q" negated; Kurose's model is the first two.
_BRACKET = (("g", "jk", "δ", "li"), ("-g", "ik", "δ", "lj"), ("q", "kj", "P", "li"),
            ("-q", "ki", "P", "lj"), ("a", "ij", "P", "lk"))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _bracket_plan(n: int, metric_pattern, structure_pattern, terms: int) -> tuple:
    """The kept terms of the first ``terms`` of ``_BRACKET`` in dimension ``n`` for g's and P's
    patterns (:func:`_pack`; None where unknown, every entry then live): per kept term, in term
    order and then by slot, the flat index of its first factor in [g, −g, q, −q, q − qᵀ], of its
    second in [P, 1] (δ is 1 where the term is kept), and its slot in [l,i,j,k].  Index arrays only."""
    full = np.ones((n, n), dtype=bool)
    g = full if metric_pattern is None else _unpack(metric_pattern)
    m = full if structure_pattern is None else _unpack(structure_pattern)
    q = (g.astype(np.int64) @ m.astype(np.int64)) > 0
    patterns = {"g": g, "-g": g, "q": q, "-q": q, "a": q | q.T, "δ": np.eye(n, dtype=bool), "P": m}
    first, second, targets = [], [], []
    for name, labels, other, other_labels in _BRACKET[:terms]:
        live = np.nonzero(np.einsum(f"{labels},{other_labels}->lijk", patterns[name], patterns[other]))
        coords = dict(zip("lijk", live))
        first.append(("g", "-g", "q", "-q", "a").index(name) * n * n
                     + np.ravel_multi_index([coords[c] for c in labels], (n, n)))
        second.append(np.full(len(live[0]), n * n) if other == "δ" else
                      np.ravel_multi_index([coords[c] for c in other_labels], (n, n)))
        targets.append(np.ravel_multi_index(live, (n,) * 4))
    plan = tuple(np.concatenate(index) for index in (first, second, targets))
    for index in plan:
        index.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _bracket_union(n: int, metric_pattern, structure_pattern, terms: int, r_pattern) -> tuple:
    """:func:`_bracket_plan` with its targets moved into the union of its slots and R's live ones
    (every slot for R's None pattern): its first and second factors, its targets among the union's
    sorted slots, the union's size, and the places of R's slots in it.  Index arrays only."""
    first, second, targets = _bracket_plan(n, metric_pattern, structure_pattern, terms)
    union = np.ones(n ** 4, dtype=bool) if r_pattern is None else _unpack(r_pattern).reshape(-1).copy()
    union[targets] = True
    live = np.arange(n ** 4) if r_pattern is None else _live(r_pattern)
    targets, at = _places(union, targets, live)
    return first, second, targets, int(union.sum()), at


# R's patterns and plans from the patterns of a connection's jets: b = ∂Γ + ΓΓ, and R = b − b with
# (i, j) swapped.
_CURVATURE = (("b", "piljk->plijk dgamma", "pmjk,plim->plijk gamma gamma"),
              ("R", "plijk->plijk b", "plijk->pljik b"))


class _CurvaturePlan(NamedTuple):
    pattern: tuple | None  # R's; None where it is unknown or full, and R is formed densely
    transposed: np.ndarray  # per live slot [l,i,j,k], the flat index of ∂Γ[i,l,j,k]
    swapped: np.ndarray  # per live slot, the place of [l,j,i,k] among them
    products: dict  # the ΓΓ plan of _contract, adding among the live slots; None for np.einsum
    width: int  # the widest array formed per point
    layout: tuple | None = None  # ∂Γ's (_layout); when packed, ``columns`` replaces ``transposed``
    columns: np.ndarray | None = None  # per live slot, ∂Γ[i,l,j,k]'s column, or ∂Γ's width for +0.0


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _curvature_plan(n: int, patterns: tuple) -> _CurvaturePlan:
    """How R of a connection in dimension ``n`` whose jets have ``patterns`` is formed on its live
    slots, with ∂Γ read from its columns where it is stored packed.  Index arrays only."""
    pattern, layout = _apply(_CURVATURE, ("gamma dgamma",), (patterns,))[0]["R"], _layout(patterns[1])
    if pattern is None or _unpack(pattern).all():
        return _CurvaturePlan(None, None, None, None, n ** 4, layout)
    shape, live = pattern[0], _live(pattern)
    l, i, j, k = np.unravel_index(live, shape)
    transposed, swapped = _read_only((np.ravel_multi_index((i, l, j, k), shape),
                                      *_places(_unpack(pattern), np.ravel_multi_index((l, j, i, k), shape))))
    columns = None
    if layout is not None:
        kept = _unpack(layout).reshape(-1)
        columns = _read_only((np.where(kept[transposed], np.cumsum(kept)[transposed] - 1, kept.sum()),))[0]
    product, _ = _contraction_plan("pmjk,plim->plijk", (patterns[0][0],) * 2, (patterns[0][1],) * 2)
    if product is not None:
        gathers, targets, _ = product
        product = gathers, *_places(_unpack(pattern), targets), (len(live),)
    width = max(len(live), shape[0] ** 4 if product is None else len(product[1]))
    return _CurvaturePlan(pattern, transposed, swapped, {"pmjk,plim->plijk": product}, width, layout, columns)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _dual_plan(metric_pattern, r_pattern, star_pattern) -> tuple | None:
    """g(R(∂_i,∂_j)∂_k, ∂_l) + g(R*(∂_i,∂_j)∂_l, ∂_k) on its live slots: for R and R*, the plans of
    :func:`_contract` lowering it as [i,j,k,l] = g_lm R^m_ijk, gathered among its live slots and
    added among the output's; the size of the union of R's output slots and R*'s with k and l
    swapped, and the places of each in it; the widest array formed per point.  None where a
    pattern is unknown or ``np.einsum`` keeps a lowering."""
    if None in (metric_pattern, r_pattern, star_pattern):
        return None
    lowerings, outputs = [], []
    for pattern in (r_pattern, star_pattern):
        plan, output = _contraction_plan("plm,pmijk->pijkl", (metric_pattern[0], pattern[0]),
                                         (metric_pattern[1], pattern[1]))
        if plan is None:
            return None
        (g, r), targets, _ = plan
        (r,), (targets,) = _places(_unpack(pattern), r), _places(_unpack(output), targets)
        outputs.append(np.nonzero(_unpack(output)))
        lowerings.append({"plm,pmijk->pijkl": ((g, r), targets, (len(outputs[-1][0]),))})
    shape = r_pattern[0]
    i, j, k, l = outputs[1]
    slots = np.ravel_multi_index(outputs[0], shape), np.ravel_multi_index((i, j, l, k), shape)
    union = np.zeros(math.prod(shape), dtype=bool)
    union[slots[0]] = union[slots[1]] = True
    size = int(union.sum())
    width = max(size, *(len(lowering["plm,pmijk->pijkl"][1]) for lowering in lowerings))
    return lowerings, size, *_places(union, *slots), width
