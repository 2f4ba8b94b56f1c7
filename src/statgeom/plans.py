"""Index plans from structural zero patterns: which terms of a product a pattern keeps.

A structural pattern (:func:`_pack`) says where an array without its point
axis can be nonzero, for every point of every batch.  The functions here map
patterns to index arrays, and hold no array value: the kept terms of a
contraction (:func:`_contraction_plan`), the patterns and plans of a field's
rule set (:func:`_apply`), the kept terms of the constant-curvature brackets
(:func:`_bracket_plan`, :func:`_bracket_union`), and the maps that form R
and its readers on R's live slots (:func:`_curvature_plan`,
:func:`_dual_plan`).  Each is cached by its patterns, so a parsed manifest's
runs plan once; ``geometry`` applies the plans to the numbers.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# _contract hands a contraction to np.einsum when more than this share of its terms is kept.
_SPARSE_SHARE = 1 / 8
# Plans kept per cache: contractions by subscripts, operand shapes and patterns, rule sets (_apply),
# bracket plans, and the maps of R on its pattern (R, live slots, bracket unions, the dual identity's).
# A pass of the benchmark's curvature workload makes 92 plans, 28 rule sets, 8 bracket plans, 4 R
# plans, 4 live sets, 8 bracket unions and 4 dual plans, a second pass none.
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


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _apply(rules, names: tuple, patterns: tuple) -> tuple[dict, dict]:
    """The patterns of the bases' parts, by their ``names``, with those of ``rules``, and their
    plans: a rule names an array and the terms of its sum, each subscripts and operand names
    (:func:`_planned`); a sum's pattern is an OR.  Kept for the next run, which reads the same."""
    known = {name: part for line, parts in zip(names, patterns) for name, part in zip(line.split(), parts)}
    plans = {}
    for name, *terms in rules:
        parts = [_planned(plans, subscripts, *map(known.get, operands))
                 for subscripts, *operands in map(str.split, terms)]
        known[name] = None if None in parts else _pack(functools.reduce(np.logical_or, map(_unpack, parts)))
    return known, plans


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


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _curvature_plan(n: int, patterns: tuple) -> _CurvaturePlan:
    """How R of a connection in dimension ``n`` whose jets have ``patterns`` is formed on its live
    slots.  Index arrays only."""
    known, plans = _apply(_CURVATURE, ("gamma dgamma",), (patterns,))
    pattern = known["R"]
    if pattern is None or _unpack(pattern).all():
        return _CurvaturePlan(None, None, None, None, n ** 4)
    shape, live = pattern[0], _live(pattern)
    l, i, j, k = np.unravel_index(live, shape)
    transposed, swapped = _read_only((np.ravel_multi_index((i, l, j, k), shape),
                                      *_places(_unpack(pattern), np.ravel_multi_index((l, j, i, k), shape))))
    product = plans["pmjk,plim->plijk"]
    if product is not None:
        gathers, targets, _ = product
        product = gathers, *_places(_unpack(pattern), targets), (len(live),)
    width = max(len(live), shape[0] ** 4 if product is None else len(product[1]))
    return _CurvaturePlan(pattern, transposed, swapped, {"pmjk,plim->plijk": product}, width)


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
