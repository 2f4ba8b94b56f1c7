"""Coordinate-projection statistical submersions and their fundamental tensors.

The projection always drops the trailing coordinates, so the vertical space
is the span of the trailing coordinate directions and the pushforward matrix
is exact.  Horizontality is metric-dependent and computed, not assumed: the
vertical projector at a point is v = E (G_vv)⁻¹ G[vert, :], where E selects
the trailing directions and G_vv is the fiber block of the metric; the
spec's :class:`VerticalProjector` gives v and ∂v.

T and A are tensorial in both slots, so the checks never evaluate them one
field pair at a time: the spec's :class:`OneillSplitting` builds the whole
coordinate arrays ``T[k, i, j] = T(∂_i, ∂_j)^k`` (and A, T*, A*) from the
projector's jets and the connection coefficients, batched over the sample
points, :func:`oneill_arrays` reads them, and every submersion check reduces
contractions of those arrays.

The independent oracle, T and A one vector-field pair at a time, lives in
``tests/oracles.py``: tensoriality of T and A in both slots is a tested
property, not an input assumption.

A :class:`SubmersionSpec` owns its projector (``vertical``), splitting
(``splitting``) and induced fiber manifold (``fiber``), each built once on
first use, so every check of a run reads the same store; all read the total
space's fields and never the spec.  The fiber's fields read the total ones
at the fiber points embedded over the base box center: ĝ and P̂ are
restrictions (:class:`FiberRestriction`), ∇̂ is the vertical projection of ∇.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOLERANCE,
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    ChartSpec,
    CheckResult,
    DerivedJets,
    InverseMetric,
    ManifoldSpec,
    PointJets,
    _as_points,
    _contract,
    _singular,
    check_statistical_structure,
    curvature_residual,
    max_abs,
    residual_check,
    sample_points,
    scale_of,
)
from .product import (
    check_almost_product,
    check_para_kahler_like,
    fit_space_form_constant,
    check_space_form,
)

_CONDITION_LIMIT = 1e8
_RANK_CUTOFF = 1e-8


class SubmersionError(ArithmeticError):
    """Degenerate fiber metric, ill-conditioned lift, or invariance violation."""


def check_dimensions(base_dim: int, total_dim: int) -> None:
    """Raise ValueError unless 1 ≤ base dimension < total dimension."""
    if base_dim < 1:
        raise ValueError("base must have at least one coordinate")
    if base_dim >= total_dim:
        raise ValueError(
            f"base dimension {base_dim} must be smaller than the total dimension {total_dim}")


@dataclass(frozen=True)
class SubmersionSpec:
    """Total and base manifolds joined by the drop-trailing-coordinates projection."""

    total: ManifoldSpec
    base: ManifoldSpec

    def __post_init__(self):
        check_dimensions(self.base.chart.dim, self.total.chart.dim)

    @property
    def base_dim(self) -> int:
        return self.base.chart.dim

    @property
    def total_dim(self) -> int:
        return self.total.chart.dim

    @property
    def fiber_dim(self) -> int:
        return self.total.chart.dim - self.base.chart.dim

    def project(self, point) -> np.ndarray:
        return np.asarray(point, dtype=float)[: self.base_dim]

    @functools.cached_property
    def vertical(self) -> VerticalProjector:
        """The vertical projector of the total metric, built on first use."""
        return VerticalProjector(self.total.metric, self.base_dim)

    @functools.cached_property
    def splitting(self) -> OneillSplitting:
        """The O'Neill splitting of the total space by ∇ and its conjugate, built on first use."""
        return OneillSplitting(self.vertical, self.total.resolved_connection, self.total.conjugate)

    @functools.cached_property
    def fiber(self) -> ManifoldSpec:
        """The fiber over the base box center with its induced fields, built on first use.

        :func:`induced_fiber_manifold` checks that the total structure keeps
        the vertical space invariant before handing it out.
        """
        center, chart, nb = self.base.chart.center, self.total.chart, self.base_dim
        return ManifoldSpec(
            chart=ChartSpec(chart.coord_names[nb:], chart.domain[nb:], seed=chart.seed),
            metric=FiberRestriction(self.total.metric, center),
            connection=FiberConnection(self.vertical, self.total.resolved_connection, center),
            product=None if self.total.product is None else FiberRestriction(self.total.product, center),
        )


# --------------------------------------------------------------------------
# Splitting and fundamental tensors
# --------------------------------------------------------------------------

def _fiber_blocks(g: np.ndarray, nb: int):
    """(G_vv, G[vert, :]) of one metric matrix or a stack of them, for :class:`VerticalProjector`.

    The first ``nb`` coordinates are the base's.  Raises
    :class:`SubmersionError` at the first matrix whose fiber block is
    degenerate.
    """
    gvv = g[..., nb:, nb:]
    degenerate = np.atleast_1d(_singular(np.linalg.eigvalsh(gvv)))
    if degenerate.any():
        det = float(np.linalg.det(gvv.reshape((-1,) + gvv.shape[-2:])[np.argmax(degenerate)]))
        raise SubmersionError(f"degenerate fiber metric block (det {det:.3e})")
    return gvv, g[..., nb:, :]


def _check_conditioning(gvv: np.ndarray) -> None:
    """Reject a fiber block (or a stack of them) too ill-conditioned to lift through."""
    conds = np.atleast_1d(np.linalg.cond(gvv))
    bad = conds > _CONDITION_LIMIT
    if bad.any():
        raise SubmersionError(
            f"horizontal solve is ill-conditioned (cond {float(conds[np.argmax(bad)]):.3e})"
        )


class VerticalProjector(DerivedJets):
    """The vertical projector v = E G_vv⁻¹ G[vert, :] of a total metric; jets are (v, ∂v).

    E puts the fiber rows S = G_vv⁻¹ G[vert, :] below ``base_dim`` zero rows,
    and ∂_i S = G_vv⁻¹ (∂_i G[vert, :] − ∂_i G_vv S).  The one place where a
    fiber block is tested (:func:`_fiber_blocks`) and inverted.
    """

    def __init__(self, metric, base_dim: int):
        self.metric = metric
        self.base_dim = base_dim
        self._bases = (metric,)
        self._value_needs = (False,)

    def _derive(self, full, metric_jets):
        g, nb = metric_jets[0], self.base_dim
        gvv, gv_rows = _fiber_blocks(g, nb)
        gvv_inv = np.linalg.inv(gvv)
        v = np.zeros_like(g)
        v[:, nb:, :] = s = gvv_inv @ gv_rows
        if not full:
            return (v,)
        dg = metric_jets[1]
        dv = np.zeros_like(dg)
        dv[:, :, nb:, :] = gvv_inv[:, None] @ (dg[:, :, nb:, :] - dg[:, :, nb:, nb:] @ s[:, None])
        return v, dv


@dataclass(frozen=True)
class OneillArrays:
    """The splitting and the fundamental tensors as coordinate arrays over sample points.

    Every array has a leading point axis ``p``.  ``t[p, k, i, j]`` is
    ``T(∂_i, ∂_j)^k``, and likewise ``a``, ``t_star`` and ``a_star``;
    ``L[p, k, a]`` is the basic lift of the base field ``∂_a`` with Jacobian
    ``dL[p, i, k, a] = ∂_i L^k_a``; ``gamma`` holds the coefficients of the
    total connection the unstarred tensors use.  Every array but ``points``
    is read-only, a part of the splitting's store.
    """

    points: np.ndarray
    g: np.ndarray
    gamma: np.ndarray
    v: np.ndarray
    h: np.ndarray
    L: np.ndarray
    dL: np.ndarray
    t: np.ndarray
    a: np.ndarray
    t_star: np.ndarray
    a_star: np.ndarray


def _covariant_derivatives(gamma, x, y, dy):
    """(∇_{X_i} Y_j)^a for the columns X_i of x and Y_j of y, with dy[p, b] = ∂_b y."""
    return (np.einsum("pbi,pbaj->paij", x, dy)
            + _contract("pabm,pbi,pmj->paij", gamma, x, y))


def _split_tensors(v, h, dv, gamma):
    """(T, A) for one connection, from the projectors and dv[p, i] = ∂_i v.

    T(E, F) = h ∇_{vE} vF + v ∇_{vE} hF and A(E, F) = v ∇_{hE} hF + h ∇_{hE} vF
    on the coordinate fields E = ∂_i, F = ∂_j, with ∂h = −∂v.  h∘v = v∘h = 0
    keeps both tensorial for any connection.
    """
    def project(proj, vectors):
        return np.einsum("pka,paij->pkij", proj, vectors)

    t = (project(h, _covariant_derivatives(gamma, v, v, dv))
         + project(v, _covariant_derivatives(gamma, v, h, -dv)))
    a = (project(v, _covariant_derivatives(gamma, h, h, -dv))
         + project(h, _covariant_derivatives(gamma, h, v, dv)))
    return t, a


class OneillSplitting(PointJets):
    """The vertical/horizontal splitting of a total space with T, A, T*, A*, per batch of points.

    A batch holds the arrays of :class:`OneillArrays` after ``points``, and
    has no value-only form.  The splitting holds the total space's
    :class:`VerticalProjector`, ∇ and ∇* (``conjugate``), never the
    submersion.  A degenerate or ill-conditioned fiber block raises
    :class:`SubmersionError` before any connection is evaluated.
    """

    def __init__(self, vertical: VerticalProjector, connection, conjugate):
        self._vertical = vertical
        self._connection = connection
        self._conjugate = conjugate

    def _batch_jets(self, pts, full):
        v, dv = self._vertical.jets(pts)
        g, nb = self._vertical.metric.values(pts), self._vertical.base_dim
        _check_conditioning(g[:, nb:, nb:])
        gamma = self._connection.values(pts)
        gamma_star = self._conjugate.values(pts)
        h = np.eye(g.shape[-1]) - v

        t, a = _split_tensors(v, h, dv, gamma)
        t_star, a_star = _split_tensors(v, h, dv, gamma_star)
        return g, gamma, v, h, h[:, :, :nb], -dv[:, :, :, :nb], t, a, t_star, a_star


def oneill_arrays(spec: SubmersionSpec, points) -> OneillArrays:
    """T, A, T*, A*, projectors and basic lifts at every point, read from ``spec.splitting``.

    Raises :class:`SubmersionError` when a fiber block is degenerate or too
    ill-conditioned for the lifts.
    """
    pts = _as_points(points)
    return OneillArrays(pts, *spec.splitting.jets(pts))


def _pair_lifts(tensor: np.ndarray, lifts: np.ndarray) -> np.ndarray:
    """tensor(X_a, X_b)[p, k, a, b] for the basic lifts X_a."""
    return _contract("pkij,pia,pjb->pkab", tensor, lifts, lifts)


# --------------------------------------------------------------------------
# Submersion checks
# --------------------------------------------------------------------------

def check_semi_riemannian_submersion(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """The splitting's lifts of base frames have the base scalar products: g(X̃, Ỹ) = g'(X', Y')∘π."""
    arrays = oneill_arrays(spec, pts)
    base_metric = spec.base.metric.values(arrays.points[:, :spec.base_dim])
    total_products = np.swapaxes(arrays.L, 1, 2) @ arrays.g @ arrays.L
    return residual_check(max_abs(total_products - base_metric),
                          scale_of(total_products, base_metric), arrays.points, tol)


def check_statistical_submersion(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """dπ(h ∇_X Y) matches ∇'_{X'} Y' for basic lifts of base coordinate fields."""
    if spec.total.connection is None or spec.base.connection is None:
        raise SubmersionError("statistical-submersion check needs connections on both sides")
    arrays = oneill_arrays(spec, pts)
    nb = spec.base_dim
    nabla = _covariant_derivatives(arrays.gamma, arrays.L, arrays.L, arrays.dL)
    total_side = np.einsum("pkl,plab->pkab", arrays.h, nabla)[:, :nb]
    base_gamma = spec.base.connection.values(arrays.points[:, :nb])
    return residual_check(max_abs(total_side - base_gamma), scale_of(base_gamma), arrays.points, tol)


def check_para_holomorphic(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """dπ ∘ P = P' ∘ dπ, with dπ the coordinate truncation matrix."""
    if spec.total.product is None or spec.base.product is None:
        raise SubmersionError("para-holomorphic check needs product structures on both sides")
    points = _as_points(pts)
    nb = spec.base_dim
    m = spec.total.product.values(points)
    m_base = spec.base.product.values(points[:, :nb])
    raw = np.maximum(max_abs(m[:, :nb, :nb] - m_base), max_abs(m[:, :nb, nb:]))
    return residual_check(raw, scale_of(m, m_base), points, tol)


def isometric_fibers_residual(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """max |T(U, V)| over vertical coordinate fields; zero means isometric fibers."""
    arrays = oneill_arrays(spec, pts)
    nb = spec.base_dim
    return residual_check(max_abs(arrays.t[:, :, nb:, nb:]), scale_of(arrays.gamma), arrays.points, tol)


def _lift_brackets(arrays: OneillArrays) -> np.ndarray:
    """v[X_a, X_b][p, k, a, b] for the basic lifts, from their exact Jacobians."""
    lifts, dlifts = arrays.L, arrays.dL
    flow = np.einsum("pia,pikb->pkab", lifts, dlifts)
    return np.einsum("pkl,plab->pkab", arrays.v, flow - flow.transpose(0, 1, 3, 2))


def check_fundamental_tensor_identities(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Structural identities of T, A and their duals over frames and basic lifts.

    Verifies symmetry of T on vertical pairs, the alternation of A against
    v[X,Y], the skew exchange A_XY = −A*_YX, and both duality pairings
    g(T_U V, X) = −g(V, T*_U X) and g(A_X Y, U) = −g(Y, A*_X U); projector
    algebra (idempotency, complementarity, g-orthogonality) is checked as
    well since the splitting decompositions hold by construction through it.
    The raw residual at each point is the worst item at that point.
    """
    arrays = oneill_arrays(spec, pts)
    nb = spec.base_dim
    g, v, h, lifts = arrays.g, arrays.v, arrays.h, arrays.L
    t_vv = arrays.t[:, :, nb:, nb:]
    t_star_vv = arrays.t_star[:, :, nb:, nb:]
    a_xy = _pair_lifts(arrays.a, lifts)
    a_star_xy = _pair_lifts(arrays.a_star, lifts)
    bracket = _lift_brackets(arrays)

    def swapped(arr):
        return arr.transpose(0, 1, 3, 2)

    # pairing_t[p, i, j, a] = g(T(U_i, U_j), X_a) + g(U_j, T*(U_i, X_a))
    pairing_t = (_contract("pkij,pkl,pla->pija", t_vv, g, lifts)
                 + _contract("pjk,pkim,pma->pija", g[:, nb:, :],
                             arrays.t_star[:, :, nb:, :], lifts))
    # pairing_a[p, a, b, u] = g(A(X_a, X_b), U_u) + g(X_b, A*(X_a, U_u))
    pairing_a = (np.einsum("pkab,pku->pabu", a_xy, g[:, :, nb:])
                 + _contract("plb,plk,pkmu,pma->pabu", lifts, g,
                             arrays.a_star[:, :, :, nb:], lifts))
    per_point = {
        "symmetry_t": np.maximum(max_abs(t_vv - swapped(t_vv)),
                                 max_abs(t_star_vv - swapped(t_star_vv))),
        "alternation_a": np.maximum(max_abs(a_xy - swapped(a_xy) - bracket),
                                    max_abs(a_star_xy - swapped(a_star_xy) - bracket)),
        "skew_exchange": max_abs(a_xy + swapped(a_star_xy)),
        "pairing_t": max_abs(pairing_t),
        "pairing_a": max_abs(pairing_a),
        "projectors": np.maximum.reduce([
            max_abs(v @ v - v),
            max_abs(v @ h),
            max_abs(h.transpose(0, 2, 1) @ g @ v),
            max_abs(v + h - np.eye(spec.total_dim)),
        ]),
    }
    items = np.array(list(per_point.values()))
    worst = {name: float(items[row].max()) for row, name in enumerate(per_point)}
    return residual_check(items.max(axis=0), scale_of(g), arrays.points, tol, details=worst)


# --------------------------------------------------------------------------
# Induced fiber geometry
# --------------------------------------------------------------------------

def _on_fiber(base_point: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Total-space points over ``base_point`` whose fiber coordinates are the rows of ``points``."""
    return np.hstack([np.broadcast_to(base_point, (len(points), len(base_point))), points])


class FiberRestriction(PointJets):
    """A total-space field restricted to the fiber through ``base_point``: ĝ or P̂.

    Its jets are the total field's at the embedded points, every axis but the
    point axis cut to the fiber coordinates and copied into a fresh field's layout.
    """

    def __init__(self, field, base_point):
        self._field = field
        self._base_point = np.asarray(base_point, dtype=float)

    @property
    def dim(self) -> int:
        return self._field.dim - len(self._base_point)

    @functools.cached_property
    def inverse(self) -> InverseMetric:
        """G⁻¹ and ∂G⁻¹ of a restricted metric, built on first use as :attr:`MetricField.inverse` is."""
        return InverseMetric(self)

    def _batch_jets(self, points, full):
        fiber = slice(len(self._base_point), None)
        jets = self._field._lookup(_on_fiber(self._base_point, points), full)
        return tuple(np.ascontiguousarray(part[(slice(None),) + (fiber,) * (part.ndim - 1)])
                     for part in jets)


class FiberConnection(PointJets):
    """Connection induced on the fiber through ``base_point``: the vertical projection of ``connection``.

    ``connection`` is ∇ (or ∇* for the induced dual) of the total space and
    ``vertical`` its metric's projector, both read at the embedded points.
    With S = v[vert, :], the jets are Γ̂ = S Γ and ∂Γ̂ = ∂S Γ + S ∂Γ on fiber indices.
    """

    def __init__(self, vertical: VerticalProjector, connection, base_point):
        self._vertical = vertical
        self._connection = connection
        self._base_point = np.asarray(base_point, dtype=float)

    @property
    def dim(self) -> int:
        return self._vertical.dim - len(self._base_point)

    def _batch_jets(self, points, full):
        nb = len(self._base_point)
        embedded = _on_fiber(self._base_point, points)
        vertical = self._vertical._lookup(embedded, full)
        connection = self._connection._lookup(embedded, full)
        rows, block = vertical[0][:, nb:], connection[0][:, :, nb:, nb:]
        hat = np.einsum("pck,pkab->pcab", rows, block)
        if not full:
            return (hat,)
        dhat = (np.einsum("pdck,pkab->pdcab", vertical[1][:, nb:, nb:], block)
                + np.einsum("pck,pdkab->pdcab", rows, connection[1][:, nb:, :, nb:, nb:]))
        return hat, dhat


def induced_fiber_manifold(spec: SubmersionSpec, fiber_points, tol: float = DEFAULT_TOLERANCE) -> ManifoldSpec:
    """``spec.fiber``, once the total structure is seen to keep the vertical space at ``fiber_points``.

    Raises :class:`SubmersionError` when P moves a vertical vector out of the
    vertical space by more than ``tol`` at one of them (the caller's samples).
    """
    fiber = spec.fiber
    if fiber.product is not None:
        nb = spec.base_dim
        embedded = _on_fiber(spec.base.chart.center, _as_points(fiber_points))
        leaks = max_abs(spec.total.product.values(embedded)[:, :nb, nb:])
        leaking = np.flatnonzero(leaks > tol)
        if leaking.size:
            first = leaking[0]
            raise SubmersionError(
                f"product structure does not preserve the vertical space "
                f"(leak {leaks[first]:.3e} at {embedded[first].tolist()})"
            )
    return fiber


# --------------------------------------------------------------------------
# Theorem-level report
# --------------------------------------------------------------------------

def _ranks(matrices: np.ndarray) -> np.ndarray:
    """The numerical rank of each matrix in a stack."""
    singular = np.linalg.svd(matrices, compute_uv=False)
    cutoff = _RANK_CUTOFF * np.maximum(1.0, singular[:, :1])
    return np.sum(singular > cutoff, axis=1)


def verify_submersion_theorems(
    spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE
) -> dict[str, CheckResult]:
    """Check the structure-transfer consequences of a para-product statistical submersion.

    Returns one :class:`geometry.CheckResult` per item, each with tolerance
    ``tol``; a failed hypothesis yields NOT-APPLICABLE with a reason, never
    FAIL.  The items:

    * ``fiber_structure``: the fiber carries a statistical structure and an
      almost product structure;
    * ``base_and_fiber_certified``: base and fiber pass the full para-Kähler-like
      certification, provided the total space does and the submersion is
      statistical and para-holomorphic;
    * ``vertical_symmetry``: T(P̂U, P̂V) = T(U, V) on vertical frames;
    * ``horizontal_vanishing``: A = A* = 0 on basic lifts, provided
      rank(P̂ + P̂*) equals the fiber dimension at every sampled fiber point;
    * ``horizontal_integrability``: v[X, Y] = 0 for basic lifts when P̂ = P̂*;
    * ``flat_decomposition``: base and fiber curvature vanish when the total
      space has space-form curvature, the fibers are isometric, and the rank
      condition holds.
    """
    def verdict(passed, residual, **details):
        return CheckResult(STATUS_PASS if passed else STATUS_FAIL, residual=residual,
                           tolerance=tol, details=details)

    def not_applicable(reason, **details):
        return CheckResult(STATUS_NOT_APPLICABLE, tolerance=tol, reason=reason, details=details)

    points = _as_points(pts)
    if spec.total.product is None or spec.base.product is None:
        reason = "total and base product structures are required"
        return {name: not_applicable(reason)
                for name in ("fiber_structure", "base_and_fiber_certified", "vertical_symmetry",
                             "horizontal_vanishing", "horizontal_integrability",
                             "flat_decomposition")}

    items = {}
    fiber_points = sample_points(spec.fiber.chart, len(points))
    fiber = induced_fiber_manifold(spec, fiber_points, tol=tol)

    fiber_statistical = check_statistical_structure(fiber, fiber_points, tol)
    fiber_almost = check_almost_product(fiber.product, fiber_points, tol)
    items["fiber_structure"] = verdict(fiber_statistical.passed and fiber_almost.passed,
                                       max(fiber_statistical.residual, fiber_almost.residual))

    total_cert = check_para_kahler_like(spec.total, points, tol)
    statistical_sub = check_statistical_submersion(spec, points, tol)
    holomorphic = check_para_holomorphic(spec, points, tol)
    if total_cert.passed and statistical_sub.passed and holomorphic.passed:
        base_points = points[:, :spec.base_dim]
        base_cert = check_para_kahler_like(spec.base, base_points, tol)
        fiber_cert = check_para_kahler_like(fiber, fiber_points, tol)
        items["base_and_fiber_certified"] = verdict(
            base_cert.passed and fiber_cert.passed,
            max(base_cert.details["parallelism_residual"],
                fiber_cert.details["parallelism_residual"]))
    else:
        items["base_and_fiber_certified"] = not_applicable(
            "total space is not a certified para-product statistical submersion")

    arrays = oneill_arrays(spec, points)
    nb = spec.base_dim
    structure = spec.total.product.values(points)
    vertical_images = structure[:, :, nb:]
    twisted = _contract("pkij,piu,pjw->pkuw", arrays.t, vertical_images, vertical_images)
    vertical_symmetry = residual_check(max_abs(twisted - arrays.t[:, :, nb:, nb:]),
                                       scale_of(structure), points, tol)
    items["vertical_symmetry"] = verdict(vertical_symmetry.passed, vertical_symmetry.residual)

    m_hat = fiber.product.values(fiber_points)
    m_hat_star = fiber.adjoint.values(fiber_points)
    min_rank = int(_ranks(m_hat + m_hat_star).min())
    parity_gap = float(max_abs(m_hat - m_hat_star).max())

    metric_scales = scale_of(arrays.g)
    a_worst = np.maximum(max_abs(_pair_lifts(arrays.a, arrays.L)),
                         max_abs(_pair_lifts(arrays.a_star, arrays.L)))
    a_result = residual_check(a_worst, metric_scales, points, tol)
    bracket_result = residual_check(max_abs(_lift_brackets(arrays)), metric_scales, points, tol)

    if min_rank == spec.fiber_dim:
        items["horizontal_vanishing"] = verdict(a_result.passed, a_result.residual,
                                                rank=float(min_rank))
    else:
        items["horizontal_vanishing"] = not_applicable(
            f"rank(P̂ + P̂*) = {min_rank} is below the fiber dimension {spec.fiber_dim}",
            rank=float(min_rank))

    if parity_gap <= tol:
        items["horizontal_integrability"] = verdict(bracket_result.passed, bracket_result.residual)
    else:
        items["horizontal_integrability"] = not_applicable(
            f"fiber structure is not self-adjoint (gap {parity_gap:.3e})")

    isometric = isometric_fibers_residual(spec, points, tol)
    space_constant = fit_space_form_constant(spec.total, points)
    space_form = check_space_form(spec.total, space_constant, points, tol)
    if space_form.passed and isometric.passed and min_rank == spec.fiber_dim:
        flats = [curvature_residual(manifold, samples, tol)
                 for manifold, samples in ((spec.base, points[:, :nb]), (fiber, fiber_points))]
        items["flat_decomposition"] = verdict(all(flat.passed for flat in flats),
                                              max(flat.residual for flat in flats),
                                              space_form_constant=space_constant)
    else:
        reasons = []
        if not space_form.passed:
            reasons.append("total curvature is not of space-form shape")
        if not isometric.passed:
            reasons.append("fibers are not isometric")
        if min_rank != spec.fiber_dim:
            reasons.append("rank condition fails")
        items["flat_decomposition"] = not_applicable("; ".join(reasons),
                                                     space_form_constant=space_constant)
    return items
