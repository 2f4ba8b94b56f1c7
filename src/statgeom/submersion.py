"""Coordinate-projection statistical submersions and their fundamental tensors.

The projection always drops the trailing coordinates, so the vertical space
is the span of the trailing coordinate directions and the pushforward matrix
is exact.  Horizontality is metric-dependent and computed, not assumed: the
vertical projector at a point is v = E (G_vv)⁻¹ G[vert, :], where E selects
the trailing directions and G_vv is the fiber block of the metric; the
spec's :class:`VerticalProjector` gives v and ∂v, and decides each fiber
block once for every check that reads it (:func:`_fiber_blocks`).

T and A are tensorial in both slots, so the checks never evaluate them one
field pair at a time: the spec's :class:`FundamentalTensor` fields T, A, T*
and A* (``tensors``) are the whole coordinate arrays
``T[k, i, j] = T(∂_i, ∂_j)^k``, derived from the projector's jets and the
connection coefficients and batched over the sample points, and every
submersion check reduces contractions of those arrays and of the basic lifts
(:class:`BasicLifts`, ``lifts``).

The independent oracle, T and A one vector-field pair at a time, lives in
``tests/oracles.py``: tensoriality of T and A in both slots is a tested
property, not an input assumption.

A :class:`SubmersionSpec` owns its projector (``vertical``), basic lifts
(``lifts``), fundamental tensors (``tensors``) and induced fiber manifold
(``fiber``), each built once on first use, so every check of a run reads the
same store; all read the total space's fields and never the spec.  The
fiber's fields are restrictions (:class:`FiberRestriction`) of total-space
fields to the fiber over the base box center: ĝ of g, P̂ of P, and ∇̂ of the
vertical part vΓ of ∇ (:class:`VerticalPart`), since ∇̂_U V = v∇_U V on
vertical fields.
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
    """Degenerate or ill-conditioned fiber metric block, or invariance violation."""


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

    @functools.cached_property
    def vertical(self) -> VerticalProjector:
        """The vertical projector of the total metric, built on first use."""
        return VerticalProjector(self.total.metric, self.base_dim)

    @functools.cached_property
    def lifts(self) -> BasicLifts:
        """The basic lifts of the base coordinate fields, built on first use."""
        return BasicLifts(self.vertical)

    @functools.cached_property
    def tensors(self) -> dict[str, FundamentalTensor]:
        """T and A by ∇ and T* and A* by ∇* (``t``, ``a``, ``t_star``, ``a_star``), built on first use."""
        vertical, connection, conjugate = self.vertical, self.total.resolved_connection, self.total.conjugate
        return {"t": FundamentalTensor(vertical, connection, horizontal=False),
                "a": FundamentalTensor(vertical, connection, horizontal=True),
                "t_star": FundamentalTensor(vertical, conjugate, horizontal=False),
                "a_star": FundamentalTensor(vertical, conjugate, horizontal=True)}

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
            connection=FiberRestriction(VerticalPart(self.vertical, self.total.resolved_connection), center),
            product=None if self.total.product is None else FiberRestriction(self.total.product, center),
        )


# --------------------------------------------------------------------------
# Projector, basic lifts and fundamental tensors
# --------------------------------------------------------------------------

def _fiber_blocks(g: np.ndarray, nb: int):
    """(G_vv, G[vert, :]) of one metric matrix or a stack of them, for :class:`VerticalProjector`.

    The first ``nb`` coordinates are the base's.  One ``eigvalsh`` raises
    :class:`SubmersionError` at the first :func:`_singular` (degenerate) block,
    else at the first whose cond |λ|max/|λ|min exceeds ``_CONDITION_LIMIT``.
    """
    gvv = g[..., nb:, nb:]
    eigenvalues = np.linalg.eigvalsh(gvv)
    degenerate = np.atleast_1d(_singular(eigenvalues))
    if degenerate.any():
        det = float(np.linalg.det(gvv.reshape((-1,) + gvv.shape[-2:])[np.argmax(degenerate)]))
        raise SubmersionError(f"degenerate fiber metric block (det {det:.3e})")
    sigma = np.abs(eigenvalues)
    conds = np.atleast_1d(sigma.max(axis=-1) / sigma.min(axis=-1))
    bad = conds > _CONDITION_LIMIT
    if bad.any():
        raise SubmersionError(f"horizontal solve is ill-conditioned (cond {float(conds[np.argmax(bad)]):.3e})")
    return gvv, g[..., nb:, :]


class VerticalProjector(DerivedJets):
    """The vertical projector v = E G_vv⁻¹ G[vert, :] of a total metric; jets are (v, ∂v).

    E puts the fiber rows S = G_vv⁻¹ G[vert, :] below ``base_dim`` zero rows,
    and ∂_i S = G_vv⁻¹ (∂_i G[vert, :] − ∂_i G_vv S).  The one place where a
    fiber block is tested (:func:`_fiber_blocks`) and inverted, for every reader.
    Its readers at the sample points (lifts and tensors) ask for its jets, not
    its values alone, so no batch there is inverted a second time for jets.
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


def _covariant_derivatives(gamma, x, y, dy):
    """(∇_{X_i} Y_j)^a for the columns X_i of x and Y_j of y, with dy[p, b] = ∂_b y."""
    return (np.einsum("pbi,pbaj->paij", x, dy)
            + _contract("pabm,pbi,pmj->paij", gamma, x, y))


class BasicLifts(DerivedJets):
    """The basic lifts L[p, k, a] of the base coordinate fields ∂_a; jets are (L, ∂L).

    L is the first ``base_dim`` columns of h = 1 − v, so ∂L = −∂v[..., :nb].
    Its values read the projector's jets and come with ∂L, so a later request
    for the jets of either field computes nothing again.
    """

    def __init__(self, vertical: VerticalProjector):
        self._bases = (vertical,)
        self._value_needs = (True,)
        self._base_dim = vertical.base_dim

    def _derive(self, full, vertical_jets):
        (v, dv), nb = vertical_jets, self._base_dim
        return (np.eye(v.shape[-1]) - v)[:, :, :nb], -dv[..., :nb]


class FundamentalTensor(DerivedJets):
    """O'Neill's T of a connection, or A when ``horizontal``: ``T[p, k, i, j] = T(∂_i, ∂_j)^k``.

    T(E, F) = h ∇_{vE} vF + v ∇_{vE} hF on the coordinate fields E = ∂_i,
    F = ∂_j, with h = 1 − v; A is the same formula with v and h exchanged,
    since ∂h = −∂v.  h∘v = v∘h = 0 keeps both tensorial for any connection.
    The tensor has values only, read from the projector's jets and the
    connection's values; the projector comes first, so a rejected fiber block
    raises :class:`SubmersionError` before the connection is evaluated.
    """

    def __init__(self, vertical: VerticalProjector, connection, horizontal: bool):
        self._bases = (vertical, connection)
        self._value_needs = (True, False)
        self._horizontal = horizontal

    def _derive(self, full, vertical_jets, connection_jets):
        if full:
            raise NotImplementedError("an O'Neill tensor has values only")
        (v, dv), gamma = vertical_jets, connection_jets[0]
        h = np.eye(v.shape[-1]) - v
        if self._horizontal:
            v, h, dv = h, v, -dv
        return (np.einsum("pka,paij->pkij", h, _covariant_derivatives(gamma, v, v, dv))
                + np.einsum("pka,paij->pkij", v, _covariant_derivatives(gamma, v, h, -dv)),)


def _pair_lifts(tensor: np.ndarray, lifts: np.ndarray) -> np.ndarray:
    """tensor(X_a, X_b)[p, k, a, b] for the basic lifts X_a."""
    return _contract("pkij,pia,pjb->pkab", tensor, lifts, lifts)


# --------------------------------------------------------------------------
# Submersion checks
# --------------------------------------------------------------------------

def check_semi_riemannian_submersion(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """The basic lifts of base frames have the base scalar products: g(X̃, Ỹ) = g'(X', Y')∘π."""
    points = _as_points(pts)
    lifts = spec.lifts.values(points)
    base_metric = spec.base.metric.values(points[:, :spec.base_dim])
    total_products = np.swapaxes(lifts, 1, 2) @ spec.total.metric.values(points) @ lifts
    return residual_check(max_abs(total_products - base_metric),
                          scale_of(total_products, base_metric), points, tol)


def check_statistical_submersion(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """dπ(h ∇_X Y) matches ∇'_{X'} Y' for basic lifts of base coordinate fields."""
    if spec.total.connection is None or spec.base.connection is None:
        raise SubmersionError("statistical-submersion check needs connections on both sides")
    points = _as_points(pts)
    nb = spec.base_dim
    lifts, dlifts = spec.lifts.jets(points)
    h = np.eye(spec.total_dim) - spec.vertical.jets(points)[0]
    nabla = _covariant_derivatives(spec.total.resolved_connection.values(points), lifts, lifts, dlifts)
    total_side = np.einsum("pkl,plab->pkab", h, nabla)[:, :nb]
    base_gamma = spec.base.connection.values(points[:, :nb])
    return residual_check(max_abs(total_side - base_gamma), scale_of(base_gamma), points, tol)


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
    points = _as_points(pts)
    nb = spec.base_dim
    t_vv = spec.tensors["t"].values(points)[:, :, nb:, nb:]
    gamma = spec.total.resolved_connection.values(points)
    return residual_check(max_abs(t_vv), scale_of(gamma), points, tol)


def _lift_brackets(spec: SubmersionSpec, points: np.ndarray) -> np.ndarray:
    """v[X_a, X_b][p, k, a, b] for the basic lifts, from their exact Jacobians."""
    lifts, dlifts = spec.lifts.jets(points)
    flow = np.einsum("pia,pikb->pkab", lifts, dlifts)
    return np.einsum("pkl,plab->pkab", spec.vertical.jets(points)[0], flow - flow.transpose(0, 1, 3, 2))


def check_fundamental_tensor_identities(spec: SubmersionSpec, pts, tol: float = DEFAULT_TOLERANCE) -> CheckResult:
    """Structural identities of T, A and their duals over frames and basic lifts.

    Verifies symmetry of T on vertical pairs, the alternation of A against
    v[X,Y], the skew exchange A_XY = −A*_YX, and both duality pairings
    g(T_U V, X) = −g(V, T*_U X) and g(A_X Y, U) = −g(Y, A*_X U); projector
    algebra (idempotency, complementarity, g-orthogonality) is checked as
    well since the splitting decompositions hold by construction through it.
    The raw residual at each point is the worst item at that point.
    """
    points = _as_points(pts)
    nb = spec.base_dim
    t, a, t_star, a_star = (spec.tensors[name].values(points) for name in ("t", "a", "t_star", "a_star"))
    g, v, lifts = spec.total.metric.values(points), spec.vertical.jets(points)[0], spec.lifts.values(points)
    h = np.eye(spec.total_dim) - v
    t_vv = t[:, :, nb:, nb:]
    t_star_vv = t_star[:, :, nb:, nb:]
    a_xy = _pair_lifts(a, lifts)
    a_star_xy = _pair_lifts(a_star, lifts)
    bracket = _lift_brackets(spec, points)

    def swapped(arr):
        return arr.transpose(0, 1, 3, 2)

    # pairing_t[p, i, j, a] = g(T(U_i, U_j), X_a) + g(U_j, T*(U_i, X_a))
    pairing_t = (_contract("pkij,pkl,pla->pija", t_vv, g, lifts)
                 + _contract("pjk,pkim,pma->pija", g[:, nb:, :], t_star[:, :, nb:, :], lifts))
    # pairing_a[p, a, b, u] = g(A(X_a, X_b), U_u) + g(X_b, A*(X_a, U_u))
    pairing_a = (np.einsum("pkab,pku->pabu", a_xy, g[:, :, nb:])
                 + _contract("plb,plk,pkmu,pma->pabu", lifts, g, a_star[:, :, :, nb:], lifts))
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
    return residual_check(items.max(axis=0), scale_of(g), points, tol, details=worst)


# --------------------------------------------------------------------------
# Induced fiber geometry
# --------------------------------------------------------------------------

def _on_fiber(base_point: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Total-space points over ``base_point`` whose fiber coordinates are the rows of ``points``."""
    return np.hstack([np.broadcast_to(base_point, (len(points), len(base_point))), points])


class VerticalPart(DerivedJets):
    """The vertical part vΓ of a connection, (vΓ)^c_ab = v^c_k Γ^k_ab; jets are (vΓ, ∂(vΓ)).

    ``connection`` is ∇ (or ∇* for the induced dual) and ``vertical`` the
    projector of the total metric; ∂(vΓ) = ∂v Γ + v ∂Γ.  Its restriction to a
    fiber is the induced connection ∇̂.
    """

    def __init__(self, vertical: VerticalProjector, connection):
        self._bases = (vertical, connection)
        self._value_needs = (False, False)

    def _derive(self, full, vertical_jets, connection_jets):
        part = np.einsum("pck,pkab->pcab", vertical_jets[0], connection_jets[0])
        return self._derive_after_values(part, vertical_jets, connection_jets) if full else (part,)

    def _derive_after_values(self, part, vertical_jets, connection_jets):
        (v, dv), (gamma, dgamma) = vertical_jets, connection_jets
        return part, (_contract("pdck,pkab->pdcab", dv, gamma)
                      + _contract("pck,pdkab->pdcab", v, dgamma))


class FiberRestriction(PointJets):
    """A total-space field restricted to the fiber through ``base_point``: ĝ, P̂ or ∇̂.

    Its jets are the total field's at the embedded points, every axis but the
    point axis cut to the fiber coordinates and copied into a fresh field's
    layout.  Every field of the fiber reads the total space through this class.
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

    nb = spec.base_dim
    t = spec.tensors["t"].values(points)
    structure = spec.total.product.values(points)
    vertical_images = structure[:, :, nb:]
    twisted = _contract("pkij,piu,pjw->pkuw", t, vertical_images, vertical_images)
    vertical_symmetry = residual_check(max_abs(twisted - t[:, :, nb:, nb:]),
                                       scale_of(structure), points, tol)
    items["vertical_symmetry"] = verdict(vertical_symmetry.passed, vertical_symmetry.residual)

    m_hat = fiber.product.values(fiber_points)
    m_hat_star = fiber.adjoint.values(fiber_points)
    min_rank = int(_ranks(m_hat + m_hat_star).min())
    parity_gap = float(max_abs(m_hat - m_hat_star).max())

    metric_scales = scale_of(spec.total.metric.values(points))
    lifts = spec.lifts.values(points)
    a_worst = np.maximum(max_abs(_pair_lifts(spec.tensors["a"].values(points), lifts)),
                         max_abs(_pair_lifts(spec.tensors["a_star"].values(points), lifts)))
    a_result = residual_check(a_worst, metric_scales, points, tol)
    bracket_result = residual_check(max_abs(_lift_brackets(spec, points)), metric_scales, points, tol)

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
