"""Independent reference implementations that the tests compare the package against.

Nothing in ``statgeom`` calls these; they are second implementations kept
apart from the package so that a fault in one path shows as a disagreement.

* :func:`eval2` evaluates one expression at one point by plain recursion
  over the tree, with one scalar rule per node (:class:`Dual2` jets).  The
  package's one evaluator is the non-recursive shared walk of
  ``statgeom.expr``, one rule cut at derivative order 0, 1 or 2
  (``eval_fields``, ``eval2_points``, ``eval_points``).  The scalar rules
  and domain checks here are this module's own; from ``statgeom.expr`` it
  takes only the tree's node classes, ``ScalarField`` and
  ``EvaluationError``.
* :func:`oneill_tensors_at` evaluates the fundamental tensors T and A of a
  submersion (B. O'Neill, "The fundamental equations of a submersion",
  Michigan Math. J. 13, 1966) one field pair at a time: vector-field
  arguments are objects with ``vector(p)`` and ``jet(p) -> (values,
  jacobian)``, ``jacobian[i, k] = ∂_i X^k``, and projected fields are
  differentiated through the exact jets of the projectors.  The package
  builds whole coordinate arrays in ``SubmersionSpec.splitting`` instead;
  tensoriality of T and A in both slots is what lets the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from statgeom.expr import (
    Binary,
    Const,
    EvaluationError,
    Power,
    Psi,
    ScalarField,
    Unary,
    Var,
)
from statgeom.geometry import ExpressionField
from statgeom.special import log_gamma, polygamma
from statgeom.submersion import SubmersionSpec, _fiber_blocks


# --------------------------------------------------------------------------
# Point-wise recursive evaluation
# --------------------------------------------------------------------------

def _map(func, u: float, overflow: str = "overflow") -> float:
    """``func(u)``, with a domain, overflow or division failure as an EvaluationError."""
    try:
        return func(u)
    except ValueError as err:
        raise EvaluationError(str(err)) from None
    except (OverflowError, ZeroDivisionError):
        raise EvaluationError(overflow) from None


def _apply_unary_value(op: str, u: float) -> float:
    if op == "exp":
        return _map(math.exp, u, "exp overflow")
    if op == "log":
        if u <= 0.0:
            raise EvaluationError(f"log of non-positive value {u}")
        return math.log(u)
    if op == "sqrt":
        if u < 0.0:
            raise EvaluationError(f"sqrt of negative value {u}")
        return math.sqrt(u)
    if op == "lgamma":
        if u <= 0.0:
            raise EvaluationError(f"lgamma of non-positive value {u}")
        return _map(log_gamma, u)
    raise TypeError(f"unknown unary op {op!r}")


def _pow_value(u: float, c: float) -> float:
    if u < 0.0 and c != round(c):
        raise EvaluationError(f"negative base {u} with non-integer exponent {c}")
    return _map(lambda x: x**c, u, f"pow domain failure: {u}^{c}")


def _psi_value(order: int, u: float) -> float:
    if u <= 0.0:
        raise EvaluationError(f"polygamma of non-positive value {u}")
    return _map(lambda x: polygamma(order, x), u, "polygamma overflow")


@dataclass(frozen=True)
class Dual2:
    """Value, gradient and Hessian of a field at a point.

    The Hessian is symmetric bit-for-bit: every propagation rule below only
    ever forms symmetric combinations such as ``outer(g, g)`` or
    ``outer(a, b) + outer(b, a)``.
    """

    value: float
    grad: np.ndarray
    hess: np.ndarray


def _d2_const(value: float, n: int) -> Dual2:
    return Dual2(value, np.zeros(n), np.zeros((n, n)))


def _d2_chain(u: Dual2, f0: float, f1: float, f2: float) -> Dual2:
    hess = f1 * u.hess + f2 * np.outer(u.grad, u.grad)
    return Dual2(f0, f1 * u.grad, hess)


def _d2_add(a: Dual2, b: Dual2) -> Dual2:
    return Dual2(a.value + b.value, a.grad + b.grad, a.hess + b.hess)


def _d2_sub(a: Dual2, b: Dual2) -> Dual2:
    return Dual2(a.value - b.value, a.grad - b.grad, a.hess - b.hess)


def _d2_mul(a: Dual2, b: Dual2) -> Dual2:
    cross = np.outer(a.grad, b.grad)
    hess = a.hess * b.value + b.hess * a.value + cross + cross.T
    return Dual2(a.value * b.value, a.grad * b.value + b.grad * a.value, hess)


def _d2_div(a: Dual2, b: Dual2) -> Dual2:
    if b.value == 0.0:
        raise EvaluationError("division by zero")
    value = a.value / b.value
    grad = (a.grad - value * b.grad) / b.value
    cross = np.outer(grad, b.grad)
    hess = (a.hess - value * b.hess - cross - cross.T) / b.value
    return Dual2(value, grad, hess)


def _d2_pow(u: Dual2, c: float) -> Dual2:
    f0 = _pow_value(u.value, c)
    f1 = c * _pow_value(u.value, c - 1.0) if c != 0.0 else 0.0
    f2 = c * (c - 1.0) * _pow_value(u.value, c - 2.0) if c not in (0.0, 1.0) else 0.0
    return _d2_chain(u, f0, f1, f2)


def _d2_unary(op: str, u: Dual2) -> Dual2:
    if op == "neg":
        return Dual2(-u.value, -u.grad, -u.hess)
    if op == "exp":
        f0 = _apply_unary_value("exp", u.value)
        return _d2_chain(u, f0, f0, f0)
    if op == "log":
        f0 = _apply_unary_value("log", u.value)
        inv = 1.0 / u.value
        return _d2_chain(u, f0, inv, -inv * inv)
    if op == "sqrt":
        f0 = _apply_unary_value("sqrt", u.value)
        if u.value == 0.0:
            raise EvaluationError("sqrt has unbounded derivative at zero")
        f1 = 0.5 / f0
        return _d2_chain(u, f0, f1, -0.5 * f1 / u.value)
    if op == "sin":
        s, c = _map(math.sin, u.value), _map(math.cos, u.value)
        return _d2_chain(u, s, c, -s)
    if op == "cos":
        s, c = _map(math.sin, u.value), _map(math.cos, u.value)
        return _d2_chain(u, c, -s, -c)
    if op == "lgamma":
        f0 = _apply_unary_value("lgamma", u.value)
        f1 = _map(lambda x: polygamma(0, x), u.value, "lgamma overflow")
        f2 = _map(lambda x: polygamma(1, x), u.value, "lgamma overflow")
        return _d2_chain(u, f0, f1, f2)
    raise TypeError(f"unknown unary op {op!r}")


def _d2(node: object, point: np.ndarray) -> Dual2:
    n = point.shape[0]
    if isinstance(node, Const):
        return _d2_const(node.value, n)
    if isinstance(node, Var):
        grad = np.zeros(n)
        grad[node.index] = 1.0
        return Dual2(float(point[node.index]), grad, np.zeros((n, n)))
    if isinstance(node, Unary):
        return _d2_unary(node.op, _d2(node.arg, point))
    if isinstance(node, Binary):
        a = _d2(node.left, point)
        b = _d2(node.right, point)
        if node.op == "add":
            return _d2_add(a, b)
        if node.op == "sub":
            return _d2_sub(a, b)
        if node.op == "mul":
            return _d2_mul(a, b)
        if node.op == "div":
            return _d2_div(a, b)
        raise TypeError(f"unknown binary op {node.op!r}")
    if isinstance(node, Power):
        return _d2_pow(_d2(node.base, point), node.exponent)
    if isinstance(node, Psi):
        u = _d2(node.arg, point)
        f0, f1, f2 = (_psi_value(node.order + k, u.value) for k in range(3))
        return _d2_chain(u, f0, f1, f2)
    raise TypeError(f"unknown node type {type(node)!r}")


def eval2(field: ScalarField, point: Sequence[float]) -> Dual2:
    """Exact value, gradient and Hessian of ``field`` at ``point``."""
    p = np.asarray(point, dtype=float)
    if p.shape != (field.arity,):
        raise ValueError(f"point of shape {p.shape} does not match arity {field.arity}")
    result = _d2(field.root, p)
    if not (math.isfinite(result.value)
            and np.all(np.isfinite(result.grad))
            and np.all(np.isfinite(result.hess))):
        raise EvaluationError(f"non-finite derivative data at point {p.tolist()}")
    return result


# --------------------------------------------------------------------------
# Projectors and lifts
# --------------------------------------------------------------------------

def projectors_at(spec: SubmersionSpec, point) -> tuple[np.ndarray, np.ndarray]:
    """(v, h): projection onto the vertical space along its g-orthogonal complement."""
    g = spec.total.metric.value(point)
    gvv, gv_rows = _fiber_blocks(g, spec.base_dim)
    n, nb = spec.total_dim, spec.base_dim
    selector = np.zeros((n, spec.fiber_dim))
    selector[nb:, :] = np.eye(spec.fiber_dim)
    v = selector @ np.linalg.solve(gvv, gv_rows)
    return v, np.eye(n) - v


def _projector_jets(spec: SubmersionSpec, point):
    """(v, h, dv, dh) with dv[i] the coordinate derivative of the vertical projector."""
    g, dg, _ = spec.total.metric.jet(point)
    gvv, gv_rows = _fiber_blocks(g, spec.base_dim)
    n, nb, f = spec.total_dim, spec.base_dim, spec.fiber_dim
    selector = np.zeros((n, f))
    selector[nb:, :] = np.eye(f)
    gvv_inv = np.linalg.inv(gvv)
    s = gvv_inv @ gv_rows  # f x n vertical-component extractor
    v = selector @ s
    dv = np.empty((n, n, n))
    for i in range(n):
        ds = gvv_inv @ (dg[i][nb:, :] - dg[i][nb:, nb:] @ s)
        dv[i] = selector @ ds
    return v, np.eye(n) - v, dv, -dv


def horizontal_lift_at(spec: SubmersionSpec, base_vector, point) -> np.ndarray:
    """The unique horizontal vector at ``point`` that pushes forward to ``base_vector``."""
    bv = np.asarray(base_vector, dtype=float)
    if bv.shape != (spec.base_dim,):
        raise ValueError(f"base vector of shape {bv.shape}, expected ({spec.base_dim},)")
    g = spec.total.metric.value(point)
    gvv, _ = _fiber_blocks(g, spec.base_dim)
    nb = spec.base_dim
    w = -np.linalg.solve(gvv, g[nb:, :nb] @ bv)
    return np.concatenate([bv, w])


# --------------------------------------------------------------------------
# Vector fields
# --------------------------------------------------------------------------

class CoordinateBasisField:
    """The constant coordinate field ∂_index."""

    def __init__(self, dim: int, index: int):
        if not 0 <= index < dim:
            raise IndexError(f"index {index} out of range for dimension {dim}")
        self.dim = dim
        self.index = index

    def vector(self, point) -> np.ndarray:
        values = np.zeros(self.dim)
        values[self.index] = 1.0
        return values

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        return self.vector(point), np.zeros((self.dim, self.dim))


class ExpressionVectorField(ExpressionField):
    """A vector field whose components are expression fields; jets are (X, ∂X)."""

    def vector(self, point) -> np.ndarray:
        """The components at one point, under the name the field-pair oracle calls."""
        return self.value(point)


class HorizontalLiftField:
    """The basic field lifting a constant base vector; jets come from metric jets."""

    def __init__(self, spec: SubmersionSpec, base_vector):
        self._spec = spec
        self._bv = np.asarray(base_vector, dtype=float)
        if self._bv.shape != (spec.base_dim,):
            raise ValueError(f"base vector of shape {self._bv.shape}")
        self.dim = spec.total_dim

    def vector(self, point) -> np.ndarray:
        return horizontal_lift_at(self._spec, self._bv, point)

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        spec = self._spec
        nb = spec.base_dim
        g, dg, _ = spec.total.metric.jet(point)
        gvv, _ = _fiber_blocks(g, nb)
        gvv_inv = np.linalg.inv(gvv)
        w = -gvv_inv @ (g[nb:, :nb] @ self._bv)
        values = np.concatenate([self._bv, w])
        jac = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            dw = -gvv_inv @ (dg[i][nb:, :nb] @ self._bv + dg[i][nb:, nb:] @ w)
            jac[i, nb:] = dw
        return values, jac


class ProjectedField:
    """v·F or h·F as a field, differentiated through the projector's jets."""

    def __init__(self, spec: SubmersionSpec, kind: str, base):
        if kind not in ("v", "h"):
            raise ValueError(f"kind must be 'v' or 'h', got {kind!r}")
        self._spec = spec
        self._kind = kind
        self._base = base
        self.dim = spec.total_dim

    def vector(self, point) -> np.ndarray:
        v, h = projectors_at(self._spec, point)
        proj = v if self._kind == "v" else h
        return proj @ self._base.vector(point)

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        v, h, dv, dh = _projector_jets(self._spec, point)
        proj, dproj = (v, dv) if self._kind == "v" else (h, dh)
        values, jac = self._base.jet(point)
        out_jac = np.empty_like(jac)
        for i in range(self.dim):
            out_jac[i] = dproj[i] @ values + proj @ jac[i]
        return proj @ values, out_jac


class StructureImageField:
    """P·F as a field, for a product structure with jets."""

    def __init__(self, structure, base):
        self._structure = structure
        self._base = base
        self.dim = base.dim

    def vector(self, point) -> np.ndarray:
        return self._structure.value(point) @ self._base.vector(point)

    def jet(self, point) -> tuple[np.ndarray, np.ndarray]:
        m, dm = self._structure.jet(point)
        values, jac = self._base.jet(point)
        out_jac = np.empty_like(jac)
        for i in range(self.dim):
            out_jac[i] = dm[i] @ values + m @ jac[i]
        return m @ values, out_jac


def covariant_derivative_field(connection, direction, field_arg, point) -> np.ndarray:
    """(∇_X Y)^k = X^i ∂_i Y^k + Γ^k_im X^i Y^m for a pointwise direction X."""
    x0 = np.asarray(direction, dtype=float)
    gamma = connection.value(point)
    values, jac = field_arg.jet(point)
    return x0 @ jac + np.einsum("kim,i,m->k", gamma, x0, values)


def lie_bracket_at(x_field, y_field, point) -> np.ndarray:
    """[X, Y]^k = X^i ∂_i Y^k − Y^i ∂_i X^k from exact component Jacobians."""
    x0, dx = x_field.jet(point)
    y0, dy = y_field.jet(point)
    return x0 @ dy - y0 @ dx


# --------------------------------------------------------------------------
# Fundamental tensors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OneillTensors:
    """T, A and the dual-connection versions, applied to a single field pair."""

    t: np.ndarray
    a: np.ndarray
    t_star: np.ndarray
    a_star: np.ndarray


def oneill_tensors_at(spec: SubmersionSpec, e_field, f_field, point) -> OneillTensors:
    """T(E,F) = h ∇_{vE} vF + v ∇_{vE} hF and A(E,F) = v ∇_{hE} hF + h ∇_{hE} vF.

    The starred pair replaces the connection by the total space's conjugate.
    """
    v, h = projectors_at(spec, point)
    e0 = e_field.vector(point)
    ve, he = v @ e0, h @ e0
    vf = ProjectedField(spec, "v", f_field)
    hf = ProjectedField(spec, "h", f_field)

    def tensors(conn):
        t = h @ covariant_derivative_field(conn, ve, vf, point) \
            + v @ covariant_derivative_field(conn, ve, hf, point)
        a = v @ covariant_derivative_field(conn, he, hf, point) \
            + h @ covariant_derivative_field(conn, he, vf, point)
        return t, a

    t, a = tensors(spec.total.resolved_connection)
    t_star, a_star = tensors(spec.total.conjugate)
    return OneillTensors(t=t, a=a, t_star=t_star, a_star=a_star)
