"""Exponential-family models: potential, Fisher metric, and the α-connection family.

The Fisher metric of a regular exponential family is the Hessian of the
log-partition potential in natural coordinates, g_ij = ∂_i ∂_j ψ.
:func:`builtin_model` differentiates the potential's expression tree twice,
once per model, and keeps the grid as ``hessian``; ``fisher`` is a metric
over it, so the metric (and its own first and second derivatives, needed for
conjugation and curvature) all evaluate exactly.  The suite checks that it is
positive definite on each run's points.  The α-connections are

    Γ^(α)t_ij = ((1 − α) / 2) (∂_s g_ij) g^st,

torsion-free by the total symmetry of ∂∂∂ψ, with ∇^(−α) conjugate to ∇^(α).
A model owns its α-family: :meth:`ExpFamilyModel.alpha_manifold` builds the
spec of each α once, on first use, so every check of a run reads the same
connection stores.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .geometry import (
    AdjointStructure,
    ChartSpec,
    ComponentGrid,
    DerivedJets,
    ExpressionField,
    ManifoldSpec,
    MetricField,
)

BUILTIN_MODEL_NAMES = ("poisson", "normal", "multinomial", "dirichlet")


@dataclass(frozen=True)
class ExpFamilyModel:
    """A regular exponential family in natural coordinates; ``hessian`` is the grid ∂_i ∂_j ψ."""

    name: str
    psi: ex.ScalarField
    chart: ChartSpec
    hessian: ComponentGrid

    @property
    def dim(self) -> int:
        return self.chart.dim

    @functools.cached_property
    def fisher(self) -> MetricField:
        """The Fisher metric over the Hessian grid, built once so its stored jets serve every check."""
        return MetricField(self.hessian)

    def alpha_manifold(self, alpha: float) -> ManifoldSpec:
        """The chart and Fisher metric with the α-connection; one spec per α, built on first use.

        The spec refers to the chart and the metric, not back to the model.
        """
        specs = self.__dict__.setdefault("_alpha_manifolds", {})
        spec = specs.get(alpha)
        if spec is None:
            spec = specs[alpha] = ManifoldSpec(self.chart, self.fisher,
                                               AlphaConnection(self.fisher, alpha))
        return spec


def builtin_model(name: str, **hyperparams) -> ExpFamilyModel:
    """One of the built-in families: poisson, normal, multinomial(m, trials), dirichlet(dim).

    Sampling boxes stay inside the natural-parameter domains, away from
    boundary singularities.
    """
    seed = int(hyperparams.pop("seed", 0))
    if name == "poisson":
        _reject_extras(name, hyperparams)
        chart = ChartSpec(("t1",), ((-1.0, 1.0),), seed=seed)
        psi = ex.parse_expression("exp(t1)", chart.coord_names)
    elif name == "normal":
        _reject_extras(name, hyperparams)
        chart = ChartSpec(("t1", "t2"), ((-1.0, 1.0), (-2.0, -0.2)), seed=seed)
        psi = ex.parse_expression(
            "-(t1*t1)/(4*t2) + 0.5*log(-pi/t2)", chart.coord_names, {"pi": math.pi}
        )
    elif name == "multinomial":
        m = _count(hyperparams, "categories", 0)
        trials = _count(hyperparams, "trials", 1)
        _reject_extras(name, hyperparams)
        if m < 2:
            raise ValueError(f"multinomial needs at least 2 categories, got {m}")
        if trials < 1:
            raise ValueError(f"multinomial needs at least 1 trial, got {trials}")
        names = tuple(f"t{i + 1}" for i in range(m - 1))
        chart = ChartSpec(names, tuple([(-1.0, 1.0)] * (m - 1)), seed=seed)
        total = " + ".join(f"exp({c})" for c in names)
        psi = ex.parse_expression(f"N*log(1 + {total})", names, {"N": float(trials)})
    elif name == "dirichlet":
        dim = _count(hyperparams, "dim", 0)
        _reject_extras(name, hyperparams)
        if dim < 2:
            raise ValueError(f"dirichlet needs dimension at least 2, got {dim}")
        names = tuple(f"t{i + 1}" for i in range(dim))
        chart = ChartSpec(names, tuple([(0.5, 3.0)] * dim), seed=seed)
        parts = " + ".join(f"lgamma({c})" for c in names)
        total = " + ".join(names)
        psi = ex.parse_expression(f"{parts} - lgamma({total})", names)
    else:
        raise ValueError(f"unknown model {name!r}; known: {', '.join(BUILTIN_MODEL_NAMES)}")
    n = chart.dim
    first = [psi.differentiate(i) for i in range(n)]
    upper = {(i, j): first[i].differentiate(j) for i in range(n) for j in range(i, n)}
    hessian = ComponentGrid([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)],
                            symmetric=True)
    return ExpFamilyModel(name=name, psi=psi, chart=chart, hessian=hessian)


def _count(hyperparams: dict, key: str, default: int) -> int:
    """Pop the integer hyperparameter ``key``; a boolean, float or list is refused, not truncated."""
    value = hyperparams.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"hyperparameter {key!r} must be an integer, got {value!r}")
    return int(value)


def _reject_extras(name: str, extras: dict) -> None:
    if extras:
        raise ValueError(f"unexpected hyperparameters for {name!r}: {sorted(extras)}")


class AlphaConnection(DerivedJets):
    """Γ^(α)t_ij = ((1 − α)/2) (∂_s g_ij) g^st from exact metric jets; jets are (Γ, ∂Γ).

    A finite α can still overflow Γ^(α) or ∂Γ^(α) (α = 1e308); a non-finite
    batch raises :class:`expr.EvaluationError` naming α.
    """

    def __init__(self, metric: MetricField, alpha: float):
        if isinstance(alpha, bool) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be a finite number, got {alpha!r}")
        self.alpha = float(alpha)
        # at α = 1 the factor is 0, so Γ = 0 reads no inverse
        self._bases = (metric,) if self.alpha == 1.0 else (metric, metric.inverse)
        self._value_needs = (True, False)[:len(self._bases)]

    def _derive(self, full, metric_jets, inverse_jets=None):
        g, dg, d2g = metric_jets
        if inverse_jets is None:
            count, n = g.shape[0], self.dim
            gamma = np.zeros((count, n, n, n))
            return (gamma, np.zeros((count, n, n, n, n))) if full else (gamma,)
        factor = 0.5 * (1.0 - self.alpha)
        ginv = inverse_jets[0]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            parts = (factor * np.einsum("psij,pst->ptij", dg, ginv),)
            if full:
                dginv = inverse_jets[1]
                parts += (factor * (np.einsum("plsij,pst->pltij", d2g, ginv)
                                    + np.einsum("psij,plst->pltij", dg, dginv)),)
        if not all(np.isfinite(part).all() for part in parts):
            raise ex.EvaluationError(f"the alpha-connection is not finite at alpha = {self.alpha:g}")
        return parts


def exp_para_structures(model: ExpFamilyModel, a) -> tuple:
    """The constant structure with components ``a`` and its negative adjoint under the Fisher metric.

    ``a`` must be an involutive matrix other than ±Id (which rules out
    one-dimensional models).  The first structure pairs with the exponential
    connection (α = 1), the second with the mixture connection (α = −1).
    """
    mat = np.asarray(a, dtype=float)
    n = model.dim
    if n < 2:
        raise ValueError("no admissible involution exists in dimension 1 (only ±identity)")
    if mat.shape != (n, n):
        raise ValueError(f"involution must be {n}x{n}, got {mat.shape}")
    eye = np.eye(n)
    if not np.allclose(mat @ mat, eye, atol=1e-12):
        raise ValueError("matrix is not an involution (a @ a != identity)")
    if np.allclose(mat, eye, atol=1e-12) or np.allclose(mat, -eye, atol=1e-12):
        raise ValueError("involution must differ from plus or minus the identity")
    constant = ExpressionField.constant(mat, model.chart.coord_names)
    return constant, AdjointStructure(model.fisher, constant)
