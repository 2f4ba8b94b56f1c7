"""Shared fixture builders and independent finite-difference oracles.

The oracles deliberately avoid the exact-derivative path they check: they
recompute connection coefficients and curvature from central differences of
lower-order quantities.
"""

import numpy as np

from statgeom import build_context, parse_manifest
from statgeom.fixtures import (
    curved_product_manifest,
    flat_product_manifest,
    submersion_manifest,
)
from statgeom.geometry import PointJets, curvature_tensor

# The checks of the benchmark's curvature workload: every check that builds a
# 4-index tensor per point in blocks.
CURVATURE_CHECKS = (
    "statistical_structure", "conjugate_involution", "levi_civita_average",
    "dual_curvature_identity", "flatness", "kurose_constant_curvature", "almost_product",
    "pairing_identities", "product_parallelism", "para_kahler_like", "conjugate_parallelism",
    "space_form", "flatness_theorem",
)


def nonconstant_involution_manifest():
    """A manifest whose product structure P = A J A⁻¹ varies with x, so ∂P ≠ 0.

    A = [[1, x], [0, 1]] conjugates the swap J; the metric is a non-diagonal
    one over the upper half-plane, and ∇ is its Levi-Civita connection.
    """
    return {
        "chart": {"coords": ["x", "y"], "box": [[-0.8, 0.8], [0.5, 2.0]], "seed": 11},
        "metric": [["1/(y*y) + x*x", "x/y"], ["x/y", "2/(y*y)"]],
        "product": [["x", "1 - x*x"], ["1", "0 - x"]],
        "checks": ["statistical_structure", "almost_product", "pairing_identities",
                   "product_parallelism", "para_kahler_like", "conjugate_parallelism",
                   "conjugate_involution", "dual_curvature_identity"],
        "points": 25,
    }


def flat_manifold(pairs=1, k=2.0, epsilons=(1.0,), seed=7):
    """Flat para-product fixture as a ManifoldSpec."""
    data = flat_product_manifest(pairs, k, epsilons, seed=seed)
    return build_context(parse_manifest(data)).manifold


def curved_manifold(pairs=1, k=1.0, l=1.0, epsilons=(1.0,), seed=9):
    """Curved half-plane-power fixture as a ManifoldSpec."""
    data = curved_product_manifest(pairs, k, l, epsilons, seed=seed)
    return build_context(parse_manifest(data)).manifold


def curved_submersion(total_pairs=2, base_pairs=1, k=1.0, l=1.0, epsilons=(1.0, 1.0), seed=11):
    """Coordinate projection between curved fixtures as a SubmersionSpec."""
    data = submersion_manifest(total_pairs, base_pairs, k, l, epsilons, seed=seed)
    return build_context(parse_manifest(data)).submersion


def dense_submersion():
    """1 + 3 dimensions whose metric and connection components all vary, off-diagonal ones too."""
    coords = ["b", "u1", "u2", "u3"]

    def metric_entry(i, j):
        if i == j:
            return f"{3 + i} + 0.2*sin({coords[i]})"
        return f"0.1*cos({coords[min(i, j)]}*{coords[max(i, j)]} + {i + j})"

    return build_context(parse_manifest({
        "chart": {"coords": coords, "box": [[-0.5, 1.0]] * 4, "seed": 7},
        "metric": [[metric_entry(i, j) for j in range(4)] for i in range(4)],
        "connection": [[[f"0.1*{k + 1}*sin({coords[i]} + {j + 1}*{coords[k]}) + 0.05*{coords[j]}"
                         for j in range(4)] for i in range(4)] for k in range(4)],
        "submersion": {"base": {
            "chart": {"coords": ["b"], "box": [[-0.5, 1.0]]},
            "metric": [["1"]],
        }},
        "checks": ["semi_riemannian_submersion"],
    })).submersion


class NaNConnection(PointJets):
    """A connection in dimension ``dim`` whose every coefficient is NaN."""

    def __init__(self, dim):
        self.dim = dim

    def _batch_jets(self, points, full):
        gamma = np.full((len(points),) + (self.dim,) * 3, np.nan)
        return (gamma, np.full((len(points),) + (self.dim,) * 4, np.nan)) if full else (gamma,)


# --------------------------------------------------------------------------
# Finite-difference oracles
# --------------------------------------------------------------------------

def fd_metric_gradient(metric, point, h=1e-5):
    """dG[k,i,j] = ∂_k g_ij by central differences of the metric matrix."""
    p = np.asarray(point, dtype=float)
    n = metric.dim
    out = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        out[k] = (metric.value(p + e) - metric.value(p - e)) / (2.0 * h)
    return out


def fd_levi_civita(metric, point, h=1e-5):
    """Christoffel coefficients rebuilt from finite-difference metric derivatives."""
    g = metric.value(point)
    dg = fd_metric_gradient(metric, point, h)
    ginv = np.linalg.inv(g)
    a = np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg) - dg
    return 0.5 * np.einsum("km,mij->kij", ginv, a)


def fd_connection_jet(connection, point, h=1e-5):
    """dgamma[l,k,i,j] = ∂_l Γ^k_ij by central differences of the coefficients."""
    p = np.asarray(point, dtype=float)
    n = connection.dim
    gamma = connection.value(p)
    out = np.empty((n,) + gamma.shape)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (connection.value(p + e) - connection.value(p - e)) / (2.0 * h)
    return out


def fd_curvature(connection, point, h=1e-5):
    """Curvature with ∂Γ replaced by the finite-difference jet."""
    gamma = connection.value(point)
    return curvature_tensor(gamma, fd_connection_jet(connection, point, h))


def relative_deviation(candidate, reference):
    """max |a − b| / (1 + |b|), the oracle-agreement measure used throughout."""
    a = np.asarray(candidate, dtype=float)
    b = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))
