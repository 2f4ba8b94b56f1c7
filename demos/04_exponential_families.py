#!/usr/bin/env python3
"""Fisher geometry of exponential families and the alpha-connection family.

For an exponential family the Fisher metric is the Hessian of the
log-partition potential in natural coordinates, and the alpha-connections
form a dual family: conjugating the alpha-connection gives the (-alpha)-one,
alpha = 0 recovers the metric connection, and alpha = 1 is flat.  Constant
involutions then generate a pair of certified para-product structures.
"""

import numpy as np

from statgeom import (
    AlphaConnection,
    ManifoldSpec,
    builtin_model,
    check_para_kahler_like,
    conjugate_connection,
    exp_para_structures,
    levi_civita,
    sample_points,
)
from statgeom.geometry import curvature_tensor

model = builtin_model("dirichlet", dim=2)
metric = model.fisher
points = sample_points(model.chart, 25)

print("model:", model.name, "| natural-parameter box:", model.chart.domain)
print("Fisher metric at (1, 1):\n", metric.value([1.0, 1.0]))

for alpha in (-1.0, 0.0, 1.0):
    connection = AlphaConnection(metric, alpha)
    flatness = np.max(np.abs(curvature_tensor(*connection.jets(points))))
    print(f"alpha={alpha:+.0f}: max |curvature| over samples = {flatness:.3e}")

# Duality: the conjugate of the alpha-connection is the (-alpha)-connection.
alpha = 0.5
dual = conjugate_connection(metric, AlphaConnection(metric, alpha))
mirror = AlphaConnection(metric, -alpha)
gap = max(np.max(np.abs(dual.value(p) - mirror.value(p))) for p in points)
print(f"\nconjugate(alpha={alpha}) vs alpha={-alpha}: max deviation {gap:.3e}")

mid = levi_civita(metric)
zero = AlphaConnection(metric, 0.0)
gap = max(np.max(np.abs(zero.value(p) - mid.value(p))) for p in points)
print(f"alpha=0 vs Levi-Civita: max deviation {gap:.3e}")

# Companion structures from an involution: the constant one pairs with the
# flat exponential connection, its metric twist with the mixture connection.
constant, twisted = exp_para_structures(model, [[1.0, 0.0], [0.0, -1.0]])
exponential_side = ManifoldSpec(model.chart, metric, AlphaConnection(metric, 1.0), constant)
mixture_side = ManifoldSpec(model.chart, metric, AlphaConnection(metric, -1.0), twisted)
exponential = check_para_kahler_like(exponential_side, points)
mixture = check_para_kahler_like(mixture_side, points)
print("\nexponential-side certification:", exponential.passed)
print("mixture-side certification    :", mixture.passed)

adjoint = exponential_side.adjoint
gap = max(np.max(np.abs(twisted.value(p) - adjoint.value(p))) for p in points)
print("twisted structure equals the adjoint of the constant one:", gap <= 1e-12)
