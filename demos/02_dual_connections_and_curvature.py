#!/usr/bin/env python3
"""Conjugate connections, curvature tensors, and constant-curvature detection.

The running example is the curved pair manifold {y != 0} with metric
eps/y^2 (k dx^2 - l dy^2) and its non-metric statistical connection.  Its
conjugate has closed-form coefficients, conjugation is an involution, and the
pair averages to the Levi-Civita connection.  The manifold owns its conjugate
(``manifold.conjugate``) and its Levi-Civita connection, and every check takes
the manifold itself.
"""

import numpy as np

from statgeom import (
    ConjugateConnection,
    build_context,
    check_dual_curvature_identity,
    check_statistical_structure,
    fit_kurose_constant,
    parse_manifest,
    sample_points,
    sectional_curvature,
    statistical_curvature_at,
)
from statgeom.fixtures import curved_product_manifest
from statgeom.geometry import curvature_tensor

manifold = build_context(parse_manifest(curved_product_manifest(1, 1.0, 1.0, (1.0,)))).manifold
points = sample_points(manifold.chart, 25)
g, nabla = manifold.metric, manifold.connection

print("statistical structure:", check_statistical_structure(manifold, points).passed)

star = manifold.conjugate
point = np.array([0.0, 1.0])
print("Gamma^y_xx   =", nabla.value(point)[1, 0, 0])
print("Gamma*^y_xx  =", star.value(point)[1, 0, 0])

double = ConjugateConnection(g, star)
print("involution residual:",
      np.max(np.abs(double.value(point) - nabla.value(point))))

mid = manifold.levi_civita_connection
average = nabla.value(point) + star.value(point) - 2.0 * mid.value(point)
print("Gamma + Gamma* - 2 Gamma0 residual:", np.max(np.abs(average)))

# Curvature of the primary connection and the duality pairing with R*.
r = curvature_tensor(*nabla.jet(point))
print("\nR^y_xyx =", r[1, 0, 1, 0])
print("dual curvature identity:",
      check_dual_curvature_identity(manifold, points).passed)

# With k = l the connection has constant-curvature form; the fit recovers the
# constant and the sectional curvature of S agrees with it on any plane.
fit = fit_kurose_constant(manifold, points)
print("\nconstant-curvature fit: constant =", fit.details["constant"], " residual =", fit.residual)
section = sectional_curvature(manifold, point, [1.0, 0.2], [-0.3, 1.0])
print("sectional curvature of a sample plane:", section)
s = statistical_curvature_at(manifold, point)
print("S is skew in its first slots:", (s == -np.einsum("lijk->ljik", s)).all())
