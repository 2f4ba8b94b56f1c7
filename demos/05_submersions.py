#!/usr/bin/env python3
"""Statistical submersions: projectors, fundamental tensors, and fibers.

Dropping the trailing coordinate pair of the curved four-dimensional fixture
onto its leading pair is a statistical submersion compatible with the product
structures.  The fundamental tensors T and A measure the fiber second
fundamental form and the horizontal non-integrability; here the fibers are
isometric (T = 0) and the horizontal distribution integrable (A = 0).
"""

import numpy as np

from statgeom import (
    build_context,
    check_fundamental_tensor_identities,
    check_para_holomorphic,
    check_para_kahler_like,
    check_semi_riemannian_submersion,
    check_statistical_submersion,
    induced_fiber_manifold,
    parse_manifest,
    sample_points,
    verify_submersion_theorems,
)
from statgeom.fixtures import submersion_manifest

spec = build_context(parse_manifest(submersion_manifest(2, 1, 1.0, 1.0, (1.0, 1.0)))).submersion
points = sample_points(spec.total.chart, 25)
point = points[0]

# The projector, the basic lifts and T, A, T*, A* are fields of the spec, each an array per point.
print("vertical projector diagonal:", np.diag(spec.vertical.jet(point)[0]))
print("scalar products preserved :", check_semi_riemannian_submersion(spec, points).passed)
print("connections push forward  :", check_statistical_submersion(spec, points).passed)
print("structures intertwine     :", check_para_holomorphic(spec, points).passed)

# Fundamental tensors on the vertical pair U = ∂_2 and on the basic lift X of ∂_0.
t_uu = spec.tensors["t"].value(point)[:, 2, 2]
x = spec.lifts.value(point)[:, 0]
a_xx = np.einsum("kij,i,j->k", spec.tensors["a"].value(point), x, x)
print("\n|T(U,U)| =", np.max(np.abs(t_uu)), " (isometric fibers)")
print("|A(X,X)| =", np.max(np.abs(a_xx)), " (integrable horizontal space)")
identities = check_fundamental_tensor_identities(spec, points)
print("fundamental tensor identities:", identities.passed, identities.details)

# The fiber inherits metric, connection and structure, and certifies itself.
fiber_points = sample_points(spec.fiber.chart, 25)
fiber = induced_fiber_manifold(spec, fiber_points)
print("\nfiber dimension:", fiber.chart.dim, "| coordinates:", fiber.chart.coord_names)
print("fiber certifies:", check_para_kahler_like(fiber, fiber_points).passed)

print("\nstructure-transfer report:")
for name, item in verify_submersion_theorems(spec, points).items():
    line = f"  {name:28s} {item.status}"
    if item.reason:
        line += f"  ({item.reason})"
    print(line)
