#!/usr/bin/env python3
"""Coordinate expressions with exact first and second derivatives.

Every geometric field in statgeom is built from parsed expressions, so the
whole pipeline (metric -> connection -> curvature) differentiates exactly,
with finite differences kept purely as an independent cross-check.
"""

import numpy as np

from statgeom import fd_check, format_expression, parse_expression
from statgeom.expr import eval2_points

# A metric component of the curved half-plane family: eps*k / y^2.
field = parse_expression("e*k/(y*y)", ("x", "y"), {"e": 1.0, "k": 2.0})
point = np.array([0.3, 0.5])

# Jets come in batches of points (here a batch of one): values, gradients, Hessians.
value, grad, hess = (part[0] for part in eval2_points(field, point[None]))
print("value     :", value)
print("gradient  :", grad + 0.0)  # + 0.0 prints the exact zero ∂/∂x as 0., not -0.
print("hessian   :\n", hess)
print("hessian is exactly symmetric:", (hess == hess.T).all())

# The derivative tower is also available symbolically: each differentiate()
# call returns a new field, so second derivatives of derived fields stay exact.
dy = field.differentiate(1)
print("\nd/dy as an expression:", format_expression(dy))
print("d/dy at the point    :", dy(point), "(expected -2*e*k/y^3 =", -2 * 2.0 / 0.5**3, ")")

# Central differences are the oracle, never the implementation.
report = fd_check(field, point, h=1e-4)
print("\nfinite-difference deviation (gradient):", report.grad_residual)
print("finite-difference deviation (hessian) :", report.hess_residual)

# Round trip: printing and reparsing preserves evaluation bit for bit.
reparsed = parse_expression(format_expression(field), ("x", "y"))
print("\nround-trip bitwise equal:", reparsed(point) == field(point))
