#!/usr/bin/env python3
"""Almost product structures, their metric adjoints, and the flatness result.

A para-product certification bundles three facts: the connection is
statistical, P squares to the identity without being +/-Id, and P is parallel.
When on top of that the curvature has constant-curvature form in dimension
other than two, it must vanish outright; the flat pair fixture exercises the
whole chain, and a curved fixture shows the NOT-APPLICABLE branch.  Every
check takes the manifold (g, nabla, P), which owns its adjoint P*.
"""

from statgeom import (
    build_context,
    check_pairing_identities,
    check_para_kahler_like,
    check_space_form,
    conjugate_parallelism_check,
    parse_manifest,
    sample_points,
    verify_flatness_theorem,
)
from statgeom.fixtures import curved_product_manifest, flat_product_manifest

flat = build_context(parse_manifest(flat_product_manifest(2, 2.0, (1.0, 1.0)))).manifold
points = sample_points(flat.chart, 25)

certification = check_para_kahler_like(flat, points)
print("flat fixture certifies:", certification.passed)

# The negative adjoint P* rescales the swap by k and 1/k.
star = flat.adjoint
print("P* on the first pair:\n", star.value(points[0])[:2, :2])
print("adjoint identities:", check_pairing_identities(flat, points).passed)
print("P parallel iff P* parallel for the conjugate:",
      conjugate_parallelism_check(flat, points).passed)

# Space-form shape with c = 0 is exactly flatness; c = 1 cannot match.
print("space form, c=0:", check_space_form(flat, 0.0, points).passed)
print("space form, c=1:", check_space_form(flat, 1.0, points).passed)

outcome = verify_flatness_theorem(flat, points)
print("\nflatness theorem on the 4-dimensional flat fixture:", outcome.status,
      "| fitted constant:", outcome.details["constant"])

# The curved two-pair fixture certifies but has genuinely curved connection,
# so the constant-curvature hypothesis fails and the verdict is N/A, not FAIL.
curved = build_context(parse_manifest(curved_product_manifest(2, 1.0, 1.0, (1.0, 1.0)))).manifold
curved_points = sample_points(curved.chart, 25)
outcome = verify_flatness_theorem(curved, curved_points)
print("flatness theorem on the curved fixture  :", outcome.status, "|", outcome.reason)
