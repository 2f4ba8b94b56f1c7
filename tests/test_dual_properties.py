"""Properties of the dual geometry on random positive-definite metrics with
random connections, through ManifoldSpec and the batched checks.

A metric is g = L Lᵀ + Id with random coordinate-dependent entries in L, so
it is positive definite on the whole chart; the connection has random,
non-symmetric coefficients.  Both properties hold for any connection and
its conjugate (Amari & Nagaoka, Methods of Information Geometry, 2000):
(∇*)* = ∇, and g(R(X,Y)Z, W) + g(Z, R*(X,Y)W) = 0.
"""

import pytest

from statgeom.geometry import (
    ChartSpec,
    ExpressionField,
    ManifoldSpec,
    MetricField,
    check_conjugate_involution,
    check_dual_curvature_identity,
    sample_points,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOLERANCE = 1e-10
COEFFICIENT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def manifolds(draw):
    n = draw(st.sampled_from((2, 3)))
    coords = tuple(f"x{i}" for i in range(n))

    def c():
        return repr(draw(COEFFICIENT))

    lower = [[f"({c()})*{coords[(i + j) % n]} + ({c()})*sin({coords[(i + 2 * j + 1) % n]}) + ({c()})"
              for j in range(n)] for i in range(n)]
    metric = [[" + ".join([f"({lower[i][k]})*({lower[j][k]})" for k in range(n)]
                          + (["1"] if i == j else []))
               for j in range(n)] for i in range(n)]
    connection = [[[f"({c()})*{coords[k]}*{coords[i]} + ({c()})*cos({coords[j]}) + ({c()})"
                    for j in range(n)] for i in range(n)] for k in range(n)]
    chart = ChartSpec(coords, ((-1.0, 1.0),) * n, seed=draw(st.integers(0, 2**16)))
    return ManifoldSpec(chart, MetricField.from_strings(coords, metric),
                        ExpressionField.from_strings(coords, connection))


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(manifolds())
def test_conjugation_is_an_involution(spec):
    result = check_conjugate_involution(spec, sample_points(spec.chart, 10), TOLERANCE)
    assert result.passed, result


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(manifolds())
def test_dual_curvature_identity(spec):
    result = check_dual_curvature_identity(spec, sample_points(spec.chart, 10), TOLERANCE)
    assert result.passed, result
