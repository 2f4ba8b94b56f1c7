"""A symbolic oracle: sympy derives Γ, ∇* and the curvatures R and R* from a
fixture's manifest strings, and P* with ∂P* from a varying product structure,
and the package's exact jets must match them at the golden sample points."""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from conftest import nonconstant_involution_manifest
from statgeom import build_context, load_fixture, parse_manifest, sample_points
from statgeom.geometry import curvature_tensor

FIXTURES = ("example_5_2_n1", "example_5_3_k1_l2", "example_5_6_k1_l1")
RELATIVE_TOLERANCE = 1e-12
_FUNCTIONS = {"exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt,
              "sin": sympy.sin, "cos": sympy.cos, "lgamma": sympy.loggamma}


def _parse_grid(entries, names):
    """The nested lists of expression strings as a sympy array; ``^`` is a power."""
    transformations = standard_transformations + (convert_xor,)
    flat = [parse_expr(text, local_dict=names, transformations=transformations)
            for text in np.ravel(entries)]
    return sympy.MutableDenseNDimArray(flat, np.shape(entries))


def _conjugate(g, ginv, gamma, coords):
    """Γ*^k_ij = g^kl (∂_i g_jl − Γ^m_il g_jm), from X g(Y, Z) = g(∇*_X Y, Z) + g(Y, ∇_X Z)."""
    n = len(coords)
    star = sympy.MutableDenseNDimArray.zeros(n, n, n)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                star[k, i, j] = sum(
                    ginv[k, l] * (sympy.diff(g[j, l], coords[i])
                                  - sum(gamma[m, i, l] * g[j, m] for m in range(n)))
                    for l in range(n))
    return star


def _curvature(gamma, coords):
    """R[l,i,j,k] = ∂_i Γ^l_jk − ∂_j Γ^l_ik + Γ^m_jk Γ^l_im − Γ^m_ik Γ^l_jm."""
    n = len(coords)
    r = sympy.MutableDenseNDimArray.zeros(n, n, n, n)
    for l, i, j, k in np.ndindex(n, n, n, n):
        r[l, i, j, k] = (sympy.diff(gamma[l, j, k], coords[i]) - sympy.diff(gamma[l, i, k], coords[j])
                         + sum(gamma[m, j, k] * gamma[l, i, m] - gamma[m, i, k] * gamma[l, j, m]
                               for m in range(n)))
    return r


def _evaluate(array, coords, points):
    """The sympy array at every point, as float64 with a leading point axis."""
    function = sympy.lambdify(coords, sympy.flatten(array.tolist()), modules="math", cse=True)
    return np.array([function(*point) for point in points.tolist()],
                    dtype=float).reshape((len(points),) + array.shape)


def _assert_matches(name, package, symbolic):
    scale = 1.0 + np.max(np.abs(symbolic))
    deviation = np.max(np.abs(package - symbolic))
    assert deviation <= RELATIVE_TOLERANCE * scale, (name, deviation, scale)


@pytest.mark.parametrize("fixture_id", FIXTURES)
def test_exact_jets_match_sympy(fixture_id):
    manifest = load_fixture(fixture_id)
    context = build_context(manifest)
    spec = context.manifold if context.submersion is None else context.submersion.total
    points = sample_points(context.chart, manifest.points)
    assert points.shape == (25, spec.metric.dim)

    data = manifest.data
    coords = sympy.symbols(data["chart"]["coords"])
    names = dict(zip(data["chart"]["coords"], coords))
    names.update({key: sympy.Rational(value) for key, value in data.get("params", {}).items()})
    names.update(_FUNCTIONS)
    g = sympy.Matrix(_parse_grid(data["metric"], names).tolist())
    gamma = _parse_grid(data["connection"], names)
    gamma_star = _conjugate(g, g.inv(), gamma, coords)

    connection, conjugate = spec.resolved_connection, spec.conjugate
    _assert_matches("Γ", connection.values(points), _evaluate(gamma, coords, points))
    _assert_matches("Γ*", conjugate.values(points), _evaluate(gamma_star, coords, points))
    _assert_matches("R", curvature_tensor(*connection.jets(points)),
                    _evaluate(_curvature(gamma, coords), coords, points))
    _assert_matches("R*", curvature_tensor(*conjugate.jets(points)),
                    _evaluate(_curvature(gamma_star, coords), coords, points))


def test_adjoint_jets_match_sympy():
    """P* = −G⁻¹ Pᵀ G and ∂P* for a product structure that varies over the chart."""
    data = nonconstant_involution_manifest()
    spec = build_context(parse_manifest(data)).manifold
    points = sample_points(spec.chart, data["points"])

    coords = sympy.symbols(data["chart"]["coords"])
    names = dict(zip(data["chart"]["coords"], coords))
    g = sympy.Matrix(_parse_grid(data["metric"], names).tolist())
    p = sympy.Matrix(_parse_grid(data["product"], names).tolist())
    p_star = -g.inv() * p.T * g
    n = len(coords)
    d_p_star = sympy.MutableDenseNDimArray(
        [sympy.diff(p_star[a, b], coord) for coord in coords for a in range(n) for b in range(n)],
        (n, n, n))

    package, d_package = spec.adjoint.jets(points)
    _assert_matches("P*", package, _evaluate(sympy.Array(p_star.tolist()), coords, points))
    _assert_matches("∂P*", d_package, _evaluate(d_p_star, coords, points))
